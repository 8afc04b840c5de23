"""Immutable simple undirected graphs on dense integer vertex ids.

Vertices are always 0..n-1. A graph is a frozen dataclass that keeps one
neighbor bitmask per vertex and nothing else, as the tuple ``masks``; sorted
neighbor tuples, degrees and edges are derived from the masks on each call.
Graphs copy and pickle; all operations are pure and return new graphs.

``Graph(n, masks)`` checks the masks it is given. The graphs this module
derives (:func:`from_edge_list`, :func:`square`, :func:`complement`,
:func:`induced_subgraph`) are valid by construction and are not
re-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """A simple undirected graph: no loops, no multi-edges, ids 0..n-1.

    ``Graph(n, masks)`` keeps one neighbor bitmask per vertex (bit u of
    masks[v] set iff v~u), readable as the tuple ``masks``, and checks that
    they describe a simple graph; :func:`from_edge_list` builds one from
    edges. Callers index ``masks`` directly and iterate ``range(n)``. A
    frozen dataclass: graphs with equal masks are equal and hash equal,
    refuse assignment, and copy and pickle without being re-checked.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        """Check that the masks are in range, loop-free and symmetric."""
        n, masks = self.n, tuple(self.masks)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if len(masks) != n:
            raise ValueError(f"adjacency has {len(masks)} rows for n={n}")
        for v, mask in enumerate(masks):
            if not isinstance(mask, int):
                raise ValueError(f"neighbor mask {mask!r} at vertex {v} is not an int")
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
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _built(cls, masks: tuple[int, ...]) -> Graph:
        """A graph on masks that are valid by construction; nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(masks))
        object.__setattr__(g, "masks", masks)
        return g

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted open neighborhood of v."""
        return _mask_to_tuple(self.masks[v])

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def closed_mask(self, v: int) -> int:
        """Closed neighborhood N[v] as a bitmask."""
        return self.masks[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending lexicographic order."""
        for u, mask in enumerate(self.masks):
            for v in _mask_to_tuple(mask >> u << u):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

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
        import logging  # only here, so that importing perfcode loads no logging
        logging.getLogger(__name__).warning("collapsed %d duplicate edge(s)", duplicates)
    return Graph._built(tuple(masks))


def square(g: Graph) -> Graph:
    """The square: same vertices, u~v iff their distance in g is 1 or 2, row by row."""
    full = (1 << g.n) - 1
    return Graph._built(tuple([_square_row(g.masks, v, full) for v in range(g.n)]))


def _square_row(masks, v: int, full: int) -> int:
    """Row v of the square of the graph with neighbor masks `masks`.

    ORs the rows of v's neighbors, in ascending id, into v's reach, and
    stops once the reach is `full` (all n vertices, or v's component): on a
    dense graph of diameter 2, after a few rows, not one per neighbor.
    """
    reach = rest = masks[v]
    while rest:
        low = rest & -rest
        reach |= masks[low.bit_length() - 1]
        if reach == full:
            break
        rest ^= low
    return reach & ~(1 << v)


def closed_neighborhood_weights(g: Graph) -> tuple[int, ...]:
    """Per-vertex |N[v]| = degree + 1."""
    return tuple([mask.bit_count() + 1 for mask in g.masks])


def complement(g: Graph) -> Graph:
    """Edge u~v in the output iff u != v and u~v not in g; involutive."""
    full = (1 << g.n) - 1
    # A list first: tuple() over a generator grows by resizing, which left
    # the heap fragmented enough to raise campaign peak RSS by about 6%.
    return Graph._built(tuple([full ^ mask ^ (1 << v) for v, mask in enumerate(g.masks)]))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by the given vertex set.

    The new graph relabels the (deduplicated, sorted) vertex set to 0..k-1,
    in order. Each row is compressed bit by bit: every kept vertex's old id
    maps to its new position bit, and one walk over the row's bits inside
    the kept set ORs them together.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    position = [0] * g.n
    inside = 0
    for new, old in enumerate(keep):
        position[old] = 1 << new
        inside |= 1 << old
    nbr = g.masks
    masks = []
    for old in keep:
        row = nbr[old] & inside
        mask = 0
        while row:
            low = row & -row
            row ^= low
            mask |= position[low.bit_length() - 1]
        masks.append(mask)
    return Graph._built(tuple(masks))


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex partition into connected components.

    Components are sorted by their smallest vertex; each is a sorted tuple.
    """
    nbr = g.masks
    components = []
    rest = (1 << g.n) - 1
    while rest:
        mask = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            fresh = nbr[low.bit_length() - 1] & ~mask
            mask |= fresh
            frontier = (frontier ^ low) | fresh
        rest ^= mask
        components.append(_mask_to_tuple(mask))
    return components


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


def complete_sun(k: int) -> Graph:
    """Complete k-sun for k >= 3: a clique 0..k-1, plus outer vertex k+i seeing i, i+1.

    The complete 4-sun is the standard witness that squaring a chordal
    graph can create an induced C4.
    """
    if k < 3:
        raise ValueError("sun needs at least 3 clique vertices")
    edges = list(combinations(range(k), 2))
    for i in range(k):
        edges.append((i, k + i))
        edges.append(((i + 1) % k, k + i))
    return from_edge_list(2 * k, edges)
