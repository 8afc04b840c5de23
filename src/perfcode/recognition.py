"""Forbidden-induced-subgraph detection and graph-class recognition.

Patterns are identified by kind strings: fixed shapes ("P6", "C4", "house",
"domino", "bull", ...), general cycles ("Ck" for any k >= 3) and antiholes
("co-Ck", the complement of a k-cycle), each built as a :class:`Graph` by
:func:`pattern_graph`. Every search returns an ordered witness whose induced
adjacency realizes the pattern under that order, or None; searches are
deterministic (ascending-id enumeration throughout).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .graph import (
    Graph, _mask_to_tuple, _square_row, complement, cycle_graph, from_edge_list, path_graph,
)

CLASS_TAGS = ("(P6,HHD)-free", "(P6,house)-free", "(P6,bull)-free", "P6-free", "chordal")

# Forbidden patterns per class tag; (P6,HHD)-free is tested through its
# finite-pattern equivalent (P6, C5, C6, house, domino)-free.
_CLASS_PATTERNS = {
    "(P6,HHD)-free": ("P6", "C5", "C6", "house", "domino"),
    "(P6,house)-free": ("P6", "house"),
    "(P6,bull)-free": ("P6", "bull"),
    "P6-free": ("P6",),
}


@dataclass(frozen=True)
class PatternWitness:
    """An ordered vertex tuple inducing the named pattern."""

    kind: str
    vertices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}[{' '.join(str(v) for v in self.vertices)}]"


@dataclass(frozen=True)
class ClassReport:
    """Membership verdict for one graph class, with all violating witnesses."""

    class_tag: str
    member: bool
    violations: tuple[PatternWitness, ...]


def pattern_graph(kind: str) -> Graph:
    """A named pattern as a graph on ids 0..k-1, in witness order."""
    if kind.startswith("P") and kind[1:].isdigit():
        k = int(kind[1:])
        if k < 1:
            raise ValueError(f"bad path pattern {kind!r}")
        return path_graph(k)
    if kind.startswith("C") and kind[1:].isdigit():
        k = int(kind[1:])
        if k < 3:
            raise ValueError(f"bad cycle pattern {kind!r}")
        return cycle_graph(k)
    if kind.startswith("co-C") and kind[4:].isdigit():
        k = int(kind[4:])
        if k < 5:
            raise ValueError(f"bad antihole pattern {kind!r}")
        return complement(cycle_graph(k))
    if kind == "house":
        # 5-cycle 0-1-2-3-4 with the chord 2-4: each position sees an earlier one
        return from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 4)])
    if kind == "domino":
        # path 0-1-2-3-4 plus a vertex 5 seeing 0, 2 and 4
        return from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (2, 5), (4, 5)])
    if kind == "bull":
        # triangle 0-1-2 with pendants 3 at 0 and 4 at 1
        return from_edge_list(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    raise ValueError(f"unknown pattern kind {kind!r}")


def witness_is_valid(g: Graph, witness: PatternWitness) -> bool:
    """Direct adjacency-table check that the witness realizes its pattern."""
    pattern = pattern_graph(witness.kind)
    k, verts = pattern.n, witness.vertices
    if len(verts) != k or len(set(verts)) != k or any(not 0 <= v < g.n for v in verts):
        return False
    return all(
        g.adjacent(verts[i], verts[j]) == pattern.adjacent(i, j)
        for i, j in combinations(range(k), 2)
    )


#: The lex-leader pairs of the fixed shapes, one per automorphism != id:
#: the house's reflection; the domino's reflections and their product;
#: the bull's reflection.
_FIXED_LEX_LEADER_PAIRS = {
    "house": {(0, 1)},
    "domino": {(0, 1), (0, 3), (0, 4)},
    "bull": {(0, 1)},
}


def _lex_leader_pairs(kind: str) -> frozenset[tuple[int, int]]:
    """The pairs (i, p), i < p, with at[i] < at[p] in the orbit-least embedding.

    For an automorphism s != id of the pattern, let i be the first position
    s moves; then s(i) > i, and the embedding (at[s(0)], ..., at[s(k-1)])
    agrees with `at` before i, so `at` is the least of its automorphism
    orbit exactly when at[i] < at[s(i)] for every such s (the lex-leader
    constraints of Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking
    predicates for search problems", KR 1996). The path and cycle families,
    whose length callers choose, have closed forms.
    """
    k = pattern_graph(kind).n
    if kind.startswith("P"):
        # the reversal
        return frozenset({(0, k - 1)} if k > 1 else ())
    if kind.startswith(("C", "co-C")):
        # rotations and the reflections that move 0, then the one fixing 0
        return frozenset({(0, p) for p in range(1, k)} | {(1, k - 1)})
    return frozenset(_FIXED_LEX_LEADER_PAIRS[kind])


@lru_cache(maxsize=32)
def _constraint_table(kind: str) -> tuple[tuple[tuple, ...], ...]:
    """Per position i, the (p, adjacent?, ordered?) triple for every later position p.

    `ordered` marks the lex-leader pairs of :func:`_lex_leader_pairs`, where p
    must exceed the vertex at i. Bounded: callers choose any path or cycle length.
    """
    pattern, ordered = pattern_graph(kind), _lex_leader_pairs(kind)
    k = pattern.n
    return tuple(
        tuple((p, pattern.adjacent(i, p), (i, p) in ordered) for p in range(i + 1, k))
        for i in range(k)
    )


def _embeddings(g: Graph, kind: str) -> Iterator[tuple[int, ...]]:
    """The least induced embedding in each automorphism orbit, in lexicographic order.

    Iterative depth-first search over pattern positions with forward
    checking. Every position keeps its candidates as a bitmask: the
    unused vertices adjacent to each placed position the pattern joins it
    to, nonadjacent to every other placed position, and above at[i] for
    each lex-leader pair (i, p) of :func:`_lex_leader_pairs`. Placing a
    vertex narrows the masks of all later positions, and is undone at once
    if one of them empties. Candidates are tried lowest id first, so
    embeddings come out as ascending tuples.

    Those pairs hold exactly for the embeddings that are least in their
    orbit under the pattern's automorphisms, so each orbit comes out once
    (one of the 10 orientations of a C5, say). The least embedding of all
    is least in its orbit too, so the first one yielded is still the
    least embedding of the pattern.
    """
    table = _constraint_table(kind)
    k = len(table)
    if g.n < k:
        return
    masks = g.masks
    full = (1 << g.n) - 1
    at = [0] * k
    # cands[i][p]: candidates for position p given the placements before i;
    # cands[i][i] also drops the ones already tried.
    cands = [[full] * k for _ in range(k)]
    i = 0
    while i >= 0:
        row = cands[i]
        cand = row[i]
        if not cand:
            i -= 1
            continue
        low = cand & -cand
        row[i] = cand ^ low
        v = low.bit_length() - 1
        at[i] = v
        if i + 1 == k:
            yield tuple(at)
            continue
        seen = masks[v]
        unseen = ~(seen | low)
        nxt = cands[i + 1]
        for p, adjacent, ordered in table[i]:
            narrowed = row[p] & (seen if adjacent else unseen)
            if ordered:
                narrowed &= -(low << 1)
            if not narrowed:
                break
            nxt[p] = narrowed
        else:
            i += 1


def find_pattern(g: Graph, kind: str) -> PatternWitness | None:
    """Least induced embedding of any kind :func:`pattern_graph` builds, or None.

    The first embedding :func:`_embeddings` yields: that search keeps one
    embedding per automorphism orbit, the least, so the least of all is
    among them. Every position after the first sees an earlier one, except in
    "co-Ck": position 1 misses 0, so ``find_pattern(g, "co-C7")`` tries every
    non-adjacent pair, quadratic on sparse graphs; use :func:`find_odd_antihole`.
    """
    first = next(_embeddings(g, kind), None)
    return None if first is None else PatternWitness(kind, first)


# -- chordality ---------------------------------------------------------------

def _lexbfs(g: Graph, check: bool, rows: list | None = None) -> tuple[list[list], list[int]]:
    """The LexBFS loop of :func:`lexbfs_order`; checked, the one source of elimination orders.

    :func:`is_chordal`, :func:`is_class_member`,
    :func:`~perfcode.mwis.mwis_chordal` and :func:`~perfcode.solver.solve`
    all run it with `check`. Returns the parts and the `seen` masks. The
    parts hold one ``[mask, order, failed]`` entry per connected
    component, in the order of :func:`~perfcode.graph.connected_components`:
    None, its visit order and None. A visit whose cell has no visited
    member (``last == -1``) has no visited neighbor, so it starts the next
    component; LexBFS finishes a component before it leaves it, and starts
    the next at the least unvisited vertex, so each order is the LexBFS
    order of the induced component, ids mapped back.

    With `check`, ``seen[v]`` is the bitmask of v's neighbors visited
    before v (0 without `check`): on a chordal component, v's later
    neighbors in the perfect elimination order. A component whose visit v
    fails the parent check becomes ``[mask, None, v]``, the only kind of
    part with a vertex bitmask; v's visited neighbors are ``seen[v]``. Its
    remaining vertices are dropped at once. At most one cell has
    ``last == -1``, the last one: it holds every unvisited vertex with no
    visited neighbor. Every other unvisited vertex sees a visited one, so
    it lies in this component and is dropped with no row read; a BFS from
    them (and from v's unvisited neighbors) over that last cell finds the
    rest of the component and stops once the cell is used up. The loop
    goes on with the next component, from what is left of that cell.
    Given `rows`, it runs on the square of g, with row v in ``rows[v]``,
    filled in place if None at the first visit that reads it; the BFS runs
    over ``g.masks`` either way, as g and its square share components.
    """
    n = g.n
    nbr = g.masks if rows is None else rows
    full = (1 << n) - 1
    # Cell c holds the vertices in members[c]; the list runs from head
    # along nxt[c] (and back along prv[c]), -1 ending it. Ids are not reused.
    members = [full] if n else []
    nxt, prv, last = [-1], [-1], [-1]
    cell_of = [0] * n
    head = 0 if n else -1
    unvisited = full
    parts = []
    seen_of = [0] * n
    while head >= 0:
        first = members[head] & -members[head]
        members[head] ^= first
        unvisited ^= first
        v = first.bit_length() - 1
        p = last[head]
        if not members[head]:
            head = nxt[head]
            if head >= 0:
                prv[head] = -1
        row = nbr[v]
        if row is None:
            row = nbr[v] = _square_row(g.masks, v, full)
        nb = row & unvisited
        if p < 0:
            order = [v]
            start = unvisited | first
            parts.append([None, order, None])
        else:
            order.append(v)
            if check:
                # v's visited neighbors, p among them: all but p must see p
                seen = seen_of[v] = row ^ nb
                if seen & nbr[p] != seen ^ (1 << p):
                    reached, c = nb, head
                    while c >= 0 and last[c] >= 0:
                        reached |= members[c]
                        c = nxt[c]
                    rest = members[c] & ~nb if c >= 0 else 0
                    frontier = reached
                    while frontier and rest:
                        low = frontier & -frontier
                        fresh = g.masks[low.bit_length() - 1] & rest
                        rest ^= fresh
                        reached |= fresh
                        frontier = (frontier ^ low) | fresh
                    unvisited ^= reached
                    parts[-1][:] = start ^ unvisited, None, v
                    # What is left sees no visited vertex: it is all in the last cell.
                    if unvisited:
                        head = c
                        members[head] = unvisited
                        prv[head] = -1
                    else:
                        head = -1
                    continue
        if nb == unvisited:
            # v sees every unvisited vertex: no cell splits, each is hit
            c = head
            while c >= 0:
                last[c] = v
                c = nxt[c]
            continue
        while nb:
            c = cell_of[(nb & -nb).bit_length() - 1]
            hits = members[c] & nb
            nb ^= hits
            rest = members[c] ^ hits
            if not rest:
                last[c] = v
                continue
            # The new cell k goes next to c and takes the smaller part:
            # the hits just before c, or the rest just after it.
            k = len(members)
            if hits.bit_count() <= rest.bit_count():
                moved, members[c] = hits, rest
                before, after = prv[c], c
                last.append(v)
            else:
                moved, members[c] = rest, hits
                before, after = c, nxt[c]
                last.append(last[c])
                last[c] = v
            members.append(moved)
            nxt.append(after)
            prv.append(before)
            if before >= 0:
                nxt[before] = k
            else:
                head = k
            if after >= 0:
                prv[after] = k
            while moved:
                low = moved & -moved
                moved ^= low
                cell_of[low.bit_length() - 1] = k
    return parts, seen_of


def lexbfs_order(g: Graph) -> tuple[int, ...]:
    """LexBFS visit order; ties broken by smallest id.

    Partition refinement (Habib, McConnell, Paul and Viennot, "Lex-BFS and
    partition refinement", TCS 2000): the unvisited vertices sit in an
    ordered linked list of cells, each a bitmask, and every vertex knows
    its cell. Each step visits the smallest id in the first cell and splits
    every cell that holds an unvisited neighbor of it into (neighbors,
    non-neighbors), in that order. Only the touched cells are visited: each
    one is found from its least remaining neighbor, which also clears all
    of its neighbors at once. A split moves the smaller part to a new cell,
    so a step costs O(degree) bitmask operations and the whole order
    O(n + m) of them.

    The members of a cell have the same visited neighbors, so each cell
    also keeps `last`, the most recently visited of them (-1 for none),
    which is the parent p of whichever member is visited next. This costs
    O(1) per touched cell. The checked pass of :func:`is_chordal`,
    :func:`~perfcode.mwis.mwis_chordal` and :func:`~perfcode.solver.solve`
    runs the same loop once, with the parent check of Tarjan and
    Yannakakis ("Simple linear-time algorithms to test chordality of
    graphs, test acyclicity of hypergraphs, and selectively reduce acyclic
    hypergraphs", SIAM J. Comput. 1984) at each visit v: the reversed
    order is a perfect elimination order iff every visited neighbor of v
    other than p is adjacent to p. It stops a component at its first
    failing vertex, which proves it not chordal and yields the witness, and
    goes on with the next; this function runs the loop to the end.

    A cell with no visited member (`last` = -1) holds only vertices with no
    visited neighbor, so a visit from it starts a new connected component:
    the order runs through the components one after another, in the order
    of :func:`~perfcode.graph.connected_components`, and the part of each
    is the LexBFS order of that induced component, ids mapped back.
    """
    order = []
    for _, part, _ in _lexbfs(g, False)[0]:
        order += part
    return tuple(order)


def is_perfect_elimination_order(g: Graph, order) -> bool:
    """True iff each vertex's later neighbors form a clique."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertex ids")
    nbr = g.masks
    later = 0
    for v in reversed(order):
        rn = nbr[v] & later
        if any(rn & ~(nbr[u] | (1 << u)) for u in _mask_to_tuple(rn)):
            return False
        later |= 1 << v
    return True


def _cycle_from_triple(g: Graph, v: int, u: int, w: int) -> PatternWitness | None:
    """Induced C_{>=4} through v from nonadjacent neighbors u, w, if one exists.

    BFS for a shortest u-w path avoiding N[v] \\ {u, w}; shortest paths are
    induced, and no interior vertex sees v, so closing through v gives a
    chordless cycle.
    """
    nbr = g.masks
    banned = (nbr[v] | (1 << v)) & ~(1 << u) & ~(1 << w)
    parent = {u: None}
    seen = banned | (1 << u)
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            path = []
            while x is not None:
                path.append(x)
                x = parent[x]
            path.reverse()
            return PatternWitness(f"C{len(path) + 1}", (v, *path))
        fresh = nbr[x] & ~seen
        seen |= fresh
        for y in _mask_to_tuple(fresh):
            parent[y] = x
            queue.append(y)
    return None


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | PatternWitness]:
    """Certified chordality test, from one checked LexBFS pass.

    Returns (True, perfect elimination order), the reversed LexBFS order,
    or (False, induced-cycle witness): the first cycle that
    :func:`_cycle_from_triple` closes through the first visit v failing the
    parent check and a nonadjacent pair u < w of its visited neighbors, in
    ascending (u, w) order. Some pair closes one. The visits before v
    passed the check, so by induction each one's visited neighbors form a
    clique, and v is the first vertex whose visited neighbors do not. The
    prefix then v is a LexBFS order of the graph H it induces, whose
    reversal is no perfect elimination order, so H is not chordal (Rose,
    Tarjan and Lueker, SIAM J. Comput. 1976); every chordless cycle of H
    runs through v and two nonadjacent visited neighbors of it, and the rest
    of the cycle is a path the search finds. The AssertionError guards this.
    """
    parts, seen_of = _lexbfs(g, True)
    v = next((failed for _, _, failed in parts if failed is not None), None)
    if v is None:
        # A list first: tuple() over a chain of the parts grows by resizing,
        # which raised campaign peak RSS by about 5%.
        peo = []
        for _, order, _ in reversed(parts):
            peo += reversed(order)
        return True, tuple(peo)
    seen = seen_of[v]
    for u in _mask_to_tuple(seen):
        for w in _mask_to_tuple(seen & ~g.masks[u] & -(2 << u)):
            witness = _cycle_from_triple(g, v, u, w)
            if witness is not None:
                return False, witness
    raise AssertionError("not chordal but no induced cycle found")


# -- holes and antiholes ------------------------------------------------------

def _has_hole(g: Graph) -> bool:
    """True iff the graph has a hole (an induced cycle of length >= 5).

    Polynomial, O(m * (n + m)) bitmask steps. A hole exists iff some edge bc
    has a in N(b) \\ N[c] and d in N(c) \\ N[b], with a and d nonadjacent,
    that both touch one component of G - (N[b] | N[c]): a shortest a-d path
    through that component closes the induced cycle b-a-...-d-c, and any
    four consecutive vertices of a hole give such an induced P4 a-b-c-d.
    (Nikolopoulos and Palios, "Hole and antihole detection in graphs", SODA
    2004, reach O(n + m^2).) Each edge is tried once, b < c; its components
    are labelled by bitmask BFS, ORing each one's neighbors into `touch`.
    """
    nbr = g.masks
    full = (1 << g.n) - 1
    for b in range(g.n):
        closed_b = nbr[b] | (1 << b)
        later = nbr[b] >> (b + 1) << (b + 1)
        while later:
            low = later & -later
            later ^= low
            c = low.bit_length() - 1
            closed_c = nbr[c] | low
            ends_a = nbr[b] & ~closed_c
            ends_d = nbr[c] & ~closed_b
            if not ends_a or not ends_d:
                continue
            rest = full & ~(closed_b | closed_c)
            while rest:
                frontier = rest & -rest
                rest ^= frontier
                touch = 0
                while frontier:
                    reach = 0
                    while frontier:
                        lf = frontier & -frontier
                        frontier ^= lf
                        reach |= nbr[lf.bit_length() - 1]
                    touch |= reach
                    frontier = reach & rest
                    rest ^= frontier
                side_a, side_d = touch & ends_a, touch & ends_d
                while side_a and side_d:
                    la = side_a & -side_a
                    if side_d & ~nbr[la.bit_length() - 1]:
                        return True
                    side_a ^= la
    return False


def _hole_closings(g: Graph, parity: str, min_length: int) -> Iterator[tuple[int, ...]]:
    """Every hole of length >= min_length, once each, in DFS order.

    Callers pass 5 for holes and odd holes, and 7 for the odd holes of a
    complement (odd antiholes). The polynomial test :func:`_has_hole` runs
    first, and a graph without a hole yields nothing at once; the
    exponential DFS below runs only on a graph that has a hole, to produce
    the witnesses.

    Depth-first extension of induced paths anchored at each vertex in
    ascending order; all cycle vertices beyond the anchor must exceed it,
    an extension may see only the current endpoint, and a cycle closes when
    the new vertex x sees the anchor and exceeds the second vertex, so each
    hole comes out once. The first cycle is the one closing both directions
    would give: were it (a, p1, ..., pk, x) with x < p1, the DFS would meet
    its reverse (a, x, pk, ..., p1) earlier, under second vertex x, and that
    passes the same tests (vertices above a, an induced path seen by a only
    at its ends, the same length and parity).

    Each path vertex after the anchor has a frame of two bitmasks on an
    explicit stack, so path length is not bounded by recursion: `banned`,
    the anchor, the path and the neighbors of the interior (the path
    without the anchor and the endpoint), and `cands`, the endpoint's
    neighbors above the anchor and outside `banned` not yet tried, taken
    lowest bit first (ascending ids, as in :func:`_embeddings`). Every
    later vertex of a cycle through the current path lies above the anchor
    and outside `banned`. Three cuts drop only branches that yield nothing:

    1. The anchors stop at the first one with fewer than min_length - 1
       vertices above it; every later one has fewer.
    2. A second vertex v2 is skipped when the anchor has no neighbor above
       it, since the closing vertex must exceed v2 (it is then the anchor's
       last neighbor, so the anchor is done).
    3. An extension x is not entered when ``free``, the vertices above the
       anchor outside `banned`, the endpoint's neighbors and x, holds no
       closing vertex (a neighbor of the anchor above v2), or too few
       vertices for the path, x and ``free`` to reach min_length. Every
       vertex the branch under x adds lies in ``free``, which only shrinks
       as the branch goes deeper.
    """
    if parity not in ("any", "odd"):
        raise ValueError(f"parity must be 'any' or 'odd', got {parity!r}")
    if not _has_hole(g):
        return
    nbr = g.masks
    full = (1 << g.n) - 1
    # cut 1: a hole needs min_length - 1 vertices above its anchor
    for anchor in range(g.n - min_length + 1):
        anchor_nb = nbr[anchor]
        above = full & -(2 << anchor)
        v2s = anchor_nb & above
        while v2s:
            first = v2s & -v2s
            v2s ^= first
            v2 = first.bit_length() - 1
            closers = anchor_nb & -(first << 1)
            if not closers:
                break  # cut 2: v2 is the anchor's last neighbor, and nothing closes above it
            path = [anchor, v2]
            banned = (1 << anchor) | first
            cands = nbr[v2] & above & ~banned
            stack = []  # (cands, banned) of each frame below the top one
            while True:
                if not cands:
                    if not stack:
                        break
                    cands, banned = stack.pop()
                    path.pop()
                    continue
                low = cands & -cands
                cands ^= low
                if anchor_nb & low:
                    # sees the anchor: usable only as a closing vertex
                    x = low.bit_length() - 1
                    length = len(path) + 1
                    if x > v2 and length >= min_length and (parity == "any" or length % 2):
                        yield (*path, x)
                    continue
                inner = banned | nbr[path[-1]]
                free = above & ~inner
                # cut 3: the rest of any cycle through x lies in `free`
                if not free & closers or len(path) + 1 + free.bit_count() < min_length:
                    continue
                stack.append((cands, banned))
                path.append(low.bit_length() - 1)
                cands, banned = nbr[path[-1]] & free, inner


def find_hole(g: Graph, parity: str = "any") -> PatternWitness | None:
    """First hole, an induced cycle of length >= 5 (odd only if parity="odd"), or None.

    The first cycle closed by the depth-first search of :func:`_hole_closings`.
    The verdict "no hole" is polynomial (:func:`_has_hole`), and the DFS
    runs only on a graph with a hole, to produce the witness; it skips every
    anchor, second vertex and extension that can no longer close a hole, so
    on a long hole it is about linear. Induced C4s are
    :func:`find_pattern`'s, with kind "C4".
    """
    cycle = next(_hole_closings(g, parity, 5), None)
    return None if cycle is None else PatternWitness(f"C{len(cycle)}", cycle)


def find_odd_antihole(g: Graph) -> PatternWitness | None:
    """Induced complement of an odd cycle of length >= 7, or None.

    Searched as an odd hole of length >= 7 in the complement; C5 is its own
    complement and is classed as an odd hole, not an antihole. The polynomial
    hole test runs on the complement first, so the DFS runs only when the
    complement has a hole (an antihole of any length >= 5 in g). There it
    enters no extension whose remaining vertices hold no closing vertex or
    too few for a cycle of length 7, but when the complement's holes are
    all even or of length 5 it still searches every other branch.
    """
    if g.n < 7:
        return None
    cycle = next(_hole_closings(complement(g), "odd", 7), None)
    return None if cycle is None else PatternWitness(f"co-C{len(cycle)}", cycle)


def find_all_odd_antiholes(g: Graph) -> list[PatternWitness]:
    """Every induced odd antihole (length >= 7), one orientation each.

    The odd holes of length >= 7 in the complement, in the DFS order of
    :func:`_hole_closings`, so the first is :func:`find_odd_antihole`'s.
    Exponential in the worst case; intended for verification corpora.
    """
    if g.n < 7:
        return []
    return [PatternWitness(f"co-C{len(c)}", c) for c in _hole_closings(complement(g), "odd", 7)]


def is_perfect_desk(g: Graph) -> tuple[bool, PatternWitness | None]:
    """Perfection via the strong perfect graph theorem, by direct search.

    True iff the graph has no odd hole (length >= 5) and no odd antihole
    (length >= 7); on False the violating witness is returned. A graph with
    no hole, or whose complement has none, is cleared of that half in
    polynomial time; the exhaustive DFS runs only on a graph (or complement)
    with a hole, where it is exponential in the worst case. Intended for
    desk-scale verification.
    """
    hole = find_hole(g, parity="odd")
    if hole is not None:
        return False, hole
    antihole = find_odd_antihole(g)
    if antihole is not None:
        return False, antihole
    return True, None


def _check_class_tag(class_tag: str) -> None:
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}; expected one of {CLASS_TAGS}")


def class_membership(g: Graph, class_tag: str) -> ClassReport:
    """Membership in one of the supported graph classes, with witnesses.

    Searches every forbidden pattern of the class, in listed order (P6,
    C5, C6, house, domino for (P6,HHD)-free), and reports the least
    witness of each one that occurs; for "chordal" the witness is the
    certified induced cycle. :func:`is_class_member` gives the same
    verdict without witnesses and stops at the first violation.
    """
    _check_class_tag(class_tag)
    if class_tag == "chordal":
        ok, cert = is_chordal(g)
        return ClassReport(class_tag, ok, () if ok else (cert,))
    found = (find_pattern(g, kind) for kind in _CLASS_PATTERNS[class_tag])
    violations = tuple(w for w in found if w is not None)
    return ClassReport(class_tag, not violations, violations)


#: The classes whose hole patterns :func:`is_class_member` replaces by the
#: polynomial hole test: (P6,HHD)-free is (P6, house, hole, domino)-free,
#: and a hole of length 5 or 6 is a C5 or a C6, while any longer hole
#: contains an induced P6.
_HOLE_PATTERNS = {"(P6,HHD)-free": ("C5", "C6")}

#: Each class's remaining patterns, fewest vertices first and ties in listed
#: order: a small pattern is the cheaper search, and in dense graphs the
#: likelier hit.
_SEARCH_ORDER = {
    tag: tuple(
        sorted(
            (kind for kind in kinds if kind not in _HOLE_PATTERNS.get(tag, ())),
            key=lambda kind: pattern_graph(kind).n,
        )
    )
    for tag, kinds in _CLASS_PATTERNS.items()
}


def is_class_member(g: Graph, class_tag: str) -> bool:
    """The verdict of ``class_membership(g, class_tag).member``, as a bare bool.

    Stops at the first forbidden pattern found. For (P6,HHD)-free the
    polynomial hole test :func:`_has_hole` runs first, in place of the C5
    and C6 searches (a hole of length 5 or 6 is one of them, and a longer
    hole contains an induced P6). Patterns are then searched fewest vertices
    first, ties in listed order: house, P6, domino for (P6,HHD)-free; house,
    P6 for (P6,house)-free; bull, P6 for (P6,bull)-free. "chordal" runs the
    LexBFS test alone and builds no cycle witness.
    """
    _check_class_tag(class_tag)
    if class_tag == "chordal":
        return all(order is not None for _, order, _ in _lexbfs(g, True)[0])
    if class_tag in _HOLE_PATTERNS and _has_hole(g):
        return False
    return all(next(_embeddings(g, kind), None) is None for kind in _SEARCH_ORDER[class_tag])
