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

from .graph import Graph, _mask_to_tuple, complement, cycle_graph, from_edge_list, path_graph

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
        return complement(path_graph(5))
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


@lru_cache(maxsize=32)
def _constraint_table(kind: str) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Per position i, the (p, adjacent?) pair for every later position p.

    Bounded, because callers choose the kinds (any path or cycle length).
    """
    pattern = pattern_graph(kind)
    k = pattern.n
    return tuple(tuple((p, pattern.adjacent(i, p)) for p in range(i + 1, k)) for i in range(k))


def _embeddings(g: Graph, kind: str) -> Iterator[tuple[int, ...]]:
    """Every induced embedding of a fixed pattern, in lexicographic order.

    Iterative depth-first search over pattern positions with forward
    checking. Every position keeps its candidates as a bitmask: the
    unused vertices adjacent to each placed position the pattern joins it
    to and nonadjacent to every other placed position. Placing a vertex
    narrows the masks of all later positions, and is undone at once if
    one of them empties. Candidates are tried lowest id first, so
    embeddings come out as ascending tuples.
    """
    table = _constraint_table(kind)
    k = len(table)
    if g.n < k:
        return
    masks = [g.neighbor_mask(v) for v in range(g.n)]
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
        for p, adjacent in table[i]:
            narrowed = row[p] & (seen if adjacent else unseen)
            if not narrowed:
                break
            nxt[p] = narrowed
        else:
            i += 1


def find_pattern(g: Graph, kind: str) -> PatternWitness | None:
    """Least induced embedding of any kind :func:`pattern_graph` builds, or None.

    The first embedding :func:`_embeddings` yields.
    """
    first = next(_embeddings(g, kind), None)
    return None if first is None else PatternWitness(kind, first)


def find_induced_path(g: Graph, k: int) -> PatternWitness | None:
    """Least induced P_k witness (vertices in path order), or None."""
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    return find_pattern(g, f"P{k}")


# -- chordality ---------------------------------------------------------------

def lexbfs_order(g: Graph) -> tuple[int, ...]:
    """LexBFS visit order; ties broken by smallest id.

    Partition refinement on bitmask cells: repeatedly visit the smallest
    id in the first cell and split every cell into (neighbors,
    non-neighbors), in that order.
    """
    cells = [(1 << g.n) - 1] if g.n else []
    order = []
    while cells:
        first = cells[0]
        low = first & -first
        v = low.bit_length() - 1
        order.append(v)
        cells[0] = first ^ low
        nb = g.neighbor_mask(v)
        refined = []
        for cell in cells:
            hits = cell & nb
            if hits:
                refined.append(hits)
            if cell ^ hits:
                refined.append(cell ^ hits)
        cells = refined
    return tuple(order)


def _peo_violations(g: Graph, order: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """Each (v, u, w), u < w, where u and w are nonadjacent later neighbors of v."""
    later = 0
    for v in reversed(order):
        rn = g.neighbor_mask(v) & later
        m = rn
        while m:
            low = m & -m
            u = low.bit_length() - 1
            bad = rn & ~g.neighbor_mask(u) & ~low
            while bad:
                lb = bad & -bad
                w = lb.bit_length() - 1
                if u < w:
                    yield v, u, w
                bad ^= lb
            m ^= low
        later |= 1 << v


def is_perfect_elimination_order(g: Graph, order) -> bool:
    """True iff each vertex's later neighbors form a clique."""
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertex ids")
    return next(_peo_violations(g, order), None) is None


def _cycle_from_triple(g: Graph, v: int, u: int, w: int) -> PatternWitness | None:
    """Induced C_{>=4} through v from nonadjacent neighbors u, w, if one exists.

    BFS for a shortest u-w path avoiding N[v] \\ {u, w}; shortest paths are
    induced, and no interior vertex sees v, so closing through v gives a
    chordless cycle.
    """
    banned = g.closed_mask(v) & ~(1 << u) & ~(1 << w)
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
        fresh = g.neighbor_mask(x) & ~seen
        seen |= fresh
        for y in _mask_to_tuple(fresh):
            parent[y] = x
            queue.append(y)
    return None


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | PatternWitness]:
    """Certified chordality test.

    Returns (True, perfect elimination order) or (False, induced-cycle
    witness). The order is the reversed LexBFS visit order, which is a
    perfect elimination order exactly when the graph is chordal.
    """
    peo = tuple(reversed(lexbfs_order(g)))
    violated = False
    # Some failing triple always embeds in a hole (take the hole vertex
    # eliminated first); spurious triples may not, so walk them in order.
    for v, u, w in _peo_violations(g, peo):
        violated = True
        witness = _cycle_from_triple(g, v, u, w)
        if witness is not None:
            return False, witness
    if violated:
        raise AssertionError("failed elimination check but no induced cycle found")
    return True, peo


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
    nbr = [g.neighbor_mask(v) for v in range(g.n)]
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
    """Every induced cycle of length >= min_length, once each, in DFS order.

    When min_length >= 5, the polynomial test :func:`_has_hole` runs first,
    and a graph without a hole yields nothing at once; the exponential DFS
    below runs only on a graph that has a hole, to produce the witnesses.
    (At min_length 4 a C4 counts, which that test does not see.)

    Depth-first extension of induced paths anchored at each vertex in
    ascending order; all cycle vertices beyond the anchor must exceed it,
    an extension may see only the current endpoint, and a cycle closes when
    the new vertex x sees the anchor and exceeds the second vertex, so each
    hole comes out once. The first cycle is the one closing both directions
    would give: were it (a, p1, ..., pk, x) with x < p1, the DFS would meet
    its reverse (a, x, pk, ..., p1) earlier, under second vertex x, and that
    passes the same tests (vertices above a, an induced path seen by a only
    at its ends, the same length and parity). The search keeps one (neighbor
    iterator, interior mask) frame per path vertex after the anchor on an
    explicit stack, so path length is not bounded by recursion. The paths
    are induced, so the endpoint sees only the anchor (on a two-vertex
    path) and its predecessor.
    """
    if parity not in ("any", "odd"):
        raise ValueError(f"parity must be 'any' or 'odd', got {parity!r}")
    if min_length >= 5 and not _has_hole(g):
        return
    nbr = g.neighbor_mask
    rows = [g.neighbors(v) for v in range(g.n)]
    for anchor in range(g.n):
        anchor_nb = nbr(anchor)
        for v2 in rows[anchor]:
            if v2 < anchor:
                continue
            path = [anchor, v2]
            stack = [(iter(rows[v2]), 0)]
            while stack:
                neighbors, mid_mask = stack[-1]
                for x in neighbors:
                    if x <= anchor or x == path[-2] or nbr(x) & mid_mask:
                        continue
                    if (anchor_nb >> x) & 1:
                        length = len(path) + 1
                        if x > path[1] and length >= min_length and (parity == "any" or length % 2):
                            yield (*path, x)
                        continue  # sees the anchor: usable only as a closing vertex
                    stack.append((iter(rows[x]), mid_mask | (1 << path[-1])))
                    path.append(x)
                    break
                else:
                    stack.pop()
                    path.pop()


def find_hole(g: Graph, parity: str = "any", min_length: int = 5) -> PatternWitness | None:
    """First induced cycle of length >= min_length (odd only if parity="odd").

    The first cycle closed by the depth-first search of :func:`_hole_closings`.
    For min_length >= 5 the verdict "no hole" is polynomial (:func:`_has_hole`),
    and the exhaustive DFS runs only on a graph with a hole, to produce the
    witness.
    """
    cycle = next(_hole_closings(g, parity, min_length), None)
    return None if cycle is None else PatternWitness(f"C{len(cycle)}", cycle)


def find_all_holes(g: Graph, parity: str = "any", min_length: int = 5) -> list[PatternWitness]:
    """Every induced cycle of length >= min_length, one orientation each.

    Each hole is reported once: anchored at its smallest vertex, second
    vertex the smaller of the anchor's two cycle neighbors. Exponential in
    the worst case; intended for verification corpora.
    """
    return [PatternWitness(f"C{len(c)}", c) for c in _hole_closings(g, parity, min_length)]


def _co_witness(witness: PatternWitness) -> PatternWitness:
    return PatternWitness(f"co-{witness.kind}", witness.vertices)


def find_odd_antihole(g: Graph) -> PatternWitness | None:
    """Induced complement of an odd cycle of length >= 7, or None.

    Searched as an odd hole of length >= 7 in the complement; C5 is its own
    complement and is classed as an odd hole, not an antihole. The polynomial
    hole test runs on the complement first, so the exhaustive DFS runs only
    when the complement has a hole (an antihole of any length >= 5 in g).
    """
    if g.n < 7:
        return None
    hole = find_hole(complement(g), parity="odd", min_length=7)
    return None if hole is None else _co_witness(hole)


def find_all_odd_antiholes(g: Graph) -> list[PatternWitness]:
    """Every induced odd antihole (length >= 7), one orientation each."""
    if g.n < 7:
        return []
    return [_co_witness(w) for w in find_all_holes(complement(g), parity="odd", min_length=7)]


def is_perfect_desk(g: Graph) -> tuple[bool, PatternWitness | None]:
    """Perfection via the strong perfect graph theorem, by direct search.

    True iff the graph has no odd hole (length >= 5) and no odd antihole
    (length >= 7); on False the violating witness is returned. A graph with
    no hole, or whose complement has none, is cleared of that half in
    polynomial time; the exhaustive DFS runs only on a graph (or complement)
    with a hole, where it is exponential in the worst case. Intended for
    desk-scale verification.
    """
    hole = find_hole(g, parity="odd", min_length=5)
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


#: Each class's patterns, fewest vertices first and ties in listed order:
#: a small pattern is the cheaper search, and in dense graphs the likelier hit.
_SEARCH_ORDER = {
    tag: tuple(sorted(kinds, key=lambda kind: pattern_graph(kind).n))
    for tag, kinds in _CLASS_PATTERNS.items()
}


def is_class_member(g: Graph, class_tag: str) -> bool:
    """The verdict of ``class_membership(g, class_tag).member``, as a bare bool.

    Stops at the first forbidden pattern found.
    Patterns are searched fewest vertices first, ties in listed order:
    C5, house, P6, C6, domino for (P6,HHD)-free; house, P6 for
    (P6,house)-free; bull, P6 for (P6,bull)-free. "chordal" runs the
    LexBFS test.
    """
    _check_class_tag(class_tag)
    if class_tag == "chordal":
        return is_chordal(g)[0]
    return all(find_pattern(g, kind) is None for kind in _SEARCH_ORDER[class_tag])
