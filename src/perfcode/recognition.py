"""Forbidden-induced-subgraph detection and graph-class recognition.

Patterns are identified by kind strings: fixed shapes ("P6", "C4", "house",
"domino", "bull", ...), general cycles ("Ck" for any k >= 3) and antiholes
("co-Ck", the complement of a k-cycle). Every search returns an ordered
witness whose induced adjacency realizes the pattern under that order, or
None; searches are deterministic (ascending-id enumeration throughout).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from itertools import combinations
from typing import Iterator

from .graph import Graph, complement

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


def pattern_edges(kind: str) -> tuple[int, frozenset[frozenset[int]]]:
    """Vertex count and edge set of a named pattern on ids 0..k-1."""
    if kind.startswith("P") and kind[1:].isdigit():
        k = int(kind[1:])
        if k < 1:
            raise ValueError(f"bad path pattern {kind!r}")
        return k, frozenset(frozenset((i, i + 1)) for i in range(k - 1))
    if kind.startswith("C") and kind[1:].isdigit():
        k = int(kind[1:])
        if k < 3:
            raise ValueError(f"bad cycle pattern {kind!r}")
        return k, frozenset(frozenset((i, (i + 1) % k)) for i in range(k))
    if kind.startswith("co-C") and kind[4:].isdigit():
        k = int(kind[4:])
        if k < 5:
            raise ValueError(f"bad antihole pattern {kind!r}")
        cycle = {frozenset((i, (i + 1) % k)) for i in range(k)}
        return k, frozenset(
            frozenset(p) for p in combinations(range(k), 2) if frozenset(p) not in cycle
        )
    if kind == "house":
        # complement of the path 0-1-2-3-4
        return 5, frozenset(
            frozenset(p) for p in [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]
        )
    if kind == "domino":
        # path 0-1-2-3-4 plus a vertex 5 seeing 0, 2 and 4
        return 6, frozenset(
            frozenset(p) for p in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (2, 5), (4, 5)]
        )
    if kind == "bull":
        # triangle 0-1-2 with pendants 3 at 0 and 4 at 1
        return 5, frozenset(frozenset(p) for p in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    raise ValueError(f"unknown pattern kind {kind!r}")


def witness_is_valid(g: Graph, witness: PatternWitness) -> bool:
    """Direct adjacency-table check that the witness realizes its pattern."""
    k, edges = pattern_edges(witness.kind)
    verts = witness.vertices
    if len(verts) != k or len(set(verts)) != k:
        return False
    if any(not 0 <= v < g.n for v in verts):
        return False
    for i, j in combinations(range(k), 2):
        if g.adjacent(verts[i], verts[j]) != (frozenset((i, j)) in edges):
            return False
    return True


def _find_embedding(g: Graph, kind: str) -> PatternWitness | None:
    """Lexicographically least induced embedding of a fixed pattern, if any.

    Backtracks over assignments position by position in ascending vertex
    order, checking adjacency against all previously placed positions, so
    the first complete assignment is the least witness tuple.
    """
    k, edges = pattern_edges(kind)
    if g.n < k:
        return None
    need = [[(j, frozenset((i, j)) in edges) for j in range(i)] for i in range(k)]
    assigned: list[int] = []
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        for v in range(g.n):
            if (used >> v) & 1:
                continue
            ok = True
            for j, want in need[i]:
                if g.adjacent(assigned[j], v) != want:
                    ok = False
                    break
            if not ok:
                continue
            assigned.append(v)
            used |= 1 << v
            if i + 1 == k or place(i + 1):
                return True
            assigned.pop()
            used &= ~(1 << v)
        return False

    if place(0):
        return PatternWitness(kind, tuple(assigned))
    return None


def find_induced_path(g: Graph, k: int) -> PatternWitness | None:
    """Least induced P_k witness (vertices in path order), or None."""
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    return _find_embedding(g, f"P{k}")


def find_pattern(g: Graph, kind: str) -> PatternWitness | None:
    """Induced occurrence of a fixed small pattern, or None.

    Supported kinds: "house", "domino", "bull", "C4" (and the other
    fixed shapes understood by :func:`pattern_edges`).
    """
    return _find_embedding(g, kind)


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
        for y in g.neighbors(x):
            if not (seen >> y) & 1:
                seen |= 1 << y
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

def _hole_closings(g: Graph, parity: str, min_length: int) -> Iterator[tuple[int, ...]]:
    """Every induced cycle of length >= min_length closed by the DFS, in order.

    Depth-first extension of induced paths anchored at each vertex in
    ascending order; all cycle vertices beyond the anchor must exceed it,
    an extension may see only the current endpoint, and a cycle closes
    when the new vertex also sees the anchor. Each hole is closed twice,
    once per orientation.
    """
    if parity not in ("any", "odd"):
        raise ValueError(f"parity must be 'any' or 'odd', got {parity!r}")

    def extend(path: list[int], path_mask: int, mid_mask: int) -> Iterator[tuple[int, ...]]:
        last = path[-1]
        anchor = path[0]
        for x in g.neighbors(last):
            if x <= anchor or (path_mask >> x) & 1:
                continue
            if g.neighbor_mask(x) & mid_mask:
                continue
            if g.adjacent(x, anchor):
                length = len(path) + 1
                if length >= min_length and (parity == "any" or length % 2 == 1):
                    yield (*path, x)
                continue  # sees the anchor: usable only as a closing vertex
            yield from extend(path + [x], path_mask | (1 << x), mid_mask | (1 << last))

    for v1 in range(g.n):
        for v2 in g.neighbors(v1):
            if v2 < v1:
                continue
            yield from extend([v1, v2], (1 << v1) | (1 << v2), 0)


def find_hole(g: Graph, parity: str = "any", min_length: int = 5) -> PatternWitness | None:
    """First induced cycle of length >= min_length (odd only if parity="odd").

    The first cycle closed by the depth-first search of :func:`_hole_closings`.
    """
    cycle = next(_hole_closings(g, parity, min_length), None)
    return None if cycle is None else PatternWitness(f"C{len(cycle)}", cycle)


def find_all_holes(g: Graph, parity: str = "any", min_length: int = 5) -> list[PatternWitness]:
    """Every induced cycle of length >= min_length, one orientation each.

    Each hole is reported once: anchored at its smallest vertex, second
    vertex the smaller of the anchor's two cycle neighbors. Exponential in
    the worst case; intended for verification corpora.
    """
    return [
        PatternWitness(f"C{len(cycle)}", cycle)
        for cycle in _hole_closings(g, parity, min_length)
        if cycle[1] < cycle[-1]
    ]


def _co_witness(witness: PatternWitness) -> PatternWitness:
    return PatternWitness(f"co-{witness.kind}", witness.vertices)


def find_odd_antihole(g: Graph) -> PatternWitness | None:
    """Induced complement of an odd cycle of length >= 7, or None.

    Searched as an odd hole of length >= 7 in the complement; C5 is its own
    complement and is classed as an odd hole, not an antihole.
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
    (length >= 7); on False the violating witness is returned. Exponential
    worst case, intended for desk-scale verification.
    """
    hole = find_hole(g, parity="odd", min_length=5)
    if hole is not None:
        return False, hole
    antihole = find_odd_antihole(g)
    if antihole is not None:
        return False, antihole
    return True, None


def class_membership(g: Graph, class_tag: str) -> ClassReport:
    """Membership in one of the supported graph classes, with witnesses.

    Reports at least one witness per violated forbidden pattern; for
    "chordal" the witness is the certified induced cycle.
    """
    if class_tag == "chordal":
        ok, cert = is_chordal(g)
        violations = () if ok else (cert,)
        return ClassReport(class_tag, ok, violations)
    if class_tag not in _CLASS_PATTERNS:
        raise ValueError(f"unknown class tag {class_tag!r}; expected one of {CLASS_TAGS}")
    violations = []
    for kind in _CLASS_PATTERNS[class_tag]:
        witness = _find_embedding(g, kind)
        if witness is not None:
            violations.append(witness)
    return ClassReport(class_tag, not violations, tuple(violations))
