"""Efficient domination solvers.

The main pipeline reduces (weighted) efficient domination on a graph to
maximum weight independent set on its square. A component whose square is
chordal runs the chordal greedy; any other runs a weighted exact cover of
the closed neighborhoods (each one a clique of the square, met exactly once
by an e.d.). The square alone picks the route; no option overrides it.
Both return the lightest e.d., lexicographically least on ties. A separate
exact-cover search on an explicit stack, :func:`efficient_dominating_sets`,
serves the independent oracle :func:`oracle_ed`; it reads candidates off
closed neighborhoods and never touches the square, so it shares no code
with the pipeline.

One LexBFS pass over the square, with the parent check, yields every
connected component with its chordality verdict; the check stops a
component at the first vertex that fails and builds no cycle witness.
The square is not built up front: each row is computed when the pass or
the exact cover first reads it. Every solution carries the square
diagnostics of :class:`SquareDiagnostics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import (
    Graph,
    _mask_to_tuple,
    _square_row,
    closed_neighborhood_weights,
    connected_components,  # not called here; bench/tracing.py wraps it by this name
    induced_subgraph,
    square,  # not called here; bench/tracing.py wraps it by this name
)
from .mwis import (
    _check_weights,
    _chordal_greedy,
    mwis_chordal,  # not called here; bench/tracing.py wraps it by this name
    mwis_exact,  # not called here; bench/tracing.py wraps it by this name
)
from .recognition import (
    _has_hole,
    _lexbfs,
    find_hole,  # not called here; bench/tracing.py wraps it by this name
    find_odd_antihole,
    is_chordal,  # not called here; bench/tracing.py wraps it by this name
)

#: Max n for the hole / odd-antihole diagnostics run by solve() (the
#: odd-antihole search is exponential when the complement of a square has
#: a hole).
DEFAULT_VERIFY_BUDGET = 30


@dataclass(frozen=True)
class SquareDiagnostics:
    """Structure verdicts for the square; None means skipped over budget.

    Chordality is always reported. The hole / odd-antihole verdicts are
    skipped (None) when the whole graph's n is above the verification
    budget :data:`DEFAULT_VERIFY_BUDGET`. Within it they are read off the
    component squares, since holes and antiholes are connected.
    :func:`solve` takes only the chordality verdict of each component
    square, from its one LexBFS pass over the whole square, with no cycle
    witness. A chordal square has no induced cycle of length >= 4, so no
    hole; nor an odd antihole, since every co-C_k with k >= 6 holds an
    induced C4: no search runs. Else solve fills every row of the square,
    and copies out each component square that is not chordal (unless it is
    all of it), so that the searches never run on the complement of the
    whole square. On the copy, the hole verdict comes from the polynomial
    hole test alone (no witness is needed, so no hole DFS runs), and
    :func:`find_odd_antihole` runs the same test on the copy's complement,
    so its exhaustive DFS runs only when that complement has a hole.
    """

    chordal: bool
    hole_free: bool | None
    odd_antihole_free: bool | None


@dataclass(frozen=True)
class EDSolution:
    exists: bool
    vertices: tuple[int, ...] | None
    user_weight: int | None
    path: str  # "chordal-square" | "exact-fallback" | "oracle"
    diagnostics: SquareDiagnostics | None = None


def verify_ed(g: Graph, candidate: Sequence[int]) -> bool:
    """True iff every vertex is dominated by exactly one candidate member."""
    chosen = sorted(set(candidate))
    for v in chosen:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    counts = [0] * g.n
    for v in chosen:
        counts[v] += 1
        for u in g.neighbors(v):
            counts[u] += 1
    return all(c == 1 for c in counts)


def efficient_dominating_sets(g: Graph) -> Iterator[tuple[int, ...]]:
    """All efficient dominating sets, via exact cover on closed neighborhoods.

    Depth-first on an explicit stack of (covered, chosen) masks. At each
    node, scan the uncovered vertices in ascending id; the candidates of an
    uncovered u are the members v of N[u] with N[v] still wholly uncovered.
    Branch on the first u with the fewest candidates, in ascending order;
    the scan stops at the first u with 0 or 1. Each solution is produced
    exactly once. Internal building block for the oracle and the theorem
    checks, not part of the solving pipeline.

    The yield order is that of the search that scans every uncovered vertex
    and returns at the first with none. Stopping at 0 or 1 picks the same u,
    except when a later vertex w has no candidate: then neither search
    yields below the node, since the candidates of w only shrink as more
    is covered, so w is never covered.
    """
    closed = [g.closed_mask(v) for v in range(g.n)]
    members = [_mask_to_tuple(c) for c in closed]
    full = (1 << g.n) - 1
    stack = [(0, 0)]  # (covered, chosen)
    while stack:
        covered, chosen = stack.pop()
        if covered == full:
            yield _mask_to_tuple(chosen)
            continue
        pick: list[int] | None = None
        rest = full ^ covered
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            cands = [v for v in members[u] if not closed[v] & covered]
            if pick is None or len(cands) < len(pick):
                pick = cands
                if len(cands) <= 1:
                    break
            rest ^= low
        for v in reversed(pick):
            stack.append((covered | closed[v], chosen | (1 << v)))


def oracle_ed(g: Graph, user: Sequence[int] | None = None) -> EDSolution:
    """Reference solver: exhaustive exact-cover backtracking.

    Without weights, stops at the first efficient dominating set; with
    weights, enumerates all of them and keeps the first one attaining the
    minimum user weight. Independent of the square/MWIS pipeline.
    """
    weights = _check_weights(g, user) if user is not None else None
    best = EDSolution(False, None, None, "oracle")
    for d in efficient_dominating_sets(g):
        if weights is None:
            return EDSolution(True, d, None, "oracle")
        weight = sum(weights[v] for v in d)
        if not best.exists or weight < best.user_weight:
            best = EDSolution(True, d, weight, "oracle")
    return best


def _min_weight_ed(closed: list, rows: list, user: Sequence[int], component: int) -> int | None:
    """The least-weight e.d. of one component, lexicographically least on ties, or None.

    `component` is the vertex mask of a connected component of the graph,
    `closed` its closed neighborhoods and `rows` the open rows of its
    square (None until c is chosen, then the union of the closed
    neighborhoods of N[c] less c, whole once it is `component`), all by
    vertex id of the whole graph. Weighted exact cover of the closed
    neighborhoods, depth-first on an explicit stack: branch on the
    uncovered vertex with the fewest candidates (closed neighbors still
    usable: outside the square row of every chosen vertex, i.e. whose own
    closed neighborhood is still uncovered). Below the choice of c the scan
    walks the uncovered ones in c's square row first, then the rest, each
    in ascending id, and stops at the first with 0 or 1 candidates. One
    candidate is chosen in place; more are pushed from the highest id down.
    A chosen vertex c stays usable, as its square row is open, but is never
    a candidate again: every u with c in N[u] lies in N[c], which is
    covered. A node is pruned when it is heavier than the best e.d. so far,
    or as heavy and no leaf below it can hold the least vertex that tells
    it from that e.d.: every leaf lies between `chosen` and `chosen |
    usable`, and weights are nonnegative. So a leaf that is reached always
    replaces the best, whatever the branching order. Returns the e.d. as a
    vertex mask.
    """
    best_weight = -1
    best = 0
    stack = [(0, component, 0, 0, 0)]  # (covered, usable, chosen, weight, row of the last choice)
    while stack:
        covered, usable, chosen, weight, near = stack.pop()
        while True:
            if 0 <= best_weight <= weight:
                reach = (chosen | usable) ^ best
                if weight > best_weight or not reach & -reach & ~best:
                    break
            if covered == component:
                best_weight, best = weight, chosen
                break
            fewest = len(closed) + 1
            near &= ~covered
            rest = component ^ covered ^ near
            while near or rest:
                if not near:
                    near, rest = rest, 0
                low = near & -near
                cands = closed[low.bit_length() - 1] & usable
                count = cands.bit_count()
                if count < fewest:
                    fewest, pick = count, cands
                    if count <= 1:
                        break
                near ^= low
            while pick:
                c = pick.bit_length() - 1
                pick ^= 1 << c
                near = rows[c]
                if near is None:
                    near = rows[c] = _square_row(closed, c, component)
                if fewest > 1:
                    stack.append((covered | closed[c], usable & ~near, chosen | 1 << c,
                                  weight + user[c], near))
            if fewest != 1:
                break
            covered, usable = covered | closed[c], usable & ~near
            chosen, weight = chosen | 1 << c, weight + user[c]
    return best if best_weight >= 0 else None


def solve(g: Graph, user: Sequence[int] | None = None) -> EDSolution:
    """Minimum-weight efficient domination via MWIS on the square.

    One LexBFS pass with the parent check over the square of g yields each
    component, as a vertex mask, with its chordality verdict (always tested
    directly, never assumed) and, when chordal, its visit order; the check
    stops a component at its first failing vertex and goes on with the
    next. The pass computes each row of the square at the first visit that
    reads it and finishes a failing component by a BFS over g, whose
    components are those of its square. Every component is then solved in
    place on those rows, with no induced copy. A chordal square runs the
    two-pass greedy MWIS over the reversed LexBFS order, a perfect
    elimination order, on closed neighborhood sizes folded with the user
    weights as M * |N[v]| - w(v), M = 1 + the component's user weight
    (every e.d. then outscores every other independent set, lightest e.d.
    first), shifted up n bits over a bit 2^(n - 1 - v) so that the optimum
    is unique; an e.d. exists iff the optimum's neighborhood weight covers
    the component. The greedy charges each vertex's residual along the
    visited-neighbor masks that LexBFS kept, and a vertex that sees every
    vertex still to come charges them all as one offset. A non-chordal
    square runs an exact cover search over the closed neighborhoods, which
    computes the rows of the vertices it chooses and scans next to its last
    choice first; the path reads "exact-fallback" from the first such
    component on. No option overrides the square's choice. Either way the
    result is the lightest e.d., and of those the lexicographically least
    sorted vertex tuple, per component and so for their union. Components
    are solved in order, stopping at the first without an e.d. The result
    carries the square diagnostics of :class:`SquareDiagnostics`.

    Cost: a graph of diameter at most 2 has a complete square, which is
    chordal. Squaring stops each row once it is full (on a dense graph,
    after a few neighbor rows); then LexBFS hits its one cell at every
    visit and the greedy is one running maximum, so past the square the
    component costs O(n) row steps, not one step per edge of the square.
    """
    weights = _check_weights(g, user) if user is not None else None
    unit = weights if weights is not None else (0,) * g.n

    rows = [None] * g.n
    parts, seen = _lexbfs(g, True, rows)
    non_chordal = [mask for mask, order, _ in parts if order is None]
    hole_free = odd_antihole_free = None
    if g.n <= DEFAULT_VERIFY_BUDGET:
        if non_chordal:  # the diagnostics alone read every row of the square
            full = (1 << g.n) - 1
            rows = [_square_row(g.masks, v, full) if r is None else r for v, r in enumerate(rows)]
        sq = Graph._built(tuple(rows))
        copies = [
            sq if len(parts) == 1 else induced_subgraph(sq, _mask_to_tuple(mask))
            for mask in non_chordal
        ]
        hole_free = all(not _has_hole(h) for h in copies)
        odd_antihole_free = all(find_odd_antihole(h) is None for h in copies)
    diagnostics = SquareDiagnostics(not non_chordal, hole_free, odd_antihole_free)

    nbh = closed_neighborhood_weights(g)
    if non_chordal:
        closed = [mask | (1 << v) for v, mask in enumerate(g.masks)]
    combined = [0] * g.n
    chosen = 0
    path = "chordal-square"
    for component, order, _ in parts:
        if order is None:
            found = _min_weight_ed(closed, rows, unit, component)
            path = "exact-fallback"
        else:
            scale = 1 + sum(unit[v] for v in order)
            for v in order:
                weight = scale * nbh[v] - unit[v]
                # v's low bit outweighs all larger ids' together: one optimum, the lex-least
                combined[v] = weight << g.n | 1 << (g.n - 1 - v)
            # uses up this component's entries of combined as residuals
            found = _chordal_greedy(seen, combined, order)
            if sum(nbh[v] for v in _mask_to_tuple(found)) != len(order):
                found = None
        if found is None:
            return EDSolution(False, None, None, path, diagnostics)
        chosen |= found
    vertices = _mask_to_tuple(chosen)
    user_weight = sum(weights[v] for v in vertices) if weights is not None else None
    return EDSolution(True, vertices, user_weight, path, diagnostics)
