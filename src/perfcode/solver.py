"""Efficient domination solvers.

The main pipeline reduces (weighted) efficient domination on a graph to
maximum weight independent set on its square. A component whose square is
chordal runs the chordal greedy; any other runs a weighted exact cover of
the closed neighborhoods (each one a clique of the square, met exactly once
by an e.d.), which returns the same set as the exact MWIS branch-and-bound
that ``mode="exact"`` keeps as the reference route. A separate exact-cover
search on an explicit stack, :func:`efficient_dominating_sets`, serves the
independent oracle; it reads candidates off closed neighborhoods and never
touches the square, so it shares no code with the pipeline.

The whole graph is squared once, and one LexBFS pass over the square,
with the parent check, yields every connected component with its
chordality verdict; the check stops a component at the first vertex that
fails and builds no cycle witness. Each component is then solved in
place, on vertex masks of the one square. The square diagnostics that
come with a solution are polynomial up to the odd-antihole fallback:
whether a component square has a hole is decided by the polynomial hole
test alone, with no witness built, and the odd-antihole DFS runs only
when the complement of that component square has a hole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import (
    Graph,
    _mask_to_tuple,
    closed_neighborhood_weights,
    connected_components,  # not called here; bench/tracing.py wraps it by this name
    induced_subgraph,
    square,
)
from .mwis import (
    _check_weights,
    _chordal_greedy,
    _mwis_exact,
    _precedes,
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

#: Environment variable overriding the default max n for the hole /
#: odd-antihole diagnostics run by solve() (the odd-antihole search is
#: exponential when the complement of a square has a hole).
BUDGET_ENV_VAR = "PERFCODE_VERIFY_BUDGET"
DEFAULT_VERIFY_BUDGET = 30

SOLVE_MODES = ("auto", "chordal", "exact", "oracle")


def default_verify_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_VERIFY_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SquareDiagnostics:
    """Structure verdicts for the square; None means skipped over budget.

    :func:`solve` takes only the chordality verdict of each component
    square, from its one LexBFS pass over the whole square, with no cycle
    witness. A chordal square has no induced cycle of length >= 4, so no
    hole; nor an odd antihole, since every co-C_k with k >= 6 holds an
    induced C4. A component square that is not chordal is copied out of
    the whole square (unless it is all of it), so that the searches never
    run on the complement of the whole square. On the copy, the hole
    verdict comes from the polynomial hole test alone (no witness is
    needed, so no hole DFS runs), and :func:`find_odd_antihole` runs the
    same test on the copy's complement, so its DFS runs only when that
    complement has a hole.
    """

    chordal: bool
    hole_free: bool | None
    odd_antihole_free: bool | None

    def to_dict(self) -> dict:
        return {
            "chordal": self.chordal,
            "hole_free": self.hole_free,
            "odd_antihole_free": self.odd_antihole_free,
        }


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
            cands = [v for v in _mask_to_tuple(closed[u]) if not closed[v] & covered]
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


def _min_weight_ed(
    closed: Sequence[int], blocks: Sequence[int], sq: Graph, user: Sequence[int], component: int
) -> int | None:
    """The e.d. of one component that mwis_exact on its square would return, or None.

    `component` is the vertex mask of a connected component of the graph,
    `closed` its closed neighborhoods and `blocks` those of its square `sq`,
    all by vertex id of the whole graph. Weighted exact cover of the closed
    neighborhoods, depth-first on an explicit stack: branch on the
    uncovered vertex with the fewest candidates (closed neighbors outside
    the closed neighborhood in `sq` of every chosen vertex, i.e. whose own
    closed neighborhood is still uncovered; the scan stops at the first
    with 0 or 1), candidates in ascending id, pruning nodes heavier than
    the best e.d. so far. Ties on user weight go to the set that mwis_exact
    meets first (see :func:`_precedes`), which is the one it returns: with
    the weights of :func:`wed_weights` every e.d. outscores every other
    independent set of the square, and each independent set is exactly one
    leaf of its search. Returns the e.d. as a vertex mask.
    """
    best_weight = -1
    best = 0
    stack = [(0, component, 0, 0)]  # (covered, usable, chosen, weight)
    while stack:
        covered, usable, chosen, weight = stack.pop()
        if best_weight >= 0 and weight > best_weight:
            continue
        if covered == component:
            if best_weight < 0 or weight < best_weight or _precedes(sq, chosen, best, component):
                best_weight, best = weight, chosen
            continue
        fewest = len(closed) + 1
        rest = component ^ covered
        while rest:
            low = rest & -rest
            cands = closed[low.bit_length() - 1] & usable
            count = cands.bit_count()
            if count < fewest:
                fewest, pick = count, cands
                if count <= 1:
                    break
            rest ^= low
        for c in reversed(_mask_to_tuple(pick)):
            stack.append(
                (covered | closed[c], usable & ~blocks[c], chosen | (1 << c), weight + user[c])
            )
    return best if best_weight >= 0 else None


def solve(g: Graph, user: Sequence[int] | None = None, mode: str = "auto") -> EDSolution:
    """Minimum-weight efficient domination via MWIS on the square.

    Squares the whole graph once: the square of a disjoint union is the
    disjoint union of the squares, so its components are those of g. One
    LexBFS pass with the parent check over the square yields each
    component, as a vertex mask, with its chordality verdict (always
    tested directly, never assumed) and, when chordal, its visit order; the
    check stops a component at its first failing vertex and goes on with
    the next. Every component is then solved in place on masks of the one
    square, with no induced copy. A chordal square runs the two-pass
    greedy MWIS over the reversed LexBFS order, a perfect elimination
    order, on closed neighborhood sizes combined with the user weights
    (:func:`wed_weights`, each component on its own scale); an e.d. exists
    iff the optimum's neighborhood weight covers the whole component. A
    non-chordal square runs an exact cover search over the closed
    neighborhoods (path "exact-fallback"), which returns the very set the
    exact MWIS branch-and-bound would: ties on user weight are broken by
    that search's own branching order. Components are solved in order,
    stopping at the first without an e.d.

    mode: "auto" picks per component as above; "chordal" forces the greedy
    and raises ValueError at the first component whose square is not
    chordal; "exact" forces the branch-and-bound of :func:`mwis_exact` on
    every component square, the reference MWIS route; "oracle" delegates
    to :func:`oracle_ed`. Chordality is always reported; the hole /
    odd-antihole verdicts are skipped (None) when the whole graph's n is
    above the verification budget (PERFCODE_VERIFY_BUDGET, default 30).
    Within it (see :class:`SquareDiagnostics`) they are read off the
    component squares, since holes and antiholes are connected: a chordal
    square is hole-free and odd-antihole-free with no search, and each
    non-chordal one, copied out of the square unless it is the whole
    graph, gets the polynomial hole test and :func:`find_odd_antihole`,
    whose exhaustive DFS runs only when that square's complement has a
    hole.
    """
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    weights = _check_weights(g, user) if user is not None else None
    if mode == "oracle":
        return oracle_ed(g, weights)
    unit = weights if weights is not None else (0,) * g.n

    sq = square(g)
    parts = _lexbfs(sq, True)
    non_chordal = [mask for mask, order in parts if order is None]
    hole_free = odd_antihole_free = None
    if g.n <= default_verify_budget():
        copies = [
            sq if len(parts) == 1 else induced_subgraph(sq, _mask_to_tuple(mask))[0]
            for mask in non_chordal
        ]
        hole_free = all(not _has_hole(h) for h in copies)
        odd_antihole_free = all(find_odd_antihole(h) is None for h in copies)
    diagnostics = SquareDiagnostics(not non_chordal, hole_free, odd_antihole_free)

    nbh = closed_neighborhood_weights(g)
    if mode == "auto" and non_chordal:
        closed = [mask | (1 << v) for v, mask in enumerate(g.masks)]
        blocks = [mask | (1 << v) for v, mask in enumerate(sq.masks)]
    combined = [0] * g.n
    chosen = 0
    path = "exact-fallback" if mode == "exact" else "chordal-square"
    for component, order in parts:
        if order is None and mode == "chordal":
            raise ValueError("forced chordal path but the square is not chordal")
        if order is None and mode == "auto":
            found = _min_weight_ed(closed, blocks, sq, unit, component)
            path = "exact-fallback"
        else:
            vertices = order if order is not None else _mask_to_tuple(component)
            scale = 1 + sum(unit[v] for v in vertices)
            for v in vertices:
                combined[v] = scale * nbh[v] - unit[v]
            if order is not None and mode != "exact":
                # uses up this component's entries of combined as residuals
                found = _chordal_greedy(sq.masks, combined, reversed(order))
            else:
                found = _mwis_exact(sq, combined, component)[0]
                path = "exact-fallback"
            if sum(nbh[v] for v in _mask_to_tuple(found)) != len(vertices):
                found = None
        if found is None:
            return EDSolution(False, None, None, path, diagnostics)
        chosen |= found
    vertices = _mask_to_tuple(chosen)
    user_weight = sum(weights[v] for v in vertices) if weights is not None else None
    return EDSolution(True, vertices, user_weight, path, diagnostics)
