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

The square diagnostics that come with a solution are polynomial up to the
odd-antihole fallback: whether a square has a hole is decided by the
polynomial test in front of every hole search, whose exhaustive DFS runs
only to produce a witness, and the odd-antihole DFS runs only when the
complement of the square has a hole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import (
    Graph,
    _mask_to_tuple,
    closed_neighborhood_weights,
    connected_components,
    induced_subgraph,
    square,
)
from .mwis import (
    _check_weights,
    _chordal_greedy,
    _precedes,
    mwis_chordal,  # not called here; bench/tracing.py wraps it by this name
    mwis_exact,
    wed_weights,
)
from .recognition import find_hole, find_odd_antihole, is_chordal

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

    :func:`solve` reads what it can off each component square's
    chordality certificate. A chordal square has no induced cycle of
    length >= 4, so no hole; nor an odd antihole, since every co-C_k with
    k >= 6 holds an induced C4. A certificate C_k with k >= 5 is itself a
    hole. Only a C4 certificate leaves both searches to run. There, the
    hole verdict is polynomial: :func:`find_hole` first runs a polynomial
    hole test, and its DFS runs only on a square with a hole, to produce a
    witness. :func:`find_odd_antihole` runs the same test on the square's
    complement, so its DFS runs only when the complement has a hole.
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


def _min_weight_ed(sub: Graph, sq: Graph, user: Sequence[int]) -> tuple[int, ...] | None:
    """The e.d. of `sub` that mwis_exact on its square `sq` would return, or None.

    Weighted exact cover of the closed neighborhoods, depth-first on an
    explicit stack: branch on the uncovered vertex with the fewest
    candidates (closed neighbors outside the closed neighborhood in `sq` of
    every chosen vertex, i.e. whose own closed neighborhood is still
    uncovered; the scan stops at the first with 0 or 1), candidates in
    ascending id, pruning nodes heavier than the best e.d. so far. Ties on
    user weight go to the set that mwis_exact meets first (see
    :func:`_precedes`), which is the one it returns: with the weights of
    :func:`wed_weights` every e.d. outscores every other independent set of
    the square, and each independent set is exactly one leaf of its search.
    """
    closed = [sub.closed_mask(v) for v in range(sub.n)]
    full = (1 << sub.n) - 1
    best_weight = -1
    best = 0
    stack = [(0, full, 0, 0)]  # (covered, usable, chosen, weight)
    while stack:
        covered, usable, chosen, weight = stack.pop()
        if best_weight >= 0 and weight > best_weight:
            continue
        if covered == full:
            if best_weight < 0 or weight < best_weight or _precedes(sq, chosen, best):
                best_weight, best = weight, chosen
            continue
        fewest = sub.n + 1
        rest = full ^ covered
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
            covers, blocks = closed[c], sq.closed_mask(c)
            stack.append((covered | covers, usable & ~blocks, chosen | (1 << c), weight + user[c]))
    return _mask_to_tuple(best) if best_weight >= 0 else None


def solve(g: Graph, user: Sequence[int] | None = None, mode: str = "auto") -> EDSolution:
    """Minimum-weight efficient domination via MWIS on the square.

    Per connected component: square the component and test the square for
    chordality (always tested directly, never assumed). A chordal square
    runs the two-pass greedy MWIS over the certified perfect elimination
    order, on closed neighborhood sizes combined with the user weights
    (:func:`wed_weights`); an e.d. exists iff the optimum's neighborhood
    weight covers the whole component. A non-chordal square runs an exact
    cover search over the closed neighborhoods (path "exact-fallback"),
    which returns the very set the exact MWIS branch-and-bound would: ties
    on user weight are broken by that search's own branching order.
    Components are solved in order, stopping at the first without an e.d.

    mode: "auto" picks per component as above; "chordal" forces the greedy
    and raises ValueError at the first component whose square is not
    chordal; "exact" forces :func:`mwis_exact` on every square, the
    reference MWIS route; "oracle" delegates to :func:`oracle_ed`. The
    diagnostics are read off the component squares: the square of a
    disjoint union is the disjoint union of the squares, and holes and
    antiholes are connected, so each verdict on the whole square is the AND
    of the per-component ones. Chordality is always reported; the hole /
    odd-antihole verdicts are skipped (None) when the whole graph's n is
    above the verification budget
    (PERFCODE_VERIFY_BUDGET, default 30). Within it, a component's verdicts
    come off its chordality certificate where they can (see
    :class:`SquareDiagnostics`): a chordal square is hole-free and
    odd-antihole-free, and a C_{>=5} certificate is a hole; otherwise
    :func:`find_hole` / :func:`find_odd_antihole` search the square. The
    hole verdict is polynomial, and the exhaustive DFS behind either search
    runs only when the square (or its complement) has a hole, to produce a
    witness. A connected graph is its own component and is not copied.
    """
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    weights = _check_weights(g, user) if user is not None else None
    if mode == "oracle":
        return oracle_ed(g, weights)
    unit = weights if weights is not None else tuple([0] * g.n)

    components = connected_components(g)
    parts = []
    for component in components:
        sub = g if len(components) == 1 else induced_subgraph(g, component)[0]
        sq = square(sub)
        parts.append((component, sub, sq, *is_chordal(sq)))
    non_chordal = [(sq, cert) for _, _, sq, chordal, cert in parts if not chordal]
    within_budget = g.n <= default_verify_budget()
    diagnostics = SquareDiagnostics(
        chordal=not non_chordal,
        hole_free=(
            all(len(cert.vertices) == 4 and find_hole(sq) is None for sq, cert in non_chordal)
            if within_budget
            else None
        ),
        odd_antihole_free=(
            all(find_odd_antihole(sq) is None for sq, _ in non_chordal) if within_budget else None
        ),
    )

    chosen: list[int] = []
    path = "exact-fallback" if mode == "exact" else "chordal-square"
    for component, sub, sq, chordal, cert in parts:
        if mode == "chordal" and not chordal:
            raise ValueError("forced chordal path but the square is not chordal")
        local = tuple(unit[v] for v in component)
        if mode == "auto" and not chordal:
            vertices = _min_weight_ed(sub, sq, local)
            path = "exact-fallback"
        else:
            nbh = closed_neighborhood_weights(sub)
            combined, _scale = wed_weights(sq, nbh, local)
            if chordal and mode != "exact":
                vertices = _chordal_greedy(sq, combined, cert).vertices
            else:
                vertices = mwis_exact(sq, combined).vertices
                path = "exact-fallback"
            if sum(nbh[v] for v in vertices) != sub.n:
                vertices = None
        if vertices is None:
            return EDSolution(False, None, None, path, diagnostics)
        chosen.extend(component[v] for v in vertices)
    chosen.sort()
    user_weight = sum(weights[v] for v in chosen) if weights is not None else None
    return EDSolution(True, tuple(chosen), user_weight, path, diagnostics)
