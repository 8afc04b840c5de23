"""Efficient domination solvers.

The main pipeline reduces (weighted) efficient domination on a graph to
maximum weight independent set on its square, picking the chordal fast
path when the square admits one. A separate exact-cover backtracker over
closed neighborhoods acts as an independent oracle; the two routes share
no solver code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import (
    Graph,
    closed_neighborhood_weights,
    connected_components,
    induced_subgraph,
    square,
)
from .mwis import _check_weights, mwis_chordal, mwis_exact, wed_weights
from .recognition import find_hole, find_odd_antihole, is_chordal

#: Environment variable overriding the default max n for the exponential
#: hole / odd-antihole diagnostics run by solve().
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
    """Structure verdicts for the square; None means skipped over budget."""

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

    Backtracking: repeatedly pick the uncovered vertex with the fewest
    usable dominators and branch on them in ascending order; each solution
    is produced exactly once. Internal building block for the oracle and
    the theorem checks, not part of the solving pipeline.
    """
    n = g.n
    if n == 0:
        yield ()
        return
    closed = [g.closed_mask(v) for v in range(n)]
    full = (1 << n) - 1
    chosen: list[int] = []

    def backtrack(covered: int) -> Iterator[tuple[int, ...]]:
        if covered == full:
            yield tuple(sorted(chosen))
            return
        best_u = -1
        best_cands: list[int] | None = None
        for u in range(n):
            if (covered >> u) & 1:
                continue
            cands = [v for v in range(n) if (closed[v] >> u) & 1 and not closed[v] & covered]
            if best_cands is None or len(cands) < len(best_cands):
                best_u, best_cands = u, cands
                if not cands:
                    return
        for v in best_cands:
            chosen.append(v)
            yield from backtrack(covered | closed[v])
            chosen.pop()

    yield from backtrack(0)


def oracle_ed(g: Graph, user: Sequence[int] | None = None) -> EDSolution:
    """Reference solver: exhaustive exact-cover backtracking.

    Without weights, stops at the first efficient dominating set; with
    weights, enumerates all of them and keeps the first one attaining the
    minimum user weight. Independent of the square/MWIS pipeline.
    """
    if user is not None:
        user = _check_weights(g, user)
        best: tuple[int, tuple[int, ...]] | None = None
        for d in efficient_dominating_sets(g):
            weight = sum(user[v] for v in d)
            if best is None or weight < best[0]:
                best = (weight, d)
        if best is None:
            return EDSolution(False, None, None, "oracle")
        return EDSolution(True, best[1], best[0], "oracle")
    for d in efficient_dominating_sets(g):
        return EDSolution(True, d, None, "oracle")
    return EDSolution(False, None, None, "oracle")


def solve(g: Graph, user: Sequence[int] | None = None, mode: str = "auto") -> EDSolution:
    """Minimum-weight efficient domination via MWIS on the square.

    Per connected component: square the component, combine its closed
    neighborhood sizes with the user weights, and run the chordal greedy
    when the square is chordal (always sound to test directly) or the
    exact branch-and-bound otherwise. An efficient dominating set exists
    iff the optimum's neighborhood weight covers the whole component.
    Components are solved in order, stopping at the first without one.

    mode: "auto" picks per component; "chordal" / "exact" force one MWIS
    route; "oracle" delegates to :func:`oracle_ed`. The diagnostics are
    read off the component squares: the square of a disjoint union is the
    disjoint union of the squares, and holes and antiholes are connected,
    so each verdict on the whole square is the AND of the per-component
    ones. Chordality is always reported; the exponential hole /
    odd-antihole verdicts are skipped (None) when the whole graph's n is
    above the verification budget (PERFCODE_VERIFY_BUDGET, default 30).
    """
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    weights = _check_weights(g, user) if user is not None else None
    if mode == "oracle":
        return oracle_ed(g, weights)
    unit = weights if weights is not None else tuple([0] * g.n)

    parts = []
    for component in connected_components(g):
        sub, _ = induced_subgraph(g, component)
        sq = square(sub)
        parts.append((component, sub, sq, *is_chordal(sq)))
    squares = [sq for _, _, sq, _, _ in parts]
    within_budget = g.n <= default_verify_budget()
    diagnostics = SquareDiagnostics(
        chordal=all(chordal for _, _, _, chordal, _ in parts),
        hole_free=all(find_hole(sq) is None for sq in squares) if within_budget else None,
        odd_antihole_free=(
            all(find_odd_antihole(sq) is None for sq in squares) if within_budget else None
        ),
    )

    chosen: list[int] = []
    path = "exact-fallback" if mode == "exact" else "chordal-square"
    for component, sub, sq, chordal, cert in parts:
        if mode == "chordal" and not chordal:
            raise ValueError("forced chordal path but the square is not chordal")
        nbh = closed_neighborhood_weights(sub)
        combined, _scale = wed_weights(sq, nbh, tuple(unit[v] for v in component))
        if chordal and mode != "exact":
            result = mwis_chordal(sq, combined, cert)
        else:
            result = mwis_exact(sq, combined)
            path = "exact-fallback"
        if sum(nbh[v] for v in result.vertices) != sub.n:
            return EDSolution(False, None, None, path, diagnostics)
        chosen.extend(component[v] for v in result.vertices)
    chosen.sort()
    user_weight = sum(weights[v] for v in chosen) if weights is not None else None
    return EDSolution(True, tuple(chosen), user_weight, path, diagnostics)
