"""Maximum weight independent set solvers.

Two routes: a linear-scan greedy for chordal graphs driven by a perfect
elimination order, and an exact branch-and-bound for arbitrary graphs, on
an explicit stack (the reference route of ``solve(mode="exact")``).
Weights are nonnegative integers; zero-weight vertices are never put into
result sets, so optima are canonical and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, _mask_to_tuple
from .recognition import is_perfect_elimination_order


@dataclass(frozen=True)
class MwisResult:
    vertices: tuple[int, ...]
    value: int
    method: str  # "chordal-greedy" | "branch-and-bound"


def _check_weights(g: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) != g.n:
        raise ValueError(f"weight vector has length {len(w)}, expected {g.n}")
    for v, wv in enumerate(w):
        if wv < 0:
            raise ValueError(f"negative weight {wv} at vertex {v}")
    return w


def mwis_chordal(g: Graph, weights: Sequence[int], peo: Sequence[int]) -> MwisResult:
    """Maximum weight independent set of a chordal graph.

    Two passes over a verified perfect elimination order: scan forward
    keeping residual weights, marking each vertex whose residual is still
    positive and charging that residual to its later neighbors; then scan
    the marked vertices backward, keeping each one with no kept neighbor.
    """
    w = _check_weights(g, weights)
    order = tuple(peo)
    if not is_perfect_elimination_order(g, order):
        raise ValueError("order is not a perfect elimination order of the graph")
    vertices = _mask_to_tuple(_chordal_greedy(g.masks, list(w), order))
    return MwisResult(vertices, sum(w[v] for v in vertices), "chordal-greedy")


def _chordal_greedy(nbr: Sequence[int], residual: list[int], peo: Iterable[int]) -> int:
    """The two passes of :func:`mwis_chordal` on an already certified order.

    `residual` holds the weights by vertex id and is used up. Only the
    entries of the order's vertices are read or written, so the order may
    be that of one component of a larger graph. Returns the chosen mask.
    """
    marked: list[int] = []
    later = (1 << len(nbr)) - 1
    for v in peo:
        later ^= 1 << v
        r = residual[v]
        if r <= 0:
            continue
        marked.append(v)
        for u in _mask_to_tuple(nbr[v] & later):
            residual[u] -= r
    chosen_mask = 0
    for v in reversed(marked):
        if not nbr[v] & chosen_mask:
            chosen_mask |= 1 << v
    return chosen_mask


def _clique_cover_bound(g: Graph, remaining: int, w: Sequence[int]) -> int:
    """Upper bound: strip greedy maximal cliques, sum each clique's max weight.

    Cliques are seeded at the smallest uncovered vertex and grown by
    ascending id; any independent set takes at most one vertex per clique.
    """
    nbr = g.masks
    bound = 0
    uncovered = remaining
    while uncovered:
        low = uncovered & -uncovered
        seed = low.bit_length() - 1
        clique_best = w[seed]
        common = nbr[seed] & uncovered
        uncovered ^= low
        while common:
            lo = common & -common
            x = lo.bit_length() - 1
            if w[x] > clique_best:
                clique_best = w[x]
            uncovered &= ~lo
            common &= nbr[x]
        bound += clique_best
    return bound


def _branch_vertex(g: Graph, remaining: int) -> int:
    """Where :func:`mwis_exact` branches: highest degree in g[remaining], least id on ties."""
    nbr = g.masks
    pick = -1
    pick_deg = -1
    m = remaining
    while m:
        low = m & -m
        v = low.bit_length() - 1
        deg = (nbr[v] & remaining).bit_count()
        if deg > pick_deg:
            pick_deg = deg
            pick = v
        m ^= low
    return pick


def mwis_exact(g: Graph, weights: Sequence[int]) -> MwisResult:
    """Provably optimal maximum weight independent set by branch-and-bound.

    Depth-first on an explicit stack: branches on :func:`_branch_vertex`,
    include branch first, pruning with the greedy clique-cover bound when a
    node is popped; the returned set is the first optimum met in that fixed
    order. Exponential worst case.
    """
    w = _check_weights(g, weights)
    # Zero-weight vertices never enter an optimum here; drop them up front.
    pool = 0
    for v in range(g.n):
        if w[v] > 0:
            pool |= 1 << v
    best_mask, best_value = _mwis_exact(g, w, pool)
    return MwisResult(_mask_to_tuple(best_mask), best_value, "branch-and-bound")


def _mwis_exact(g: Graph, w: Sequence[int], pool: int) -> tuple[int, int]:
    """The search of :func:`mwis_exact` over the vertices of `pool` alone.

    Every vertex of `pool` must have positive weight. When `pool` is a
    component of g, this is mwis_exact on the induced component, ids mapped
    back: its branching and bound read degrees inside `remaining` and break
    ties by least id. Returns (mask, value) of the optimum.
    """
    best_value = 0
    best_mask = 0
    stack = [(pool, 0, 0)]
    while stack:
        remaining, current_mask, current_value = stack.pop()
        if not remaining:
            if current_value > best_value:
                best_value = current_value
                best_mask = current_mask
            continue
        if current_value + _clique_cover_bound(g, remaining, w) <= best_value:
            continue
        pick = _branch_vertex(g, remaining)
        # The include child is pushed last so that it is explored first.
        stack.append((remaining & ~(1 << pick), current_mask, current_value))
        stack.append(
            (remaining & ~g.closed_mask(pick), current_mask | (1 << pick), current_value + w[pick])
        )
    return best_mask, best_value


def _precedes(sq: Graph, new: int, old: int, remaining: int) -> bool:
    """True iff independent set `new` precedes `old` among mwis_exact's leaves on sq.

    Both are vertex bitmasks of independent sets of sq, and the search is
    assumed to start from every vertex of `remaining` (all weights
    positive), a union of components of sq holding both sets. Walks its
    branching rule from the root: a pick in both sets is included, a pick
    in neither is excluded, and the first pick in exactly one set decides,
    since the include branch is searched first.
    """
    while True:
        pick = _branch_vertex(sq, remaining)
        in_new = (new >> pick) & 1
        if in_new != (old >> pick) & 1:
            return bool(in_new)
        remaining &= ~sq.closed_mask(pick) if in_new else ~(1 << pick)


def wed_weights(
    g_square: Graph, nbh: Sequence[int], user: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Combine closed-neighborhood and user weights for the WED reduction.

    With M = 1 + sum(user), the combined weight M*nbh(v) - user(v) makes
    every efficient dominating set outscore every other independent set of
    the square, and ranks efficient dominating sets by ascending user
    weight. nbh must come from the original graph (every entry >= 1), so
    all combined weights are positive. Returns (weights, M).
    """
    nbh = _check_weights(g_square, nbh)
    user = _check_weights(g_square, user)
    if any(x < 1 for x in nbh):
        raise ValueError("closed-neighborhood weights must be >= 1")
    scale = 1 + sum(user)
    return tuple(scale * nbh[v] - user[v] for v in range(g_square.n)), scale
