"""Maximum weight independent set solvers.

Two routes: a linear-scan greedy for chordal graphs, over the perfect
elimination order of the checked LexBFS pass (never a caller's order),
and an exact branch-and-bound for arbitrary graphs, on an explicit stack.
Weights are nonnegative integers; zero-weight vertices are never put into
result sets. Of tied optima the exact search returns the lexicographically
least sorted vertex tuple. ``solve`` runs the greedy on each chordal
component square; the branch-and-bound is public API and the test
suite's MWIS reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, _mask_to_tuple
from .recognition import _lexbfs


@dataclass(frozen=True)
class MwisResult:
    vertices: tuple[int, ...]
    value: int
    method: str  # "chordal-greedy" | "branch-and-bound"


def _check_weights(g: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) != g.n:
        raise ValueError(f"weight vector has length {len(w)}, expected {g.n}")
    # C-level passes for the usual case: a float, or any other non-int, in w
    # makes the sum a non-int or raises; a bool sums as an int, so its type
    # is looked for. Only a failing vector walks the vertices, to name the
    # culprit.
    try:
        if not w or (type(sum(w)) is int and min(w) >= 0 and bool not in map(type, w)):
            return w
    except TypeError:
        pass
    for v, wv in enumerate(w):
        if isinstance(wv, bool) or not isinstance(wv, int):
            raise ValueError(f"non-integer weight {wv!r} at vertex {v}")
        if wv < 0:
            raise ValueError(f"negative weight {wv} at vertex {v}")
    return w


def mwis_chordal(g: Graph, weights: Sequence[int]) -> MwisResult:
    """Maximum weight independent set of a chordal graph.

    Frank's two passes over each component's perfect elimination order,
    from the checked LexBFS pass ``solve`` runs on a square: scan forward
    keeping residual weights, marking each vertex whose residual is still
    positive and charging it to its later neighbors; then scan the marked
    vertices backward, keeping each one with no kept neighbor. Raises
    ValueError if the graph is not chordal.
    """
    w = _check_weights(g, weights)
    parts, seen = _lexbfs(g, True, stop_at_failure=True)
    if parts and parts[-1][1] is None:  # a failing part is the last
        raise ValueError("graph is not chordal")
    residual = list(w)
    chosen = 0
    for _, order, _ in parts:
        chosen |= _chordal_greedy(seen, residual, order)
    vertices = _mask_to_tuple(chosen)
    return MwisResult(vertices, sum(w[v] for v in vertices), "chordal-greedy")


def _chordal_greedy(seen: Sequence[int], residual: list[int], order: Sequence[int]) -> int:
    """The two passes of :func:`mwis_chordal`, over the reversal of `order`.

    The reversal of `order` is a certified perfect elimination order, and
    seen[v] is the bitmask of v's neighbors before v in `order`: its later
    neighbors in the elimination order. `residual` holds the weights by
    vertex id and is used up. Only the entries of the order's vertices are
    read or written, so the order may be that of one component of a
    larger graph. A marked vertex whose later neighbors are all the
    vertices still to come (as many as its position in `order`) charges
    them at once: its residual goes into a running offset, subtracted from
    each residual as it is read. So a clique costs one running maximum and
    writes no residual; any other marked vertex charges each later
    neighbor in turn. Returns the chosen mask.
    """
    marked: list[int] = []
    offset = 0
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        r = residual[v] - offset
        if r <= 0:
            continue
        marked.append(v)
        later = seen[v]
        if later.bit_count() == i:
            offset += r
            continue
        while later:
            low = later & -later
            residual[low.bit_length() - 1] -= r
            later ^= low
    # A kept vertex is later in the elimination order than v, so only seen[v] can meet it.
    chosen = 0
    for v in reversed(marked):
        if not seen[v] & chosen:
            chosen |= 1 << v
    return chosen


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


def mwis_exact(g: Graph, weights: Sequence[int]) -> MwisResult:
    """Provably optimal maximum weight independent set by branch-and-bound.

    Depth-first on an explicit stack: branches on the least remaining id,
    include branch first, pruning with the greedy clique-cover bound when a
    node is popped. Every vertex below the pick is already decided, so the
    leaves are met in lexicographic order of their sorted vertex tuples,
    and the first optimum met, the one returned, is the lexicographically
    least. Exponential worst case.
    """
    w = _check_weights(g, weights)
    # Zero-weight vertices never enter an optimum here; drop them up front.
    pool = 0
    for v in range(g.n):
        if w[v] > 0:
            pool |= 1 << v
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
        pick = (remaining & -remaining).bit_length() - 1
        # The include child is pushed last so that it is explored first.
        stack.append((remaining & ~(1 << pick), current_mask, current_value))
        stack.append(
            (remaining & ~g.closed_mask(pick), current_mask | (1 << pick), current_value + w[pick])
        )
    return MwisResult(_mask_to_tuple(best_mask), best_value, "branch-and-bound")
