"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed and its position in
the corpus: each item draws from its own ``random.Random`` seeded through
``perfcode.verify._split_seed``, so corpora are reproducible and no input is
ever chosen, dropped or resized by how the program behaves on it.
"""

from __future__ import annotations

import random
from itertools import combinations

from perfcode import Graph, TrialConfig, from_edge_list, gen_random_chordal
from perfcode.verify import _random_graph, _split_seed

#: One corpus item for the solve workloads: graph, user weights, family tag.
SolveItem = tuple[Graph, tuple[int, ...], str]

WEIGHTS = (1, 20)
SOLVE_SMALL_SIZE = 2000
#: The exact fallback's cost and the trial cost of a campaign are
#: heavy-tailed, so a window that cycled through a few hundred items read
#: whichever heavy instances a seed drew (throughput moved by a tenth to a
#: third between seeds). These corpora are large enough that a 15 s window
#: meets most solve-exact items once and each campaign about twice.
SOLVE_EXACT_SIZE = 1200
CAMPAIGN_SIZE = 450
CAMPAIGN_TRIALS = 10
SOLVE_CHORDAL_SIZE = 60
SOLVE_OVERRUN_SIZE = 30


def planted_ed_graph(n: int, rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """A graph on n vertices with a planted efficient dominating set.

    n // 5 vertices become dominators; every other vertex is attached to
    exactly one of them (each dominator gets at least one), and sparse
    random edges are added among the non-dominators only, so the planted
    set stays independent and dominates every vertex exactly once.

    The sparse edges are a uniform sample of a fixed share, 1.5 / n, of
    the pairs of non-dominators. A fixed count, not one coin per pair,
    because the exact fallback's cost grows steeply with it: with one coin
    per pair, the heaviest instances of a corpus tended to be those that
    drew the most edges, and the tail latency moved more between seeds.
    Returns the graph and the planted set.
    """
    k = max(1, n // 5)
    vertices = list(range(n))
    rng.shuffle(vertices)
    dominators, others = vertices[:k], vertices[k:]
    edges = [(dominators[j] if j < k else rng.choice(dominators), v) for j, v in enumerate(others)]
    pairs = list(combinations(others, 2))
    edges += rng.sample(pairs, round(1.5 / n * len(pairs)))
    return from_edge_list(n, edges), tuple(sorted(dominators))


def planted_ed_tree(n: int, rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """A tree on n >= 2 vertices with a planted efficient dominating set.

    max(1, n // 5) stars, each with at least one leaf, joined into a tree
    by one edge from a leaf of each star to a leaf of an earlier star.
    Leaf-to-leaf edges never touch a centre, so the centres stay an
    efficient dominating set. Returns the tree and the centres.
    """
    k = max(1, n // 5)
    vertices = list(range(n))
    rng.shuffle(vertices)
    centres, others = vertices[:k], vertices[k:]
    leaves: list[list[int]] = [[] for _ in range(k)]
    for j, v in enumerate(others):
        leaves[j if j < k else rng.randrange(k)].append(v)
    edges = [(c, v) for c, star in zip(centres, leaves) for v in star]
    for j in range(1, k):
        edges.append((rng.choice(leaves[j]), rng.choice(leaves[rng.randrange(j)])))
    return from_edge_list(n, edges), tuple(sorted(centres))


def _weights(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(*WEIGHTS) for _ in range(n))


def _spread(j: int, low: int, high: int, period: int) -> int:
    """Stratified size: item j of each run of `period` items sweeps low..high."""
    return low + (j % period) * (high - low) // (period - 1)


def solve_small(seed: int) -> list[SolveItem]:
    """Weighted G(n, p), n in 7..16, p in 0.05..0.95: acceptance traffic."""
    items = []
    for i in range(SOLVE_SMALL_SIZE):
        rng = random.Random(_split_seed(seed, i))
        n = rng.randint(7, 16)
        p = rng.uniform(0.05, 0.95)
        g = _random_graph(n, p, rng)
        items.append((g, _weights(n, rng), "random"))
    return items


def solve_exact(seed: int) -> list[SolveItem]:
    """Planted yes / near-miss no pairs, n in 40..90.

    Items alternate between a planted graph and the same graph with one
    edge added between two dominators. Sizes are stratified so that any
    run of items covers the whole n range.
    """
    items: list[SolveItem] = []
    for pair in range(SOLVE_EXACT_SIZE // 2):
        rng = random.Random(_split_seed(seed, f"planted:{pair}"))
        n = _spread(pair * 7, 40, 90, 51)
        g, planted = planted_ed_graph(n, rng)
        w = _weights(n, rng)
        items.append((g, w, "planted-yes"))
        items.append((from_edge_list(n, [*g.edges(), tuple(rng.sample(planted, 2))]), w, "planted-no"))
    return items


def solve_chordal(seed: int) -> list[SolveItem]:
    """Trees with n in 100..400: random trees alternating with planted-e.d. trees."""
    items: list[SolveItem] = []
    for i in range(SOLVE_CHORDAL_SIZE):
        rng = random.Random(_split_seed(seed, f"tree:{i}"))
        n = _spread(i // 2 * 11, 100, 400, 30)
        if i % 2 == 0:
            items.append((gen_random_chordal(n, 0.0, rng.getrandbits(64)), _weights(n, rng), "random-tree"))
        else:
            items.append((planted_ed_tree(n, rng)[0], _weights(n, rng), "planted-tree"))
    return items


def campaign(seed: int) -> list[TrialConfig]:
    """Random-trial campaigns alternating T1 and T4, n in 7..14."""
    return [
        TrialConfig(
            theorem="T1" if k % 2 == 0 else "T4",
            seed=_split_seed(seed, f"campaign:{k}"),
            trials=CAMPAIGN_TRIALS,
            n_range=(7, 14),
        )
        for k in range(CAMPAIGN_SIZE)
    ]


def solve_overrun(seed: int) -> list[SolveItem]:
    """gen_random_chordal(n, 0.3) graphs, n in 100..200.

    Those whose square is not chordal reach the exact fallback with n far
    above what it finishes in a second: the unbounded-fallback defect.
    """
    items: list[SolveItem] = []
    for i in range(SOLVE_OVERRUN_SIZE):
        rng = random.Random(_split_seed(seed, f"chordal:{i}"))
        n = _spread(i * 7, 100, 200, 101)
        items.append((gen_random_chordal(n, 0.3, rng.getrandbits(64)), _weights(n, rng), "chordal-fill0.3"))
    return items
