from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from perfcode import from_edge_list


@st.composite
def edge_sets(draw, max_n: int = 8, min_n: int = 0):
    """A random (n, edge list) pair; edges chosen by a subset bitmask."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]


def disjoint_union(*graphs):
    """Disjoint union of graphs, ids shifted in the given order."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return from_edge_list(offset, edges)


def planted_ed_graph(n: int, rng: random.Random):
    """A graph with a planted efficient dominating set, and that set.

    n // 5 stars cover all n vertices (every star has a leaf); then about
    n random edges join leaves only, so the centres stay an e.d.
    """
    k = max(1, n // 5)
    order = list(range(n))
    rng.shuffle(order)
    centres, leaves = order[:k], order[k:]
    edges = set()
    for j, v in enumerate(leaves):
        c = centres[j] if j < k else rng.choice(centres)
        edges.add((min(c, v), max(c, v)))
    for _ in range(n):
        a, b = rng.sample(leaves, 2)
        edges.add((min(a, b), max(a, b)))
    return from_edge_list(n, sorted(edges)), tuple(sorted(centres))
