from __future__ import annotations

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
