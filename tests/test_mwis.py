import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import complete_graph, dense_graphs, disjoint_union, edge_sets
from perfcode import (
    closed_neighborhood_weights,
    complete_sun,
    cycle_graph,
    from_edge_list,
    gen_random_chordal,
    is_chordal,
    mwis_chordal,
    mwis_exact,
    path_graph,
    square,
)
from perfcode.mwis import _chordal_greedy
from perfcode.recognition import _lexbfs


def test_chordal_greedy_on_p3():
    # enumeration gives {1} with value 3
    g = path_graph(3)
    assert bf.mwis_value(3, list(g.edges()), (1, 3, 1)) == 3
    result = mwis_chordal(g, (1, 3, 1))
    assert result.vertices == (1,) and result.value == 3
    assert result.method == "chordal-greedy"


def test_chordal_greedy_on_star():
    # take all three leaves (value 6) over the heavy center (value 5)
    g = from_edge_list(4, [(3, 0), (3, 1), (3, 2)])
    assert bf.mwis_value(4, list(g.edges()), (2, 2, 2, 5)) == 6
    result = mwis_chordal(g, (2, 2, 2, 5))
    assert result.vertices == (0, 1, 2) and result.value == 6


def test_chordal_greedy_single_vertex():
    g = from_edge_list(1, [])
    result = mwis_chordal(g, (7,))
    assert result.vertices == (0,) and result.value == 7


def test_chordal_greedy_rejects_non_chordal_graphs():
    for g in (cycle_graph(4), square(complete_sun(4))):
        assert not is_chordal(g)[0]
        with pytest.raises(ValueError, match="not chordal"):
            mwis_chordal(g, (1,) * g.n)


def test_chordal_greedy_skips_zero_weight_vertices():
    g = from_edge_list(3, [])
    result = mwis_chordal(g, (0, 2, 0))
    assert result.vertices == (1,)


def test_exact_on_c5_unit():
    result = mwis_exact(cycle_graph(5), (1,) * 5)
    assert result.value == 2 and result.method == "branch-and-bound"
    assert bf.is_independent(bf.adjacency(5, cycle_graph(5).edges()), result.vertices)


def test_exact_on_octahedron_closed_neighborhood_weights():
    # enumeration over the 64 subsets gives two antipodal vertices, value 10
    sq = square(cycle_graph(6))
    w = closed_neighborhood_weights(sq)
    assert w == (5,) * 6
    assert bf.mwis_value(6, list(sq.edges()), w) == 10
    result = mwis_exact(sq, w)
    assert result.value == 10
    assert len(result.vertices) == 2
    a, b = result.vertices
    assert (b - a) == 3  # antipodal in the original C6


def test_exact_on_edgeless():
    result = mwis_exact(from_edge_list(4, []), (1, 2, 3, 4))
    assert result.vertices == (0, 1, 2, 3) and result.value == 10


def test_exact_never_adds_zero_weight_vertices():
    result = mwis_exact(from_edge_list(3, []), (0, 1, 0))
    assert result.vertices == (1,)


def test_weight_validation():
    g = path_graph(3)
    with pytest.raises(ValueError, match="length"):
        mwis_exact(g, (1, 2))
    with pytest.raises(ValueError, match="negative"):
        mwis_exact(g, (1, -2, 1))


@given(edge_sets(max_n=7), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_exact_matches_subset_enumeration(ne, seed):
    n, edges = ne
    g = from_edge_list(n, edges)
    rng = random.Random(seed)
    w = [rng.randint(0, 30) for _ in range(n)]
    result = mwis_exact(g, w)
    assert bf.is_independent(bf.adjacency(n, edges), result.vertices)
    assert sum(w[v] for v in result.vertices) == result.value
    assert result.value == bf.mwis_value(n, edges, w)


@given(st.integers(1, 40), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chordal_greedy_matches_exact_on_random_chordal(n, fill, seed):
    g = gen_random_chordal(n, fill, seed)
    assert is_chordal(g)[0]
    rng = random.Random(seed ^ 0xC0FFEE)
    w = [rng.randint(1, 100) for _ in range(n)]
    greedy = mwis_chordal(g, w)
    exact = mwis_exact(g, w)
    assert bf.is_independent(bf.adjacency(n, g.edges()), greedy.vertices)
    assert sum(w[v] for v in greedy.vertices) == greedy.value
    assert greedy.value == exact.value


@given(st.lists(st.tuples(st.integers(1, 15), st.floats(0.0, 0.9)), min_size=2, max_size=4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chordal_greedy_matches_exact_on_disjoint_unions(pieces, seed):
    # one greedy per component, all on one residual list
    g = disjoint_union(*(gen_random_chordal(n, fill, seed + i) for i, (n, fill) in enumerate(pieces)))
    rng = random.Random(seed)
    w = [rng.randint(0, 9) for _ in range(g.n)]
    greedy = mwis_chordal(g, w)
    assert bf.is_independent(bf.adjacency(g.n, g.edges()), greedy.vertices)
    assert greedy.value == sum(w[v] for v in greedy.vertices) == mwis_exact(g, w).value


@st.composite
def split_graphs(draw, max_n: int = 14):
    """A clique 0..k-1 and an independent set after it, each member seeing
    some of the clique."""
    k = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_n - k))
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for x in range(k, k + m):
        edges += [(c, x) for c in draw(st.sets(st.integers(0, k - 1)))]
    return from_edge_list(k + m, edges)


@st.composite
def dense_chordal_graphs(draw):
    """K_n, a split graph or gen_random_chordal(n, 0.9, seed)."""
    kind = draw(st.sampled_from(["clique", "split", "chordal 0.9"]))
    if kind == "clique":
        return complete_graph(draw(st.integers(1, 14)))
    if kind == "split":
        return draw(split_graphs())
    return gen_random_chordal(draw(st.integers(1, 30)), 0.9, draw(st.integers(0, 2**32 - 1)))


@given(dense_chordal_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_chordal_greedy_matches_exact_on_dense_chordal_graphs(g, data):
    # weights 0..2: many ties and zeros on the offset path
    w = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    greedy = mwis_chordal(g, w)
    exact = mwis_exact(g, w)
    assert bf.is_independent(bf.adjacency(g.n, g.edges()), greedy.vertices)
    assert all(w[v] > 0 for v in greedy.vertices)
    assert greedy.value == sum(w[v] for v in greedy.vertices) == exact.value


class _CountedResiduals(list):
    """Residual weights that count their writes."""

    writes = 0

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


@given(dense_graphs(min_n=1, max_n=40), st.data())
@settings(max_examples=60, deadline=None)
def test_chordal_greedy_on_a_clique_square_writes_no_residual(g, data):
    sq = square(g)
    assume(sq.edge_count == g.n * (g.n - 1) // 2)
    [(_, order, _)], seen = _lexbfs(sq, True)
    w = data.draw(st.lists(st.integers(0, 5), min_size=g.n, max_size=g.n))
    residual = _CountedResiduals(w)
    chosen = _chordal_greedy(seen, residual, order)
    # one running maximum: the first vertex of greatest weight in the elimination order
    heaviest = max(w)
    expected = 0 if heaviest == 0 else 1 << next(v for v in reversed(order) if w[v] == heaviest)
    assert chosen == expected
    assert residual.writes == 0


@given(edge_sets(max_n=7), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_wed_soundness(ne, seed):
    # among independent sets of the square, the combined weight is maximized
    # exactly by the minimum-user-weight efficient dominating sets, whenever
    # an efficient dominating set exists at all
    n, edges = ne
    g = from_edge_list(n, edges)
    sq = square(g)
    rng = random.Random(seed)
    user = [rng.randint(0, 9) for _ in range(n)]
    nbh = closed_neighborhood_weights(g)
    scale = 1 + sum(user)
    combined = [scale * nbh[v] - user[v] for v in range(n)]
    eds = bf.all_eds(n, edges)
    if not eds:
        return
    best_combined = -1
    argmax = set()
    for subset in bf.independent_sets(n, list(sq.edges())):
        value = sum(combined[v] for v in subset)
        if value > best_combined:
            best_combined, argmax = value, {subset}
        elif value == best_combined:
            argmax.add(subset)
    min_user = min(sum(user[v] for v in d) for d in eds)
    expected = {d for d in eds if sum(user[v] for v in d) == min_user}
    assert argmax == expected
