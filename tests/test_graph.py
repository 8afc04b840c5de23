import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import edge_sets
from perfcode import (
    INFINITY,
    Graph,
    closed_neighborhood_weights,
    complement,
    complete_sun,
    connected_components,
    cycle_graph,
    distance,
    from_edge_list,
    induced_subgraph,
    is_independent_set,
    path_graph,
    square,
)


def test_from_edge_list_p3():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_from_edge_list_k1():
    g = from_edge_list(1, [])
    assert g.n == 1 and g.edge_count == 0


def test_from_edge_list_collapses_duplicates(caplog):
    with caplog.at_level(logging.WARNING, logger="perfcode.graph"):
        g = from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    assert g == path_graph(4)
    assert "1 duplicate" in caplog.text


@pytest.mark.parametrize("bad", [(0, 0), (3, 3)])
def test_from_edge_list_rejects_self_loops(bad):
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list(4, [bad])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(3, [(0, 3)])


@pytest.mark.parametrize(
    "n, masks, message",
    [
        (3, [0b1000, 0, 0], "neighbor 3 of vertex 0 out of range"),
        (3, [-2, 0, 0], "negative neighbor mask"),
        (3, [0, 0b010, 0], "self-loop at vertex 1"),
        (3, [0b010, 0, 0], "asymmetric adjacency: 0 lists 1"),
        (3, [0, 0], "2 rows for n=3"),
        (-1, [], "vertex count must be >= 0"),
    ],
)
def test_graph_rejects_bad_masks(n, masks, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, masks)


@given(edge_sets(max_n=12))
@settings(max_examples=100, deadline=None)
def test_graph_round_trips_through_masks(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    h = Graph(g.n, [g.neighbor_mask(v) for v in g.vertices()])
    assert h == g and h.masks == g.masks
    for v in h.vertices():
        expected = sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})
        assert list(h.neighbors(v)) == expected


@given(edge_sets(max_n=12))
@settings(max_examples=100, deadline=None)
def test_accessors_match_edge_list(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    adj = bf.adjacency(n, edges)
    for v in range(n):
        assert g.neighbors(v) == tuple(sorted(adj[v]))
        assert g.degree(v) == len(adj[v])
        assert g.closed_mask(v) == sum(1 << u for u in adj[v] | {v})
        assert [g.adjacent(v, u) for u in range(n)] == [u in adj[v] for u in range(n)]
    assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)
    assert g.edge_count == len(edges)
    dist = bf.distance_matrix(n, edges)
    reach = {tuple(u for u in range(n) if dist[v][u] != INFINITY) for v in range(n)}
    assert connected_components(g) == sorted(reach)
    h = from_edge_list(n, [(v, u) for u, v in reversed(edges)])
    assert h == g and hash(h) == hash(g)


def test_from_edge_list_rejects_negative_n():
    with pytest.raises(ValueError, match="vertex count must be >= 0"):
        from_edge_list(-1, [])


@given(edge_sets(max_n=12), st.data())
@settings(max_examples=100, deadline=None)
def test_derived_graphs_pass_the_checked_constructor(ne, data):
    """The graphs built without checks are exactly what Graph(n, masks) accepts."""
    n, edges = ne
    g = from_edge_list(n, edges)
    doubled = from_edge_list(n, [*edges, *((v, u) for u, v in edges)])
    keep = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    for h in (g, doubled, square(g), complement(g), induced_subgraph(g, keep)[0]):
        assert isinstance(h.masks, tuple)
        assert Graph(h.n, h.masks) == h


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        g.masks = (0, 0, 0)


def test_distance_on_path():
    g = path_graph(4)
    assert distance(g, 0, 3) == 3
    assert distance(g, 1, 1) == 0


def test_distance_disconnected():
    g = from_edge_list(2, [])
    assert distance(g, 0, 1) == INFINITY


def test_distance_rejects_out_of_range():
    with pytest.raises(ValueError):
        distance(path_graph(2), 0, 2)


def test_square_of_p4():
    sq = square(path_graph(4))
    assert set(sq.edges()) == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_square_of_k1():
    sq = square(from_edge_list(1, []))
    assert sq.n == 1 and sq.edge_count == 0


def test_square_of_complete_4_sun_has_induced_c4_on_sun_vertices():
    # brute-force check that the outer vertices 4..7 induce a 4-cycle
    sun = complete_sun(4)
    sq = square(sun)
    edges = list(sq.edges())
    assert bf.has_induced(sq.n, edges, 4, bf.cycle_pattern(4))
    outer = [4, 5, 6, 7]
    inside = {frozenset((u, v)) for u in outer for v in outer if u < v and sq.adjacent(u, v)}
    assert inside == {
        frozenset((4, 5)),
        frozenset((5, 6)),
        frozenset((6, 7)),
        frozenset((4, 7)),
    }


def test_closed_neighborhood_weights():
    assert closed_neighborhood_weights(path_graph(4)) == (2, 3, 3, 2)
    assert closed_neighborhood_weights(from_edge_list(1, [])) == (1,)
    assert closed_neighborhood_weights(cycle_graph(6)) == (3,) * 6


def test_complement_of_p5_is_house():
    co = complement(path_graph(5))
    assert set(co.edges()) == {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)}


def test_complement_of_triangle_is_edgeless():
    co = complement(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))
    assert co.edge_count == 0


def test_induced_subgraph_examples():
    p4 = path_graph(4)
    sub, remap = induced_subgraph(p4, [0, 1, 2])
    assert sub == path_graph(3) and remap == {0: 0, 1: 1, 2: 2}
    sub, remap = induced_subgraph(p4, [0, 3])
    assert sub.edge_count == 0 and remap == {0: 0, 3: 1}
    sub, _ = induced_subgraph(cycle_graph(6), [0, 1, 2, 3, 4])
    assert sub == path_graph(5)


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 5])


def test_connected_components():
    assert connected_components(path_graph(4)) == [(0, 1, 2, 3)]
    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [(0, 1, 2), (3, 4)]
    assert connected_components(from_edge_list(3, [])) == [(0,), (1,), (2,)]


def test_is_independent_set():
    p4 = path_graph(4)
    assert is_independent_set(p4, [0, 3])
    assert not is_independent_set(p4, [0, 1])
    assert is_independent_set(p4, [])


@given(edge_sets(max_n=12))
@settings(max_examples=150, deadline=None)
def test_square_matches_distance_brute_force(ne):
    n, edges = ne
    sq = square(from_edge_list(n, edges))
    assert {frozenset(e) for e in sq.edges()} == bf.square_edges(n, edges)


@given(edge_sets(max_n=12))
@settings(max_examples=60, deadline=None)
def test_square_is_monotone(ne):
    n, edges = ne
    sq = square(from_edge_list(n, edges))
    assert {frozenset(e) for e in edges} <= {frozenset(e) for e in sq.edges()}


@given(edge_sets(max_n=8))
@settings(max_examples=100, deadline=None)
def test_complement_is_involutive(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    assert complement(complement(g)) == g


@given(edge_sets(max_n=8), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_independent_in_square_has_disjoint_closed_neighborhoods(ne, pick):
    # the inequality behind the reduction: members of an independent set of
    # the square have pairwise disjoint closed neighborhoods, so the sizes
    # sum to at most n
    n, edges = ne
    g = from_edge_list(n, edges)
    sq = square(g)
    independent = [s for s in bf.independent_sets(n, list(sq.edges()))]
    subset = independent[pick % len(independent)]
    masks = [g.closed_mask(v) for v in subset]
    union = 0
    total = 0
    for m in masks:
        assert union & m == 0
        union |= m
        total += m.bit_count()
    assert total <= n
