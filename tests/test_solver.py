import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import disjoint_union, edge_sets
from perfcode import (
    closed_neighborhood_weights,
    complete_sun,
    cycle_graph,
    find_hole,
    find_odd_antihole,
    from_edge_list,
    mwis_chordal,
    mwis_exact,
    is_chordal,
    oracle_ed,
    path_graph,
    solve,
    square,
    verify_ed,
    SquareDiagnostics,
)
from perfcode.solver import efficient_dominating_sets


def test_verify_ed_examples():
    assert verify_ed(path_graph(3), [1])
    assert verify_ed(path_graph(4), [0, 3])
    assert not verify_ed(cycle_graph(4), [0, 2])


def test_verify_ed_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_ed(path_graph(3), [4])


def test_oracle_on_c4():
    # all 16 subsets fail
    assert bf.all_eds(4, list(cycle_graph(4).edges())) == []
    assert oracle_ed(cycle_graph(4)).exists is False


def test_oracle_on_weighted_c6():
    # full enumeration: e.d.s are {0,3}, {1,4}, {2,5} with weights 5, 7, 9
    c6 = cycle_graph(6)
    assert bf.all_eds(6, list(c6.edges())) == [(0, 3), (1, 4), (2, 5)]
    got = oracle_ed(c6, (1, 2, 3, 4, 5, 6))
    assert got.exists and got.vertices == (0, 3) and got.user_weight == 5
    assert got.path == "oracle"


def test_oracle_on_complete_4_sun():
    assert bf.all_eds(8, list(complete_sun(4).edges())) == []
    assert oracle_ed(complete_sun(4)).exists is False


def test_solve_p4_unit():
    solution = solve(path_graph(4), (1, 1, 1, 1))
    assert solution.exists and solution.vertices == (0, 3)
    assert solution.user_weight == 2
    assert solution.path == "chordal-square"
    # the square K4 minus {03} leaves {0,3} as the only pair with
    # neighborhood weights summing to n
    assert closed_neighborhood_weights(path_graph(4)) == (2, 3, 3, 2)


def test_solve_c4_has_no_ed():
    solution = solve(cycle_graph(4))
    assert not solution.exists
    assert solution.vertices is None and solution.user_weight is None


def test_solve_weighted_c6_takes_exact_fallback():
    solution = solve(cycle_graph(6), (1, 2, 3, 4, 5, 6))
    assert solution.exists and solution.vertices == (0, 3)
    assert solution.user_weight == 5
    assert solution.path == "exact-fallback"
    assert solution.diagnostics.chordal is False
    assert solution.diagnostics.hole_free is True
    assert solution.diagnostics.odd_antihole_free is True


def test_solve_empty_graph():
    solution = solve(from_edge_list(0, []))
    assert solution.exists and solution.vertices == ()
    solution = solve(from_edge_list(0, []), ())
    assert solution.exists and solution.user_weight == 0


def test_solve_weight_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        solve(path_graph(3), (1, 2))


def test_solve_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        solve(path_graph(3), mode="quantum")


def test_solve_forced_paths():
    g = path_graph(4)
    assert solve(g, mode="exact").path == "exact-fallback"
    assert solve(g, mode="oracle").path == "oracle"
    assert solve(g, mode="chordal").path == "chordal-square"
    with pytest.raises(ValueError, match="chordal"):
        solve(cycle_graph(6), mode="chordal")


def test_solve_respects_verify_budget(monkeypatch):
    monkeypatch.setenv("PERFCODE_VERIFY_BUDGET", "3")
    solution = solve(path_graph(4))
    assert solution.diagnostics.chordal is not None
    assert solution.diagnostics.hole_free is None
    assert solution.diagnostics.odd_antihole_free is None
    monkeypatch.setenv("PERFCODE_VERIFY_BUDGET", "not-a-number")
    with pytest.raises(ValueError, match="PERFCODE_VERIFY_BUDGET"):
        solve(path_graph(4))


def _assert_diagnostics_of_whole_square(g):
    sq = square(g)
    expected = SquareDiagnostics(
        is_chordal(sq)[0], find_hole(sq) is None, find_odd_antihole(sq) is None
    )
    assert solve(g).diagnostics == expected


@given(edge_sets(max_n=8), edge_sets(max_n=8))
@settings(max_examples=120, deadline=None)
def test_diagnostics_match_whole_square(ne_a, ne_b):
    # the verdicts read off the component squares equal those of square(g)
    _assert_diagnostics_of_whole_square(
        disjoint_union(from_edge_list(*ne_a), from_edge_list(*ne_b))
    )


@pytest.mark.parametrize(
    "g, expected",
    [
        # the square of C7 is co-C7, and the square of C9 holds a C5
        (disjoint_union(cycle_graph(7), path_graph(3)), SquareDiagnostics(False, True, False)),
        (disjoint_union(path_graph(3), cycle_graph(7)), SquareDiagnostics(False, True, False)),
        (disjoint_union(path_graph(2), cycle_graph(9)), SquareDiagnostics(False, False, True)),
    ],
)
def test_diagnostics_see_every_component(g, expected):
    _assert_diagnostics_of_whole_square(g)
    assert solve(g).diagnostics == expected


def test_verify_budget_applies_to_the_whole_graph(monkeypatch):
    # every component is under the budget, the whole graph is not
    monkeypatch.setenv("PERFCODE_VERIFY_BUDGET", "6")
    solution = solve(disjoint_union(cycle_graph(6), cycle_graph(5)))
    assert solution.diagnostics == SquareDiagnostics(False, None, None)


def test_forced_chordal_runs_components_in_order():
    # C4 (square K4) comes first and has no e.d., so solving stops before C6
    solution = solve(disjoint_union(cycle_graph(4), cycle_graph(6)), mode="chordal")
    assert not solution.exists and solution.path == "chordal-square"
    assert solution.diagnostics.chordal is False
    # C6 comes first and its square is not chordal
    with pytest.raises(ValueError, match="chordal"):
        solve(disjoint_union(cycle_graph(6), cycle_graph(4)), mode="chordal")


@given(edge_sets(max_n=7))
@settings(max_examples=150, deadline=None)
def test_lemma_equivalence_small(ne):
    # e.d.s are exactly the independent sets of the square whose closed
    # neighborhood sizes sum to n
    n, edges = ne
    g = from_edge_list(n, edges)
    sq = square(g)
    nbh = closed_neighborhood_weights(g)
    eds = set(bf.all_eds(n, edges))
    via_square = {
        s
        for s in bf.independent_sets(n, list(sq.edges()))
        if sum(nbh[v] for v in s) == n
    }
    assert eds == via_square
    assert set(efficient_dominating_sets(g)) == eds


@given(edge_sets(max_n=7), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_solve_agrees_with_enumeration(ne, seed):
    n, edges = ne
    g = from_edge_list(n, edges)
    rng = random.Random(seed)
    user = [rng.randint(1, 20) for _ in range(n)]
    solution = solve(g, user)
    eds = bf.all_eds(n, edges)
    assert solution.exists == bool(eds)
    if eds:
        assert verify_ed(g, solution.vertices)
        assert solution.user_weight == min(sum(user[v] for v in d) for d in eds)
        assert sum(user[v] for v in solution.vertices) == solution.user_weight


@given(edge_sets(max_n=5), edge_sets(max_n=5))
@settings(max_examples=80, deadline=None)
def test_disconnected_composition(ne_a, ne_b):
    # solvable iff both sides are; minimum weights add
    na, ea = ne_a
    nb, eb = ne_b
    g = from_edge_list(na + nb, ea + [(u + na, v + na) for u, v in eb])
    unit = tuple([1] * (na + nb))
    whole = solve(g, unit)
    left = solve(from_edge_list(na, ea), tuple([1] * na))
    right = solve(from_edge_list(nb, eb), tuple([1] * nb))
    assert whole.exists == (left.exists and right.exists)
    if whole.exists:
        assert whole.user_weight == left.user_weight + right.user_weight


@given(edge_sets(max_n=7), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_path_soundness_chordal_square_agrees_with_exact(ne, seed):
    # whenever the square is chordal both MWIS routes see the same optimum
    n, edges = ne
    g = from_edge_list(n, edges)
    sq = square(g)
    ok, peo = is_chordal(sq)
    if not ok:
        return
    rng = random.Random(seed)
    w = [rng.randint(0, 50) for _ in range(n)]
    assert mwis_chordal(sq, w, peo).value == mwis_exact(sq, w).value


@pytest.mark.parametrize("seed", range(6))
def test_solve_oracle_differential_midsize(seed):
    # wider fuzz at sizes past the exhaustive range
    rng = random.Random(seed * 7919 + 13)
    for _ in range(40):
        n = rng.randint(10, 18)
        p = rng.uniform(0.05, 0.95)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        user = [rng.randint(1, 30) for _ in range(n)]
        via_pipeline = solve(g, user)
        via_oracle = oracle_ed(g, user)
        assert via_pipeline.exists == via_oracle.exists
        if via_pipeline.exists:
            assert verify_ed(g, via_pipeline.vertices)
            assert via_pipeline.user_weight == via_oracle.user_weight


def test_oracle_solutions_enumerated_once():
    # K3 + K3: each triangle contributes 3 singleton choices -> 9 e.d.s
    g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    sols = list(efficient_dominating_sets(g))
    assert len(sols) == len(set(sols)) == 9
    assert all(verify_ed(g, d) for d in sols)
