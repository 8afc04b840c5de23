import hashlib
import inspect
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import (
    complete_graph, dense_graphs, disjoint_union, edge_sets, g_k, h_k, planted_ed_graph,
)
from perfcode import (
    closed_neighborhood_weights,
    complete_sun,
    cycle_graph,
    find_hole,
    find_odd_antihole,
    from_edge_list,
    gen_random_chordal,
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
from perfcode.recognition import _lexbfs
from perfcode.solver import _min_weight_ed, efficient_dominating_sets

WEIGHT_RANGES = {"unit": (1, 1), "0..3": (0, 3), "1..20": (1, 20)}
SOLVE_DIGEST = "ce7a617e878c995e92b00801d76579b70fdf8fd9d34520c1bba18b5b79ad9622"
ORACLE_DIGEST = "c11fc9ac3ae4aadf037561bb0ee456665939b942f43576fb8a50751c6428b211"


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
    solution = oracle_ed(from_edge_list(0, []))
    assert solution.exists and solution.vertices == () and solution.path == "oracle"
    solution = oracle_ed(from_edge_list(0, []), ())
    assert solution.exists and solution.vertices == () and solution.user_weight == 0
    assert list(efficient_dominating_sets(from_edge_list(0, []))) == [()]


def test_solve_weight_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        solve(path_graph(3), (1, 2))


@pytest.mark.parametrize("bad", [0.5, 1e17, "3"])
def test_non_integer_weights_are_rejected(bad):
    """Every entry point that takes weights names the first non-integer one."""
    g = path_graph(3)
    w = (1, bad, 1)
    message = r"non-integer weight .* at vertex 1"
    for call in (
        lambda: solve(g, w),
        lambda: oracle_ed(g, w),
        lambda: mwis_exact(g, w),
        lambda: mwis_chordal(g, w),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_solve_rejects_unknown_mode():
    # each component's square picks its route, so solve takes no mode;
    # every result reports diagnostics.chordal and its path, and oracle_ed
    # is the cross-check, called by name
    assert list(inspect.signature(solve).parameters) == ["g", "user"]
    for mode in ("exact", "chordal", "oracle"):
        with pytest.raises(TypeError, match="mode"):
            solve(path_graph(3), mode=mode)


def test_solve_forced_paths():
    g = path_graph(4)
    assert solve(g).path == "chordal-square"
    assert oracle_ed(g).path == "oracle"


def test_solve_respects_verify_budget():
    # n = 31 is one past DEFAULT_VERIFY_BUDGET
    solution = solve(path_graph(31))
    assert solution.diagnostics.chordal is True
    assert solution.diagnostics.hole_free is None
    assert solution.diagnostics.odd_antihole_free is None


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


@given(edge_sets(max_n=12))
@settings(max_examples=200, deadline=None)
def test_diagnostics_of_single_graphs_match_whole_square(ne):
    # covers connected graphs, where solve tests the square of the graph
    # itself, not of a copy
    _assert_diagnostics_of_whole_square(from_edge_list(*ne))


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


def test_verify_budget_applies_to_the_whole_graph():
    # every component is under the budget of 30, the whole graph (n = 31) is not
    solution = solve(disjoint_union(cycle_graph(6), *[cycle_graph(5)] * 5))
    assert solution.diagnostics == SquareDiagnostics(False, None, None)


def _count_calls(monkeypatch):
    """Count solve's calls of the hole test, the searches and the component copies.

    `is_chordal` and `square` are counted too, and no test below expects
    them: solve takes the chordality verdict alone, with no cycle witness,
    and computes the rows of the square it reads one by one.
    """
    import perfcode.solver

    calls = Counter()
    names = (
        "_has_hole",
        "connected_components",
        "find_hole",
        "find_odd_antihole",
        "induced_subgraph",
        "is_chordal",
        "square",
    )
    for name in names:

        def counted(*args, _name=name, _original=getattr(perfcode.solver, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(perfcode.solver, name, counted)
    return calls


def test_chordal_connected_square_runs_no_search_and_no_copy(monkeypatch):
    calls = _count_calls(monkeypatch)
    solution = solve(path_graph(10))
    assert solution.diagnostics == SquareDiagnostics(True, True, True)
    assert calls == Counter()


def test_hole_verdict_comes_from_the_hole_test(monkeypatch):
    # the square of C9 has a hole, an induced C5, which solve does not build
    assert is_chordal(square(cycle_graph(9)))[1].kind == "C5"
    calls = _count_calls(monkeypatch)
    solution = solve(cycle_graph(9))
    assert solution.diagnostics == SquareDiagnostics(False, False, True)
    assert calls == Counter(_has_hole=1, find_odd_antihole=1)


def test_c4_certificate_runs_both_searches(monkeypatch):
    assert is_chordal(square(cycle_graph(6)))[1].kind == "C4"
    calls = _count_calls(monkeypatch)
    solution = solve(disjoint_union(cycle_graph(6), path_graph(3)))
    assert solution.diagnostics == SquareDiagnostics(False, True, True)
    # the hole verdict needs no witness, so the polynomial test stands in for find_hole
    # one copy, of the non-chordal component's square, for the diagnostics
    assert calls == Counter(_has_hole=1, find_odd_antihole=1, induced_subgraph=1)


def test_disconnected_chordal_graph_is_solved_in_place(monkeypatch):
    calls = _count_calls(monkeypatch)
    g = disjoint_union(path_graph(3), path_graph(4), from_edge_list(1, []))
    solution = solve(g)
    assert solution.vertices == (1, 3, 6, 7)
    assert solution.diagnostics == SquareDiagnostics(True, True, True)
    assert calls == Counter()


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(8),
        # found by a seeded search over small connected G(n, p) graphs
        from_edge_list(
            8, [(0, 1), (0, 4), (0, 6), (1, 2), (1, 4), (2, 5), (3, 5), (3, 7), (6, 7)]
        ),
    ],
)
def test_c4_certificate_with_a_hole_elsewhere(g):
    # is_chordal's witness is a C4; the hole test still sees the C5
    sq = square(g)
    assert is_chordal(sq)[1].kind == "C4"
    assert find_hole(sq).kind == "C5"
    assert solve(g).diagnostics.hole_free is False


def _pinned_solve_inputs(count=1500):
    """Seeded graphs with n 0..18, connected and disconnected, and weights 0..5."""
    rng = random.Random(1729)
    for i in range(count):
        n = rng.randint(0, 18)
        pairs = list(combinations(range(n), 2))
        if i % 3 == 0:  # sparse and connected: a long thin tree plus a few chords
            edges = {(rng.randint(max(0, v - 3), v - 1), v) for v in range(1, n)}
            edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(0, 3))))
        else:  # G(n, p); for i % 3 == 2 no edge crosses the split
            p = rng.uniform(0.05, 0.6)
            split = n if i % 3 == 1 else rng.randint(0, n)
            edges = {(u, v) for u, v in pairs if (u < split) == (v < split) and rng.random() < p}
        yield from_edge_list(n, sorted(edges)), tuple(rng.randint(0, 5) for _ in range(n))


def test_solve_outputs_are_pinned():
    """Whole solve results, diagnostics included, on 3,000 calls.

    The digest was recorded at commit fcfc125 and re-pinned once when ties
    on user weight went to the lexicographically least e.d.: 363 of the
    calls changed their vertices, and nothing else. It was re-pinned once
    more when solve lost its mode, to the digest of this loop (without
    mode="exact") at commit 01e35da, so no output of solve changed.
    """
    digest = hashlib.sha256()
    for g, weights in _pinned_solve_inputs():
        for user in (None, weights):
            digest.update(repr(solve(g, user)).encode() + b"\n")
    assert digest.hexdigest() == SOLVE_DIGEST


def test_oracle_outputs_are_pinned():
    """Every e.d. in enumeration order, and oracle_ed with and without weights.

    The digest was recorded at commit 27c4187, while the enumeration still
    recursed. The T3 and C4-dom campaign documents depend on this order.
    """
    digest = hashlib.sha256()
    for g, weights in _pinned_solve_inputs():
        digest.update(repr(list(efficient_dominating_sets(g))).encode() + b"\n")
        for user in (None, weights):
            digest.update(repr(oracle_ed(g, user)).encode() + b"\n")
    assert digest.hexdigest() == ORACLE_DIGEST


def _assert_on_demand_rows_match(g, user):
    """The pass over on-demand rows against the pass over the whole square, and both exact covers."""
    sq = square(g)
    rows = [None] * g.n
    parts, seen = _lexbfs(g, True, rows)
    assert (parts, seen) == _lexbfs(sq, True)
    assert all(row is None or row == sq.masks[v] for v, row in enumerate(rows))
    closed = [mask | (1 << v) for v, mask in enumerate(g.masks)]
    for mask, _, _ in parts:
        assert _min_weight_ed(closed, rows, user, mask) == _min_weight_ed(
            closed, list(sq.masks), user, mask
        )
    assert all(row is None or row == sq.masks[v] for v, row in enumerate(rows))
    return rows


@given(edge_sets(max_n=9), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_on_demand_rows_match_the_square(ne, seed):
    rng = random.Random(seed)
    g = disjoint_union(from_edge_list(*ne), cycle_graph(rng.randint(3, 9)))
    _assert_on_demand_rows_match(g, [rng.randint(0, 5) for _ in range(g.n)])


@pytest.mark.parametrize("seed", range(3))
def test_on_demand_rows_match_the_square_on_planted_graphs(seed):
    rng = random.Random(seed)
    for n in (40, 57, 73, 90):
        g, planted = planted_ed_graph(n, rng)
        near_miss = from_edge_list(n, [*g.edges(), tuple(rng.sample(planted, 2))])
        user = [rng.randint(1, 20) for _ in range(n)]
        for h in (g, near_miss):
            _assert_on_demand_rows_match(h, user)


def test_exact_route_never_squares_the_graph(monkeypatch):
    rng = random.Random(0)
    g, planted = planted_ed_graph(90, rng)
    near_miss = from_edge_list(90, [*g.edges(), tuple(rng.sample(planted, 2))])
    rows = [None] * 90
    _lexbfs(near_miss, True, rows)
    # the checked pass stops the component at its first failing visit, with most rows unread
    assert sum(row is not None for row in rows) < 20
    calls = _count_calls(monkeypatch)
    solution = solve(cycle_graph(93), [1 + 7 * v % 20 for v in range(93)])
    assert solution.path == "exact-fallback" and solution.user_weight == 276
    assert not solve(near_miss).exists
    assert calls == Counter()


def test_components_run_in_order():
    # C4 (square K4) comes first and has no e.d., so solving stops before
    # C6, whose square is not chordal, and the path stays the greedy's
    solution = solve(disjoint_union(cycle_graph(4), cycle_graph(6)))
    assert not solution.exists and solution.path == "chordal-square"
    assert solution.diagnostics.chordal is False
    # C6 comes first, so the exact cover runs, and C4 then has no e.d.
    solution = solve(disjoint_union(cycle_graph(6), cycle_graph(4)))
    assert not solution.exists and solution.path == "exact-fallback"


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
    if not is_chordal(sq)[0]:
        return
    rng = random.Random(seed)
    w = [rng.randint(0, 50) for _ in range(n)]
    assert mwis_chordal(sq, w).value == mwis_exact(sq, w).value


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


@pytest.mark.parametrize("k", range(1, 9))
def test_many_tied_optima_keep_the_exact_answer(k):
    g = g_k(k)
    assert sum(1 for _ in efficient_dominating_sets(g)) == 2**k
    assert not is_chordal(square(g))[0]
    assert solve(g).vertices == bf.least_ed_by_mwis(g)
    unit = [1] * g.n
    assert solve(g, unit).vertices == bf.least_ed_by_mwis(g, unit)


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("k, unit", [(40, False), (14, True)])
def test_many_tied_optima_are_pruned(k, unit):
    # every e.d. ties; the lexicographically least takes b + 1 and b + 4 of
    # the C6 joined to the hub at b
    g = g_k(k)
    solution = solve(g, [1] * g.n if unit else None)
    assert solution.vertices == (1,) + tuple(range(3, 6 * k + 1, 3))


@pytest.mark.usefixtures("time_limit")
def test_exact_cover_finds_the_one_lightest_optimum():
    # the leaf, plus 20 per C6: its antipodal pair of weight 2 * 10
    g, weights = h_k(18)
    solution = solve(g, weights)
    assert solution.path == "exact-fallback"
    assert solution.user_weight == 1 + 20 * 18 and verify_ed(g, solution.vertices)


def _subdivided_tree(centres: int, seed: int):
    """gen_random_chordal(centres, 0.0, seed) with each edge replaced by a path of length 3.

    The centres, ids 0..centres - 1, are then an e.d.
    """
    tree = gen_random_chordal(centres, 0.0, seed)
    edges, n = [], centres
    for u, v in tree.edges():
        edges += [(u, n), (n, n + 1), (n + 1, v)]
        n += 2
    return from_edge_list(n, edges)


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("seed", range(3))
def test_exact_mode_on_trees_matches_auto(seed):
    # the greedy on 400-vertex trees against the exact enumeration of
    # oracle_ed, which does not use the square
    rng = random.Random(seed)
    trees = [(gen_random_chordal(400, 0.0, seed), False), (_subdivided_tree(134, seed), True)]
    for g, has_ed in trees:
        user = [rng.randint(1, 20) for _ in range(g.n)]
        for weights in (None, user):
            auto, oracle = solve(g, weights), oracle_ed(g, weights)
            assert auto.path == "chordal-square"
            assert auto.exists == oracle.exists == has_ed
            assert auto.user_weight == oracle.user_weight
            if has_ed:
                assert verify_ed(g, auto.vertices)


@pytest.mark.parametrize("k", range(1, 7))
def test_one_lightest_optimum_matches_the_oracle(k):
    g, weights = h_k(k)
    solution = solve(g, weights)
    expected = oracle_ed(g, weights)
    assert solution.exists and solution.path == "exact-fallback"
    assert solution.user_weight == expected.user_weight
    assert solution.vertices == expected.vertices


def test_oracle_solutions_enumerated_once():
    # K3 + K3: each triangle contributes 3 singleton choices -> 9 e.d.s
    g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    sols = list(efficient_dominating_sets(g))
    assert len(sols) == len(set(sols)) == 9
    assert all(verify_ed(g, d) for d in sols)


@st.composite
def non_chordal_square_graphs(draw, max_n: int = 12):
    """Connected graphs on a C_k backbone (k >= 6) whose square is not chordal."""
    n = draw(st.integers(6, max_n))
    k = draw(st.integers(6, n))
    edges = {(i, i + 1) for i in range(k - 1)} | {(0, k - 1)}
    edges |= {(draw(st.integers(0, v - 1)), v) for v in range(k, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))), max_size=3))
    g = from_edge_list(n, sorted(edges))
    assume(not is_chordal(square(g))[0])
    return g


@given(
    non_chordal_square_graphs(),
    st.sampled_from([None, *WEIGHT_RANGES]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_exact_cover_fallback_returns_the_exact_mwis_answer(g, weights, rng):
    # the reference: mwis_exact on the square, with the e.d. weights folded in
    user = None if weights is None else [rng.randint(*WEIGHT_RANGES[weights]) for _ in range(g.n)]
    solution = solve(g, user)
    assert solution.vertices == bf.least_ed_by_mwis(g, user)
    assert solution.path == "exact-fallback"


@given(
    st.one_of(
        edge_sets(max_n=9).map(lambda ne: from_edge_list(*ne)), non_chordal_square_graphs()
    ),
    st.sampled_from([None, *WEIGHT_RANGES]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_every_route_returns_the_lexicographically_least_lightest_ed(g, weights, rng):
    user = None if weights is None else [rng.randint(*WEIGHT_RANGES[weights]) for _ in range(g.n)]
    expected = bf.least_ed(g.n, list(g.edges()), user)
    assert solve(g, user).vertices == expected


def test_no_mode_runs_mwis_exact(monkeypatch):
    import perfcode.mwis
    import perfcode.solver

    def forbidden(*args):
        raise AssertionError("solve ran the MWIS branch-and-bound")

    # the branch-and-bound computes its bound at the root, whatever name it is called by
    monkeypatch.setattr(perfcode.solver, "mwis_exact", forbidden)
    monkeypatch.setattr(perfcode.mwis, "_clique_cover_bound", forbidden)
    g = disjoint_union(cycle_graph(6), path_graph(4))
    assert solve(g, (1, 2, 3, 4, 5, 6, 1, 1, 1, 1)).vertices == (0, 3, 6, 9)
    assert oracle_ed(g, (1, 2, 3, 4, 5, 6, 1, 1, 1, 1)).vertices == (0, 3, 6, 9)
    assert solve(path_graph(4)).vertices == (0, 3)


def test_exact_cover_tie_decided_after_a_shared_pick():
    # unweighted, the e.d.s (4, 9, 10) and (5, 6, 9) tie and share 9; the
    # least vertex in which they differ is 4, so every route returns
    # (4, 9, 10), the lexicographically least
    edges = [(0, 8), (0, 9), (1, 7), (1, 8), (1, 9), (2, 9), (3, 9), (4, 5), (4, 7)]
    edges += [(6, 7), (6, 8), (6, 10), (8, 10), (9, 11)]
    g = from_edge_list(12, edges)
    assert sorted(efficient_dominating_sets(g)) == [(4, 9, 10), (5, 6, 9)]
    assert solve(g).vertices == bf.least_ed_by_mwis(g) == (4, 9, 10)


def test_exact_cover_tie_won_by_a_vertex_still_usable():
    # unweighted, (3, 6) and (4, 5) tie and the search meets (4, 5) first;
    # a tied node without 3, where 3 is still usable, must not be pruned
    edges = [(0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (1, 5), (1, 6), (2, 3)]
    edges += [(2, 4), (2, 8), (3, 4), (3, 7), (4, 8), (5, 6), (5, 7), (6, 8)]
    g = from_edge_list(9, edges)
    assert sorted(efficient_dominating_sets(g)) == [(3, 6), (4, 5)]
    assert solve(g).vertices == bf.least_ed_by_mwis(g) == (3, 6)


@pytest.mark.parametrize("seed", range(4))
def test_planted_graphs_match_the_oracle(seed):
    rng = random.Random(seed)
    for n in (40, 57, 73, 90):
        g, planted = planted_ed_graph(n, rng)
        near_miss = from_edge_list(n, [*g.edges(), tuple(rng.sample(planted, 2))])
        user = [rng.randint(1, 20) for _ in range(n)]
        for h in (g, near_miss):
            via_pipeline = solve(h, user)
            via_oracle = oracle_ed(h, user)
            assert via_pipeline.exists == via_oracle.exists
            assert via_pipeline.user_weight == via_oracle.user_weight
            assert via_pipeline.exists is (h is g)
            if via_pipeline.exists:
                assert verify_ed(h, via_pipeline.vertices)


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize(
    "make, n, path, expected",
    [
        pytest.param(cycle_graph, 3000, "exact-fallback", tuple(range(0, 3000, 3)), id="3000-True"),
        pytest.param(cycle_graph, 3001, "exact-fallback", None, id="3001-False"),
        # the unique e.d. of a path on 3k vertices
        pytest.param(path_graph, 3000, "chordal-square", tuple(range(1, 3000, 3)), id="path-3000"),
    ],
)
def test_long_cycles_need_no_recursion(make, n, path, expected):
    g = make(n)
    solution = solve(g)
    assert solution.vertices == expected and solution.path == path
    solution = oracle_ed(g)
    assert solution.vertices == expected and solution.path == "oracle"


@pytest.mark.usefixtures("time_limit")
def test_mwis_exact_needs_no_recursion():
    result = mwis_exact(from_edge_list(1500, []), [1] * 1500)
    assert result.vertices == tuple(range(1500)) and result.value == 1500


#: Many small components, as (piece, copies); the squares of C6 are not
#: chordal, and C7 has no e.d.
MANY_COMPONENTS = {
    "3000 isolated vertices": (from_edge_list(1, []), 3000),
    "1500-edge matching": (path_graph(2), 1500),
    "300 C6": (cycle_graph(6), 300),
    "300 C7": (cycle_graph(7), 300),
}


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("name", list(MANY_COMPONENTS))
def test_many_components_match_the_oracle(name):
    # per-component work must not grow with n: each component is solved on
    # masks of the one square, with no length-n list built per component
    piece, copies = MANY_COMPONENTS[name]
    g = disjoint_union(*[piece] * copies)
    piece_user = tuple(range(1, piece.n + 1))
    for piece_weights in (None, piece_user):
        user = None if piece_weights is None else piece_weights * copies
        expected = oracle_ed(piece, piece_weights)
        solution = solve(g, user)
        assert solution.exists == expected.exists
        if expected.exists:
            assert verify_ed(g, solution.vertices)
            assert len(solution.vertices) == copies * len(expected.vertices)
        if piece_weights is not None and expected.exists:
            assert solution.user_weight == copies * expected.user_weight


# -- dense graphs: complete squares -------------------------------------------

def _assert_matches_the_references(g, user):
    """solve against the least e.d. by enumeration and against oracle_ed."""
    got = solve(g, user)
    expected = bf.least_ed(g.n, list(g.edges()), user)
    oracle = oracle_ed(g, user)
    assert got.exists == oracle.exists == (expected is not None)
    if expected is not None:
        assert got.vertices == expected
        assert got.user_weight == oracle.user_weight == sum(user[v] for v in expected)


@given(dense_graphs(max_n=12), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_solve_on_dense_graphs_matches_the_references(g, seed):
    rng = random.Random(seed)
    _assert_matches_the_references(g, [rng.randint(0, 3) for _ in range(g.n)])


@given(st.lists(dense_graphs(min_n=1, max_n=4), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_solve_on_unions_of_dense_graphs_matches_the_references(pieces, seed):
    # an offset that one component's greedy charges must stop at its component
    g = disjoint_union(*pieces)
    rng = random.Random(seed)
    _assert_matches_the_references(g, [rng.randint(0, 3) for _ in range(g.n)])


@pytest.mark.parametrize("sizes", [(3, 4), (1, 5, 2), (6, 6)])
def test_solve_on_unions_of_cliques(sizes):
    # each clique's square is itself: one vertex per clique, the lightest
    g = disjoint_union(*[complete_graph(k) for k in sizes])
    user = [(7 * v) % 5 + 1 for v in range(g.n)]
    got = solve(g, user)
    assert got.path == "chordal-square" and got.diagnostics.chordal
    _assert_matches_the_references(g, user)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_complete_square_without_an_ed(n):
    # K_n minus a perfect matching has diameter 2, so a complete square,
    # and no e.d.: a vertex misses its partner, and two chosen vertices
    # dominate each other or, as partners, every third vertex twice
    g = from_edge_list(n, [(u, v) for u, v in combinations(range(n), 2) if v != u + 1 or u % 2])
    assert square(g).edge_count == n * (n - 1) // 2
    got = solve(g)
    assert not got.exists and got.path == "chordal-square" and got.diagnostics.chordal
    _assert_matches_the_references(g, [1] * n)
