import hashlib
import inspect
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import disjoint_union, edge_sets
from perfcode import (
    class_membership,
    complement,
    complete_sun,
    connected_components,
    cycle_graph,
    find_hole,
    find_odd_antihole,
    find_pattern,
    from_edge_list,
    gen_random_chordal,
    induced_subgraph,
    is_chordal,
    is_class_member,
    is_perfect_desk,
    is_perfect_elimination_order,
    lexbfs_order,
    oracle_ed,
    path_graph,
    solve,
    square,
    witness_is_valid,
    PatternWitness,
)
from perfcode import recognition
from perfcode.recognition import (
    CLASS_TAGS,
    _constraint_table,
    _embeddings,
    _has_hole,
    _hole_closings,
    _lex_leader_pairs,
    _lexbfs,
    find_all_odd_antiholes,
    pattern_graph,
)
from perfcode.verify import _find_induced_c4s


def pattern_set(kind):
    """A pattern's vertex count and edge set, in the brute-force format."""
    pattern = pattern_graph(kind)
    return pattern.n, {frozenset(e) for e in pattern.edges()}


# -- fixed patterns -----------------------------------------------------------

def co(k, edges):
    """The complement of an edge set on 0..k-1."""
    return {frozenset(p) for p in combinations(range(k), 2)} - edges


EXPECTED_PATTERNS = {
    "P1": (1, bf.path_pattern(1)),
    "P6": (6, bf.path_pattern(6)),
    "C3": (3, bf.cycle_pattern(3)),
    "C5": (5, bf.cycle_pattern(5)),
    "C6": (6, bf.cycle_pattern(6)),
    "co-C5": (5, co(5, bf.cycle_pattern(5))),
    "co-C7": (7, co(7, bf.cycle_pattern(7))),
    "co-C9": (9, co(9, bf.cycle_pattern(9))),
    "house": (5, co(5, bf.path_pattern(5))),
    "domino": (6, {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (2, 5), (4, 5)]}),
    "bull": (5, {frozenset(e) for e in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]}),
}


@pytest.mark.parametrize("kind", EXPECTED_PATTERNS)
def test_pattern_definitions(kind):
    assert pattern_set(kind) == EXPECTED_PATTERNS[kind]


@pytest.mark.parametrize("kind", ["P0", "C2", "co-C4", "pentagon"])
def test_pattern_graph_rejects_bad_kinds(kind):
    with pytest.raises(ValueError):
        pattern_graph(kind)


def test_find_induced_path_in_p6_itself():
    w = find_pattern(path_graph(6), "P6")
    assert w is not None and w.vertices == (0, 1, 2, 3, 4, 5)


def test_induced_paths_of_c6():
    # brute force: C6 has induced P5 but no induced P6
    c6 = cycle_graph(6)
    edges = list(c6.edges())
    assert not bf.has_induced(6, edges, 6, bf.path_pattern(6))
    assert bf.has_induced(6, edges, 5, bf.path_pattern(5))
    assert find_pattern(c6, "P6") is None
    w = find_pattern(c6, "P5")
    assert w is not None and witness_is_valid(c6, w)


def test_find_pattern_house_in_house():
    house = pattern_graph("house")
    w = find_pattern(house, "house")
    assert w is not None and witness_is_valid(house, w)


def test_find_pattern_c4_absent_in_4_sun_present_in_its_square():
    sun = complete_sun(4)
    assert find_pattern(sun, "C4") is None
    w = find_pattern(square(sun), "C4")
    assert w is not None and witness_is_valid(square(sun), w)


def test_paths_are_bull_free():
    assert find_pattern(path_graph(6), "bull") is None


def test_find_pattern_rejects_unknown_kind():
    with pytest.raises(ValueError):
        find_pattern(path_graph(3), "pentagon")


@pytest.mark.parametrize("kind", ["P6", "C4", "C5", "C6", "house", "domino", "bull", "co-C7"])
def test_each_pattern_found_in_itself(kind):
    g = pattern_graph(kind)
    w = (find_pattern if not kind.startswith("co-") else lambda g, k: find_odd_antihole(g))(
        g, kind
    )
    assert w is not None
    assert w.kind == kind
    assert witness_is_valid(g, w)


@given(edge_sets(max_n=7))
@settings(max_examples=150, deadline=None)
def test_pattern_searches_agree_with_brute_force(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    for kind in ("P6", "C4", "C5", "house", "domino", "bull"):
        k, pat = pattern_set(kind)
        found = find_pattern(g, kind)
        assert (found is not None) == bf.has_induced(n, edges, k, pat)
        if found is not None:
            assert witness_is_valid(g, found)


@given(edge_sets(max_n=7))
@settings(max_examples=100, deadline=None)
def test_find_pattern_returns_least_embedding(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    for kind in ("P4", "P6", "C3", "C4", "C5", "C6", "house", "domino", "bull"):
        k, pat = pattern_set(kind)
        found = find_pattern(g, kind)
        assert (None if found is None else found.vertices) == bf.least_induced(n, edges, k, pat)
    k, pat = pattern_set("C4")
    # one orientation per C4: the least of its eight
    assert list(_embeddings(g, "C4")) == [
        e for e in bf.induced_embeddings(n, edges, k, pat) if e[0] < min(e[1:]) and e[1] < e[3]
    ]


def automorphism_pairs(kind, order=None):
    """(i, s(i)) for the first position i each automorphism s != id moves, by brute force.

    `order` lists the witness positions in the order the search places them.
    """
    k, edges = pattern_set(kind)
    if order is not None:
        edges = {frozenset(order.index(v) for v in e) for e in edges}
    pairs = set()
    for s in permutations(range(k)):
        if s != tuple(range(k)) and {frozenset(s[v] for v in e) for e in edges} == edges:
            i = next(i for i in range(k) if s[i] != i)
            pairs.add((i, s[i]))
    return pairs


LEX_LEADER_KINDS = (
    "P1", "P2", "P4", "P6", "P7", "C3", "C4", "C5", "C6", "C7", "co-C5", "co-C6", "co-C7",
    "house", "domino", "bull",
)


@pytest.mark.parametrize("kind", LEX_LEADER_KINDS)
def test_lex_leader_pairs_match_the_automorphisms(kind):
    expected = automorphism_pairs(kind)
    assert _lex_leader_pairs(kind) == expected
    table = _constraint_table(kind)
    assert {(i, p) for i, row in enumerate(table) for p, _, ordered in row if ordered} == expected


@pytest.mark.usefixtures("time_limit")
def test_pattern_searches_for_long_patterns():
    assert find_pattern(cycle_graph(300), "C300") == PatternWitness("C300", tuple(range(300)))
    assert find_pattern(path_graph(300), "P300") == PatternWitness("P300", tuple(range(300)))


EMBEDDING_DIGEST = "fa7b3a56cc20c23940231d5cc305f183019a913bb552122d6bec0148136756cf"


def test_embeddings_are_pinned():
    """The exact witnesses of the pattern searches and the C4 lists.

    The digest was recorded at commit eea5672, before the searches moved
    to bitmask candidate sets, over 150 seeded G(n,p) graphs and their
    squares.
    """
    fixed_kinds = ("C3", "C4", "C5", "C6", "C7", "co-C5", "co-C7", "house", "domino", "bull")
    rng = random.Random(2604)
    digest = hashlib.sha256()
    for _ in range(150):
        n = rng.randint(5, 12)
        p = rng.uniform(0.1, 0.8)
        g = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for h in (g, square(g)):
            results = (
                [find_pattern(h, kind) for kind in fixed_kinds],
                [find_pattern(h, f"P{k}") for k in range(1, 8)],
                [class_membership(h, tag) for tag in CLASS_TAGS],
                _find_induced_c4s(h),
            )
            digest.update(repr(results).encode())
    assert digest.hexdigest() == EMBEDDING_DIGEST


def test_pattern_searches_on_a_long_cycle():
    c3000 = cycle_graph(3000)
    assert find_pattern(c3000, "C5") is None
    assert find_pattern(c3000, "P6") == PatternWitness("P6", (0, 1, 2, 3, 4, 5))


# -- chordality ---------------------------------------------------------------

def test_trees_are_chordal():
    tree = from_edge_list(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    ok, order = is_chordal(tree)
    assert ok and is_perfect_elimination_order(tree, order)


def test_c4_is_not_chordal():
    ok, witness = is_chordal(cycle_graph(4))
    assert not ok
    assert witness.kind == "C4" and witness_is_valid(cycle_graph(4), witness)


def test_square_of_c6_not_chordal_with_c4_witness():
    # the octahedron: brute force confirms an induced C4 and nothing longer
    sq = square(cycle_graph(6))
    assert bf.induced_cycle_lengths(sq.n, list(sq.edges())) == {3, 4}
    ok, witness = is_chordal(sq)
    assert not ok and witness.kind == "C4"
    assert witness_is_valid(sq, witness)


@given(edge_sets(max_n=8))
@settings(max_examples=200, deadline=None)
def test_is_chordal_matches_brute_force(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    ok, cert = is_chordal(g)
    assert ok == bf.is_chordal(n, edges)
    if ok:
        assert is_perfect_elimination_order(g, cert)
    else:
        assert witness_is_valid(g, cert)
        assert len(cert.vertices) >= 4


def test_is_chordal_matches_the_triple_walk_on_every_small_graph():
    """Every graph on at most 6 vertices, and its square: the same certificate."""
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = from_edge_list(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
            for h in (g, square(g)):
                assert is_chordal(h) == bf.chordality_certificate_by_walk(h)


@pytest.mark.parametrize(
    "g", [cycle_graph(4), square(cycle_graph(30)), disjoint_union(path_graph(3), cycle_graph(6))]
)
def test_is_chordal_makes_one_pass(monkeypatch, g):
    def no_second_pass(*args):
        raise AssertionError("lexbfs_order ran")

    calls = []

    def counted(*args):
        calls.append(args)
        return _lexbfs(*args)

    monkeypatch.setattr(recognition, "lexbfs_order", no_second_pass)
    monkeypatch.setattr(recognition, "_lexbfs", counted)
    ok, witness = is_chordal(g)
    assert not ok and witness_is_valid(g, witness)
    assert len(calls) == 1


def test_is_perfect_elimination_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        is_perfect_elimination_order(path_graph(3), (0, 0, 1))


def _assert_chordal_peo(g):
    """is_chordal's order and is_class_member's verdict against the whole LexBFS order
    and the full PEO scan."""
    order = tuple(reversed(lexbfs_order(g)))
    chordal = is_perfect_elimination_order(g, order)
    ok, cert = is_chordal(g)
    assert ok == is_class_member(g, "chordal") == chordal
    if ok:
        assert cert == order


@given(edge_sets(max_n=12))
@settings(max_examples=150, deadline=None)
def test_chordal_peo_matches_brute_force(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    for h in (g, square(g), complement(g)):
        ok, peo = is_chordal(h)
        assert ok == is_class_member(h, "chordal") == bf.is_chordal(h.n, list(h.edges()))
        if ok:
            assert peo == tuple(reversed(lexbfs_order(h)))


def test_chordal_peo_seeded_sweep():
    """9,000 graphs: a wrong parent fails the check on only a few of them."""
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.randint(0, 12)
        p = rng.random()
        g = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for h in (g, square(g), complement(g)):
            _assert_chordal_peo(h)


CHORDAL_PEO_TABLE = {
    "empty": (from_edge_list(0, []), True),
    "K1": (from_edge_list(1, []), True),
    "K6": (from_edge_list(6, list(combinations(range(6), 2))), True),
    "C4": (cycle_graph(4), False),
    "C5": (cycle_graph(5), False),
    "house": (pattern_graph("house"), False),
    "gem": (from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]), True),
    "complete 4-sun": (complete_sun(4), True),
    "square of the complete 4-sun": (square(complete_sun(4)), False),
    # each of the last three is misjudged when one update of a cell's last
    # visited neighbor is left out: a split's non-neighbor part set to v,
    # no update on a fully hit cell, no update when v sees every unvisited
    # vertex
    "P3 and K1": (from_edge_list(4, [(0, 1), (0, 3)]), True),
    "C4 with a pendant": (from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)]), False),
    "W4 with an ear": (
        from_edge_list(
            6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]
        ),
        False,
    ),
}


@pytest.mark.parametrize("name", list(CHORDAL_PEO_TABLE))
def test_chordal_peo_on_named_graphs(name):
    g, chordal = CHORDAL_PEO_TABLE[name]
    assert bf.is_chordal(g.n, list(g.edges())) == chordal
    assert is_class_member(g, "chordal") == chordal
    _assert_chordal_peo(g)


@pytest.mark.usefixtures("time_limit")
def test_chordal_peo_on_long_inputs():
    assert not is_class_member(square(cycle_graph(3000)), "chordal")
    tree = gen_random_chordal(8000, 0.0, 1)
    ok, peo = is_chordal(tree)
    assert ok and peo == tuple(reversed(lexbfs_order(tree)))
    assert is_perfect_elimination_order(tree, peo)


@st.composite
def sparse_graphs(draw, max_n: int = 30):
    """Graphs on up to max_n vertices with at most about n edges, so often disconnected."""
    n = draw(st.integers(0, max_n))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=n))
    return from_edge_list(n, sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]}))


def _component_verdicts(g):
    """_lexbfs's component pass against each induced component; its verdicts."""
    parts, seen = _lexbfs(g, True)
    components = connected_components(g)
    assert [mask for mask, _, _ in parts] == [sum(1 << v for v in c) for c in components]
    for (mask, order, failed), component in zip(parts, components):
        sub = induced_subgraph(g, component)
        assert (order is not None) == is_class_member(sub, "chordal")
        if order is not None:
            assert order == [component[v] for v in lexbfs_order(sub)]
            assert failed is None
            # each visit's mask holds exactly its neighbors visited before it
            for i, v in enumerate(order):
                assert seen[v] == g.masks[v] & sum(1 << u for u in order[:i])
        else:
            # the failing visit: the first whose earlier neighbors in the whole
            # LexBFS order are not a clique; seen[v] holds those neighbors
            earlier = 0
            for v in (component[u] for u in lexbfs_order(sub)):
                before = g.masks[v] & earlier
                visited = [u for u in range(g.n) if (before >> u) & 1]
                if any(not g.adjacent(u, w) for u, w in combinations(visited, 2)):
                    break
                earlier |= 1 << v
            assert failed == v and seen[v] == before
            assert (mask >> v) & 1 and before & mask == before and not (before >> v) & 1
    unchecked, unseen = _lexbfs(g, False)
    assert unseen == [0] * g.n
    assert [order for _, order, _ in unchecked] == [
        [component[v] for v in lexbfs_order(induced_subgraph(g, component))]
        for component in components
    ]
    assert all(failed is None for _, _, failed in unchecked)
    return [order is not None for _, order, _ in parts]


@given(st.one_of(sparse_graphs(), edge_sets(max_n=30).map(lambda ne: from_edge_list(*ne))))
@settings(max_examples=200, deadline=None)
def test_component_pass_matches_the_induced_components(g):
    for h in (g, square(g)):
        _component_verdicts(h)


# The squares of P3, P4 and K1 are chordal; those of C6 and C7 are not.
C6_WITH_TAIL = from_edge_list(12, [*cycle_graph(6).edges(), *((v, v + 1) for v in range(5, 11))])
COMPONENT_PASS_TABLE = {
    "failing first": ((cycle_graph(6), path_graph(3), path_graph(4)), [False, True, True]),
    "failing between": ((path_graph(3), cycle_graph(6), path_graph(4)), [True, False, True]),
    "failing last": ((path_graph(3), path_graph(4), cycle_graph(6)), [True, True, False]),
    # the square's check fails at once, with the far end of the tail unvisited
    "failing with a long tail": ((path_graph(3), C6_WITH_TAIL, path_graph(4)), [True, False, True]),
    "two failing": (
        (cycle_graph(7), path_graph(3), cycle_graph(6), from_edge_list(1, [])),
        [False, True, False, True],
    ),
}


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("name", list(COMPONENT_PASS_TABLE))
def test_component_pass_goes_on_after_a_failing_component(name):
    pieces, verdicts = COMPONENT_PASS_TABLE[name]
    sq = square(disjoint_union(*pieces))
    assert _component_verdicts(sq) == verdicts
    assert is_class_member(sq, "chordal") == all(verdicts)
    assert is_chordal(sq) == bf.chordality_certificate_by_walk(sq)


# -- holes, antiholes, perfection ----------------------------------------------

def test_find_hole_on_c5():
    w = find_hole(cycle_graph(5))
    assert w is not None and w.kind == "C5"
    assert witness_is_valid(cycle_graph(5), w)


def test_find_hole_absent_in_octahedron():
    assert find_hole(square(cycle_graph(6))) is None


def test_find_hole_odd_parity_on_c6():
    assert find_hole(cycle_graph(6), parity="odd") is None
    assert find_hole(cycle_graph(6)) is not None
    with pytest.raises(ValueError, match="parity must be 'any' or 'odd'"):
        find_hole(cycle_graph(6), parity="even")


def test_find_odd_antihole_on_complement_of_c7():
    g = complement(cycle_graph(7))
    w = find_odd_antihole(g)
    assert w is not None and w.kind == "co-C7"
    assert witness_is_valid(g, w)


def test_find_odd_antihole_needs_seven_vertices():
    assert find_odd_antihole(square(cycle_graph(6))) is None
    assert find_odd_antihole(cycle_graph(5)) is None


def test_is_perfect_desk_examples():
    ok, witness = is_perfect_desk(cycle_graph(5))
    assert not ok and witness.kind == "C5"
    bipartite = from_edge_list(6, [(0, 3), (0, 4), (1, 4), (2, 5)])
    assert is_perfect_desk(bipartite) == (True, None)
    assert is_perfect_desk(square(cycle_graph(6)))[0]
    # C7's complement has no odd hole, so only the antihole search finds it
    antihole = complement(cycle_graph(7))
    ok, witness = is_perfect_desk(antihole)
    assert not ok and str(witness) == "co-C7[0 1 2 3 4 5 6]"
    assert witness_is_valid(antihole, witness)


@given(edge_sets(max_n=10))
@settings(max_examples=120, deadline=None)
def test_hole_search_matches_brute_force(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    lengths = bf.induced_cycle_lengths(n, edges)
    assert (find_hole(g) is not None) == bool({k for k in lengths if k >= 5})
    odd = find_hole(g, parity="odd")
    assert (odd is not None) == bool({k for k in lengths if k >= 5 and k % 2 == 1})
    if odd is not None:
        assert witness_is_valid(g, odd)
        assert len(odd.vertices) % 2 == 1


def test_c4_is_not_a_hole():
    # a hole has length >= 5; induced C4s are find_pattern's
    assert find_hole(cycle_graph(4)) is None
    assert find_hole(square(cycle_graph(6))) is None
    assert find_pattern(cycle_graph(4), "C4") == PatternWitness("C4", (0, 1, 2, 3))
    assert list(inspect.signature(find_hole).parameters) == ["g", "parity"]
    with pytest.raises(TypeError, match="min_length"):
        find_hole(cycle_graph(4), min_length=4)


PETERSEN = from_edge_list(
    10, [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(i + 5, (i + 2) % 5 + 5) for i in range(5)],
)

HOLE_TABLE = {
    "C4": (cycle_graph(4), False),
    "C5": (cycle_graph(5), True),
    "C6": (cycle_graph(6), True),
    "C9": (cycle_graph(9), True),
    "house": (pattern_graph("house"), False),
    "domino": (pattern_graph("domino"), False),  # two C4s sharing an edge
    "bull": (pattern_graph("bull"), False),
    "co-C7": (pattern_graph("co-C7"), False),  # an antihole's cycles are C4s
    "co-C9": (pattern_graph("co-C9"), False),
    "octahedron": (square(cycle_graph(6)), False),
    "K3,3": (from_edge_list(6, [(i, j) for i in range(3) for j in range(3, 6)]), False),
    "Petersen": (PETERSEN, True),  # girth 5
}


@pytest.mark.parametrize("name", sorted(HOLE_TABLE))
def test_has_hole_on_named_graphs(name):
    g, expected = HOLE_TABLE[name]
    assert _has_hole(g) == expected
    assert (find_hole(g) is not None) == expected


@given(edge_sets(max_n=9))
@settings(max_examples=150, deadline=None)
def test_has_hole_matches_brute_force(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    for h in (g, square(g), complement(g)):
        lengths = bf.induced_cycle_lengths(h.n, list(h.edges()))
        assert _has_hole(h) == any(k >= 5 for k in lengths)


@st.composite
def sparse_edge_sets(draw, max_n: int):
    """A random (n, edge list) pair with at most 2n edges drawn as vertex pairs."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


@given(st.one_of(edge_sets(max_n=40), sparse_edge_sets(max_n=40)))
@settings(max_examples=150, deadline=None)
def test_lexbfs_matches_label_lexbfs(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    for h in (g, square(g), complement(g)):
        assert lexbfs_order(h) == bf.lexbfs_labels(h.n, list(h.edges()))


@pytest.mark.usefixtures("time_limit")
def test_lexbfs_and_solve_on_a_large_tree():
    """Partition refinement keeps LexBFS linear on the square of a sparse graph."""
    tree = gen_random_chordal(8000, 0.0, 1)
    sq = square(tree)
    order = lexbfs_order(sq)
    assert is_perfect_elimination_order(sq, reversed(order))
    solution = solve(tree)
    assert solution.path == "chordal-square" and solution.diagnostics.chordal
    assert solution.exists == oracle_ed(tree).exists


@pytest.mark.usefixtures("time_limit")
def test_hole_free_squares_skip_the_search():
    """Sparse squares have hole-free complements, so no DFS runs on them."""
    assert find_odd_antihole(square(cycle_graph(400))) is None
    assert find_all_odd_antiholes(square(cycle_graph(200))) == []


@pytest.mark.usefixtures("time_limit")
def test_hole_searches_on_long_cycles():
    whole = PatternWitness("C3000", tuple(range(3000)))
    assert find_hole(cycle_graph(3000)) == whole
    assert list(_hole_closings(cycle_graph(3000), "any", 5)) == [whole.vertices]
    assert is_perfect_desk(cycle_graph(3001)) == (
        False,
        PatternWitness("C3001", tuple(range(3001))),
    )
    # the cuts leave one anchor to search, so these stay about linear; the
    # unpruned walk re-walks the cycle from every anchor, quadratic in n
    longest = PatternWitness("C10000", tuple(range(10000)))
    assert list(_hole_closings(cycle_graph(10000), "any", 5)) == [longest.vertices]
    assert find_hole(cycle_graph(10000)) == longest


#: The (parity, min_length) pairs the hole searches are compared on.
HOLE_SEARCHES = (("any", 5), ("odd", 5), ("odd", 7))


def test_hole_closings_match_the_walk_on_every_small_graph():
    """Every graph on at most 6 vertices, its complement among them: the same cycles, in order."""
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = from_edge_list(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])
            for parity, min_length in HOLE_SEARCHES:
                expected = list(bf.hole_closings_by_walk(g, parity, min_length))
                assert list(_hole_closings(g, parity, min_length)) == expected


def test_hole_closings_match_the_walk_on_square_complements():
    """The complements that find_odd_antihole searches: non-chordal component squares of G(n, p)."""
    rng = random.Random(2004)
    searched = 0
    for _ in range(300):
        n = rng.randint(10, 16)
        p = rng.uniform(0.1, 0.4)
        sq = square(from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
        for component in connected_components(sq):
            h = induced_subgraph(sq, component)
            if is_class_member(h, "chordal"):
                continue
            co_h = complement(h)
            searched += _has_hole(co_h)
            for parity, min_length in HOLE_SEARCHES:
                expected = list(bf.hole_closings_by_walk(co_h, parity, min_length))
                assert list(_hole_closings(co_h, parity, min_length)) == expected
    assert searched >= 50  # the complements with a hole, where the DFS runs


WITNESS_DIGEST = "c3bf3bdeaaad0f8fa09c19871be06ab4f75f2dfb172b0c8ca089dd1b9ebe4acd"


def test_witnesses_are_pinned():
    """The exact witnesses, orientations and list orders of the searches.

    The tests above compare the searches with brute force by vertex set
    only; this one pins which witness each returns. The digest was recorded
    at commit 10c5d5e over 150 seeded G(n,p) graphs and their squares.
    """
    rng = random.Random(1503)
    digest = hashlib.sha256()
    for _ in range(150):
        n = rng.randint(5, 12)
        p = rng.uniform(0.1, 0.8)
        g = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for h in (g, square(g)):
            results = (
                is_chordal(h),
                find_hole(h),
                find_hole(h, parity="odd"),
                [PatternWitness(f"C{len(c)}", c) for c in _hole_closings(h, "any", 5)],
                find_odd_antihole(h),
                find_all_odd_antiholes(h),
            )
            digest.update(repr(results).encode())
    assert digest.hexdigest() == WITNESS_DIGEST


@given(edge_sets(max_n=9))
@settings(max_examples=120, deadline=None)
def test_find_all_holes_matches_subset_enumeration(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    found = [PatternWitness(f"C{len(c)}", c) for c in _hole_closings(g, "any", 5)]
    for w in found:
        assert witness_is_valid(g, w)
    hole_sets = {frozenset(w.vertices) for w in found}
    assert len(hole_sets) == len(found)  # one orientation each
    adj = bf.adjacency(n, edges)
    expected = set()
    for size in range(5, n + 1):
        for combo in combinations(range(n), size):
            inside = set(combo)
            if all(len(adj[v] & inside) == 2 for v in combo):
                seen = {combo[0]}
                stack = [combo[0]]
                while stack:
                    x = stack.pop()
                    for y in adj[x] & inside:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if len(seen) == size:
                    expected.add(frozenset(combo))
    assert hole_sets == expected
    # find_hole's witness is the first hole _hole_closings yields, in its
    # orientation: second vertex below the last.
    for parity in ("any", "odd"):
        holes = list(_hole_closings(g, parity, 5))
        first = find_hole(g, parity)
        assert first == (PatternWitness(f"C{len(holes[0])}", holes[0]) if holes else None)
        assert first is None or first.vertices[1] < first.vertices[-1]
    antiholes = find_all_odd_antiholes(g)
    assert find_odd_antihole(g) == (antiholes[0] if antiholes else None)


@given(edge_sets(max_n=9))
@settings(max_examples=80, deadline=None)
def test_find_all_odd_antiholes_matches_enumeration(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    found = {frozenset(w.vertices) for w in find_all_odd_antiholes(g)}
    co_edges = bf.complement_edges(n, edges)
    adj = bf.adjacency(n, co_edges)
    expected = set()
    for size in range(7, n + 1, 2):
        for combo in combinations(range(n), size):
            inside = set(combo)
            if all(len(adj[v] & inside) == 2 for v in combo):
                seen = {combo[0]}
                stack = [combo[0]]
                while stack:
                    x = stack.pop()
                    for y in adj[x] & inside:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if len(seen) == size:
                    expected.add(frozenset(combo))
    assert found == expected
    for w in find_all_odd_antiholes(g):
        assert witness_is_valid(g, w)


@given(edge_sets(max_n=8))
@settings(max_examples=100, deadline=None)
def test_perfection_matches_brute_force(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    ok, witness = is_perfect_desk(g)
    assert ok == bf.is_perfect(n, edges)
    if not ok:
        assert witness_is_valid(g, witness)


@given(edge_sets(max_n=8))
@settings(max_examples=80, deadline=None)
def test_chordal_implies_perfect(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    if is_chordal(g)[0]:
        assert is_perfect_desk(g)[0]


# -- class membership -----------------------------------------------------------

def test_c6_class_reports():
    c6 = cycle_graph(6)
    assert class_membership(c6, "(P6,house)-free").member
    report = class_membership(c6, "(P6,HHD)-free")
    assert not report.member
    assert [w.kind for w in report.violations] == ["C6"]


def test_p7_is_not_p6_free():
    report = class_membership(path_graph(7), "P6-free")
    assert not report.member
    assert report.violations[0].vertices == (0, 1, 2, 3, 4, 5)


def test_chordal_class_tag():
    assert class_membership(path_graph(4), "chordal").member
    report = class_membership(cycle_graph(5), "chordal")
    assert not report.member and report.violations[0].kind == "C5"


def test_class_membership_rejects_unknown_tag():
    with pytest.raises(ValueError):
        class_membership(path_graph(3), "planar")
    with pytest.raises(ValueError):
        is_class_member(path_graph(3), "planar")


def test_is_class_member_chordal_builds_no_cycle_witness(monkeypatch):
    def no_witness_search(*args):
        raise AssertionError("witness search ran")

    monkeypatch.setattr(recognition, "_cycle_from_triple", no_witness_search)
    with pytest.raises(AssertionError, match="witness search ran"):
        class_membership(cycle_graph(5), "chordal")
    assert not is_class_member(cycle_graph(5), "chordal")
    assert not is_class_member(square(cycle_graph(30)), "chordal")
    assert is_class_member(complete_sun(4), "chordal")


def _assert_class_tests_agree(g):
    for h in (g, square(g)):
        for tag in CLASS_TAGS:
            assert is_class_member(h, tag) == class_membership(h, tag).member


@given(edge_sets(max_n=9))
@settings(max_examples=150, deadline=None)
def test_is_class_member_matches_class_membership(ne):
    _assert_class_tests_agree(from_edge_list(*ne))


def test_connected_house_order():
    """Every position of the yes/no order sees an earlier one; its pairs are the automorphisms'."""
    order, pairs = recognition._CONNECTED_ORDER["house"]
    house = pattern_graph("house")
    assert sorted(order) == list(range(5))
    assert all(any(house.adjacent(order[i], order[j]) for j in range(i)) for i in range(1, 5))
    assert automorphism_pairs("house", order) == pairs == {(0, 1)}
    table = _constraint_table("house", True)
    assert {(i, p) for i, row in enumerate(table) for p, _, ordered in row if ordered} == pairs
    assert all(
        adjacent == house.adjacent(order[i], order[p])
        for i, row in enumerate(table) for p, adjacent, _ in row
    )
    # one embedding per orbit: the house in itself once, in either order
    for connected in (False, True):
        assert len(list(_embeddings(house, "house", connected))) == 1


@given(st.one_of(sparse_graphs(), edge_sets(max_n=10).map(lambda ne: from_edge_list(*ne))))
@settings(max_examples=200, deadline=None)
def test_house_yes_no_search_matches_find_pattern(g):
    for h in (g, square(g), complement(g)):
        found = next(_embeddings(h, "house", True), None)
        assert (found is None) == (find_pattern(h, "house") is None)
        if found is not None:
            order = recognition._CONNECTED_ORDER["house"][0]
            witness = [0] * 5
            for position, v in zip(order, found):
                witness[position] = v
            assert witness_is_valid(h, PatternWitness("house", tuple(witness)))
        assert is_class_member(h, "(P6,house)-free") == class_membership(h, "(P6,house)-free").member


@pytest.mark.usefixtures("time_limit")
def test_house_yes_no_search_on_large_sparse_graphs():
    assert is_class_member(disjoint_union(*[path_graph(5)] * 300), "(P6,house)-free")
    assert not is_class_member(cycle_graph(1000), "(P6,house)-free")


#: Graphs and whether each is (P6,HHD)-free.
HHD_TABLE = {
    # holes with no C5 or C6: the P6 search decides
    "C7": (cycle_graph(7), False),
    "C8": (cycle_graph(8), False),
    "C5": (cycle_graph(5), False),
    "C6": (cycle_graph(6), False),
    "house": (pattern_graph("house"), False),
    "domino": (pattern_graph("domino"), False),
    "P6": (path_graph(6), False),
    "complete 4-sun": (complete_sun(4), True),
}


@pytest.mark.parametrize("name", list(HHD_TABLE))
def test_is_class_member_matches_class_membership_on_named_graphs(name):
    g, member = HHD_TABLE[name]
    assert is_class_member(g, "(P6,HHD)-free") == member
    _assert_class_tests_agree(g)


@given(edge_sets(max_n=8))
@settings(max_examples=100, deadline=None)
def test_p6_hhd_free_matches_exhaustive_pattern_search(ne):
    n, edges = ne
    g = from_edge_list(n, edges)
    report = class_membership(g, "(P6,HHD)-free")
    expected = not any(
        bf.has_induced(n, edges, *pattern_set(kind))
        for kind in ("P6", "C5", "C6", "house", "domino")
    )
    assert report.member == expected
    assert report.member == (not report.violations)
    for w in report.violations:
        assert witness_is_valid(g, w)


def test_witness_is_valid_rejects_wrong_order():
    c5 = cycle_graph(5)
    assert witness_is_valid(c5, PatternWitness("C5", (0, 1, 2, 3, 4)))
    assert not witness_is_valid(c5, PatternWitness("C5", (0, 1, 3, 2, 4)))
    assert not witness_is_valid(c5, PatternWitness("C5", (0, 1, 2, 3, 3)))
