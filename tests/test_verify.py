import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import disjoint_union
from perfcode import (
    THEOREM_IDS,
    TrialConfig,
    check_theorem,
    cycle_graph,
    from_edge_list,
    gen_random_chordal,
    gen_random_graph,
    is_chordal,
    oracle_ed,
    path_graph,
    run_campaign,
    square,
)
from perfcode import recognition, verify
from perfcode.verify import (
    _find_induced_c4s,
    _recheck_counterexample,
    _split_seed,
    enumerate_all_graphs,
)


def test_gen_random_graph_extremes():
    assert gen_random_graph(5, 0.0, 1).edge_count == 0
    assert gen_random_graph(5, 1.0, 1).edge_count == 10


def test_gen_random_graph_is_seed_deterministic():
    a = gen_random_graph(9, 0.4, 123)
    b = gen_random_graph(9, 0.4, 123)
    c = gen_random_graph(9, 0.4, 124)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(c.edges())


def test_gen_random_graph_rejects_bad_p():
    with pytest.raises(ValueError):
        gen_random_graph(4, 1.5, 0)


def test_gen_random_graph_rejects_negative_n():
    with pytest.raises(ValueError, match="vertex count"):
        gen_random_graph(-1, 0.5, 0)


def test_gen_random_chordal_single_vertex():
    g = gen_random_chordal(1, 0.5, 0)
    assert g.n == 1 and g.edge_count == 0
    with pytest.raises(ValueError, match="need n >= 1"):
        gen_random_chordal(0, 0.0, 1)
    with pytest.raises(ValueError, match="fill must be in"):
        gen_random_chordal(5, 1.5, 1)


def test_gen_random_chordal_zero_fill_is_tree():
    g = gen_random_chordal(12, 0.0, 5)
    assert g.edge_count == g.n - 1
    assert bf.is_chordal(g.n, list(g.edges()))


@given(st.integers(1, 25), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gen_random_chordal_is_chordal(n, fill, seed):
    g = gen_random_chordal(n, fill, seed)
    assert is_chordal(g)[0]


def test_split_seed_is_stable_and_distinct():
    assert _split_seed(42, 0) == _split_seed(42, 0)
    assert _split_seed(42, 0) != _split_seed(42, 1)
    assert _split_seed(42, 1) != _split_seed(43, 1)


@pytest.mark.parametrize("master", [0, 1, 2**63, -5])
@pytest.mark.parametrize("index", [0, 1, 449, "planted:3", "tree:0", "campaign:449", "chordal:7"])
def test_split_seed_matches_hashlib_sha256(master, index):
    """The built-in SHA-256 gives hashlib's digest, so every seed stays the same."""
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    assert _split_seed(master, index) == int.from_bytes(digest[:8], "big")


def test_enumerate_all_graphs_counts():
    counts = {}
    for g in enumerate_all_graphs(4):
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {0: 1, 1: 1, 2: 2, 3: 8, 4: 64}


# -- single-trial verdicts ------------------------------------------------------

def test_t1_vacuous_on_c6():
    # C6 has an e.d. but is itself a forbidden hole
    verdict = check_theorem(cycle_graph(6), "T1")
    assert verdict.status == "vacuous"


def test_t2_held_on_c6():
    verdict = check_theorem(cycle_graph(6), "T2")
    assert verdict.status == "held"


def test_t1_held_on_p4():
    verdict = check_theorem(path_graph(4), "T1")
    assert verdict.status == "held"


#: One graph per hypothesis of T1, (P6, house, hole, domino)-free, that breaks
#: it alone (P7 in place of P6 for the P6 row), has an e.d. and has a
#: non-chordal square: so no hypothesis can be dropped. Found by a seeded
#: random search over G(n, p), n 4..11; each row lists every e.d.
T1_RELAXATIONS = {
    "hole": (6, [(i, (i + 1) % 6) for i in range(6)], [(0, 3), (1, 4), (2, 5)]),
    "domino": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (2, 5), (4, 5)], [(0, 3), (1, 4)]),
    "house": (
        8,
        [(0, 1), (0, 2), (0, 3), (0, 7), (1, 3), (2, 3), (2, 6), (2, 7), (3, 5), (4, 5),
         (4, 6), (5, 6)],
        [(0, 4)],
    ),
    "P6": (
        10,
        [(0, 1), (0, 3), (1, 2), (1, 3), (1, 8), (2, 3), (2, 5), (2, 8), (2, 9), (3, 4),
         (3, 9), (4, 6), (4, 9), (5, 7), (5, 9), (7, 9)],
        [(1, 6, 7)],
    ),
}

HOUSE = {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]}
DOMINO = {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]}


@pytest.mark.parametrize("broken", sorted(T1_RELAXATIONS))
def test_each_hypothesis_of_t1_is_needed(broken):
    n, edges, eds = T1_RELAXATIONS[broken]
    present = {
        "hole": any(k >= 5 for k in bf.induced_cycle_lengths(n, edges)),
        "house": bf.has_induced(n, edges, 5, HOUSE),
        "domino": bf.has_induced(n, edges, 6, DOMINO),
        "P6": bf.has_induced(n, edges, 6, bf.path_pattern(6)),
    }
    assert {kind for kind, found in present.items() if found} == {broken}
    assert not bf.has_induced(n, edges, 7, bf.path_pattern(7))
    assert bf.all_eds(n, edges) == eds
    assert not bf.is_chordal(n, [tuple(e) for e in bf.square_edges(n, edges)])
    g = from_edge_list(n, edges)
    found = {kind: recognition.find_pattern(g, kind) for kind in ("house", "domino", "P6")}
    found["hole"] = recognition.find_hole(g)
    assert {kind for kind, witness in found.items() if witness is not None} == {broken}
    assert oracle_ed(g).vertices == eds[0]
    assert not is_chordal(square(g))[0]
    assert check_theorem(g, "T1").reason == "class"


def test_t3_trivial_hold_is_flagged():
    verdict = check_theorem(path_graph(4), "T3")
    assert verdict.status == "held" and not verdict.informative


def test_vacuous_when_no_ed():
    # C4 is (P6,HHD)-free but has no e.d.
    verdict = check_theorem(cycle_graph(4), "T1")
    assert verdict.status == "vacuous"


def test_skip_verdicts_over_budget():
    # ten disjoint edges: P6-free, HHD-free, with an obvious e.d.
    big = from_edge_list(20, [(2 * i, 2 * i + 1) for i in range(10)])
    assert check_theorem(big, "T3").status == "skipped"
    assert check_theorem(big, "T2", budget=10).status == "skipped"
    assert check_theorem(big, "T1", budget=10).status == "held"  # polynomial check


@pytest.fixture
def searched(monkeypatch):
    """The kinds of the pattern searches and hole tests a trial runs, in order."""
    kinds = []
    embeddings = recognition._embeddings
    has_hole = recognition._has_hole

    def counting(g, kind):
        kinds.append(kind)
        return embeddings(g, kind)

    def counting_holes(g):
        kinds.append("hole")
        return has_hole(g)

    monkeypatch.setattr(recognition, "_embeddings", counting)
    monkeypatch.setattr(recognition, "_has_hole", counting_holes)
    return kinds


def test_class_test_stops_at_the_first_violation(searched):
    # C5 and P6 side by side: the hole test runs first, and finds the C5
    verdict = check_theorem(disjoint_union(cycle_graph(5), path_graph(6)), "T1")
    assert verdict.status == "vacuous" and verdict.reason == "class"
    assert searched == ["hole"]
    searched.clear()
    assert check_theorem(cycle_graph(6), "T1").reason == "class"
    assert searched == ["hole"]
    searched.clear()
    # no hole, house or P6: the domino search, last, finds it
    assert check_theorem(recognition.pattern_graph("domino"), "T1").reason == "class"
    assert searched == ["hole", "house", "P6", "domino"]


def test_class_test_of_a_member_runs_every_pattern_once(searched):
    assert check_theorem(path_graph(4), "T1").status == "held"
    assert searched == ["hole", "house", "P6", "domino"]
    searched.clear()
    # the last hole test is the perfection check of the square
    assert check_theorem(path_graph(4), "T4").status == "held"
    assert searched == ["house", "P6", "hole"]
    searched.clear()
    assert check_theorem(path_graph(4), "T5").status == "held"
    assert searched == ["bull", "P6", "hole"]


def test_check_theorem_rejects_unknown_id():
    with pytest.raises(ValueError):
        check_theorem(path_graph(3), "T9")


def test_find_induced_c4s_on_octahedron():
    sq = square(cycle_graph(6))
    quads = _find_induced_c4s(sq)
    assert len(quads) == 3  # octahedron: one C4 per antipodal pair choice
    for a, b, c, d in quads:
        assert sq.adjacent(a, b) and sq.adjacent(b, c)
        assert sq.adjacent(c, d) and sq.adjacent(d, a)
        assert not sq.adjacent(a, c) and not sq.adjacent(b, d)


def test_c4dom_holds_on_small_corpus():
    held = 0
    for g in enumerate_all_graphs(5):
        verdict = check_theorem(g, "C4-dom")
        assert verdict.status in ("held", "vacuous")
        held += verdict.status == "held"
    assert held > 0


def test_c4dom_informative_on_c6():
    # the octahedron square of C6 has an induced C4 avoiding each e.d.,
    # and its four vertices are covered by exactly two dominators
    verdict = check_theorem(cycle_graph(6), "C4-dom")
    assert verdict.status == "held" and verdict.informative


def test_c4dom_skips_c4s_that_meet_the_ed():
    # both e.d.s, (1, 4) and (2, 5), meet the square's only induced C4,
    # (1, 2, 4, 5), so no C4 is tested and the trial is not informative
    g = from_edge_list(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])
    verdict = check_theorem(g, "C4-dom")
    assert verdict.status == "held" and verdict.informative is False


def test_t3_trivial_on_c6():
    # square has only 6 vertices, too small for an odd antihole
    verdict = check_theorem(cycle_graph(6), "T3")
    assert verdict.status == "held" and not verdict.informative


_C9_EDGES = "[[0, 1], [0, 8], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8]]"

#: repr of the counterexample verdict of every theorem, with the class
#: hypothesis forced to hold; recorded at commit 47f8d26, where each
#: theorem built its own record.
COUNTEREXAMPLE_VERDICTS = {
    "T1": "{'theorem': 'T1', 'n': 9, 'edges': " + _C9_EDGES
    + ", 'ed': [0, 3, 6], 'witness': ['C5', [6, 4, 2, 0, 7]]}",
    "T2": "{'theorem': 'T2', 'n': 9, 'edges': " + _C9_EDGES
    + ", 'ed': [0, 3, 6], 'witness': ['C6', [0, 1, 3, 4, 6, 7]]}",
    "T4": "{'theorem': 'T4', 'n': 9, 'edges': " + _C9_EDGES
    + ", 'ed': [0, 3, 6], 'witness': ['C5', [0, 1, 3, 5, 7]]}",
    "T5": "{'theorem': 'T5', 'n': 9, 'edges': " + _C9_EDGES
    + ", 'ed': [0, 3, 6], 'witness': ['C5', [0, 1, 3, 5, 7]]}",
    "CONJ": "{'theorem': 'CONJ', 'n': 9, 'edges': " + _C9_EDGES
    + ", 'ed': [0, 3, 6], 'witness': ['C5', [0, 1, 3, 5, 7]]}",
    "T3": "{'theorem': 'T3', 'n': 12, 'edges': [[0, 2], [0, 11], [2, 3], [2, 4], [3, 9], "
    "[4, 7], [5, 7], [5, 10], [9, 10]], 'ed': [0, 1, 6, 7, 8, 9], "
    "'witness': ['co-C7', [2, 5, 3, 7, 9, 4, 10]], 'overlap': [7, 9]}",
    "C4-dom": "{'theorem': 'C4-dom', 'n': 9, 'edges': [[0, 5], [0, 7], [1, 2], [1, 4], "
    "[1, 6], [2, 5], [2, 6], [3, 5], [4, 7], [7, 8]], 'ed': [3, 6, 7], "
    "'witness': ['C4', [0, 4, 1, 5]], 'dominators': [3, 6, 7]}",
}


@pytest.mark.parametrize("theorem", sorted(COUNTEREXAMPLE_VERDICTS))
def test_counterexample_records_are_pinned(theorem, monkeypatch):
    # every graph passes the class test, so the square's property decides
    monkeypatch.setattr(verify, "is_class_member", lambda g, tag: True)
    monkeypatch.setattr(verify, "class_membership", lambda g, tag: SimpleNamespace(member=True))
    if theorem == "T3":  # its square holds the co-C7 2,5,3,7,9,4,10
        g = from_edge_list(
            12, [(0, 2), (0, 11), (2, 3), (2, 4), (3, 9), (4, 7), (5, 7), (5, 10), (9, 10)]
        )
    elif theorem == "C4-dom":  # the C4 0,4,1,5 of its square has three dominators
        g = from_edge_list(
            9, [(0, 5), (0, 7), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6), (3, 5), (4, 7), (7, 8)]
        )
    else:
        g = cycle_graph(9)
    expected = (
        "TrialVerdict(status='counterexample', informative=True, "
        f"counterexample={COUNTEREXAMPLE_VERDICTS[theorem]}, reason=None)"
    )
    assert repr(check_theorem(g, theorem)) == expected


def test_recheck_accepts_consistent_record_and_rejects_tampering():
    # P4 plus an isolated vertex: in every class, e.d. {0,3,4}, and its
    # square contains the triangle 0,1,2
    record = {
        "theorem": "T1",
        "n": 5,
        "edges": [[0, 1], [1, 2], [2, 3]],
        "ed": [0, 3, 4],
        "witness": ["C3", [0, 1, 2]],
    }
    _recheck_counterexample(record)
    bad_ed = dict(record, ed=[0, 1])
    with pytest.raises(AssertionError, match="invalid e.d."):
        _recheck_counterexample(bad_ed)
    bad_witness = dict(record, witness=["C3", [0, 1, 4]])
    with pytest.raises(AssertionError, match="witness"):
        _recheck_counterexample(bad_witness)
    out_of_class = dict(record, edges=[list(e) for e in cycle_graph(5).edges()], n=5, ed=[0])
    with pytest.raises(AssertionError, match="class"):
        _recheck_counterexample(out_of_class)


# -- campaigns ------------------------------------------------------------------

def test_trial_config_validation():
    with pytest.raises(ValueError, match="unknown theorem"):
        TrialConfig("T0")
    with pytest.raises(ValueError, match="random trials or an exhaustive"):
        TrialConfig("T1")
    with pytest.raises(ValueError, match="budget"):
        TrialConfig("T2", trials=5, n_range=(7, 40), budget=30)
    with pytest.raises(ValueError, match="probability"):
        TrialConfig("T2", trials=5, p_range=(0.5, 1.5))
    with pytest.raises(ValueError, match="n range"):
        TrialConfig("T2", trials=5, n_range=(-3, 5))


def test_exhaustive_t1_campaign_holds():
    report = run_campaign(TrialConfig("T1", exhaustive_n=4))
    assert report.trials == 76
    assert not report.counterexamples
    assert report.held + report.vacuous + report.skipped == report.trials
    assert report.held > 0


def test_campaign_reports_are_reproducible():
    config = TrialConfig("T4", seed=99, trials=40, n_range=(7, 10))
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.to_document() == second.to_document()
    assert json.dumps(first.to_document()) == json.dumps(second.to_document())
    assert first.wall_clock_s != 0.0
    assert "wall" not in json.dumps(first.to_document())


def test_campaign_accounting_and_text():
    report = run_campaign(TrialConfig("T3", seed=5, trials=60, n_range=(7, 12)))
    assert report.trials == 60
    assert report.held + report.vacuous + report.skipped == 60
    assert report.held_trivially <= report.held
    text = report.to_text()
    assert "theorem T3" in text and "0 counterexample(s)" in text
    with pytest.raises(ValueError, match="do not add up to 60 trials"):
        dataclasses.replace(report, held=report.held + 1)


def test_campaign_seed_changes_outcomes():
    a = run_campaign(TrialConfig("T2", seed=1, trials=30, n_range=(7, 10)))
    b = run_campaign(TrialConfig("T2", seed=2, trials=30, n_range=(7, 10)))
    assert (a.held, a.vacuous) != (b.held, b.vacuous)


#: SHA-256 over the JSON campaign documents of every theorem, recorded at
#: commit 4cb3c8c, before check_theorem stopped its class test at the first
#: forbidden pattern.
CAMPAIGN_DIGEST = "d9a87341b465b4d2ea9a002967d94c36779ca86cf77285e17b2d9cc52db1b714"


def test_campaign_documents_are_pinned():
    digest = hashlib.sha256()
    for theorem in THEOREM_IDS:
        for seed in (1, 7):
            config = TrialConfig(
                theorem,
                seed=seed,
                trials=40,
                n_range=(6, 12),
                exhaustive_n=5 if theorem in ("T1", "C4-dom") else None,
            )
            digest.update(json.dumps(run_campaign(config).to_document()).encode())
    assert digest.hexdigest() == CAMPAIGN_DIGEST
