"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Everything is exact (integer arithmetic throughout); the only tolerances
are the wall-clock budgets stated alongside the corpus sizes.
"""

import json
import random
import time

import pytest

import bruteforce as bf
from conftest import run_from_checkout
from perfcode import (
    TrialConfig,
    closed_neighborhood_weights,
    complete_sun,
    cycle_graph,
    from_edge_list,
    gen_random_chordal,
    is_chordal,
    mwis_chordal,
    mwis_exact,
    oracle_ed,
    run_campaign,
    solve,
    square,
    verify_ed,
    write_dimacs,
)
from perfcode.recognition import find_pattern
from perfcode.verify import _random_graph, _split_seed, enumerate_all_graphs

MASTER_SEED = 20240901


def _report(number: int, name: str, ok: bool, extra: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    return ok


def _random_weighted_graph(index: int, n_range, w_range=(1, 20)):
    rng = random.Random(_split_seed(MASTER_SEED, index))
    n = rng.randint(*n_range)
    p = rng.uniform(0.05, 0.95)
    g = _random_graph(n, p, rng)
    weights = tuple(rng.randint(*w_range) for _ in range(n))
    return g, weights


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    checked = 0
    ok = True
    for g in enumerate_all_graphs(6):
        weights = tuple(rng.randint(1, 20) for _ in range(g.n))
        via_pipeline = solve(g, weights)
        via_oracle = oracle_ed(g, weights)
        if via_pipeline.exists != via_oracle.exists:
            ok = False
            break
        if via_pipeline.exists and via_pipeline.user_weight != via_oracle.user_weight:
            ok = False
            break
        checked += 1
    if ok:
        for i in range(2000):
            g, weights = _random_weighted_graph(i, (7, 16))
            via_pipeline = solve(g, weights)
            via_oracle = oracle_ed(g, weights)
            if via_pipeline.exists != via_oracle.exists or (
                via_pipeline.exists and via_pipeline.user_weight != via_oracle.user_weight
            ):
                ok = False
                break
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    assert _report(
        1, "oracle equivalence, exhaustive n<=6 + 2000 random", ok,
        f"{checked} graphs, {elapsed:.1f}s",
    )


def _theorem_campaign(theorem: str):
    config = TrialConfig(
        theorem=theorem,
        seed=MASTER_SEED,
        trials=10_000,
        n_range=(7, 14),
        exhaustive_n=6,
    )
    return run_campaign(config)


def test_criterion_2_theorem_chordal_square():
    report = _theorem_campaign("T1")
    ok = not report.counterexamples and report.held >= 200
    assert _report(
        2, "squares of (P6,HHD)-free graphs with an e.d. are chordal", ok,
        f"held {report.held}, vacuous {report.vacuous}, "
        f"counterexamples {len(report.counterexamples)}",
    )


def test_criterion_3_theorem_hole_free_square():
    report = _theorem_campaign("T2")
    ok = not report.counterexamples and report.held >= 200
    assert _report(
        3, "squares of P6-free graphs with an e.d. are hole-free", ok,
        f"held {report.held}, vacuous {report.vacuous}, "
        f"counterexamples {len(report.counterexamples)}",
    )


def test_criterion_4_theorems_perfect_square():
    report_house = _theorem_campaign("T4")
    report_bull = _theorem_campaign("T5")
    ok = (
        not report_house.counterexamples
        and not report_bull.counterexamples
        and report_house.held >= 200
        and report_bull.held >= 200
    )
    assert _report(
        4, "squares for (P6,house)-free and (P6,bull)-free inputs are perfect", ok,
        f"held {report_house.held}/{report_bull.held}, counterexamples "
        f"{len(report_house.counterexamples)}/{len(report_bull.counterexamples)}",
    )


def test_criterion_5_theorem_odd_antiholes_avoid_ed_vertices():
    config = TrialConfig(
        theorem="T3",
        seed=MASTER_SEED,
        trials=2000,
        n_range=(7, 16),
    )
    report = run_campaign(config)
    ok = not report.counterexamples and report.skipped == 0
    assert _report(
        5, "odd antiholes of the square avoid all e.d. vertices", ok,
        f"held {report.held} (trivially {report.held_trivially}), "
        f"vacuous {report.vacuous}, counterexamples {len(report.counterexamples)}",
    )


def test_criterion_6_chordal_greedy_matches_exact():
    start = time.perf_counter()
    rng = random.Random(MASTER_SEED + 6)
    ok = True
    for i in range(1000):
        n = rng.randint(1, 60)
        fill = rng.uniform(0.0, 0.8)
        g = gen_random_chordal(n, fill, rng.randrange(1 << 32))
        weights = [rng.randint(1, 100) for _ in range(n)]
        adj = bf.adjacency(n, g.edges())
        if not is_chordal(g)[0]:
            ok = False
            break
        greedy = mwis_chordal(g, weights)
        exact = mwis_exact(g, weights)
        if greedy.value != exact.value:
            ok = False
            break
        for result in (greedy, exact):
            if not bf.is_independent(adj, result.vertices):
                ok = False
            if sum(weights[v] for v in result.vertices) != result.value:
                ok = False
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    assert _report(
        6, "chordal greedy equals exact branch-and-bound on 1000 chordal graphs", ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_complete_4_sun_story():
    sun = complete_sun(4)
    chordal = is_chordal(sun)[0]
    sq = square(sun)
    witness = find_pattern(sq, "C4")
    c4_on_sun_vertices = witness is not None and set(witness.vertices) == {4, 5, 6, 7}
    no_ed = not oracle_ed(sun).exists and not solve(sun).exists
    ok = chordal and c4_on_sun_vertices and no_ed
    assert _report(
        7, "complete 4-sun: chordal, C4 in the square on sun vertices, no e.d.", ok,
        f"chordal={chordal}, c4={c4_on_sun_vertices}, no_ed={no_ed}",
    )


def test_criterion_8_worked_weighted_cycle():
    weights = (1, 2, 3, 4, 5, 6)
    solution = solve(cycle_graph(6), weights)
    enumerated = bf.all_eds(6, list(cycle_graph(6).edges()))
    best = min(sum(weights[v] for v in d) for d in enumerated)
    ok = (
        solution.exists
        and tuple(v + 1 for v in solution.vertices) == (1, 4)
        and solution.user_weight == 5
        and best == 5
        and verify_ed(cycle_graph(6), solution.vertices)
    )
    assert _report(8, "weighted C6 yields e.d. {1,4} of weight 5", ok)


def _run_cli(args: list[str]) -> tuple[int, bytes]:
    proc = run_from_checkout(["-m", "perfcode.cli", *args])
    return proc.returncode, proc.stdout


def test_criterion_9_byte_identical_determinism(tmp_path):
    config = TrialConfig(theorem="T2", seed=77, trials=150, n_range=(7, 12))
    doc_a = json.dumps(run_campaign(config).to_document()).encode()
    doc_b = json.dumps(run_campaign(config).to_document()).encode()

    graph_file = tmp_path / "c6.col"
    graph_file.write_text(write_dimacs(cycle_graph(6), (1, 2, 3, 4, 5, 6)))
    solve_a = _run_cli(["solve", str(graph_file), "--json"])
    solve_b = _run_cli(["solve", str(graph_file), "--json"])
    verify_args = [
        "verify-theorems", "--theorem", "T4", "--seed", "5", "--trials", "60", "--json"
    ]
    verify_a = _run_cli(verify_args)
    verify_b = _run_cli(verify_args)
    gen_args = ["gen", "--model", "er", "--n", "12", "--p", "0.4", "--seed", "9"]
    gen_a = _run_cli(gen_args)
    gen_b = _run_cli(gen_args)

    ok = (
        doc_a == doc_b
        and solve_a == solve_b
        and solve_a[0] == 0
        and verify_a == verify_b
        and verify_a[0] == 0
        and gen_a == gen_b
        and gen_a[0] == 0
    )
    assert _report(9, "campaigns and CLI invocations are byte-identical per seed", ok)
