"""Tests for the benchmark itself; run with `python -m pytest bench`."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpora  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from perfcode import TrialConfig, connected_components, run_campaign, solve, verify_ed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_cwd: Path, *args: str, script: Path = ROOT / "bench" / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=tmp_cwd, timeout=170
    )


@pytest.mark.parametrize("build", [corpora.solve_small, corpora.solve_exact, corpora.solve_chordal, corpora.campaign,
                                   corpora.solve_overrun])
def test_same_seed_gives_same_corpus(build):
    assert build(7) == build(7)
    assert build(7) != build(8)


def test_planted_sets_are_efficient_dominating_sets():
    for n in range(2, 120, 3):
        rng = random.Random(n)
        g, planted = corpora.planted_ed_graph(n, rng)
        assert gate.dominated_once(g, planted) and verify_ed(g, planted)
        tree, centres = corpora.planted_ed_tree(n, rng)
        assert tree.edge_count == n - 1 and len(connected_components(tree)) == 1
        assert gate.dominated_once(tree, centres) and verify_ed(tree, centres)


def test_near_miss_is_its_yes_instance_plus_one_edge():
    items = corpora.solve_exact(3)[:40]
    for (yes, w_yes, fam_yes), (no, w_no, fam_no) in zip(items[0::2], items[1::2]):
        assert (fam_yes, fam_no) == ("planted-yes", "planted-no") and w_yes == w_no
        assert set(yes.edges()) < set(no.edges()) and no.edge_count == yes.edge_count + 1
        assert solve(yes, w_yes).exists


def test_deadline_fires_and_is_disarmed():
    before = signal.getsignal(signal.SIGALRM)
    with run.Deadline(0.05) as deadline:
        with pytest.raises(run.DeadlineExceeded):
            with deadline.armed():
                while True:
                    pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        with deadline.armed():
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        time.sleep(0.1)  # a stray alarm would raise here
    assert signal.getsignal(signal.SIGALRM) is before


def test_client_counts_overruns_and_exceptions_as_failed_calls():
    def call(item):
        if item == "spin":
            while True:
                pass
        if item == "recurse":
            raise RecursionError("maximum recursion depth exceeded")
        return item

    workload = run.Workload(list, call, "op", "solves", 0.05)
    with run.Deadline(workload.deadline_s) as deadline:
        client = run.Client(workload, ["ok", "spin", "recurse"], deadline, run.Speed())
        client.fingerprint = lambda output: output
        for i in range(3):
            client.call(i)
    assert list(client.answers) == [0]
    assert client.failures == [(1, "DeadlineExceeded"), (2, "RecursionError")]
    assert all(latency >= 0.05 for latency in client.latencies[1:])
    assert client.work == 1


def test_gate_rejects_wrong_answers():
    items = corpora.solve_small(5)[:60]
    answers = {i: solve(g, w) for i, (g, w, _) in enumerate(items)}
    reference = gate.oracle_answers(items, answers)
    assert gate.check_solutions(items, answers, reference) == []

    i, good = next((i, s) for i, s in answers.items() if s.exists and len(s.vertices) > 1)
    dropped = dataclasses.replace(good, vertices=good.vertices[1:])
    heavier = dataclasses.replace(good, user_weight=good.user_weight + 1)
    denied = dataclasses.replace(good, exists=False, vertices=None, user_weight=None)
    for wrong in (dropped, heavier, denied):
        assert len(gate.check_solutions(items, {**answers, i: wrong}, reference)) == 1

    configs = [TrialConfig(theorem="T1", seed=3, trials=5, n_range=(7, 9))]
    report = run_campaign(configs[0])
    assert gate.check_reports(configs, {0: report}) == []
    # Replace one verdict by a counterexample, keeping the tallies consistent.
    fake = {"theorem": "T1", "n": 1, "edges": []}
    if report.held:
        flawed = dataclasses.replace(report, held=report.held - 1, held_trivially=0, counterexamples=(fake,))
    else:
        flawed = dataclasses.replace(report, vacuous=report.vacuous - 1, counterexamples=(fake,))
    assert len(gate.check_reports(configs, {0: flawed})) == 1
    with pytest.raises(ValueError):
        dataclasses.replace(report, held=report.held + 1)  # the report checks its own tallies


def test_client_reports_a_repeat_that_answers_differently():
    answers = iter(["a", "a", "b"])
    workload = run.Workload(list, lambda item: next(answers), "op", "solves", 1.0)
    with run.Deadline(workload.deadline_s) as deadline:
        client = run.Client(workload, ["x"], deadline, run.Speed())
        client.fingerprint = lambda output: output
        for _ in range(3):
            client.call(0)
    assert client.answers == {0: ("a", "a")} and client.mismatches == [(0, "b")]


def test_speed_scales_times_to_the_reference_loop():
    speed = run.Speed()
    assert len(speed.recent) == run.REF_WINDOW and speed.spent_s > 0
    speed.recent.clear()
    speed.recent.extend([2 * run.REF_S] * (run.REF_WINDOW - 1))
    speed.sample()  # one fast run does not move the median
    assert speed.scale == 0.5
    speed.after_call(run.SAMPLE_EVERY_S / 2)
    assert len(speed.recent) == run.REF_WINDOW and speed.scale == 0.5  # not due yet


def test_tail_is_highest_percentile_with_ten_beyond():
    value, percentile = run.tail([float(x) for x in range(100)])
    assert (value, percentile) == (89.0, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_tail_is_the_median_of_the_slices_tails():
    size = 20
    slices = [[float(j)] * size for j in range(run.TAIL_SLICES)]
    slices[0] = [1e9] * size  # one slow slice does not move the median
    value, percentile, calls = run.sliced_tail([x for s in slices for x in s])
    assert (value, calls) == (run.TAIL_SLICES // 2 + 1, size)  # the median of 1e9, 1, 2, ...
    assert percentile == 100.0 * (size - run.TAIL_BEYOND) / size
    assert run.sliced_tail([1.0, 5.0]) == (5.0, 100.0, 2)


def test_output_names_every_metric(tmp_path):
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    printed_names = {"setup_s", "solves_per_s", "solve_p50_ms", "solve_tail_ms", "error_rate", "wrong_answers", "peak_rss_mb"}
    for workload, trace, expected, printed in [
        ("solve-small", "0", e2e, printed_names),
        ("campaign", "0", e2e, {"trials_per_s", "error_rate", "wrong_answers"}),
        ("solve-small", "1", layers, layers),
    ]:
        out = _bench(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]
        assert set(result["metrics"]) == expected
        assert printed <= {line.split()[0] for line in lines[:-1]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path, "--workload", "solve-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 script=tmp_path / "bench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
