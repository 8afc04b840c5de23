"""Seeded single-process benchmark for perfcode's solve and theorem campaigns.

    python3 bench/run.py --workload solve-small --seed 1 --seconds 15 --trace 0

One client runs a closed loop: each call into perfcode starts only after
the previous one returned, with no threads. ``--trace 0`` times calls on
the thread's CPU clock, scaled to a reference machine speed (see Speed),
until they took ``--seconds`` seconds, and prints the end-to-end metrics;
``--trace 1`` runs every input once untraced and once with spans at the layer
boundaries (see tracing.py) and prints the per-layer metrics. Either way
every answer then goes through the correctness gate (gate.py), and any
wrong answer makes the command exit with status 1. The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Calls made in each round of set-up, and the number of rounds (corpus
#: build and warm-up); setup_s takes the median round.
WARMUP_CALLS = 5
SETUPS = 5
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: The tail is taken in each of this many equal runs of consecutive calls,
#: and the median of those is reported: the costs of the exact fallback are
#: heavy-tailed, and the tail of a whole window was set by the few heaviest
#: inputs a seed drew (it moved by a quarter between seeds on solve-exact).
#: Over ten seeds, the tail's spread between quartiles on solve-exact was
#: 0.24 of its median with one slice, 0.12 with five and 0.04 with seven.
TAIL_SLICES = 7
#: Calls are timed on the CPU clock of the (only) thread, so that time the
#: processor gives to other processes is left out. Deadlines stay wall-clock.
CLOCK = time.thread_time
#: Iterations of the reference loop, and the CPU seconds it takes at the
#: reference speed that reported times are scaled to.
REF_ITERATIONS = 800
REF_S = 0.0003
REF_SETS = [frozenset(range(i % 50, i % 50 + 8)) for i in range(600)]
#: The reference loop runs after the call that brings this much call time
#: since it last ran, and the speed is the median over the last REF_WINDOW runs.
SAMPLE_EVERY_S = 0.01
REF_WINDOW = 9


def reference_loop() -> int:
    """Fixed work that never changes: intersections of small frozensets."""
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += len(REF_SETS[i % 600] & REF_SETS[i * 7 % 600])
    return acc


class Speed:
    """The machine's current speed, from the reference loop run between calls.

    On a shared machine the same pure-Python code runs up to a third slower
    from one second to the next, on the CPU clock too, because other
    tenants share the processor's cores and caches. Times are therefore
    multiplied by ``scale`` = REF_S / (median recent time of the reference
    loop), which reads them as at the reference speed. Sampling every
    SAMPLE_EVERY_S of call time follows the changes. On a shared 2-core VM,
    over repeated passes through the same solve-small, solve-exact and
    solve-chordal inputs, the coefficient of variation of the pass time was
    0.11 to 0.16 on the CPU clock and 0.02 to 0.04 scaled. A loop of list
    and dict stores instead tracked solve-small as well but solve-exact
    only half as well; the size of the set table made no difference.
    """

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=REF_WINDOW)
        self.spent_s = 0.0  # CPU seconds in the reference loop, kept out of every figure
        for _ in range(REF_WINDOW):
            self.sample()
        self._due = SAMPLE_EVERY_S

    def sample(self) -> None:
        t0 = CLOCK()
        reference_loop()
        elapsed = CLOCK() - t0
        self.spent_s += elapsed
        self.recent.append(elapsed)
        self.scale = REF_S / statistics.median(self.recent)

    def after_call(self, elapsed: float) -> None:
        self._due -= elapsed
        if self._due <= 0:
            self.sample()
            self._due = SAMPLE_EVERY_S


class DeadlineExceeded(Exception):
    """A call ran past the benchmark's per-call deadline."""


class Deadline:
    """Per-call wall-clock deadline from ITIMER_REAL, for the main thread.

    The SIGALRM handler raises only while a call is armed, and the timer
    is disarmed in ``finally`` whatever the call did.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._armed = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _fire(self, signum, frame):
        if self._armed:
            self._armed = False
            raise DeadlineExceeded(f"call exceeded {self.seconds} s")

    @contextmanager
    def armed(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list]
    call: Callable[[Any], Any]  # the public call the client makes per item
    op: str  # span name of that call
    unit: str  # work per call: "solves" (one) or "trials" (config.trials)
    deadline_s: float


def workloads() -> dict[str, Workload]:
    import corpora
    from perfcode import run_campaign, solve

    def solve_item(item):
        return solve(item[0], item[1])

    # On the four measured workloads the deadline only bounds a runaway call:
    # it sits over ten times above the slowest call seen (about 0.4 s on
    # solve-exact), so that no call fails on a slow phase of a shared
    # machine. solve-overrun, which BENCHMARK.json does not list because its
    # failures are the point, shows the unbounded exact fallback as calls
    # that run past 1 s.
    return {
        "solve-small": Workload(corpora.solve_small, solve_item, "solver.solve", "solves", 5.0),
        "solve-exact": Workload(corpora.solve_exact, solve_item, "solver.solve", "solves", 5.0),
        "solve-chordal": Workload(corpora.solve_chordal, solve_item, "solver.solve", "solves", 5.0),
        "campaign": Workload(corpora.campaign, run_campaign, "verify.run_campaign", "trials", 5.0),
        "solve-overrun": Workload(corpora.solve_overrun, solve_item, "solver.solve", "solves", 1.0),
    }


class Client:
    """The closed-loop client: one call at a time, each under the deadline."""

    def __init__(self, workload: Workload, items: list, deadline: Deadline, speed: Speed):
        self.workload = workload
        self.items = items
        self.deadline = deadline
        self.speed = speed
        # Per call; arrays, so the client's memory barely grows with the call count.
        # Latencies and busy time are scaled CPU seconds (see Speed).
        self.indices = array("q")  # the item called
        self.latencies = array("d")  # failed calls count as >= the deadline
        self.busy_s = 0.0  # time spent in calls, failed ones included
        self.work = 0  # solves or trials completed
        self.failures: list[tuple[int, str]] = []  # (item index, exception name)
        # Per item: the fingerprint and output of its first answer, how often it
        # answered, and every later answer that differed from the first.
        self.answers: dict[int, tuple[Any, Any]] = {}
        self.returns: Counter = Counter()
        self.mismatches: list[tuple[int, Any]] = []

    def call(self, index: int) -> tuple[float, Any]:
        """One call under the deadline; returns (unscaled CPU seconds, output or None if it failed)."""
        item = self.items[index]
        t0 = CLOCK()
        try:
            with self.deadline.armed():
                output = self.workload.call(item)
        except Exception as exc:  # any exception is a failed call, never a crash
            elapsed = CLOCK() - t0
            self.failures.append((index, type(exc).__name__))
            self._record(index, elapsed, self.deadline.seconds)
            return elapsed, None
        elapsed = CLOCK() - t0
        self._record(index, elapsed, 0.0)
        self.work += item.trials if self.workload.unit == "trials" else 1
        self.add_answer(index, output)
        return elapsed, output

    def add_answer(self, index: int, output) -> None:
        fp = self.fingerprint(output)
        if self.answers.setdefault(index, (fp, output))[0] != fp:
            self.mismatches.append((index, output))
        self.returns[index] += 1

    def fingerprint(self, output):
        """What must repeat exactly: the campaign document's bytes, or the solve answer."""
        if self.workload.unit == "trials":
            return json.dumps(output.to_document()).encode()
        return (output.exists, output.vertices, output.user_weight)

    def _record(self, index: int, elapsed: float, floor: float) -> None:
        """Record a call of `elapsed` CPU seconds, with a latency of at least `floor`."""
        scale = self.speed.scale
        self.indices.append(index)
        self.latencies.append(max(elapsed * scale, floor))
        self.busy_s += elapsed * scale

    def run_for(self, seconds: float) -> None:
        """Cycle through the items until their calls took `seconds` of scaled time.

        The window is measured in scaled time, not on the wall clock, so that
        how many calls it holds, and so which inputs and what tail
        percentile, does not depend on how fast the machine is at the time.
        A wall-clock cap of twice `seconds` bounds the run on a machine far
        slower than the reference.
        """
        start = time.perf_counter()
        i = 0
        while self.busy_s < seconds and time.perf_counter() - start < 2 * seconds:
            self.speed.after_call(self.call(i % len(self.items))[0])
            i += 1


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def sliced_tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, calls per slice): the median of the TAIL_SLICES slices' tails.

    With too few calls for TAIL_SLICES slices, the tail of all calls.
    """
    size = len(latencies) // TAIL_SLICES
    if size <= TAIL_BEYOND:
        return (*tail(latencies), len(latencies))
    tails = sorted(tail(latencies[j * size:(j + 1) * size]) for j in range(TAIL_SLICES))
    return (*tails[TAIL_SLICES // 2], size)


def set_up(workload: Workload, seed: int, deadline: Deadline, speed: Speed) -> tuple[list, float]:
    """Set up SETUPS times; returns the corpus with the set-up time in CPU seconds.

    One set-up is the start of a fresh interpreter that imports perfcode
    (this process's own start cannot be repeated), one corpus build and
    WARMUP_CALLS calls; the set-up time is the median start plus the median
    build and warm-up, because a single set-up is too short to compare two
    runs by. Build and warm-up are scaled (see Speed); the start is not,
    because the reference loop does not follow its speed: in a round where
    the loop read the machine as a third faster, the start was not.
    """
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import perfcode"
    starts, rounds = [], []
    for _ in range(SETUPS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        starts.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        recent = list(speed.recent)
        t0 = time.process_time()
        items = workload.build(seed)
        warm = Client(workload, items, deadline, speed)
        for i in range(min(WARMUP_CALLS, len(items))):
            warm.call(i)
        round_s = time.process_time() - t0
        for _ in range(REF_WINDOW):
            speed.sample()
        # The speed during the round, from reference runs just before and just after it.
        rounds.append(round_s * REF_S / statistics.median([*recent, *speed.recent]))
    return items, statistics.median(starts) + statistics.median(rounds)


def traced_passes(workload: Workload, items: list, deadline: Deadline, speed: Speed, seconds: float):
    """Passes over the corpus, each item once untraced and once traced."""
    from tracing import Tracer

    untraced = Client(workload, items, deadline, speed)
    traced = Client(workload, items, deadline, speed)
    tracer = Tracer(DeadlineExceeded)
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()  # whole passes are fitted into the wall-clock window
    # Whole passes only, and none that would end past `seconds` (but at least one).
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i in range(len(items)):
            # Alternate which side goes first, so drift and warm caches cancel.
            for side in ((untraced, traced) if i % 2 == 0 else (traced, untraced)):
                if side is untraced:
                    untraced_s += untraced.call(i)[0]
                    continue
                with tracer.installed(), tracer.operation(workload.op):
                    elapsed, output = traced.call(i)
                traced_s += elapsed
                if output is not None and workload.unit == "solves":
                    tracer.observe_solution(output)
        passes += 1
    return untraced, traced, tracer, tracer.layer_metrics(untraced_s, traced_s, passes)


def gate_problems(name: str, workload: Workload, items: list, clients: list[Client], seed: int) -> list[str]:
    """Every wrong answer of the clients, once per distinct answer."""
    import gate

    first, *others = clients
    if workload.unit == "trials":
        # Documents must match across passes: run once more any campaign seen once.
        for i in [i for i in first.answers if sum(c.returns[i] for c in clients) == 1]:
            first.add_answer(i, workload.call(items[i]))
    for other in others:
        for i, (_fp, output) in other.answers.items():
            first.add_answer(i, output)
    problems = [f"item {i}: answer differs between calls" for c in clients for i, _ in c.mismatches]
    answers = {i: output for i, (_fp, output) in first.answers.items()}
    if workload.unit == "trials":
        return problems + gate.check_reports(items, answers)
    reference = gate.oracle_answers(items, answers, OUT / f"oracle-{name}-{seed}.json")
    return problems + gate.check_solutions(items, answers, reference)


def emit(metrics: dict[str, tuple[float, str]], extra: dict[str, str]) -> None:
    for key, (value, unit) in metrics.items():
        note = f"  ({extra[key]})" if key in extra else ""
        print(f"{key:40s} {value:14.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "perfcode" / "__init__.py").is_file():
        print(f"perfcode sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import perfcode  # noqa: F401  (import time is part of set-up)

    table = workloads()
    if args.workload not in table:
        parser.error(f"--workload must be one of {sorted(table)}")
    workload = table[args.workload]

    speed = Speed()
    with Deadline(workload.deadline_s) as deadline:
        items, setup_s = set_up(workload, args.seed, deadline, speed)
        if args.trace:
            untraced, traced, tracer, metrics = traced_passes(workload, items, deadline, speed, args.seconds)
            clients = [untraced, traced]
        else:
            client = Client(workload, items, deadline, speed)
            client.run_for(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            clients = [client]

    problems = gate_problems(args.workload, workload, items, clients, args.seed)
    attempted = sum(len(c.latencies) for c in clients)
    failed = sum(len(c.failures) for c in clients)
    notes: dict[str, str] = {}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": tracer.spans,
        }))
        notes["trace.coverage"] = "layer spans / untraced call time"
        notes["trace.overhead"] = "traced / untraced call time - 1"
        printed = metrics
        emit(printed, notes)
    else:
        latencies = client.latencies
        tail_s, tail_pct, tail_calls = sliced_tail(latencies)
        per = "solve" if workload.unit == "solves" else "campaign_call"
        printed = {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (client.work / client.busy_s, "1/s"),
            "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        names = {"throughput_per_s": f"{workload.unit}_per_s", "p50_ms": f"{per}_p50_ms", "tail_ms": f"{per}_tail_ms"}
        human = {names.get(k, k): v for k, v in printed.items()}
        human["error_rate"] = (failed / attempted, "ratio")
        human["wrong_answers"] = (len(problems), "count")
        notes["setup_s"] = f"medians of {SETUPS} interpreter starts and of {SETUPS} corpus builds and warm-ups"
        notes[f"{workload.unit}_per_s"] = f"{client.work} {workload.unit} in {client.busy_s:.3f} s of calls"
        notes[f"{per}_p50_ms"] = f"median of {len(latencies)} calls"
        notes[f"{per}_tail_ms"] = (f"p{tail_pct:.4f}, {TAIL_BEYOND} calls beyond it, median over "
                                   f"{TAIL_SLICES} slices of {tail_calls} consecutive calls")
        notes["error_rate"] = f"{failed} failed of {attempted} attempted"
        emit(human, notes)
        print(f"times are CPU time x {speed.scale:.3f} at the end of the window "
              f"(reference loop: {REF_S * 1e3:g} ms at the reference speed / median of its last {REF_WINDOW} runs)")
    labels = [item[2] if workload.unit == "solves" else item.theorem for item in items]
    tried = Counter(labels[i] for c in clients for i in c.indices)
    lost = Counter(labels[i] for c in clients for i, _ in c.failures)
    print("failed calls by input family: " + ", ".join(f"{k} {lost[k]}/{tried[k]}" for k in sorted(tried)))
    for index, kind in sorted({f for c in clients for f in c.failures})[:10]:
        print(f"failed: item {index} ({labels[index]}): {kind}")
    for problem in problems[:20]:
        print(f"WRONG: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
