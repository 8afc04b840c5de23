"""Correctness gate: runs after each timed window, outside every metric.

Solve answers are checked with the benchmark's own domination count and
against ``oracle_ed`` (an exact-cover search that shares no code with the
square/MWIS pipeline). Campaign reports must carry no counterexample and
have tallies that add up. That every repeat of a call answers the same
(for campaigns, the same ``to_document()`` bytes) is checked by the
client in run.py, which keeps only each item's first answer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from perfcode import oracle_ed


def dominated_once(g, vertices) -> bool:
    """True iff every closed neighbourhood of g holds exactly one chosen vertex."""
    chosen = set(vertices)
    if len(chosen) != len(vertices) or not chosen <= set(range(g.n)):
        return False
    return all(len(chosen.intersection((v, *g.neighbors(v)))) == 1 for v in range(g.n))


def corpus_digest(items) -> str:
    h = hashlib.sha256()
    for g, w, family in items:
        h.update(repr((g.n, tuple(g.edges()), w, family)).encode())
    return h.hexdigest()


def oracle_answers(items, indices, cache: Path | None = None) -> dict[int, tuple[bool, int | None]]:
    """(exists, minimum user weight) from oracle_ed for each corpus index.

    With a cache path, answers are kept in a JSON file keyed by the digest
    of the whole corpus, so a rerun on the same inputs skips the oracle.
    """
    digest = corpus_digest(items)
    known: dict[int, tuple[bool, int | None]] = {}
    if cache is not None and cache.is_file():
        stored = json.loads(cache.read_text())
        if stored.get("digest") == digest:
            known = {int(i): tuple(a) for i, a in stored["answers"].items()}
    missing = [i for i in sorted(set(indices)) if i not in known]
    for i in missing:
        g, w, _family = items[i]
        ref = oracle_ed(g, w)
        known[i] = (ref.exists, ref.user_weight)
    if cache is not None and missing:
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps({"digest": digest, "answers": known}))
    return known


def check_solutions(items, answers, reference) -> list[str]:
    """One message per wrong answer among {index: EDSolution}."""
    problems = []
    for i, sol in answers.items():
        g, w, family = items[i]
        if sol.exists:
            valid = (
                sol.vertices is not None
                and dominated_once(g, sol.vertices)
                and sol.user_weight == sum(w[v] for v in sol.vertices)
            )
        else:
            valid = sol.vertices is None and sol.user_weight is None
        if not valid:
            problems.append(f"item {i} ({family}): invalid answer {sol.exists, sol.vertices, sol.user_weight}")
        elif (sol.exists, sol.user_weight) != reference[i]:
            problems.append(f"item {i} ({family}): (exists, weight) {sol.exists, sol.user_weight}, oracle {reference[i]}")
    return problems


def check_reports(configs, answers) -> list[str]:
    """One message per bad report among {index: VerificationReport}."""
    problems = []
    for i, report in answers.items():
        tallied = report.held + report.vacuous + report.skipped + len(report.counterexamples)
        if report.counterexamples:
            problems.append(f"campaign {i}: {len(report.counterexamples)} counterexample(s)")
        elif tallied != report.trials or report.trials != configs[i].trials or report.held_trivially > report.held:
            problems.append(f"campaign {i}: tallies {tallied} do not add up to {configs[i].trials} trials")
    return problems
