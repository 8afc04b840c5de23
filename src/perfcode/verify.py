"""Empirical verification of the structural theorems on graph corpora.

Each trial takes one graph, tests the theorem's hypothesis (class
membership plus existence of an efficient dominating set) and, when it
holds, evaluates the claimed property of the square. Hypothesis filtering
uses the exact-cover oracle, never the pipeline under test. Every trial
runs down one path: a campaign streams its corpus as (graph, origin)
pairs, :func:`check_theorem` gives each a verdict, and every
counterexample record is built and re-verified by one helper. Campaigns
are reproducible: every trial's graph is derived from the master seed by
a fixed splitting function, independent of execution order.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterator

# The interpreter's built-in SHA-256, as random.py takes its SHA-512.
try:
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from .graph import Graph, from_edge_list, square
from .recognition import (
    PatternWitness,
    _embeddings,
    class_membership,
    find_all_odd_antiholes,
    find_hole,
    is_chordal,
    is_class_member,
    is_perfect_desk,
    witness_is_valid,
)
from .solver import DEFAULT_VERIFY_BUDGET, efficient_dominating_sets, verify_ed

THEOREM_IDS = ("T1", "T2", "T3", "C4-dom", "T4", "T5", "CONJ")

#: Class hypothesis per theorem id.
_THEOREM_CLASS = {
    "T1": "(P6,HHD)-free",
    "T2": "P6-free",
    "T3": "P6-free",
    "C4-dom": "(P6,house)-free",
    "T4": "(P6,house)-free",
    "T5": "(P6,bull)-free",
    "CONJ": "P6-free",
}

#: Theorems whose conclusion quantifies over every efficient dominating set.
_NEEDS_ALL_EDS = frozenset({"T3", "C4-dom"})

#: Max n for enumerating all efficient dominating sets of a trial graph.
ED_ENUM_CAP = 16

HELD, VACUOUS, COUNTEREXAMPLE, SKIPPED = "held", "vacuous", "counterexample", "skipped"


@dataclass(frozen=True)
class TrialVerdict:
    status: str
    informative: bool = True
    counterexample: dict | None = None
    reason: str | None = None


@dataclass(frozen=True)
class TrialConfig:
    """One campaign: a theorem, a corpus, a master seed and search budgets."""

    theorem: str
    seed: int = 0
    trials: int = 0
    n_range: tuple[int, int] = (7, 14)
    p_range: tuple[float, float] = (0.05, 0.95)
    exhaustive_n: int | None = None
    budget: int = DEFAULT_VERIFY_BUDGET

    def __post_init__(self):
        if self.theorem not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem!r}; expected one of {THEOREM_IDS}")
        if self.exhaustive_n is None and self.trials < 1:
            raise ValueError("a campaign needs random trials or an exhaustive bound")
        if self.trials < 0 or (self.exhaustive_n is not None and self.exhaustive_n < 0):
            raise ValueError("corpus sizes must be nonnegative")
        if self.trials and not 0 <= self.n_range[0] <= self.n_range[1]:
            raise ValueError(f"bad n range {self.n_range}")
        if self.trials and not 0.0 <= self.p_range[0] <= self.p_range[1] <= 1.0:
            raise ValueError(f"bad edge-probability range {self.p_range}")
        if self.trials and self.n_range[1] > self.budget:
            raise ValueError(f"n range {self.n_range} exceeds verification budget {self.budget}")


@dataclass(frozen=True)
class VerificationReport:
    """Campaign outcome; wall-clock stays out of the canonical document."""

    theorem: str
    seed: int
    corpus: dict
    budget: int
    trials: int
    held: int
    held_trivially: int
    vacuous: int
    skipped: int
    counterexamples: tuple[dict, ...]
    wall_clock_s: float = field(compare=False)

    def __post_init__(self):
        total = self.held + self.vacuous + self.skipped + len(self.counterexamples)
        if total != self.trials:
            raise ValueError(f"verdict tallies {total} do not add up to {self.trials} trials")

    def to_document(self) -> dict:
        document = asdict(self)
        del document["wall_clock_s"]
        document["counterexamples"] = list(document["counterexamples"])
        return document

    def to_text(self) -> str:
        lines = [
            f"theorem {self.theorem}: {len(self.counterexamples)} counterexample(s)",
            f"  seed {self.seed}, corpus {self.corpus}",
            f"  trials {self.trials}: held {self.held} "
            f"(of which trivially {self.held_trivially}), "
            f"vacuous {self.vacuous}, skipped {self.skipped}",
        ]
        for record in self.counterexamples:
            lines.append(f"  COUNTEREXAMPLE: {record}")
        return "\n".join(lines)


# -- corpora -----------------------------------------------------------------

def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p): one draw per pair (u, v), u < v, in lexicographic order."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    masks = [0] * n
    draw = rng.random
    for u in range(n):
        bit = 1 << u
        for v in range(u + 1, n):
            if draw() < p:
                masks[u] |= 1 << v
                masks[v] |= bit
    return Graph._built(tuple(masks))


def gen_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical seed gives an identical edge set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    return _random_graph(n, p, random.Random(seed))


def gen_random_chordal(n: int, fill: float, seed: int) -> Graph:
    """Random chordal graph; fill=0 gives a random tree.

    Working backward over an elimination order, each vertex gets a random
    later parent plus (with probability fill, per vertex) members of the
    parent's later clique, so every later-neighbor set stays a clique.
    Vertex ids are then shuffled.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= fill <= 1.0:
        raise ValueError(f"fill must be in [0, 1], got {fill}")
    rng = random.Random(seed)
    later_cliques: list[list[int]] = [[] for _ in range(n)]
    edges = []
    for pos in range(n - 2, -1, -1):
        parent = rng.randint(pos + 1, n - 1)
        clique = [parent] + [x for x in later_cliques[parent] if rng.random() < fill]
        later_cliques[pos] = clique
        edges.extend((pos, x) for x in clique)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return from_edge_list(n, [(relabel[u], relabel[v]) for u, v in edges])


def enumerate_all_graphs(max_n: int) -> Iterator[Graph]:
    """Every graph on 0..max_n vertices, one per edge subset, in fixed order."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield from_edge_list(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def _split_seed(master: int, index: int | str) -> int:
    """The first 8 bytes of SHA-256 of ``"master:index"``, as an integer.

    The built-in SHA-256 gives hashlib's digest without mapping OpenSSL's
    libcrypto into every process that imports perfcode.
    """
    digest = sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- single-trial checks ------------------------------------------------------

def _find_induced_c4s(g: Graph) -> list[tuple[int, int, int, int]]:
    """All induced 4-cycles, as (a, b, c, d) with edges ab, bc, cd, da.

    One orientation per cycle: a is its least vertex and b < d, which is
    the orbit-least embedding :func:`~perfcode.recognition._embeddings`
    yields for each one; cycles are listed in the lexicographic order of
    their sorted vertex sets.
    """
    return sorted(_embeddings(g, "C4"), key=sorted)


def _counterexample(g: Graph, theorem: str, ed, witness: PatternWitness, **extra) -> TrialVerdict:
    """The counterexample verdict for `g`, its record rechecked end to end."""
    record = {
        "theorem": theorem,
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "ed": list(ed),
        "witness": [witness.kind, list(witness.vertices)],
        **extra,
    }
    _recheck_counterexample(record)
    return TrialVerdict(COUNTEREXAMPLE, counterexample=record)


def _recheck_counterexample(record: dict) -> None:
    """Re-verify a counterexample record end to end before it is reported."""
    g = from_edge_list(record["n"], [tuple(e) for e in record["edges"]])
    if not class_membership(g, _THEOREM_CLASS[record["theorem"]]).member:
        raise AssertionError(f"counterexample fails its class hypothesis: {record}")
    if not verify_ed(g, record["ed"]):
        raise AssertionError(f"counterexample carries an invalid e.d.: {record}")
    kind, vertices = record["witness"]
    if not witness_is_valid(square(g), PatternWitness(kind, tuple(vertices))):
        raise AssertionError(f"counterexample witness does not verify: {record}")


def check_theorem(g: Graph, theorem: str, budget: int = DEFAULT_VERIFY_BUDGET) -> TrialVerdict:
    """One trial: vacuous unless the hypothesis holds, else test the square.

    The class hypothesis is a yes/no :func:`is_class_member` test, which
    stops at the first forbidden pattern found and searches the patterns
    with the fewest vertices first (for T1 the polynomial hole test stands
    in for the C5 and C6 searches); only a counterexample's recheck runs
    the full :func:`class_membership`. Budget overruns (hole / antihole
    search on too-large graphs, or all-e.d. enumeration beyond the cap)
    yield an explicit skip verdict. T3 and C4-dom quantify over every e.d.;
    the other theorems get one witness search on the square, where None
    means the theorem held.
    """
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    if not is_class_member(g, _THEOREM_CLASS[theorem]):
        return TrialVerdict(VACUOUS, informative=False, reason="class")
    eds_iter = efficient_dominating_sets(g)
    first = next(eds_iter, None)
    if first is None:
        return TrialVerdict(VACUOUS, informative=False, reason="no efficient dominating set")

    if theorem in _NEEDS_ALL_EDS and g.n > ED_ENUM_CAP:
        return TrialVerdict(SKIPPED, informative=False, reason=f"n > {ED_ENUM_CAP}")
    if theorem != "T1" and g.n > budget:
        return TrialVerdict(SKIPPED, informative=False, reason=f"n > budget {budget}")

    sq = square(g)
    if theorem == "T3":
        antiholes = find_all_odd_antiholes(sq)
        if not antiholes:
            return TrialVerdict(HELD, informative=False)
        for d in [first, *eds_iter]:
            for witness in antiholes:
                overlap = sorted(set(d) & set(witness.vertices))
                if overlap:
                    return _counterexample(g, theorem, d, witness, overlap=overlap)
        return TrialVerdict(HELD)

    if theorem == "C4-dom":
        c4s = _find_induced_c4s(sq)
        informative = False
        for d in [first, *eds_iter]:
            dominator = {u: v for v in d for u in (v, *g.neighbors(v))}
            for cycle in c4s:
                if set(d).isdisjoint(cycle):
                    informative = True
                    dominators = sorted({dominator[u] for u in cycle})
                    if len(dominators) > 2:
                        witness = PatternWitness("C4", cycle)
                        return _counterexample(g, theorem, d, witness, dominators=dominators)
        return TrialVerdict(HELD, informative=informative)

    if theorem == "T1":
        chordal, cert = is_chordal(sq)
        witness = None if chordal else cert
    elif theorem == "T2":
        witness = find_hole(sq)
    else:  # T4, T5, CONJ: the square must be perfect.
        witness = is_perfect_desk(sq)[1]
    if witness is None:
        return TrialVerdict(HELD)
    return _counterexample(g, theorem, first, witness)


# -- campaigns ---------------------------------------------------------------

def _corpus(config: TrialConfig) -> Iterator[tuple[Graph, dict]]:
    """Every trial graph of a campaign with its origin, in trial order.

    The exhaustive corpus (if any) comes first in its fixed order, followed
    by the random trials; trial i's graph depends only on the master seed
    and i.
    """
    if config.exhaustive_n is not None:
        for index, g in enumerate(enumerate_all_graphs(config.exhaustive_n)):
            yield g, {"corpus": "exhaustive", "index": index}
    for i in range(config.trials):
        rng = random.Random(_split_seed(config.seed, i))
        n = rng.randint(config.n_range[0], config.n_range[1])
        p = rng.uniform(config.p_range[0], config.p_range[1])
        yield _random_graph(n, p, rng), {"corpus": "random", "index": i}


def run_campaign(config: TrialConfig) -> VerificationReport:
    """Run every trial of :func:`_corpus` and aggregate the verdicts.

    Identical configs produce identical reports apart from wall-clock time,
    which is excluded from the canonical document.
    """
    start = time.perf_counter()
    tallies: Counter = Counter()
    counterexamples: list[dict] = []
    for g, origin in _corpus(config):
        verdict = check_theorem(g, config.theorem, config.budget)
        tallies["trials"] += 1
        tallies[verdict.status] += 1
        tallies["held_trivially"] += verdict.status == HELD and not verdict.informative
        if verdict.status == COUNTEREXAMPLE:
            counterexamples.append({**verdict.counterexample, **origin})

    corpus = {
        "exhaustive_n": config.exhaustive_n,
        "random_trials": config.trials,
        "n_range": list(config.n_range),
        "p_range": list(config.p_range),
    }
    return VerificationReport(
        theorem=config.theorem,
        seed=config.seed,
        corpus=corpus,
        budget=config.budget,
        trials=tallies["trials"],
        held=tallies[HELD],
        held_trivially=tallies["held_trivially"],
        vacuous=tallies[VACUOUS],
        skipped=tallies[SKIPPED],
        counterexamples=tuple(counterexamples),
        wall_clock_s=time.perf_counter() - start,
    )
