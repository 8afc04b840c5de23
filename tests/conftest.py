from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from perfcode import from_edge_list

ROOT = Path(__file__).resolve().parent.parent


def run_from_checkout(args: list[str]) -> subprocess.CompletedProcess:
    """Run `python args...` from the repo root with src/ on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=ROOT, env=env, check=False
    )


@pytest.fixture
def time_limit():
    """Fail the test, rather than hang the suite, past 60 s of wall clock."""

    def expired(signum, frame):
        pytest.fail("test ran past its 60 s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 60)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@st.composite
def edge_sets(draw, max_n: int = 8, min_n: int = 0):
    """A random (n, edge list) pair; edges chosen by a subset bitmask."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]


@st.composite
def dense_graphs(draw, max_n: int = 12, min_n: int = 0):
    """A G(n, p) graph with p >= 0.5: its square is often complete."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.floats(0.5, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def complete_graph(n: int):
    """K_n on 0..n-1."""
    return from_edge_list(n, list(combinations(range(n), 2)))


def disjoint_union(*graphs):
    """Disjoint union of graphs, ids shifted in the given order."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return from_edge_list(offset, edges)


def g_k(k: int):
    """A hub 0 with a pendant leaf 1, and k copies of C6 each joined to the hub.

    Every e.d. holds the leaf and, in each C6, one of the two antipodal
    pairs that avoid the vertex joined to the hub. So the 6k + 2 vertices
    have 2^k e.d.s, all of 2k + 1 vertices, and the square is not chordal.
    """
    edges = [(0, 1)]
    for i in range(k):
        base = 2 + 6 * i
        edges.append((0, base))
        edges += [(base + j, base + (j + 1) % 6) for j in range(6)]
    return from_edge_list(6 * k + 2, edges)


def h_k(k: int):
    """g_k(k) with weights that leave it one lightest e.d., and those weights.

    The C6 joined to the hub at b gives weight a to b + 1 and b + 4 and
    21 - a to b + 2 and b + 5, where a is 10 or 11 by one draw of
    ``random.Random(k)`` per C6 in order; every other vertex weighs 1.
    """
    rng = random.Random(k)
    weights = [1] * (6 * k + 2)
    for i in range(k):
        base = 2 + 6 * i
        a = 10 if rng.random() < 0.5 else 11
        weights[base + 1] = weights[base + 4] = a
        weights[base + 2] = weights[base + 5] = 21 - a
    return g_k(k), weights


def planted_ed_graph(n: int, rng: random.Random):
    """A graph with a planted efficient dominating set, and that set.

    n // 5 stars cover all n vertices (every star has a leaf); then about
    n random edges join leaves only, so the centres stay an e.d.
    """
    k = max(1, n // 5)
    order = list(range(n))
    rng.shuffle(order)
    centres, leaves = order[:k], order[k:]
    edges = set()
    for j, v in enumerate(leaves):
        c = centres[j] if j < k else rng.choice(centres)
        edges.add((min(c, v), max(c, v)))
    for _ in range(n):
        a, b = rng.sample(leaves, 2)
        edges.add((min(a, b), max(a, b)))
    return from_edge_list(n, sorted(edges)), tuple(sorted(centres))
