"""Independent brute-force oracles for the test suite.

Everything here works on plain (n, edge list) data with its own adjacency
handling, so it shares no code with the library under test. Exponential
blowup is the point: these are ground truth for small instances only.
"""

from __future__ import annotations

from itertools import combinations, permutations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def lexbfs_labels(n: int, edges) -> tuple[int, ...]:
    """Textbook LexBFS: the i-th visit appends n - i to each unvisited neighbor's label.

    Each step visits the unvisited vertex with the lexicographically largest
    label, least id on ties.
    """
    adj = adjacency(n, edges)
    labels = [[] for _ in range(n)]
    unvisited = set(range(n))
    order = []
    for i in range(n):
        v = max(sorted(unvisited), key=lambda u: labels[u])  # first maximum: least id
        order.append(v)
        unvisited.remove(v)
        for u in adj[v] & unvisited:
            labels[u].append(n - i)
    return tuple(order)


def distance_matrix(n: int, edges) -> list[list[float]]:
    """All-pairs shortest paths by Floyd-Warshall."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def square_edges(n: int, edges) -> set[frozenset[int]]:
    dist = distance_matrix(n, edges)
    return {
        frozenset((u, v))
        for u, v in combinations(range(n), 2)
        if dist[u][v] in (1, 2)
    }


def is_independent(adj: list[set[int]], subset) -> bool:
    subset = list(subset)
    return all(v not in adj[u] for u, v in combinations(subset, 2))


def is_ed(n: int, adj: list[set[int]], subset) -> bool:
    counts = [0] * n
    for v in subset:
        for u in {v} | adj[v]:
            counts[u] += 1
    return all(c == 1 for c in counts)


def all_eds(n: int, edges) -> list[tuple[int, ...]]:
    adj = adjacency(n, edges)
    out = []
    for mask in range(1 << n):
        subset = [v for v in range(n) if (mask >> v) & 1]
        if is_ed(n, adj, subset):
            out.append(tuple(subset))
    return out


def mwis_value(n: int, edges, weights) -> int:
    adj = adjacency(n, edges)
    best = 0
    for mask in range(1 << n):
        subset = [v for v in range(n) if (mask >> v) & 1]
        if is_independent(adj, subset):
            best = max(best, sum(weights[v] for v in subset))
    return best


def independent_sets(n: int, edges):
    adj = adjacency(n, edges)
    for mask in range(1 << n):
        subset = tuple(v for v in range(n) if (mask >> v) & 1)
        if is_independent(adj, subset):
            yield subset


def induced_embeddings(n: int, edges, k: int, pattern: set[frozenset[int]]):
    """Every ordered induced copy of the pattern, in lexicographic order."""
    adj = adjacency(n, edges)
    for perm in permutations(range(n), k):
        if all(
            (perm[j] in adj[perm[i]]) == (frozenset((i, j)) in pattern)
            for i, j in combinations(range(k), 2)
        ):
            yield perm


def least_induced(n: int, edges, k: int, pattern: set[frozenset[int]]):
    """Lexicographically least ordered induced copy of the pattern, or None."""
    return next(induced_embeddings(n, edges, k, pattern), None)


def has_induced(n: int, edges, k: int, pattern: set[frozenset[int]]) -> bool:
    """Any induced copy of the pattern (given as edges on 0..k-1)?"""
    return least_induced(n, edges, k, pattern) is not None


def path_pattern(k: int) -> set[frozenset[int]]:
    return {frozenset((i, i + 1)) for i in range(k - 1)}


def cycle_pattern(k: int) -> set[frozenset[int]]:
    return {frozenset((i, (i + 1) % k)) for i in range(k)}


def induced_cycle_lengths(n: int, edges) -> set[int]:
    """Lengths of all induced cycles, by subset enumeration."""
    adj = adjacency(n, edges)
    lengths = set()
    for size in range(3, n + 1):
        for combo in combinations(range(n), size):
            inside = set(combo)
            degs = [len(adj[v] & inside) for v in combo]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular graph on `size` vertices = one cycle
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                x = stack.pop()
                for y in adj[x] & inside:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == size:
                lengths.add(size)
    return lengths


def is_chordal(n: int, edges) -> bool:
    return all(k < 4 for k in induced_cycle_lengths(n, edges))


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = {frozenset(e) for e in edges}
    return [(u, v) for u, v in combinations(range(n), 2) if frozenset((u, v)) not in present]


def is_perfect(n: int, edges) -> bool:
    """No odd hole (>= 5) and no odd antihole (>= 7)."""
    if any(k >= 5 and k % 2 == 1 for k in induced_cycle_lengths(n, edges)):
        return False
    co = complement_edges(n, edges)
    return not any(k >= 7 and k % 2 == 1 for k in induced_cycle_lengths(n, co))
