"""DIMACS edge-format files, extended with per-vertex weight lines.

Layout: "c" comment lines, one "p edge <n> <m>" header, "e <u> <v>" edge
lines and optional "n <v> <w>" weight lines. File ids are 1-based and are
translated to the 0-based internal ids at this boundary. Vertices without
a weight line default to weight 1 when any weight line is present;
parsing a file and writing it back is semantically lossless (same edge
set, same weights).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, from_edge_list
from .mwis import _check_weights


class DimacsError(ValueError):
    """Malformed graph file; message carries the offending line number."""


@dataclass(frozen=True)
class GraphFile:
    graph: Graph
    weights: tuple[int, ...] | None


def parse_dimacs(text: str) -> GraphFile:
    n = None
    edges: list[tuple[int, int]] = []
    weight_map: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem header")
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <n> <m>', got {line!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer header fields in {line!r}") from None
            if n < 0 or declared_m < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
        elif tag == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem header")
            u, v = _parse_ids(parts, 2, lineno, n)
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop on vertex {u + 1}")
            edges.append((u, v))
        elif tag == "n":
            if n is None:
                raise DimacsError(f"line {lineno}: weight line before problem header")
            (v,) = _parse_ids(parts[:2], 1, lineno, n)
            try:
                (w,) = map(int, parts[2:])  # exactly one integer weight
            except ValueError:
                raise DimacsError(f"line {lineno}: expected 'n <v> <w>', got {line!r}") from None
            if w < 0:
                raise DimacsError(f"line {lineno}: negative weight {w}")
            if v in weight_map:
                raise DimacsError(f"line {lineno}: duplicate weight for vertex {v + 1}")
            weight_map[v] = w
        else:
            raise DimacsError(f"line {lineno}: unknown line type {tag!r}")
    if n is None:
        raise DimacsError("missing 'p edge <n> <m>' header")
    weights = None
    if weight_map:
        weights = tuple(weight_map.get(v, 1) for v in range(n))
    return GraphFile(from_edge_list(n, edges), weights)


def _parse_ids(parts: list[str], count: int, lineno: int, n: int) -> tuple[int, ...]:
    if len(parts) != count + 1:
        raise DimacsError(f"line {lineno}: expected {count} vertex id(s)")
    out = []
    for token in parts[1:]:
        try:
            vid = int(token)
        except ValueError:
            raise DimacsError(f"line {lineno}: non-integer vertex id {token!r}") from None
        if not 1 <= vid <= n:
            raise DimacsError(f"line {lineno}: vertex id {vid} out of range 1..{n}")
        out.append(vid - 1)
    return tuple(out)


def write_dimacs(
    graph: Graph, weights: tuple[int, ...] | None = None, comments: tuple[str, ...] = ()
) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {graph.n} {graph.edge_count}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges())
    if weights is not None:
        # non-negative ints only, as parse_dimacs reads them back
        lines.extend(f"n {v + 1} {w}" for v, w in enumerate(_check_weights(graph, weights)))
    return "\n".join(lines) + "\n"
