"""Per-character tournament text format (an arc list while parsing, one
numpy scalar lookup per character while serializing), the per-edge graph
writer, the per-line graph parser with the graph it built: one frozenset of
neighbours per vertex, and the induced sub-instance built from its edge list."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from rainbowkernel import graphs
from rainbowkernel.errors import ParseError
from rainbowkernel.graphs import Tournament, take_block
from rainbowkernel.instances import MAX_GRAPH_VERTICES, _reject_trailing


def serialize_tournament(t: Tournament) -> str:
    rows = []
    m = t.matrix
    for u in range(t.n):
        rows.append("".join("-" if u == v else ("1" if m[u, v] else "0") for v in range(t.n)))
    return f"tournament {t.n}\n" + "".join(r + "\n" for r in rows)


def serialize_graph(g) -> str:
    edges = g.edges()
    return f"graph {g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _parse_tournament_lines(lines: list[str], start: int) -> tuple[Tournament, int]:
    """Parse a tournament payload beginning at `lines[start]`; returns the
    parsed object and the index one past the payload."""
    if start >= len(lines):
        raise ParseError(start + 1, "missing tournament header")
    parts = lines[start].split()
    if len(parts) != 2 or parts[0] != "tournament":
        raise ParseError(start + 1, f"expected 'tournament <n>', got {lines[start]!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(start + 1, f"bad vertex count {parts[1]!r}") from None
    if n < 0:
        raise ParseError(start + 1, "vertex count must be non-negative")
    if start + 1 + n > len(lines):
        raise ParseError(len(lines) + 1, f"expected {n} orientation rows")
    arcs = []
    for u in range(n):
        lineno = start + 2 + u
        row = lines[start + 1 + u]
        if len(row) != n:
            raise ParseError(lineno, f"row has {len(row)} characters, expected {n}")
        for v, ch in enumerate(row):
            if u == v:
                if ch != "-":
                    raise ParseError(lineno, "diagonal entry must be '-'")
            elif ch == "1":
                arcs.append((u, v))
            elif ch != "0":
                raise ParseError(lineno, f"unexpected character {ch!r}")
    try:
        t = Tournament.from_arcs(n, arcs)
    except ValueError as exc:
        raise ParseError(start + 1, str(exc)) from exc
    return t, start + 1 + n


def parse_tournament(text: str) -> Tournament:
    lines = text.splitlines()
    t, pos = _parse_tournament_lines(lines, 0)
    _reject_trailing(lines, pos)
    return t


class UndirectedGraph:
    """Finite simple graph: symmetric, irreflexive adjacency."""

    __slots__ = ("n", "m", "_adj", "_matrix")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-adjacency at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self.m = sum(len(s) for s in self._adj) // 2
        self._matrix = None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def neighbors(self, u: int) -> frozenset[int]:
        return self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def matrix(self) -> np.ndarray:
        """Boolean adjacency matrix, built lazily and cached."""
        if self._matrix is None:
            m = np.zeros((self.n, self.n), dtype=bool)
            for u, v in self.edges():
                m[u, v] = m[v, u] = True
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    def induced(self, keep: Iterable[int]) -> "UndirectedGraph":
        """Induced subgraph on `keep`, relabeled to 0..|keep|-1 in sorted id order."""
        ids = sorted(set(keep))
        pos = {v: i for i, v in enumerate(ids)}
        edges = [(pos[u], pos[v]) for u, v in self.edges() if u in pos and v in pos]
        return UndirectedGraph(len(ids), edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


def _parse_graph_lines(lines: list[str], start: int) -> tuple[UndirectedGraph, int]:
    if start >= len(lines):
        raise ParseError(start + 1, "missing graph header")
    parts = lines[start].split()
    if len(parts) != 3 or parts[0] != "graph":
        raise ParseError(start + 1, f"expected 'graph <n> <m>', got {lines[start]!r}")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(start + 1, "bad graph header counts") from None
    if n < 0 or m < 0:
        raise ParseError(start + 1, "counts must be non-negative")
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(start + 1, f"vertex count {n} exceeds the limit {MAX_GRAPH_VERTICES}")
    if start + 1 + m > len(lines):
        raise ParseError(len(lines) + 1, f"expected {m} edge lines")
    edges = []
    for i in range(m):
        lineno = start + 2 + i
        toks = lines[start + 1 + i].split()
        if len(toks) != 2:
            raise ParseError(lineno, f"expected 'u v', got {lines[start + 1 + i]!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(lineno, "bad edge endpoints") from None
        edges.append((u, v))
    try:
        g = UndirectedGraph(n, edges)
    except ValueError as exc:
        raise ParseError(start + 1, str(exc)) from exc
    return g, start + 1 + m


def induced_by_edge_list(payload, keep):
    """`payload.induced(keep)` by way of an edge list, as graphs were built
    before `UndirectedGraph.from_matrix`: the kept block's True cells as
    pairs, then a new object from the pairs."""
    ids = sorted(set(keep))
    if isinstance(payload, Tournament):
        return Tournament.from_arcs(len(ids), np.argwhere(take_block(payload.matrix, ids, ids)))
    return graphs.UndirectedGraph(len(ids), np.argwhere(take_block(payload.matrix(), ids, ids)))
