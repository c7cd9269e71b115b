"""The extended line graph and the independent-transversal dichotomy behind
the rainbow-matching-or-cover result, a proof route the kernels never run.

The extended line graph of a colored multigraph has one vertex per colored
edge, classes by color, and is 3-claw-free for that partition; on such
graphs either an independent transversal or a small dominating set exists.
Translated back, the two outcomes are a rainbow matching and a color cover,
so this route cross-checks the package's direct layered oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from rainbowkernel.graphs import ColoredMultigraph
from rainbowkernel.rainbow import ColorCover, RainbowMatching


class NotClawFree(ValueError):
    def __init__(self, witness):
        super().__init__(f"claw witness {witness}")
        self.witness = witness


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph plus a vertex partition (empty classes allowed)."""

    n: int
    adj: tuple[frozenset[int], ...]
    parts: tuple[tuple[int, ...], ...]
    r: int = 3

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
        if seen != set(range(self.n)):
            raise ValueError("classes must cover all vertices")


def build_extended_line_graph(cm: ColoredMultigraph) -> PartitionedGraph:
    """One vertex per colored edge; adjacency iff the underlying edges share a
    vertex; classes collect the edges of one color.  The result is 3-claw-free
    for that partition: the neighborhood of an edge-vertex is the union of at
    most two cliques (one per endpoint)."""
    edges = sorted(cm.edges)
    n = len(edges)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if edges[i].endpoints() & edges[j].endpoints():
                adj[i].add(j)
                adj[j].add(i)
    parts: list[list[int]] = [[] for _ in range(cm.p)]
    for i, e in enumerate(edges):
        parts[e.color].append(i)
    return PartitionedGraph(n, tuple(frozenset(s) for s in adj),
                            tuple(tuple(part) for part in parts))


def claw_free_violation(pg: PartitionedGraph) -> tuple | None:
    """A vertex with r pairwise non-adjacent neighbors in r distinct classes,
    or None when the graph is r-claw-free for its partition."""
    part_of = {}
    for i, part in enumerate(pg.parts):
        for v in part:
            part_of[v] = i

    def extend(v: int, chosen: list[int], cands: list[int]) -> tuple | None:
        if len(chosen) == pg.r:
            return (v, tuple(chosen))
        for i, u in enumerate(cands):
            if any(part_of[u] == part_of[w] or u in pg.adj[w] for w in chosen):
                continue
            hit = extend(v, chosen + [u], cands[i + 1:])
            if hit is not None:
                return hit
        return None

    for v in range(pg.n):
        hit = extend(v, [], sorted(pg.adj[v]))
        if hit is not None:
            return hit
    return None


def independent_transversal_or_dominating(
    pg: PartitionedGraph, epsilon: float
) -> tuple[str, tuple]:
    """Either ("transversal", S) with one vertex per non-empty class, or
    ("dominating", (I, X)) where X dominates the union of the classes indexed
    by I and |X| <= (2+eps)(|I|-1).

    Exhaustive search on both sides; intended for desk scale.  Existence of
    the second outcome when no transversal exists is a property of 3-claw-free
    partitioned graphs, which is verified up front.
    """
    witness = claw_free_violation(pg)
    if witness is not None:
        raise NotClawFree(witness)
    live = [i for i, part in enumerate(pg.parts) if part]
    order = sorted(live, key=lambda i: (len(pg.parts[i]), i))

    chosen: list[int] = []

    def dfs(idx: int) -> bool:
        if idx == len(order):
            return True
        for v in pg.parts[order[idx]]:
            if any(v in pg.adj[u] for u in chosen):
                continue
            chosen.append(v)
            if dfs(idx + 1):
                return True
            chosen.pop()
        return False

    if dfs(0):
        by_part = {order[i]: chosen[i] for i in range(len(order))}
        return ("transversal", tuple(by_part[i] for i in sorted(by_part)))

    for size in range(1, len(live) + 1):
        budget = math.floor((2.0 + epsilon) * (size - 1) + 1e-9)
        for subset in combinations(live, size):
            targets = [v for i in subset for v in pg.parts[i]]
            pool = sorted({u for v in targets for u in pg.adj[v]})
            dom = _dominating_within(pg, targets, pool, budget)
            if dom is not None:
                return ("dominating", (tuple(subset), tuple(sorted(dom))))
    raise RuntimeError("no transversal and no small dominating set; "
                       "claw-free dichotomy violated")


def _dominating_within(pg: PartitionedGraph, targets: list[int], pool: list[int],
                       budget: int) -> set[int] | None:
    if not targets:
        return set()
    for size in range(0, min(budget, len(pool)) + 1):
        for subset in combinations(pool, size):
            xs = set(subset)
            if all(pg.adj[v] & xs for v in targets):
                return xs
    return None


def rainbow_from_transversal(cm: ColoredMultigraph, transversal: Iterable[int]) -> RainbowMatching:
    """Translate an independent transversal of the extended line graph back to
    a rainbow matching of the multigraph."""
    edges = sorted(cm.edges)
    picked = sorted((edges[i] for i in transversal), key=lambda e: e.color)
    return RainbowMatching(tuple(picked))


def cover_from_dominating(cm: ColoredMultigraph, part_indices: Iterable[int],
                          dominating: Iterable[int], epsilon: float) -> ColorCover:
    """Translate a dominating pair of the extended line graph to a color cover:
    take every endpoint of a dominating edge-vertex, restricted to vertices
    touched by edges of the dominated colors."""
    edges = sorted(cm.edges)
    colors = frozenset(part_indices)
    spread: set[int] = set()
    for i in dominating:
        spread |= edges[i].endpoints()
    touched: set[int] = set()
    for e in edges:
        if e.color in colors:
            touched |= e.endpoints()
    return ColorCover(colors, frozenset(spread & touched), epsilon)
