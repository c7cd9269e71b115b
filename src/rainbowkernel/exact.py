"""Exponential-time ground-truth solvers, used at desk scale to certify
kernels and to decide yes/no answers in tests and the CLI.

Packing problems use pivot branching (branch on the obstructions through the
smallest usable vertex, or discard it) with a greedy seed and a |remaining|/3
upper bound.  Hitting problems, and the exact covers of rainbow oracle layer
2, use `hitting_set_within` (a greedy disjoint-set lower bound prunes it),
wrapped in iterative deepening for exact optima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import TooLarge
from .graphs import Tournament, UndirectedGraph, enumerate_induced_p3, enumerate_triangles
from .instances import PACKING_PROBLEMS, InstanceSpec

DEFAULT_TOURNAMENT_LIMIT = 24
DEFAULT_GRAPH_LIMIT = 30


@dataclass(frozen=True)
class ExactAnswer:
    problem: str
    value: int
    witness: tuple


def _triples_by_vertex(n: int, triples: list[tuple[int, int, int]]) -> list[list[int]]:
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for idx, tri in enumerate(triples):
        for v in tri:
            by_vertex[v].append(idx)
    return by_vertex


def _greedy_packing(triples: list[tuple[int, int, int]], avail: set[int]) -> list[int]:
    used: set[int] = set()
    out = []
    for idx, tri in enumerate(triples):
        if all(v in avail and v not in used for v in tri):
            out.append(idx)
            used.update(tri)
    return out


def _max_packing(n: int, triples: list[tuple[int, int, int]],
                 target: int | None = None) -> list[tuple[int, int, int]]:
    """Maximum disjoint sub-collection of `triples`.  With `target`, stops as
    soon as a packing of that size is found (the result may be sub-optimal but
    its size is >= target iff a packing of size target exists)."""
    by_vertex = _triples_by_vertex(n, triples)
    best: list[int] = _greedy_packing(triples, set(range(n)))
    if target is not None and len(best) >= target:
        return [triples[i] for i in best]
    hit = [False] * n
    for tri in triples:
        for v in tri:
            hit[v] = True

    def dfs(avail: set[int], acc: list[int]) -> None:
        nonlocal best
        if target is not None and len(best) >= target:
            return
        usable = sum(1 for v in avail if hit[v])
        if len(acc) + usable // 3 <= len(best):
            return
        pivot = None
        for v in sorted(avail):
            if not hit[v]:
                continue
            if any(all(u in avail for u in triples[i]) for i in by_vertex[v]):
                pivot = v
                break
        if pivot is None:
            if len(acc) > len(best):
                best = list(acc)
            return
        for i in by_vertex[pivot]:
            tri = triples[i]
            if all(u in avail for u in tri):
                acc.append(i)
                dfs(avail - set(tri), acc)
                acc.pop()
                if target is not None and len(best) >= target:
                    return
        dfs(avail - {pivot}, acc)

    dfs(set(range(n)), [])
    return [triples[i] for i in best]


def hitting_set_within(sets: Sequence[tuple[int, ...]], budget: int,
                       nodes: float = math.inf) -> set[int] | None:
    """A set of at most `budget` elements meeting every member of `sets`, or
    None.  A 1-tuple forces its element; then the search branches on the
    members of the first unmet set, in order.  A branch is pruned once a
    greedy packing of disjoint unmet sets outgrows its remaining budget, so
    the prune cuts no solution.  None also once the search has visited more
    than `nodes` nodes."""
    forced = {s[0] for s in sets if len(s) == 1}
    left = nodes

    def rec(chosen: set[int], live: Sequence, slack: int) -> set[int] | None:
        nonlocal left
        left -= 1
        live = [s for s in live if chosen.isdisjoint(s)]
        if not live:
            return set(chosen)
        used: set[int] = set()
        packed = 0
        for s in live:
            if used.isdisjoint(s):
                packed += 1
                used.update(s)
        if packed > slack or left < 0:
            return None
        for v in live[0]:
            found = rec(chosen | {v}, live, slack - 1)
            if found is not None:
                return found
        return None

    return rec(forced, sets, budget - len(forced)) if len(forced) <= budget else None


def _min_hitting(triples: list[tuple[int, int, int]]) -> set[int]:
    budget = 0  # one vertex per triple always hits them all
    while (hitting := hitting_set_within(triples, budget)) is None:
        budget += 1
    return hitting


def _obstructions(payload: Tournament | UndirectedGraph, limit: int | None) -> list[tuple[int, int, int]]:
    """The payload's triangles or induced 2-paths as sorted triples, after
    checking its size against the exact solvers' vertex limit."""
    tournament = isinstance(payload, Tournament)
    if limit is None:
        limit = DEFAULT_TOURNAMENT_LIMIT if tournament else DEFAULT_GRAPH_LIMIT
    if payload.n > limit:
        raise TooLarge(f"n={payload.n} exceeds limit {limit}")
    if tournament:
        return enumerate_triangles(payload)
    return [tuple(sorted(tri)) for tri in enumerate_induced_p3(payload)]


def optimum(problem: str, payload: Tournament | UndirectedGraph,
            limit: int | None = None) -> ExactAnswer:
    """A maximum packing (TPT, I2PP) or a minimum hitting set (FVST, I2PHS)
    of the payload's obstructions."""
    triples = _obstructions(payload, limit)
    if problem in PACKING_PROBLEMS:
        packing = _max_packing(payload.n, triples)
        return ExactAnswer(problem, len(packing), tuple(packing))
    hitting = _min_hitting(triples)
    return ExactAnswer(problem, len(hitting), tuple(sorted(hitting)))


def exact_answer(spec: InstanceSpec, limit: int | None = None) -> bool:
    """Decision answer for (payload, k): packing problems ask for a packing of
    size >= k, hitting problems for a hitting set of size <= k.  Uses early
    cutoffs instead of the full optimum, so it stays fast for small k."""
    triples = _obstructions(spec.payload, limit)
    k = spec.k
    if spec.problem in PACKING_PROBLEMS:
        if k == 0:
            return True
        packing = _max_packing(spec.payload.n, triples, target=k)
        return len(packing) >= k
    return hitting_set_within(triples, k) is not None
