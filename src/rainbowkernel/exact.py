"""Exponential-time ground-truth solvers, used at desk scale to certify
kernels and to decide yes/no answers in tests and the CLI.

Packing problems use pivot branching (branch on the obstructions through the
smallest usable vertex, or discard it) with a greedy seed and a |remaining|/3
upper bound.  Hitting problems use 3-way branching on the first surviving
obstruction with a greedy disjoint-obstruction lower bound, wrapped in
iterative deepening for exact optima.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _greedy_disjoint_count(triples: list[tuple[int, int, int]], removed: set[int]) -> int:
    used: set[int] = set()
    count = 0
    for tri in triples:
        if all(v not in removed and v not in used for v in tri):
            count += 1
            used.update(tri)
    return count


def _hitting_within(triples: list[tuple[int, int, int]], budget: int) -> set[int] | None:
    """A set of <= budget vertices meeting every triple, or None."""

    def rec(removed: set[int], depth: int) -> set[int] | None:
        first = None
        for tri in triples:
            if not (removed & set(tri)):
                first = tri
                break
        if first is None:
            return set(removed)
        if depth == 0 or _greedy_disjoint_count(triples, removed) > depth:
            return None
        for v in first:
            result = rec(removed | {v}, depth - 1)
            if result is not None:
                return result
        return None

    return rec(set(), budget)


def _min_hitting(triples: list[tuple[int, int, int]]) -> set[int]:
    for budget in range(0, 3 * len(triples) + 1):
        result = _hitting_within(triples, budget)
        if result is not None:
            return result
    return set()


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
    return _hitting_within(triples, k) is not None
