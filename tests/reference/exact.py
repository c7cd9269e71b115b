"""The exact hitting-set search before it became `exact.hitting_set_within`:
branching on the first unhit triple with a greedy disjoint-triple count,
re-scanning every triple at each node."""
from __future__ import annotations


def greedy_disjoint_count(triples: list[tuple[int, int, int]], removed: set[int]) -> int:
    used: set[int] = set()
    count = 0
    for tri in triples:
        if all(v not in removed and v not in used for v in tri):
            count += 1
            used.update(tri)
    return count


def hitting_within(triples: list[tuple[int, int, int]], budget: int) -> set[int] | None:
    """A set of <= budget vertices meeting every triple, or None."""

    def rec(removed: set[int], depth: int) -> set[int] | None:
        first = None
        for tri in triples:
            if not (removed & set(tri)):
                first = tri
                break
        if first is None:
            return set(removed)
        if depth == 0 or greedy_disjoint_count(triples, removed) > depth:
            return None
        for v in first:
            result = rec(removed | {v}, depth - 1)
            if result is not None:
                return result
        return None

    return rec(set(), budget)
