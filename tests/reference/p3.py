"""The per-vertex bucket decomposition, the component search that split the
2-path-free remainder into cliques, and the scanning `P3Decomp.bucket_of`."""
from __future__ import annotations

from rainbowkernel.errors import NotNicePair
from rainbowkernel.graphs import UndirectedGraph
from rainbowkernel.p3 import P3Decomp, P3Localization


def clique_components(g: UndirectedGraph, rest: list[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the remainder; each must induce a clique since
    the remainder has no induced 2-path."""
    restset = set(rest)
    seen: set[int] = set()
    comps = []
    for v in rest:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in restset and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        members = tuple(sorted(comp))
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                if not g.has_edge(x, y):
                    raise AssertionError("remainder component is not a clique; "
                                         "the packing was not maximal")
        comps.append(members)
    return tuple(sorted(comps))


def bucket_decompose_p3(pool: frozenset[int], bucketed: frozenset[int],
                        g: UndirectedGraph, loc: P3Localization):
    """Group `bucketed` by pool neighborhood.  Each vertex must see either
    nothing or exactly one full clique slice; otherwise the pair is not nice
    and a witnessing induced 2-path with two pool vertices is raised."""
    rest = {v for cl in loc.cliques for v in cl}
    if not pool <= rest:
        raise ValueError("pool must lie inside the localization remainder")
    clique_of = {v: i for i, cl in enumerate(loc.cliques) for v in cl}
    parts = tuple(frozenset(v for v in cl if v in pool) for cl in loc.cliques)
    buckets: list[set[int]] = [set() for _ in loc.cliques]
    detached: set[int] = set()
    for v in sorted(bucketed):
        nb = g.neighbors(v) & pool
        if not nb:
            detached.add(v)
            continue
        witness_u = min(nb)
        i = clique_of[witness_u]
        part = parts[i]
        extra = nb - part
        if extra:
            other = min(extra)
            # v adjacent to two different cliques: u - v - other is induced
            raise NotNicePair((witness_u, v, other))
        lacking = part - nb
        if lacking:
            w = min(lacking)
            # v misses w inside the clique: v - u - w is induced
            raise NotNicePair((v, witness_u, w))
        buckets[i].add(v)
    return parts, tuple(frozenset(b) for b in buckets), frozenset(detached)


def bucket_of_scan(d: P3Decomp, v: int) -> int:
    """`P3Decomp.bucket_of` as a scan over every bucket."""
    for i, b in enumerate(d.buckets):
        if v in b:
            return i
    raise KeyError(v)
