"""The per-triple greedy localization, the component search that split the
2-path-free remainder into cliques, the row test before `rounds.row_test`
served both families, a decomposition's pool parts, buckets
and detached vertices read off its arrays, the from-scratch bucket decomposition
(by the row test, and the per-vertex loop before it) and the decomposition
built on it, where the kernelizer carries the labels from round to round
(`rounds.Decomp.advance`), a scan for a vertex's bucket, the dense marks
of the color edges (`reference.rounds.color_edges`), the validator that
ran the row test on every bucketed row before `p3.check_p3_decomp` compared
the blocks with their expected pattern, and the hitting-set lift that listed
every induced 2-path of the kernel before `p3.lift_hitting_set_p3` asked
`clique_partition` whether the rest of the kernel has one."""
from __future__ import annotations

import numpy as np

from rainbowkernel.errors import BrokenInvariant, InvalidSolution, NotNicePair
from rainbowkernel.graphs import (UndirectedGraph, clique_partition, enumerate_induced_p3,
                                  group_by, is_induced_p3, take_block)
from rainbowkernel.p3 import P3Decomp, P3Localization, p3_pairs
from rainbowkernel.rounds import (BLOCK_PAIRS, COLOR, POOL, KernelState, PackingFound, PoolRows,
                                  first_true, read_block)


def greedy_localize_p3(g: UndirectedGraph, threshold: int) -> PackingFound | P3Localization:
    """Scan vertex triples in lexicographic order, claiming disjoint induced
    2-paths; a single pass yields a maximal packing.  Stops early once
    `threshold` paths are claimed."""
    used = [False] * g.n
    packing: list[tuple[int, int, int]] = []
    if len(packing) >= threshold:
        return PackingFound(())
    for a in range(g.n):
        if used[a]:
            continue
        for b in range(a + 1, g.n):
            if used[a] or used[b]:
                continue
            for c in range(b + 1, g.n):
                if used[a] or used[b] or used[c]:
                    continue
                if is_induced_p3(g, (a, b, c)):
                    packing.append((a, b, c))
                    used[a] = used[b] = used[c] = True
                    if len(packing) >= threshold:
                        return PackingFound(tuple(packing))
                    break
    core = frozenset(v for tri in packing for v in tri)
    cliques = clique_partition(g, [v for v in range(g.n) if v not in core])
    if cliques is None:
        raise AssertionError("the remainder has an induced 2-path; the packing was not maximal")
    return P3Localization(tuple(packing), core, cliques)


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


def p3_rows(g: UndirectedGraph, loc: P3Localization, ids: np.ndarray, xs) -> PoolRows:
    """The nice-pair row test against the pool `ids`, sorted, keyed by clique.
    The pool is a union of clique slices with no edge between them, so x
    forms an induced 2-path with two pool vertices exactly when its pool
    neighbourhood is neither empty nor one whole slice.  Row x is labelled
    with the clique of its least pool neighbour u (-1 when it has none); its
    witness is u - x - w for the least neighbour w outside that clique, else
    x - u - w for the least w of the slice that x misses."""
    xs, ids, keys, rows, *_ = block = read_block(g.matrix(), ids, loc.clique_of[ids], xs)
    first = first_true(rows)
    label = np.append(keys, -1)[first]
    same = keys == label[:, None]
    extra, lack = first_true(rows & ~same), first_true(~rows & same)
    crosses, misses = extra < ids.size, lack < ids.size
    ext = np.append(ids, -1)
    witnesses = np.where(crosses[:, None], np.column_stack((ext[first], xs, ext[extra])),
                         np.column_stack((xs, ext[first], ext[lack])))[crosses | misses].tolist()
    return block._replace(label=label, bad=crosses | misses, witnesses=list(map(tuple, witnesses)))


def pool_ids(pool) -> np.ndarray:
    """The pool as sorted ids, as `P3Decomp.ids` holds it."""
    return np.array(sorted(pool), dtype=np.intp)


def bucket_decompose_p3(pool: frozenset[int], bucketed: frozenset[int],
                        g: UndirectedGraph, loc: P3Localization):
    """Group `bucketed` by pool neighborhood.  Each vertex must see either
    nothing or exactly one full clique slice; otherwise the pair is not nice
    and a witnessing induced 2-path with two pool vertices is raised."""
    if (loc.clique_of[list(pool)] < 0).any():
        raise BrokenInvariant("pool must lie inside the localization remainder")
    rows = p3_rows(g, loc, pool_ids(pool), sorted(bucketed))
    if rows.witnesses:
        raise NotNicePair(rows.witnesses[0])
    parts, buckets = group_by(rows.keys, rows.ids), group_by(rows.label, rows.xs)
    slices = range(len(loc.cliques))
    return (tuple(parts.get(i, frozenset()) for i in slices),
            tuple(buckets.get(i, frozenset()) for i in slices), buckets.get(-1, frozenset()))


def pool_parts_of(d: P3Decomp) -> tuple[frozenset[int], ...]:
    """The pool vertices of each clique slice of d, by clique."""
    parts = group_by(d.keys, d.ids)
    return tuple(parts.get(i, frozenset()) for i in range(len(d.loc.cliques)))


def buckets_of(d: P3Decomp) -> tuple[frozenset[int], ...]:
    """The members of each bucket of d, by clique."""
    parts = group_by(d.label[d.members], d.members)
    return tuple(parts.get(i, frozenset()) for i in range(len(d.loc.cliques)))


def detached_of(d: P3Decomp) -> frozenset[int]:
    """The bucketed vertices of d with no pool neighbor, labelled -1."""
    return frozenset(np.flatnonzero(d.label == -1).tolist())


def make_p3_decomp(loc: P3Localization, pool, bucketed, colors,
                   g: UndirectedGraph, epsilon: float) -> P3Decomp:
    """A decomposition of the partition (pool, bucketed, colors) with its
    buckets read from scratch."""
    pool, bucketed, colors = map(frozenset, (pool, bucketed, colors))
    if len(pool) + len(bucketed) + len(colors) != g.n or \
            pool | bucketed | colors != set(range(g.n)):
        raise ValueError("pool, bucketed and colors must partition the vertex set")
    _, buckets, detached = bucket_decompose_p3(pool, bucketed, g, loc)
    label = np.full(g.n, POOL, dtype=np.intp)
    label[list(colors)] = COLOR
    label[list(detached)] = -1
    for i, members in enumerate(buckets):
        label[list(members)] = i
    ids = pool_ids(pool)
    return P3Decomp.start(g.matrix(), p3_pairs, label, ids, loc.clique_of[ids], loc, epsilon)


def bucket_decompose_p3_loop(pool: frozenset[int], bucketed: frozenset[int],
                             g: UndirectedGraph, loc: P3Localization):
    """`bucket_decompose_p3` as one neighborhood read per bucketed vertex."""
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
    """The bucket label of an attached v as a scan over every bucket."""
    for i, b in enumerate(buckets_of(d)):
        if v in b:
            return i
    raise KeyError(v)


def p3_marks(block: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per `p3_rows` row r of a color c, the pool pairs (i, j) forming an
    induced 2-path with c: two of r[i], r[j] and the pool edge ij, which is
    there exactly when keys[i] == keys[j]."""
    r = block.view(np.int8)
    return r[:, :, None] + r[:, None, :] + (keys[:, None] == keys) == 2


def check_p3_decomp(d: P3Decomp, g: UndirectedGraph) -> list[str]:
    """Full validator, and the one fresh read of the graph in a round:
    colors, pool shape, nice pair, bucket membership and the size budget
    (empty list = all hold).  The labels partition the vertices; the
    constructors hold the pool ids to the POOL labels and in the remainder."""
    out: list[str] = []
    if (d.loc.clique_of[d.color_ids] >= 0).any():
        out.append("colors must come from the localization core")
    xs, cuts = d.members, d.label[d.members]
    rows = p3_rows(g, d.loc, d.ids, xs)
    # in row blocks: the row of a pool vertex differs from its clique slice only at itself
    step = max(1, BLOCK_PAIRS // max(1, rows.ids.size))
    for lo in range(0, rows.ids.size, step):
        same = rows.keys[lo:lo + step, None] == rows.keys
        if np.count_nonzero(take_block(g.matrix(), rows.ids[lo:lo + step], rows.ids) != same) != len(same):
            out.append("pool rows disagree with their keys")
            break
    if rows.witnesses:
        out.append(f"obstruction {rows.witnesses[0]} has two pool vertices")
    out += [f"bucket {i} is not a pool key"
            for i in sorted(set(cuts.tolist()) - set(d.live) - {-1})]
    # a member of bucket i sees exactly slice i; a detached vertex sees nothing
    wrong = rows.rows != (rows.keys == cuts[:, None])
    for r in np.flatnonzero(wrong.any(axis=1)):
        out.append(f"bucket {cuts[r]} vertex {xs[r]} sees the wrong pool vertices "
                   f"{rows.ids[wrong[r]].tolist()}")
    per_treated = 1.0 + 2.0 * (4.0 + d.epsilon)  # 1 + 2 c1
    budget = per_treated * len(d.loc.core - d.colors)
    size = len(detached_of(d)) / per_treated + np.count_nonzero(d.label >= 0)  # + |attached|
    if size > budget + 1e-9:
        out.append(f"size {size:.3f} exceeds budget {budget:.3f}")
    return out


def lift_hitting_set_p3(state: KernelState, g: UndirectedGraph,
                        hitting: set[int]) -> frozenset[int]:
    """Turn a hitting set of the kernel into one of g, no larger, testing the
    input and each minimizing step against the list of the kernel's induced
    2-paths."""
    d = state.final
    kernel_paths = enumerate_induced_p3(g, state.kept)
    x = set(hitting)
    if any(not set(tri) & x for tri in kernel_paths):
        raise InvalidSolution("input does not hit every induced 2-path of the kernel")
    for v in sorted(x):
        trial = x - {v}
        if all(set(tri) & trial for tri in kernel_paths):
            x = trial
    hit = np.zeros(len(d.loc.cliques) + 1, dtype=bool)  # detached, -1, reads the last mark
    hit[d.loc.clique_of[sorted(x & d.pool)]] = True
    lifted = set(d.colors) | (x & d.bucketed)
    lifted |= set(d.members[hit[d.label[d.members]]].tolist())
    return frozenset(lifted)
