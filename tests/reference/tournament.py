"""Per-(a, b) triangle localization (one numpy call per vertex pair) and the
localization without its later-beater filter; a decomposition's buckets,
bulk and spine read off its arrays; the from-scratch bucket
decomposition (by the row test, and the per-vertex loop before it) and the
decomposition built on it, where the kernelizer carries the labels from
round to round (`rounds.Decomp.advance`), and an interval's window; the
validator's per-pair bucket-membership loop, a scan for a vertex's bucket,
the dense marks of the color edges (`reference.rounds.color_edges`), and
the validator that ran the row test on every bucketed and pool row before
`tournament.check_tpt_decomp` compared the block with its expected pattern."""
from __future__ import annotations

import numpy as np

from rainbowkernel.errors import BrokenInvariant, NotNicePair
from rainbowkernel.graphs import Tournament, group_by, topological_order
from rainbowkernel.rounds import COLOR, POOL, PackingFound
from rainbowkernel.tournament import (TptDecomp, TriangleLocalization,
                                      _first_triangle, tpt_rows, triangle_pairs)


def greedy_localize_triangles(t: Tournament, threshold: int) -> PackingFound | TriangleLocalization:
    """Claim disjoint triangles scanning triples lexicographically; one pass
    gives a maximal packing.  Stops once `threshold` triangles are claimed."""
    if threshold <= 0:
        return PackingFound(())
    m = t.matrix
    free = np.ones(t.n, dtype=bool)
    packing: list[tuple[int, int, int]] = []
    for a in range(t.n):
        if not free[a]:
            continue
        for b in range(a + 1, t.n):
            if not free[b]:
                continue
            if m[a, b]:
                cands = m[b] & m[:, a] & free
            else:
                cands = m[a] & m[:, b] & free
            cands[:b + 1] = False
            idx = np.flatnonzero(cands)
            if idx.size:
                c = int(idx[0])
                packing.append((a, b, c))
                free[a] = free[b] = free[c] = False
                if len(packing) >= threshold:
                    return PackingFound(tuple(packing))
                break
    core = frozenset(v for tri in packing for v in tri)
    order = topological_order(t, [v for v in range(t.n) if free[v]])
    return TriangleLocalization(tuple(packing), core, order)


def greedy_localize_triangles_unfiltered(t: Tournament, threshold: int
                                         ) -> PackingFound | TriangleLocalization:
    """`greedy_localize_triangles` trying every vertex as the least of a
    triangle, also those that no later vertex beats."""
    if threshold <= 0:
        return PackingFound(())
    m = t.matrix
    free = np.ones(t.n, dtype=bool)
    packing: list[tuple[int, int, int]] = []
    for a in range(t.n):
        found = free[a] and _first_triangle(m, a, free)
        if found:
            packing.append((a, *found))
            free[[a, *found]] = False
            if len(packing) >= threshold:
                return PackingFound(tuple(packing))
    core = frozenset(v for tri in packing for v in tri)
    order = topological_order(t, [v for v in range(t.n) if free[v]])
    return TriangleLocalization(tuple(packing), core, order)


def pool_ids(loc: TriangleLocalization, pool) -> np.ndarray:
    """The pool in position order, as `TptDecomp.ids` holds it."""
    return np.array(sorted(pool, key=loc.position.__getitem__), dtype=np.intp)


def bucket_decompose_tpt(pool: frozenset[int], bucketed: frozenset[int],
                         t: Tournament, loc: TriangleLocalization):
    """Unique bucket structure of a nice pair: each bucketed vertex lands at
    the smallest pool position it dominates (the infinity sentinel when it
    dominates none).  A pool vertex past that position dominating it back
    witnesses a triangle with two pool vertices."""
    if not loc.position[list(pool)].all():
        raise BrokenInvariant("pool must lie inside the localization remainder")
    rows = tpt_rows(t, loc, pool_ids(loc, pool), sorted(bucketed))
    if rows.witnesses:
        raise NotNicePair(rows.witnesses[0])
    buckets = group_by(rows.label, rows.xs)
    return tuple(buckets), buckets


def buckets_of(d: TptDecomp) -> dict[int, frozenset[int]]:
    """The members of each bucket of d, by bucket label."""
    return group_by(d.label[d.members], d.members)


def bulk_of(d: TptDecomp) -> frozenset[int]:
    """The bulk of d: the vertices its `in_bulk` mask marks."""
    return frozenset(np.flatnonzero(d.in_bulk).tolist())


def spine_of(d: TptDecomp) -> frozenset[int]:
    """The bucketed remainder vertices outside the bulk."""
    return d.bucketed - d.loc.core - bulk_of(d)


def make_tpt_decomp(loc: TriangleLocalization, pool, bucketed, colors, spine,
                    bulk, t: Tournament, delta: float, c_delta: float) -> TptDecomp:
    """A decomposition of the partition (pool, bucketed, colors) with its
    buckets read from scratch; `spine` must be the bucketed remainder
    vertices outside `bulk`."""
    pool, bucketed, colors, spine, bulk = map(frozenset, (pool, bucketed, colors, spine, bulk))
    if len(pool) + len(bucketed) + len(colors) != t.n or \
            pool | bucketed | colors != set(range(t.n)):
        raise ValueError("pool, bucketed and colors must partition the vertex set")
    label = np.full(t.n, POOL, dtype=np.intp)
    label[list(colors)] = COLOR
    for i, members in bucket_decompose_tpt(pool, bucketed, t, loc)[1].items():
        label[list(members)] = i
    in_bulk = np.zeros(t.n, dtype=bool)
    in_bulk[list(bulk)] = True
    ids = pool_ids(loc, pool)
    d = TptDecomp.start(t.matrix, triangle_pairs, label, ids, loc.position[ids], loc, in_bulk,
                        delta, c_delta)
    if spine_of(d) != spine:
        raise ValueError("spine must be the bucketed remainder vertices outside the bulk")
    return d


def window(d: TptDecomp, interval) -> frozenset[int]:
    """The pool vertices whose position lies in [l, r): the slice of `ids`
    that `TptDecomp.span` cuts."""
    return frozenset(d.ids[d.span(interval)].tolist())


def bucket_decompose_tpt_loop(pool: frozenset[int], bucketed: frozenset[int],
                              t: Tournament, loc: TriangleLocalization):
    """`bucket_decompose_tpt` as one row read per bucketed vertex."""
    pos = {v: i + 1 for i, v in enumerate(loc.order)}
    if not pool <= pos.keys():
        raise ValueError("pool must lie inside the localization remainder")
    t0 = len(loc.order)
    pool_by_pos = sorted(pool, key=lambda v: pos[v])
    positions = [pos[v] for v in pool_by_pos]
    m = t.matrix
    buckets: dict[int, set[int]] = {}
    if pool_by_pos:
        ids = np.array(pool_by_pos)
        for v in sorted(bucketed):
            row = m[v][ids]  # v -> pool vertex, in position order
            hits = np.flatnonzero(row)
            if hits.size == 0:
                idx = t0 + 1
            else:
                first = int(hits[0])
                rest = row[first:]
                if not rest.all():
                    bad = first + int(np.flatnonzero(~rest)[0])
                    raise NotNicePair((v, pool_by_pos[first], pool_by_pos[bad]))
                idx = positions[first]
            buckets.setdefault(idx, set()).add(v)
    elif bucketed:
        buckets[t0 + 1] = set(bucketed)
    s_psi = tuple(sorted(buckets))
    return s_psi, {i: frozenset(b) for i, b in buckets.items()}


def bucket_membership_problems(d: TptDecomp, t: Tournament) -> list[str]:
    """The bucket-membership lines of `check_tpt_decomp`, from its earlier
    double loop over (bucket vertex, pool vertex) pairs."""
    out: list[str] = []
    pos = {v: i + 1 for i, v in enumerate(d.loc.order)}
    pool_sorted = sorted(d.pool, key=lambda v: pos[v])
    positions = [pos[v] for v in pool_sorted]
    m = t.matrix
    buckets = buckets_of(d)
    for i in sorted(buckets):
        for v in buckets[i]:
            for w, p in zip(pool_sorted, positions):
                forward = bool(m[v, w])
                if p < i and forward:
                    out.append(f"bucket {i} vertex {v} dominates earlier pool vertex {w}")
                if p >= i and not forward:
                    out.append(f"bucket {i} vertex {v} dominated by later pool vertex {w}")
    return out


def bucket_of_scan(d: TptDecomp, v: int) -> int:
    """The bucket label of v as a scan over every bucket."""
    for i, b in buckets_of(d).items():
        if v in b:
            return i
    raise KeyError(v)


def triangle_marks(block: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per `tpt_rows` row r of a color c, the pool pairs (i, j) forming a
    triangle with c: for i < j, ids[i] -> ids[j] -> c -> ids[i] exactly
    when r[i] and not r[j]."""
    return block[:, :, None] & ~block[:, None, :]


def check_tpt_decomp(d: TptDecomp, t: Tournament) -> list[str]:
    """Full validator, and the one fresh read of the tournament in a round:
    colors, nice pair, bucket membership, seeds, the spine budget and the
    local-size law.  Empty list = everything holds.  The labels partition
    the vertices; the constructors hold the pool ids to the POOL labels and
    inside the remainder, and the bulk inside the bucketed remainder."""
    out: list[str] = []
    if d.loc.position[d.color_ids].any():
        out.append("colors must come from the localization core")
    xs = d.members
    rows = tpt_rows(t, d.loc, d.ids, np.concatenate((xs, d.ids)))  # then the pool
    cells, keys = rows.rows[:xs.size], rows.keys
    # the pool is transitive in position order: each vertex beats the later ones
    if not np.array_equal(rows.rows[xs.size:], keys > keys[:, None]):
        out.append("pool arcs disagree with the localization order")
    if rows.bad[:xs.size].any():
        out.append(f"triangle {rows.witnesses[0]} has two pool vertices")
    positions = set(keys.tolist())
    out += [f"bucket index {i} is not a pool position" for i in d.s_psi
            if i != d.infinity and i not in positions]
    # a member of bucket i beats exactly the pool vertices at positions >= i
    cuts = d.label[xs]
    for r, j in zip(*np.nonzero(cells != (keys >= cuts[:, None]))):
        i, v, w = cuts[r], xs[r], rows.ids[j]
        out.append(f"bucket {i} vertex {v} dominates earlier pool vertex {w}" if keys[j] < i
                   else f"bucket {i} vertex {v} dominated by later pool vertex {w}")
    seeds, bulk = d.sizes
    out += [f"bucket {i} has no seed vertex" for i in d.s_psi if not seeds[i]]
    remainder = d.loc.position[xs] > 0
    spine, core_side = np.count_nonzero(remainder & ~d.in_bulk[xs]), np.count_nonzero(~remainder)
    if spine > 10 * core_side:
        out.append(f"spine size {spine} exceeds 10*|core side| = {10 * core_side}")
    for i in d.s_psi:
        allowed = d.c_delta * seeds[i] ** d.delta
        if bulk[i] > allowed + 1e-9:
            out.append(f"bucket {i} bulk {bulk[i]} exceeds local size {allowed:.3f}")
    return out
