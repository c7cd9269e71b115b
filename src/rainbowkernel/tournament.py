"""Kernelization for triangle packing and feedback vertex set in tournaments
(TPT / FVST).

The greedily localized remainder of a tournament is acyclic, so its surviving
part (the pool) carries a fixed topological position 1..t0.  Bucketed
vertices are grouped by the unique position index splitting the pool into a
part that dominates them and a part they dominate.  Bucket indices, the
intervals between them, and the demand computed over those intervals drive
the auxiliary multigraph:

  * an ordinary edge {u, w} colored by c for every triangle {c, u, w} with
    c an untreated core vertex and u, w in the pool,
  * val(I) fresh slot colors per positive-demand interval I, looped onto
    every pool vertex lying strictly inside I.

A rainbow matching selects one pool vertex per slot (a bucket allocation)
plus one pool edge per core color, and the run stops.  A color cover either
retires core colors (add-1: the cover joins the spine, B^{W1}) or merges the
buckets of one block interval (add-2: its window joins the bulk, B^{W2});
the local-size law |bulk_i| <= c(delta) |seeds_i|^delta survives both.
The loop itself lives in `rounds.py`; this module supplies the decomposition,
its stages and the rule.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import BucketProfile, Demand, compute_demand
from .errors import (BrokenInvariant, Case2SelectionFailed, InvalidSolution, NotAcyclic,
                     NotNicePair, OracleContractViolation, PreconditionViolated, RepackFailed)
from .graphs import Tournament, is_acyclic, packing_fault, take_block, topological_order
from .intervals import BucketInterval, block_joins
from .rainbow import ColorCover, RainbowMatching, RainbowOracle, verify_outcome
from .report import Decided, KernelOutput, KernelReport
from .rounds import (COLOR, POOL, Aux, Decomp, KernelState, PackingFound, PoolRows, RuleNext,
                     RuleStop, build_aux, check_nice_pair, clean, demote, finite, row_test,
                     run_rounds)


@dataclass(frozen=True)
class TriangleLocalization:
    """A maximal triangle packing and the topological order of the rest."""

    packing: tuple[tuple[int, int, int], ...]
    core: frozenset[int]
    order: tuple[int, ...]

    @cached_property
    def position(self) -> np.ndarray:
        """Topological position 1..t0 by vertex id, 0 off the remainder."""
        out = np.zeros(len(self.core) + len(self.order), dtype=np.intp)
        out[list(self.order)] = np.arange(1, len(self.order) + 1)
        out.flags.writeable = False
        return out


def greedy_localize_triangles(t: Tournament, threshold: int) -> PackingFound | TriangleLocalization:
    """Claim disjoint triangles scanning triples lexicographically; one pass
    gives a maximal packing.  Stops once `threshold` triangles are claimed."""
    if threshold <= 0:
        return PackingFound(())
    m = t.matrix
    free = np.ones(t.n, dtype=bool)
    packing: list[tuple[int, int, int]] = []
    # a triangle {a, x, y} with x, y > a needs an arc into a from x or y
    for a in np.flatnonzero(np.tril(m, -1).any(axis=0)).tolist():
        found = free[a] and _first_triangle(m, a, free)
        if found:
            packing.append((a, *found))
            free[[a, *found]] = False
            if len(packing) >= threshold:
                return PackingFound(tuple(packing))
    core = frozenset(v for tri in packing for v in tri)
    try:
        order = topological_order(t, [v for v in range(t.n) if free[v]])
    except NotAcyclic as exc:
        raise BrokenInvariant(f"remainder triangle {exc.witness}; the packing was not maximal") from exc
    return TriangleLocalization(tuple(packing), core, order)


def _first_triangle(m: np.ndarray, a: int, free: np.ndarray) -> tuple[int, int] | None:
    """The lexicographically first (b, c) of free vertices past a closing a
    triangle with a.  Row b marks the c closing one with a and b, so the
    first row with a mark is the least b and its first mark is c > b.  The
    first free row is probed alone; the rest are read in blocks of 2, 4, ...
    rows, unless one test says no triangle through a is left."""
    rest = free[a + 1:]
    if not rest.any():
        return None
    b = a + 1 + int(rest.argmax())
    # with a -> b the triangle closes by b -> c -> a, else by a -> c -> b
    row = (m[b, a + 1:] & m[a + 1:, a] if m[a, b] else m[a, a + 1:] & m[a + 1:, b]) & rest
    if row.any():
        return b, a + 1 + int(row.argmax())
    later = free.copy()
    later[:a + 1] = False
    head, tail = m[a] & later, m[:, a] & later
    # every arc x -> y with a -> x and y -> a closes a triangle
    if not take_block(m, np.flatnonzero(head), np.flatnonzero(tail)).any():
        return None
    rows = np.flatnonzero(later)
    lo, size = 1, 2
    while lo < rows.size:
        bs = rows[lo:lo + size]
        hits = np.where(m[a, bs][:, None], m[bs] & tail, m[:, bs].T & head)
        if hits.any():
            i, c = divmod(int(hits.argmax()), m.shape[1])
            return int(bs[i]), c
        lo, size = lo + size, 2 * size
    return None


def tpt_rows(t: Tournament, loc: TriangleLocalization, ids: np.ndarray, xs) -> PoolRows:
    """The nice-pair row test against the pool `ids` in position order, keyed
    by position: a member of bucket i beats exactly the pool positions >= i,
    t0 + 1 when it beats none, so a bad row has a 1 and then a 0."""
    return row_test(t.matrix, ids, loc.position[ids], xs, np.greater_equal, len(loc.order) + 1)


def triangle_pairs(rows: PoolRows, r: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `rounds.color_edges` emitter of triangles: per 1 p at (r[p], i[p]) of a
    `tpt_rows` block, the 0s j > i of row r, as ids[i] -> ids[j] -> c -> ids[i]
    exactly then.  In the flat 0s of the rows spanned they run from the 1's
    cell to its row's end: two `searchsorted`s and one `repeat`."""
    size, top = rows.ids.size, r[0]
    zeros = np.flatnonzero(~rows.rows[top:r[-1] + 1])
    cell = (r - top) * size + i
    lo = zeros.searchsorted(cell)
    count = zeros.searchsorted(cell - i + size) - lo
    p = np.repeat(np.arange(r.size), count)
    return p, zeros[np.arange(p.size) + (lo - count.cumsum() + count)[p]] % size


@dataclass(frozen=True, eq=False)
class TptDecomp(Decomp):
    """Partial decomposition for the tournament problems: the pool in
    position order, keyed by position, and a bucket named by the pool
    position its members first beat (t0 + 1, infinity, when none).

    `in_bulk` marks the bulk, the merge products only bounded by the
    local-size law; the other bucketed remainder vertices are the spine,
    which count as seeds next to the core.
    """

    loc: TriangleLocalization
    in_bulk: np.ndarray
    delta: float
    c_delta: float

    def __post_init__(self):
        super().__post_init__()
        if not self.keys.all():
            raise BrokenInvariant("pool must lie inside the localization remainder")
        if (self.in_bulk & ((self.label <= COLOR) | (self.loc.position == 0))).any():
            raise BrokenInvariant("bulk must lie inside the bucketed remainder part")

    def relabel(self, kept: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """No arc is read: the pool is transitive in position order, so a
        bucket moves to the least kept position at or after its own, or to
        infinity when there is none."""
        return np.append(kept, self.infinity)[kept.searchsorted(labels)]

    @cached_property
    def s_psi(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.label[self.members].tolist())))

    @property
    def infinity(self) -> int:
        return len(self.loc.order) + 1

    @cached_property
    def sizes(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per bucket, its seed count (core side and spine) and its bulk count."""
        bulk = np.bincount(self.label[self.in_bulk], minlength=self.infinity + 1).tolist()
        total = np.bincount(self.label[self.members], minlength=self.infinity + 1).tolist()
        return {i: total[i] - bulk[i] for i in self.s_psi}, {i: bulk[i] for i in self.s_psi}

    @property
    def potential(self) -> int:
        return self.ids.size + self.color_ids.size

    @cached_property
    def key_list(self) -> list[int]:
        return self.keys.tolist()  # bisect reads a list without a conversion

    def span(self, interval: BucketInterval) -> slice:
        """The slice of `ids` whose positions lie in [l, r)."""
        return slice(bisect_left(self.key_list, interval.l), bisect_left(self.key_list, interval.r))

    @cached_property
    def profile(self) -> BucketProfile:
        return BucketProfile(self.s_psi, *self.sizes)


def check_tpt_decomp(d: TptDecomp, t: Tournament) -> list[str]:
    """Full validator, and the one fresh read of the tournament in a round:
    colors, the nice-pair law (`check_nice_pair`), seeds, the spine budget and
    the local-size law.  Empty list = everything holds.  The labels partition
    the vertices; the constructors hold the pool ids to the POOL labels and
    inside the remainder, and the bulk inside the bucketed remainder."""
    out = ["colors must come from the localization core"] if d.loc.position[d.color_ids].any() else []
    out += check_nice_pair(d, t.matrix, np.greater_equal, d.infinity)
    seeds, bulk = d.sizes
    out += [f"bucket {i} has no seed vertex" for i in d.s_psi if not seeds[i]]
    remainder = d.loc.position[d.members] > 0
    spine, core_side = np.count_nonzero(remainder & ~d.in_bulk[d.members]), np.count_nonzero(~remainder)
    if spine > 10 * core_side:
        out.append(f"spine size {spine} exceeds 10*|core side| = {10 * core_side}")
    for i in d.s_psi:
        allowed = d.c_delta * seeds[i] ** d.delta
        if bulk[i] > allowed + 1e-9:
            out.append(f"bucket {i} bulk {bulk[i]} exceeds local size {allowed:.3f}")
    return out


def clean_tpt(d: TptDecomp, t: Tournament) -> TptDecomp:
    """Demote colors that form no triangle with two pool vertices into the
    core side of the buckets; spine, bulk, and the local sizes do not move."""
    return clean(d, lambda xs: tpt_rows(t, d.loc, d.ids, xs))


# ---------------------------------------------------------------------------
# Auxiliary multigraph
# ---------------------------------------------------------------------------


def build_tpt_aux(d: TptDecomp, demand: Demand) -> Aux:
    """Vertex set = pool.  An ordinary edge per triangle {c, v, w} with c in
    colors and v, w in the pool, colored c; val(I) slot colors per
    positive-demand interval I, each looped onto every vertex of its window,
    a slice of the pool in position order."""
    return build_aux(d, [(("slot", iv, j), d.ids[d.span(iv)])
                         for iv, val in sorted(demand.values.items()) for j in range(val)])


@dataclass(frozen=True)
class Allocation:
    """val(I) chosen window vertices per positive-demand interval, disjoint."""

    picks: dict[BucketInterval, frozenset[int]]

    def vertices(self) -> frozenset[int]:
        return frozenset().union(*self.picks.values())


def extract_allocation(aux: Aux, matching: RainbowMatching) -> Allocation:
    picks: dict[BucketInterval, set[int]] = {}
    for meaning, e in aux.matched(matching).items():
        if meaning[0] == "slot":
            picks.setdefault(meaning[1], set()).add(e.u)
    return Allocation({iv: frozenset(vs) for iv, vs in picks.items()})


def check_allocation(d: TptDecomp, demand: Demand, alloc: Allocation) -> list[str]:
    out = []
    seen: set[int] = set()
    for interval, value in demand.values.items():
        picks = alloc.picks.get(interval, frozenset())
        if len(picks) != value:
            out.append(f"{interval}: {len(picks)} picks != demand {value}")
        if not picks.issubset(d.ids[d.span(interval)].tolist()):
            out.append(f"{interval}: picks leave the window")
        if picks & seen:
            out.append(f"{interval}: picks overlap another interval's")
        seen |= picks
    return out


# ---------------------------------------------------------------------------
# Add operations
# ---------------------------------------------------------------------------


def add1(d: TptDecomp, t: Tournament, moved: frozenset[int],
         retired: frozenset[int]) -> TptDecomp:
    """Demote `moved` pool vertices into the spine and retire `retired`
    colors into the buckets.  Requires |moved| <= 10 |retired| and that no
    triangle through a retired color keeps two pool vertices outside
    `moved` (this is what the vertex cover guarantees; `demote` checks it)."""
    if not moved <= d.pool or not retired <= d.colors:
        raise PreconditionViolated("moved/retired must come from pool/colors")
    if len(moved) > 10 * len(retired):
        raise PreconditionViolated(
            f"|moved| = {len(moved)} exceeds 10 * |retired| = {10 * len(retired)}")
    keep = np.array([v not in moved for v in d.ids.tolist()], dtype=bool)
    return demote(d, keep, tpt_rows(t, d.loc, d.ids[keep], sorted(retired)))


def add2(d: TptDecomp, demand: Demand, interval: BucketInterval) -> TptDecomp:
    """Merge the buckets spanned by `interval` together with its window into
    the bucket at the right endpoint; the window joins the bulk.  Requires
    |window| <= 10 * capacity(interval), read off the round's `demand`."""
    if interval.l not in d.s_psi or interval.r not in d.s_psi:
        raise PreconditionViolated(f"{interval} endpoints must be bucket indices")
    span = d.span(interval)
    capacity = demand.capacity(interval)
    if span.stop - span.start > 10 * capacity:
        raise PreconditionViolated(
            f"|window| = {span.stop - span.start} exceeds 10 * capacity = {10 * capacity}")
    in_bulk = d.in_bulk.copy()
    in_bulk[d.ids[span]] = True
    keep = (d.keys < interval.l) | (d.keys >= interval.r)
    return d.advance(keep, d.ids[:0], d.keys[:0], in_bulk=in_bulk)


# ---------------------------------------------------------------------------
# The reduction rule and the kernelizer
# ---------------------------------------------------------------------------


@dataclass
class TptKernelState(KernelState):
    """The shared final state plus the last demand and its allocation."""

    demand: Demand
    allocation: Allocation


def _demand_summary(d: TptDecomp, demand: Demand) -> dict:
    return {
        "intervals": demand.accepted,
        "positive": len(demand.values),
        "val_total": sum(demand.values.values()),
        "bucket_total": d.members.size,
    }


def apply_rule_tpt(d: TptDecomp, t: Tournament, oracle: RainbowOracle) -> RuleStop | RuleNext:
    """One round at the fixed oracle slack eps = 1, so covers obey
    |cover| <= 5 |colors|."""
    demand = compute_demand(d.profile)
    aux = build_tpt_aux(d, demand)
    outcome, notes = aux.ask(oracle, 1.0, verify_outcome, demand=_demand_summary(d, demand))
    if isinstance(outcome, RainbowMatching):
        allocation = extract_allocation(aux, outcome)
        bad = check_allocation(d, demand, allocation)
        if bad:
            raise OracleContractViolation("; ".join(bad))
        return RuleStop(TptKernelState(d, outcome, aux, demand, allocation), notes)
    cover: ColorCover = outcome
    retired, slots = aux.split(cover.colors)
    if len(slots) <= len(retired):
        return RuleNext(add1(d, t, frozenset(cover.cover), retired), "case1", notes)
    hit = sorted({interval for _, interval, _ in slots})
    covered = np.zeros(d.label.size, dtype=bool)
    covered[list(cover.cover)] = True
    for interval in hit:
        if not covered[d.ids[d.span(interval)]].all():
            raise OracleContractViolation(
                f"slot color of {interval} covered but its window is not")
    for join_interval in block_joins(hit):
        span = d.span(join_interval)
        if span.stop - span.start <= 10 * demand.capacity(join_interval):
            return RuleNext(add2(d, demand, join_interval), "case2", notes)
    raise Case2SelectionFailed(
        "no block interval satisfies |window| <= 10 * capacity")


def choose_delta(k: int) -> float:
    """Exponent selection: min(2, 1 + sqrt(log2 21)/sqrt(log2 k)), monotone
    decreasing towards 1 as k grows."""
    if k < 2:
        raise ValueError("delta selection needs k >= 2")
    return min(2.0, 1.0 + math.sqrt(math.log2(21.0)) / math.sqrt(math.log2(k)))


def local_size_constant(delta: float) -> float:
    """c(delta) = max(20/(2^delta - 2), (21/delta)^(1/(delta-1))), rounded up
    at the 12th decimal so float noise never fails the local-size check."""
    if not 1.0 < delta <= 2.0:
        raise ValueError("delta must lie in (1, 2]")
    raw = max(20.0 / (2.0 ** delta - 2.0), (21.0 / delta) ** (1.0 / (delta - 1.0)))
    return math.ceil(raw * 1e12) / 1e12


def kernelize_tournament(t: Tournament, k: int, *, delta: float | None = None,
                         problem: str = "TPT") -> Decided | KernelOutput:
    """Shrink (t, k) to an equivalent induced sub-tournament on at most
    6534 * c(delta) * k^delta vertices.

    The rounds are problem-independent; only the greedy threshold differs.
    k disjoint triangles answer TPT with yes, k+1 of them rule out a feedback
    vertex set of size k (FVST answers no).
    """
    if problem not in ("TPT", "FVST"):
        raise ValueError(f"not a tournament problem: {problem}")
    if delta is None:
        delta = choose_delta(k) if k >= 2 else 2.0
    c_delta = finite("c(delta)", lambda: local_size_constant(delta))
    bound = finite("the kernel bound", lambda: 6534.0 * c_delta * k ** delta)
    params = {"delta": delta, "c_delta": c_delta, "epsilon": 1.0}
    report = KernelReport(problem=problem, n=t.n, k=k, params=params, status="kernel",
                          bound=bound, bound_formula="6534*c(delta)*k^delta")
    oracle = RainbowOracle()
    # stages are looked up at call time, so wrapping the module names traces them
    return run_rounds(report, localize=lambda threshold: greedy_localize_triangles(t, threshold),
                      start=lambda loc: TptDecomp.start(
                          t.matrix, triangle_pairs, np.where(loc.position > 0, POOL, COLOR),
                          np.array(loc.order, np.intp), np.arange(1, len(loc.order) + 1), loc,
                          np.zeros(t.n, bool), delta, c_delta),
                      clean=lambda d: clean_tpt(d, t),
                      check=lambda d: check_tpt_decomp(d, t),
                      apply_rule=lambda d: apply_rule_tpt(d, t, oracle))


# ---------------------------------------------------------------------------
# Constructions on top of a finished run
# ---------------------------------------------------------------------------


def repack_via_allocation(state: TptKernelState, t: Tournament,
                          packing: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Reroute a triangle packing of T[pool + bucketed] into the allocation.

    Triangles inside the buckets survive.  Each remaining triangle owns a
    backward bucket arc; those arcs form a matching, and each is assigned a
    distinct allocation vertex inside its interval window [l, r) of
    positions.  Taking the arcs by right end r and giving each the first free
    allocation vertex at a position >= l saturates them whenever any
    assignment does (the counting that makes this total is the demand's
    small-total bound)."""
    d = state.final
    fault = packing_fault(t, packing, d.pool | d.bucketed)
    if fault:
        raise InvalidSolution(fault)
    inside: list[tuple[int, int, int]] = []
    crossing: list[tuple[tuple[int, int], BucketInterval]] = []
    for tri in packing:
        tset = set(tri)
        pool_part = sorted(tset & d.pool)
        if not pool_part:
            inside.append(tuple(sorted(tset)))
            continue
        if len(pool_part) != 1:  # a nice decomposition has no such triangle
            raise NotNicePair(tri)
        u, v = sorted(tset - set(pool_part))
        bu, bv = d.label[[u, v]].tolist()
        if bu == bv:
            raise RepackFailed(f"{tri}: both bucket vertices in bucket {bu}")
        crossing.append(((u, v), BucketInterval(min(bu, bv), max(bu, bv))))
    allocation_vertices = state.allocation.vertices()
    free = sorted(allocation_vertices, key=d.loc.position.__getitem__)
    positions = d.loc.position[free].tolist()
    assignment = {}
    for idx, (_, interval) in sorted(enumerate(crossing), key=lambda item: item[1][1].r):
        j = bisect_left(positions, interval.l)
        if j == len(free) or positions[j] >= interval.r:
            raise RepackFailed("allocation cannot saturate the backward arcs")
        assignment[idx] = free.pop(j)
        del positions[j]
    out = inside + [tuple(sorted((u, v, assignment[idx])))
                    for idx, ((u, v), _) in enumerate(crossing)]
    fault = packing_fault(t, out, allocation_vertices | d.bucketed)
    if fault:
        raise RepackFailed(f"rerouted packing: {fault}")
    return out


def lift_fvs(state: TptKernelState, t: Tournament, fvs: set[int]) -> frozenset[int]:
    """Turn a feedback vertex set of the kernel into one of t, no larger.

    The kernel part of the solution inside buckets is kept.  Slots it spent
    on allocation vertices are exchanged, per block interval of the surviving
    backward bucket arcs, for the cheaper of the two bucket covers (all seeds
    vs everything but the largest bucket); all colors enter as well."""
    d = state.final
    x = set(fvs)
    if not is_acyclic(t, state.kept - x):
        raise InvalidSolution("input does not hit every triangle of the kernel")
    x_b = x & d.bucketed
    live = np.array(sorted(d.bucketed - x_b), dtype=np.intp)
    idx = d.label[live]
    # a backward bucket arc: a vertex of a later bucket beats one of an earlier one
    later, earlier = np.nonzero(take_block(t.matrix, live, live) & (idx[:, None] > idx))
    intervals = {BucketInterval(int(idx[b]), int(idx[a])) for a, b in zip(later, earlier)}
    chosen: set[int] = set()
    for join_interval in block_joins(intervals):
        span = (d.label >= join_interval.l) & (d.label <= join_interval.r)  # bucket labels are >= 1
        seed_cover = span & ~d.in_bulk
        # the largest bucket spanned, the first one of a tie
        match_cover = span & (d.label != np.bincount(d.label[span]).argmax())
        cover = seed_cover if seed_cover.sum() <= match_cover.sum() else match_cover
        chosen |= set(np.flatnonzero(cover).tolist())
    lifted = set(d.colors) | x_b | chosen
    if len(lifted) > len(fvs):
        raise BrokenInvariant("lifted feedback vertex set grew; exchange argument violated")
    if not is_acyclic(t, set(range(t.n)) - lifted):
        raise BrokenInvariant("lifted set misses a triangle; exchange argument violated")
    return frozenset(lifted)
