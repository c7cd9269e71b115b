"""The buckets an interval spans (`span_buckets`; the kernel reads them off
its labels), the level-scan demand (O(B^4) `is_inside` sums), the
per-interval capacity with its seed and match bounds (`interval_stats`,
which `Demand.capacity` replaces), the demand-law property suite checked
against them, the interval and demand queries only that suite asks, and the
interval relations and greedy block partition that `intervals.block_joins`
replaces."""
from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Sequence

from dataclasses import dataclass

from rainbowkernel.demand import BucketProfile, Demand, compute_demand
from rainbowkernel.intervals import BucketInterval

SEED = "seed"
MATCH = "match"
TIE = "tie"


def span_buckets(interval: BucketInterval, s_psi: Sequence[int]) -> tuple[int, ...]:
    """Bucket indices of s_psi falling inside the closed interval."""
    return tuple(i for i in s_psi if interval.l <= i <= interval.r)


def bucket_size(profile: BucketProfile, i: int) -> int:
    return profile.seeds[i] + profile.bulk.get(i, 0)


@dataclass(frozen=True)
class DemandStats:
    seed_bound: int
    match_bound: int
    capacity: int


def interval_stats(profile: BucketProfile, interval: BucketInterval) -> DemandStats:
    idx = span_buckets(interval, profile.s_psi)
    sizes = [bucket_size(profile, i) for i in idx]
    seed_bound = sum(profile.seeds[i] for i in idx)
    match_bound = sum(sizes) - max(sizes)
    return DemandStats(seed_bound, match_bound, min(seed_bound, match_bound))


class NotProper(ValueError):
    """Interval set handed to the block partition contains nested intervals."""


def is_inside(inner: BucketInterval, outer: BucketInterval) -> bool:
    """Containment of the closed index ranges."""
    return outer.l <= inner.l and inner.r <= outer.r


def crosses(a: BucketInterval, b: BucketInterval) -> bool:
    """Strict left-to-right overlap: a starts first, b ends last, they meet."""
    return a.l < b.l < a.r < b.r


def maximal_elements(family: Iterable[BucketInterval]) -> list[BucketInterval]:
    members = sorted(set(family))
    return [a for a in members if not any(a != b and is_inside(a, b) for b in members)]


def block_partition(family: Sequence[BucketInterval]) -> tuple[tuple[tuple[BucketInterval, ...], ...], tuple[BucketInterval, ...]]:
    """Split a proper interval family into maximal chains of consecutively
    crossing intervals (scanned by left endpoint) and return the chains plus
    their joins.  Consecutive joins satisfy r <= next l."""
    members = sorted(set(family))
    for a in members:
        for b in members:
            if a != b and is_inside(a, b):
                raise NotProper(f"{a} is contained in {b}")
    blocks: list[tuple[BucketInterval, ...]] = []
    current: list[BucketInterval] = []
    for iv in members:
        if current and not crosses(current[-1], iv):
            blocks.append(tuple(current))
            current = []
        current.append(iv)
    if current:
        blocks.append(tuple(current))
    # consecutive members of a block cross, so both endpoints grow along it
    return tuple(blocks), tuple(BucketInterval(block[0].l, block[-1].r) for block in blocks)


class UndefinedMeet(ValueError):
    """Meet requested for intervals that do not cross."""


def join(a: BucketInterval, b: BucketInterval) -> BucketInterval:
    return BucketInterval(min(a.l, b.l), max(a.r, b.r))


def meet(a: BucketInterval, b: BucketInterval) -> BucketInterval:
    if not crosses(a, b):
        raise UndefinedMeet(f"{a} does not cross {b}")
    return BucketInterval(b.l, a.r)


def inside_of(interval: BucketInterval, family: Iterable[BucketInterval]) -> list[BucketInterval]:
    """The members of `family` contained in `interval`."""
    return [other for other in family if is_inside(other, interval)]


def all_intervals(profile: BucketProfile) -> list[BucketInterval]:
    return [BucketInterval(l, r) for l, r in combinations(profile.s_psi, 2)]


def binding(stats: DemandStats) -> str:
    """Which bound sets the capacity: SEED, MATCH, or TIE when they agree."""
    if stats.seed_bound < stats.match_bound:
        return SEED
    if stats.seed_bound > stats.match_bound:
        return MATCH
    return TIE


def is_accepted(demand: Demand, interval: BucketInterval) -> bool:
    """Whether the demand accepted `interval`, read off its tables: the
    accepted value inside equals the capacity."""
    x, y = demand.s_psi.index(interval.l), demand.s_psi.index(interval.r)
    return demand.inside[x][y] == demand.cap[x][y]


def value_of(demand: Demand, family: Iterable[BucketInterval]) -> int:
    return sum(demand.values[i] for i in family)


def inside_value(demand: Demand, interval: BucketInterval) -> int:
    return sum(v for i, v in demand.values.items() if is_inside(i, interval))


def level_scan_demand(profile: BucketProfile, *,
                      reverse_within_level: bool = False) -> dict[BucketInterval, int]:
    """Scan intervals level by level (level = bucket count spanned), accepting
    I with value mu(I) - accepted value inside I whenever that is >= 0.  The
    accepted intervals with their values, in acceptance order.

    Within a level the scan is (l, r)-lexicographic; acceptance at a level
    only depends on strictly lower levels, so the flag reversing the
    within-level order must not change the result (asserted by tests).
    """
    by_level: dict[int, list[BucketInterval]] = {}
    for interval in all_intervals(profile):
        level = len(span_buckets(interval, profile.s_psi))
        by_level.setdefault(level, []).append(interval)
    accepted: dict[BucketInterval, int] = {}
    for level in range(2, len(profile.s_psi) + 1):
        batch = sorted(by_level.get(level, ()), key=lambda i: (i.l, i.r),
                       reverse=reverse_within_level)
        fresh = []
        for interval in batch:
            inside = sum(v for i, v in accepted.items() if is_inside(i, interval))
            cap = interval_stats(profile, interval).capacity
            if inside <= cap:
                fresh.append((interval, cap - inside))
        for interval, value in sorted(fresh, key=lambda pair: (pair[0].l, pair[0].r)):
            accepted[interval] = value
    return accepted


# ---------------------------------------------------------------------------
# Property suite: the structural laws of the demand, checked on profiles
# ---------------------------------------------------------------------------


def _cross_chains(family: list[BucketInterval], cap: int) -> Iterable[tuple[BucketInterval, ...]]:
    """All sequences of consecutively crossing intervals, up to `cap` many."""
    family = sorted(family)
    produced = 0

    def extend(chain: list[BucketInterval]):
        nonlocal produced
        if produced >= cap:
            return
        produced += 1
        yield tuple(chain)
        for nxt in family:
            if crosses(chain[-1], nxt):
                yield from extend(chain + [nxt])

    for start in family:
        yield from extend([start])


def demand_property_violations(profile: BucketProfile, *, subset_cap: int = 512,
                               chain_cap: int = 20_000,
                               rng: random.Random | None = None) -> list[str]:
    """Check the demand's structural laws on one profile; returns readable
    violations (empty list = all hold).

    Covered: monotone value identities and membership criteria of the demand
    (membership read off its `inside` and `cap` tables, which must agree with
    the sums of the positive values),
    the crossing-intersection property, closure of crossing chains under join,
    the small-total-demand bound for sub-families, and agreement with the
    level scan run in reversed within-level order.
    """
    demand = compute_demand(profile)
    out: list[str] = []
    intervals = all_intervals(profile)
    accepted = {i for i in intervals if is_accepted(demand, i)}
    positive = set(demand.values)

    slow = level_scan_demand(profile, reverse_within_level=True)
    if {i: v for i, v in slow.items() if v} != demand.values:
        out.append("positive demand differs from the reversed level scan")
    if set(slow) != accepted or len(slow) != demand.accepted:
        out.append("accepted intervals differ from the reversed level scan")

    for interval in intervals:
        stats = interval_stats(profile, interval)
        inside_all = inside_value(demand, interval)
        strict_inside = inside_all - demand.values.get(interval, 0)
        x, y = profile.s_psi.index(interval.l), profile.s_psi.index(interval.r)
        if inside_all != demand.inside[x][y]:
            out.append(f"{interval}: inside value {inside_all} != inside table {demand.inside[x][y]}")
        if inside_all < stats.capacity:
            out.append(f"{interval}: inside value {inside_all} < capacity {stats.capacity}")
        member = interval in accepted
        if member != (inside_all == stats.capacity):
            out.append(f"{interval}: membership != (inside value == capacity)")
        if member != (strict_inside <= stats.capacity):
            out.append(f"{interval}: membership != (strict inside <= capacity)")
        if (interval in positive) != (strict_inside < stats.capacity):
            out.append(f"{interval}: positivity != (strict inside < capacity)")
        idx = span_buckets(interval, profile.s_psi)
        sizes = {i: bucket_size(profile, i) for i in idx}
        top = max(sizes.values())
        argmax = [i for i in idx if sizes[i] == top]
        if binding(stats) == SEED:
            for i0 in argmax:
                rest = sum(profile.bulk.get(i, 0) for i in idx if i != i0)
                if not profile.seeds[i0] < rest:
                    out.append(f"{interval}: seed-bound binding but |S_{i0}| >= bulk rest")
        if any(profile.seeds[i0] < sum(profile.bulk.get(i, 0) for i in idx if i != i0)
               for i0 in argmax):
            if binding(stats) != SEED:
                out.append(f"{interval}: bulk-heavy argmax but binding is {binding(stats)}")
        if binding(stats) == MATCH:
            for i0 in argmax:
                rest = sum(profile.bulk.get(i, 0) for i in idx if i != i0)
                if not profile.seeds[i0] > rest:
                    out.append(f"{interval}: match-bound binding but |S_{i0}| <= bulk rest")

    pos_sorted = sorted(positive)
    for a in pos_sorted:
        for b in pos_sorted:
            if crosses(a, b):
                overlap = meet(a, b)
                if binding(interval_stats(profile, overlap)) != SEED:
                    out.append(f"crossing {a}, {b}: overlap {overlap} not seed-bound")

    for chain in _cross_chains(pos_sorted, chain_cap):
        u = chain[0]
        for iv in chain[1:]:
            u = join(u, iv)
        if u not in accepted:
            out.append(f"chain {chain}: join {u} missing from the demand")
            break

    if positive:
        pool = pos_sorted
        subsets: Iterable[tuple[BucketInterval, ...]]
        if 2 ** len(pool) <= subset_cap:
            subsets = (tuple(s) for size in range(1, len(pool) + 1)
                       for s in combinations(pool, size))
        else:
            rng = rng or random.Random(0)
            subsets = (tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
                       for _ in range(subset_cap))
        for subset in subsets:
            total = value_of(demand, subset)
            _, joins = block_partition(maximal_elements(subset))
            bound = sum(interval_stats(profile, j).capacity for j in joins)
            if total > bound:
                out.append(f"family {subset}: value {total} exceeds block bound {bound}")
                break
    return out
