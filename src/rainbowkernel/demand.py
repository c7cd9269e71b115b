"""Demand over bucket intervals.

The demand assigns to each interval the number of order vertices the kernel
must keep inside it.  It is computed bottom-up from the interval capacity
mu(I) = min(seed bound, match bound):

  seed bound   Sigma(I) = sum of |S_i| over buckets in I -- every triangle
               crossing two buckets consumes a seed vertex,
  match bound  m(I) = sum of |B_i| minus the largest bucket -- the bucket arcs
               such triangles use form a matching avoiding one side.

Only bucket sizes matter here, so the machinery works on a light-weight
profile; the kernel hands in its live decomposition through that interface
and the property tests fuzz profiles directly.  Case 2 reads mu back off the
demand (`Demand.capacity`).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import BrokenInvariant
from .intervals import BucketInterval


@dataclass(frozen=True)
class BucketProfile:
    """Per-bucket sizes: seeds |S_i| (>= 1) and bulk |B_i^{W2}| (>= 0)."""

    s_psi: tuple[int, ...]
    seeds: dict[int, int]
    bulk: dict[int, int]

    def __post_init__(self):
        if tuple(sorted(self.s_psi)) != self.s_psi:
            raise BrokenInvariant("bucket indices must be sorted")
        for i in self.s_psi:
            if self.seeds.get(i, 0) < 1:
                raise BrokenInvariant(f"bucket {i} needs at least one seed")
            if self.bulk.get(i, 0) < 0:
                raise BrokenInvariant("bulk sizes must be non-negative")


@dataclass(frozen=True)
class Demand:
    """The positive intervals with their values, in acceptance order; the
    count of `accepted` intervals, zero-valued ones too; and over the buckets
    of ranks x..y in `s_psi`, `cap[x][y]`, their mu, and `inside[x][y]`, the
    accepted value inside, which equals mu exactly when x..y is accepted."""

    values: dict[BucketInterval, int]
    accepted: int
    s_psi: tuple[int, ...]
    cap: list[list[int]]
    inside: list[list[int]]

    def capacity(self, interval: BucketInterval) -> int:
        """mu(interval), over the buckets it spans (at least one)."""
        s = self.s_psi
        return self.cap[bisect_left(s, interval.l)][bisect_right(s, interval.r) - 1]


def compute_demand(profile: BucketProfile) -> Demand:
    """Scan intervals level by level (level = bucket count spanned), accepting
    I with value mu(I) - accepted value inside I whenever that is >= 0.

    Intervals are indexed by bucket rank x < y.  The accepted value inside
    (x, y) is the inclusion-exclusion of the two one-shorter intervals,
    inside[x+1][y] + inside[x][y-1] - inside[x+1][y-1], plus its own value,
    and mu comes from prefix sums and a running max: O(B^2) in all.  A level
    only reads strictly lower ones, so any order that fills (x, y) after
    those three does: the table is filled a row at a time, from the last
    rank up, and the positive values are put in level order at the end.
    """
    idx = profile.s_psi
    b = len(idx)
    seeds = [profile.seeds[i] for i in idx]
    sizes = [s + profile.bulk.get(i, 0) for s, i in zip(seeds, idx)]
    cap = []
    for x in range(b):
        row, seed_sum, size_sum, top = [0] * b, 0, 0, 0
        for y in range(x, b):
            seed_sum += seeds[y]
            size_sum += sizes[y]
            if sizes[y] > top:
                top = sizes[y]
            row[y] = seed_sum if seed_sum < size_sum - top else size_sum - top
        cap.append(row)
    inside = [[0] * b for _ in range(b)]
    found, accepted = [], 0
    for x in range(b - 2, -1, -1):
        row, right, mus = inside[x], inside[x + 1], cap[x]
        for y in range(x + 1, b):
            below = right[y] + row[y - 1] - right[y - 1]
            if below <= mus[y]:
                accepted += 1
                if below < mus[y]:
                    found.append((y - x, x, mus[y] - below))
                below = mus[y]
            row[y] = below
    values = {BucketInterval(idx[x], idx[x + span]): value for span, x, value in sorted(found)}
    return Demand(values, accepted, idx, cap, inside)
