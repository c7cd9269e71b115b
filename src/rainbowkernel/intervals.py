"""Bucket intervals: containment/crossing relations, join, and the greedy
block partition of a proper interval family."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BrokenInvariant, NotProper


@dataclass(frozen=True, order=True)
class BucketInterval:
    """A pair of bucket indices l < r delimiting a stretch of the order."""

    l: int
    r: int

    def __post_init__(self):
        if not self.l < self.r:
            raise BrokenInvariant(f"interval needs l < r, got ({self.l}, {self.r})")


def is_inside(inner: BucketInterval, outer: BucketInterval) -> bool:
    """Containment of the closed index ranges."""
    return outer.l <= inner.l and inner.r <= outer.r


def crosses(a: BucketInterval, b: BucketInterval) -> bool:
    """Strict left-to-right overlap: a starts first, b ends last, they meet."""
    return a.l < b.l < a.r < b.r


def join(a: BucketInterval, b: BucketInterval) -> BucketInterval:
    return BucketInterval(min(a.l, b.l), max(a.r, b.r))


def span_buckets(interval: BucketInterval, s_psi: Sequence[int]) -> tuple[int, ...]:
    """Bucket indices of s_psi falling inside the closed interval."""
    return tuple(i for i in s_psi if interval.l <= i <= interval.r)


def maximal_elements(family: Iterable[BucketInterval]) -> list[BucketInterval]:
    members = sorted(set(family))
    out = []
    for a in members:
        if not any(a != b and is_inside(a, b) for b in members):
            out.append(a)
    return out


def block_partition(family: Sequence[BucketInterval]) -> tuple[tuple[tuple[BucketInterval, ...], ...], tuple[BucketInterval, ...]]:
    """Split a proper interval family into maximal chains of consecutively
    crossing intervals (scanned by left endpoint) and return the chains plus
    their joins.  Consecutive joins satisfy r <= next l."""
    members = sorted(set(family), key=lambda i: (i.l, i.r))
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
    joins = []
    for block in blocks:
        acc = block[0]
        for iv in block[1:]:
            acc = join(acc, iv)
        joins.append(acc)
    return tuple(blocks), tuple(joins)
