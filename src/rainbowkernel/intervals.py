"""Bucket intervals: containment/crossing relations and the greedy block
partition of a proper interval family."""
from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .errors import BrokenInvariant, NotProper


class BucketInterval(namedtuple("BucketInterval", "l r")):
    """A pair of bucket indices l < r delimiting a stretch of the order; a
    tuple, so cheap to build, hash and compare."""

    __slots__ = ()

    def __new__(cls, l: int, r: int):
        if not l < r:
            raise BrokenInvariant(f"interval needs l < r, got ({l}, {r})")
        return tuple.__new__(cls, (l, r))


def is_inside(inner: BucketInterval, outer: BucketInterval) -> bool:
    """Containment of the closed index ranges."""
    return outer.l <= inner.l and inner.r <= outer.r


def crosses(a: BucketInterval, b: BucketInterval) -> bool:
    """Strict left-to-right overlap: a starts first, b ends last, they meet."""
    return a.l < b.l < a.r < b.r


def span_buckets(interval: BucketInterval, s_psi: Sequence[int]) -> tuple[int, ...]:
    """Bucket indices of s_psi falling inside the closed interval."""
    return tuple(i for i in s_psi if interval.l <= i <= interval.r)


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
