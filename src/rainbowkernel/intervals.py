"""Bucket intervals and the joins of the blocks of crossing maximal
intervals."""
from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .errors import BrokenInvariant


class BucketInterval(namedtuple("BucketInterval", "l r")):
    """A pair of bucket indices l < r delimiting a stretch of the order; a
    tuple, so cheap to build, hash and compare."""

    __slots__ = ()

    def __new__(cls, l: int, r: int):
        if not l < r:
            raise BrokenInvariant(f"interval needs l < r, got ({l}, {r})")
        return tuple.__new__(cls, (l, r))


def block_joins(family: Iterable[BucketInterval]) -> list[BucketInterval]:
    """The joins of the blocks (chains of consecutively crossing members) of
    the maximal members of `family`.  Sorted by l, then r descending, a
    member lies inside an earlier one exactly when its r stays within the
    current join, and crosses that join's last member when its l is below
    the join's r.  Consecutive joins satisfy r <= next l."""
    joins: list[list[int]] = []
    for l, r in sorted(set(family), key=lambda iv: (iv.l, -iv.r)):
        if not joins or l >= joins[-1][1]:
            joins.append([l, r])
        elif r > joins[-1][1]:
            joins[-1][1] = r
    return [BucketInterval(l, r) for l, r in joins]
