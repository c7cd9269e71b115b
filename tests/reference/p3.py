"""The scanning `P3Decomp.bucket_of`."""
from __future__ import annotations

from rainbowkernel.p3 import P3Decomp


def bucket_of_scan(d: P3Decomp, v: int) -> int:
    """`P3Decomp.bucket_of` as a scan over every bucket."""
    for i, b in enumerate(d.buckets):
        if v in b:
            return i
    raise KeyError(v)
