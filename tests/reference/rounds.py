"""The dense color edges: every pool pair of every color row marked in one
colors x pool x pool cube, in blocks of color rows, before the families'
sparse emitters (`p3.p3_pairs`, `tournament.triangle_pairs`) replaced it.
The families' marks are `p3.p3_marks` and `tournament.triangle_marks` here."""
from __future__ import annotations

from typing import Callable

import numpy as np

from rainbowkernel.rounds import BLOCK_PAIRS, PoolRows


def color_edges(rows: PoolRows, marks: Callable[[np.ndarray, np.ndarray], np.ndarray]
                ) -> list[np.ndarray]:
    """The arrays [r, ids[i], ids[j]] of every pair i < j in column order
    that `marks(block, rows.keys)` marks in row r; `marks` maps a block of
    rows to one pool-by-pool matrix per row."""
    ids, step = rows.ids, max(1, BLOCK_PAIRS // max(1, rows.ids.size ** 2))
    parts = [(np.empty(0, dtype=np.intp),) * 3]
    for lo in range(0, rows.xs.size, step):
        c, i, j = np.nonzero(marks(rows.rows[lo:lo + step], rows.keys))
        keep = i < j
        parts.append((c[keep] + lo, ids[i[keep]], ids[j[keep]]))
    return [np.concatenate(part) for part in zip(*parts)]
