"""The kernel skeleton both families share.

A kernelizer first localizes greedily at the problem's threshold.  When that
already finds the threshold number of disjoint obstructions the instance is
decided.  Otherwise rounds run on a partial decomposition (`run_rounds`):
each asks the rainbow-matching-or-cover dichotomy on an auxiliary
multigraph (`build_aux`), and either stops on a matching (`RuleStop`) or
demotes a cover and drops the round potential (`RuleNext`).  The families
supply the localization, the stages and the bucket names.  A decomposition
(`Decomp`) is one label per vertex id, POOL, COLOR or the vertex's bucket,
plus the pool as `ids` in the family's order keyed by `keys`, plus the
obstruction edges of its colors, read once (`Decomp.start`); `advance`
carries it from round to round through the family's `relabel`.  Any other
question about obstructions with two pool vertices is a read of row blocks
`m[xs, ids]` under the one nice-pair law, `row_test` for `clean`, add-1 and
case 1, `check_nice_pair` for the validators: a bucketed vertex sees the
pool in the pattern `relation(keys, label)` that its bucket label names."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import BrokenInvariant, NotNicePair, OracleContractViolation
from .graphs import ColoredEdge, ColoredMultigraph, take_block
from .instances import PACKING_PROBLEMS
from .rainbow import RainbowMatching
from .report import Decided, KernelOutput, KernelReport, RoundRecord

#: cells a sparse emitter tests at once: (color row, 1) pairs of a chunk times the pool
BLOCK_PAIRS = 1 << 22

#: the labels of a decomposition that name no bucket; every bucket label is larger
POOL, COLOR = -3, -2


@dataclass(frozen=True)
class PackingFound:
    """Greedy localization reached the requested number of obstructions."""

    packing: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class RuleStop:
    """A rainbow matching ended the run.  `state` is the family's
    `KernelState`, which names the kept set and which lifting consumes;
    `notes` are the round record's extra fields."""

    state: KernelState
    notes: dict


@dataclass(frozen=True)
class RuleNext:
    """A cover was demoted; the run goes on from `decomp`."""

    decomp: object
    case: str  # "case1" | "case2"
    notes: dict


@dataclass(frozen=True, eq=False)
class Decomp:
    """A partition of the vertex ids shared by both families: `label[v]` is
    POOL, COLOR or the bucket of v (any label above COLOR), and the pool is
    `ids` in the family's order, keyed by `keys`.  A family names its
    buckets and supplies `relabel(kept, labels)`: where the bucket `labels`
    go once the pool keeps the vertices keyed `kept`.  The frozenset views
    are built from the arrays on first use."""

    label: np.ndarray
    ids: np.ndarray
    keys: np.ndarray
    edges: np.ndarray  # the colors' obstructions with two pool vertices (`start`)

    @classmethod
    def start(cls, matrix: np.ndarray, emit: Callable, label, ids, keys, *fields):
        """A decomposition whose edges are the `color_edges` of its colors'
        block, as sorted columns (color id, lower pool id, higher pool id)."""
        rows = read_block(matrix, ids, keys, np.flatnonzero(label == COLOR))
        r, us, vs = color_edges(rows, emit)
        c, lo, hi = edges = np.stack((rows.xs[r], np.minimum(us, vs), np.maximum(us, vs)))
        n = matrix.shape[0]  # one key per edge, c n^2 + lo n + hi: inside int64 for n < 2*10^6
        return cls(label, ids, keys, edges[:, np.argsort((c * n + lo) * n + hi)], *fields)

    def __post_init__(self):
        # the one law the label array does not hold by itself
        if np.count_nonzero(self.label == POOL) != self.ids.size or \
                (self.label[self.ids] != POOL).any():
            raise BrokenInvariant("the pool ids must be the vertices labelled POOL")

    @cached_property
    def color_ids(self) -> np.ndarray:
        return np.flatnonzero(self.label == COLOR)

    @cached_property
    def members(self) -> np.ndarray:
        """The bucketed vertices by bucket label, then by id: POOL and COLOR
        sort first."""
        return self.label.argsort(kind="stable")[np.count_nonzero(self.label <= COLOR):]

    @cached_property
    def pool(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    @cached_property
    def colors(self) -> frozenset[int]:
        return frozenset(self.color_ids.tolist())

    @cached_property
    def bucketed(self) -> frozenset[int]:
        return frozenset(self.members.tolist())

    def advance(self, keep: np.ndarray, xs: np.ndarray, labels: np.ndarray, **changes):
        """The decomposition once the pool keeps the `ids` that `keep` marks
        and the colors `xs` join the buckets at their `labels`, read by the
        row test against the kept pool; `changes` sets the family's other
        fields.  A pool vertex that leaves becomes the bucket of its own
        key, and then every bucket label passes through `relabel`.  An edge
        stays while its color and ends do: no round adds a color or pool vertex."""
        label = self.label.copy()
        label[self.ids[~keep]] = self.keys[~keep]
        bucketed = label > COLOR
        label[bucketed] = self.relabel(self.keys[keep], label[bucketed])
        label[xs] = labels
        c, u, v = self.edges
        stay = (label[c] == COLOR) & (label[u] == POOL) & (label[v] == POOL)
        return dataclasses.replace(self, label=label, ids=self.ids[keep], keys=self.keys[keep],
                                   edges=self.edges[:, stay], **changes)


class PoolRows(NamedTuple):
    """The row test (`row_test`) of the vertices `xs` against a pool `ids` whose
    columns carry `keys`, read off `rows = m[xs, ids]`: per row its bucket
    `label` and whether it is `bad`, i.e. forms an obstruction with two pool
    vertices; `witnesses` holds the first one of each bad row, in row order.
    A bare block read (`read_block`) leaves the last three None."""

    xs: np.ndarray
    ids: np.ndarray
    keys: np.ndarray
    rows: np.ndarray
    label: np.ndarray | None = None
    bad: np.ndarray | None = None
    witnesses: list[tuple[int, int, int]] | None = None


def demote(d, keep: np.ndarray, rows: PoolRows):
    """Case 1: the decomposition `d` once the pool keeps the `ids` that `keep`
    marks and the retired colors `rows.xs`, read by the row test against the
    kept pool, join the buckets.  A retired color that still forms an
    obstruction with two kept pool vertices raises NotNicePair."""
    if rows.witnesses:
        raise NotNicePair(rows.witnesses[0])
    return d.advance(keep, rows.xs, rows.label)


def read_block(matrix: np.ndarray, ids: np.ndarray, keys: np.ndarray, xs) -> PoolRows:
    """The block `matrix[xs, ids]` against a pool in its decomposition's order `ids` (or a
    `keep` subset), columns keyed by `keys`."""
    xs = np.array(xs, dtype=np.intp)
    return PoolRows(xs, ids, keys, take_block(matrix, xs, ids))


def clean(d, rows_of: Callable):
    """The decomposition `d` once the colors with no edge join the buckets at
    the labels of the family's row test `rows_of(xs)`."""
    stale = d.color_ids[np.bincount(d.edges[0], minlength=d.label.size)[d.color_ids] == 0]
    return d.advance(np.ones(d.ids.size, dtype=bool), stale, rows_of(stale).label) if stale.size else d


def first_true(rows: np.ndarray) -> np.ndarray:
    """Per row, the column of its first True; the column count when none."""
    return rows.shape[1] - np.logical_or.accumulate(rows, axis=1).sum(axis=1)


def row_test(matrix: np.ndarray, ids: np.ndarray, keys: np.ndarray, xs, relation: Callable,
             none: int) -> PoolRows:
    """The nice-pair row test of the vertices `xs` against the pool `ids`
    keyed by `keys`.  Row x is labelled with the key of the first pool vertex
    u it sees (`none` when it sees none) and is bad exactly when it differs
    from `relation(keys, label)`: then it forms an obstruction with two pool
    vertices, u - x - w for the first w it sees outside its pattern, else
    x - u - w for the first w of its pattern it misses."""
    xs, ids, keys, rows, *_ = block = read_block(matrix, ids, keys, xs)
    first = first_true(rows)
    label = np.append(keys, none)[first]
    off = rows != relation(keys, label[:, None])
    bad = off.any(axis=1)
    witnesses = []
    if bad.any():
        r = np.flatnonzero(bad)
        extra = first_true(off[r] & rows[r])
        crosses = extra < ids.size
        u, x, w = ids[first[r]], xs[r], ids[np.where(crosses, extra, first_true(off[r]))]
        witnesses = [(u, x, w) if cross else (x, u, w) for u, x, w, cross in
                     zip(u.tolist(), x.tolist(), w.tolist(), crosses.tolist())]
    return block._replace(label=label, bad=bad, witnesses=witnesses)


def check_nice_pair(d, matrix: np.ndarray, relation: Callable, none: int) -> list[str]:
    """The nice-pair law over `d`, read afresh from `matrix` in row blocks of
    at most BLOCK_PAIRS cells (empty list = it holds): every bucket label is
    a pool key or `none`, every bucketed row is `relation(keys, label)`, and
    every pool row is `relation(keys, own key)` but at its own cell, which
    the 0 diagonal leaves off.  Only rows that break it are row-tested."""
    xs, ids, keys = d.members, d.ids, d.keys
    both, cuts = np.concatenate((xs, ids)), np.concatenate((d.label[xs], keys))
    step = max(1, BLOCK_PAIRS // max(1, ids.size))
    flagged = []
    for lo in range(0, both.size, step):
        off = take_block(matrix, both[lo:lo + step], ids)
        off ^= relation(keys, cuts[lo:lo + step, None])
        # each pool row is off at its own cell, so a sound block costs one count
        head = min(max(xs.size - lo, 0), len(off))
        if np.count_nonzero(off) > len(off) - head:
            count = np.count_nonzero(off, axis=1)
            count[head:] -= 1
            flagged.append(lo + np.flatnonzero(count))
    labels = [f"bucket {i} is not a pool key"
              for i in sorted(set(cuts[:xs.size].tolist()) - set(keys.tolist()) - {none})]
    if not flagged:
        return labels
    flagged = np.concatenate(flagged)
    rows = flagged[flagged < xs.size]
    block = row_test(matrix, ids, keys, xs[rows], relation, none)
    wrong = block.rows != relation(keys, cuts[rows, None])
    return ["pool rows disagree with their keys"] * (rows.size < flagged.size) + \
        [f"obstruction {w} has two pool vertices" for w in block.witnesses[:1]] + labels + \
        [f"bucket {i} vertex {v} sees the wrong pool vertices {ids[cells].tolist()}"
         for i, v, cells in zip(cuts[rows].tolist(), block.xs.tolist(), wrong)]


@dataclass(frozen=True)
class Aux:
    """An auxiliary multigraph on the pool plus the meaning of each color:
    ("color", c) for an untreated core vertex c, then the family's loop
    colors ("bucket", u) or ("slot", (l, r), j)."""

    cm: ColoredMultigraph
    meanings: tuple[tuple, ...]

    def split(self, colors) -> tuple[frozenset[int], list[tuple]]:
        """The core vertices behind the ("color", c) colors among `colors`,
        and the meanings of the others."""
        picked = [self.meanings[c] for c in colors]
        return (frozenset(m[1] for m in picked if m[0] == "color"),
                [m for m in picked if m[0] != "color"])

    def matched(self, matching: RainbowMatching) -> dict[tuple, ColoredEdge]:
        """The edge `matching` picks for each meaning, in color order."""
        by_color = matching.by_color()
        return {m: by_color[c] for c, m in enumerate(self.meanings)}

    def ask(self, oracle, epsilon: float, verify: Callable, **notes) -> tuple[object, dict]:
        """The oracle's outcome on `cm`, re-checked by `verify`, and the
        round record's notes: the answering layer, the multigraph's size and
        layer 1's missed colors and budget visits, plus `notes`."""
        outcome, stats = oracle.solve(self.cm, epsilon)
        ok, problems = verify(self.cm, outcome)
        if not ok:
            raise OracleContractViolation("; ".join(problems))
        return outcome, {"oracle": {"layer": stats.layer, "p": stats.p, "edges": stats.n_edges,
                                    "layer1_missing": stats.layer1_missing,
                                    "layer1_visits": stats.layer1_visits},
                         **notes}


@dataclass
class KernelState:
    """What a finished run hands lifting and repacking: the final
    decomposition, the rainbow matching that stopped the run, its multigraph."""

    final: Decomp
    matching: RainbowMatching
    aux: Aux

    @cached_property
    def kept(self) -> frozenset[int]:
        """The kernel: the matched vertices, the bucketed vertices and the colors."""
        return frozenset(self.matching.vertices()) | self.final.bucketed | self.final.colors


def color_edges(rows: PoolRows, emit: Callable) -> list[np.ndarray]:
    """The arrays [r, ids[i], ids[j]] of every pool pair {i, j} forming an
    obstruction with the color of row r, each pair once.  The family's sparse
    `emit(rows, r, i)` reads them off a chunk of at most BLOCK_PAIRS // |pool|
    of the block's 1s (r, i) as (p, j): the chunk index p of a 1, the end j."""
    r, i = np.nonzero(rows.rows)
    ids, step = rows.ids, max(1, BLOCK_PAIRS // max(1, rows.ids.size))
    parts = [(r[:0], ids[:0], ids[:0])]
    for lo in range(0, r.size, step):
        p, j = emit(rows, r[lo:lo + step], i[lo:lo + step])
        parts.append((r[lo + p], ids[i[lo + p]], ids[j]))
    return [np.concatenate(part) for part in zip(*parts)]


def build_aux(d, loops: list[tuple[tuple, list[int] | np.ndarray]]) -> Aux:
    """The auxiliary multigraph on the pool `d.ids`: color i is the core
    vertex d.color_ids[i] and carries its edges, then each (meaning,
    vertices) of `loops` adds a color with a loop on each of its vertices."""
    c, us, vs = d.edges
    meanings = [("color", x) for x in d.color_ids.tolist()] + [m for m, _ in loops]
    looped = np.concatenate([us[:0], *(vertices for _, vertices in loops)])
    colors = np.concatenate((d.color_ids.searchsorted(c), np.repeat(
        np.arange(d.color_ids.size, len(meanings)), [len(vertices) for _, vertices in loops])))
    try:
        cm = ColoredMultigraph(d.ids, np.concatenate((us, looped)),
                               np.concatenate((vs, looped)), colors, len(meanings))
    except ValueError as exc:  # the caller's decomposition broke, not the input
        raise BrokenInvariant(f"auxiliary multigraph: {exc}") from exc
    return Aux(cm, tuple(meanings))


def finite(name: str, compute: Callable[[], float]) -> float:
    """`compute()`, or a ValueError when it leaves the float range: a power
    past it, a k too long to convert, an inf or a NaN."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise ValueError(f"{name} overflows a float at these parameters")
    return value


def run_rounds(report: KernelReport, localize: Callable, start: Callable, clean: Callable,
               check: Callable, apply_rule: Callable) -> Decided | KernelOutput:
    """Localize greedily at the problem's threshold: k disjoint obstructions
    answer a packing problem with yes, k + 1 rule out a hitting set of size
    k.  Otherwise clean the initial decomposition `start(loc)`, whose colors
    are the localization core and whose pool is the rest, and run rounds
    until a rule stops.  Every round is recorded in `report` and validated by
    `check`; the potential must drop each round, the round count stays within
    the initial potential, and the kept set within `report.bound`."""
    packing = report.problem in PACKING_PROBLEMS
    loc = localize(report.k if packing else report.k + 1)
    if isinstance(loc, PackingFound):
        report.status = "early-yes" if packing else "early-no"
        report.witness = [list(tri) for tri in loc.packing]
        return Decided(packing, loc.packing, report)
    d = start(loc)
    report.core_size, report.rest_size = d.color_ids.size, d.ids.size
    d = clean(d)
    max_rounds = d.potential
    prev_potential = None
    while True:
        problems = check(d)
        if problems:
            raise BrokenInvariant("invariants broken: " + "; ".join(problems))
        if prev_potential is not None and d.potential >= prev_potential:
            raise BrokenInvariant("round potential did not decrease")
        prev_potential = d.potential
        step = apply_rule(d)
        stop = isinstance(step, RuleStop)
        report.rounds.append(RoundRecord(
            index=len(report.rounds), case="matching" if stop else step.case,
            pool_size=d.ids.size, bucketed_size=d.members.size,
            colors_size=d.color_ids.size, potential=d.potential, **step.notes))
        if stop:
            kept = tuple(sorted(step.state.kept))
            report.kept = list(kept)
            report.kernel_size = len(kept)
            if len(kept) > report.bound + 1e-9:
                raise BrokenInvariant(f"kernel size {len(kept)} exceeds bound {report.bound}")
            return KernelOutput(kept, report, step.state)
        if len(report.rounds) > max_rounds:
            raise BrokenInvariant("round count exceeded the initial potential")
        d = clean(step.decomp)
