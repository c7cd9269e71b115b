"""The round loop both kernel families share.

A kernelizer first localizes greedily.  When that already finds the
threshold number of disjoint obstructions the instance is decided
(`decide`).  Otherwise rounds run on a partial decomposition (`run_rounds`):
each asks the rainbow-matching-or-cover dichotomy on an auxiliary
multigraph, and either stops on a matching (`RuleStop`) or demotes a cover
and drops the round potential (`RuleNext`).  The families supply the
decomposition and the stages; a decomposition exposes `pool`, `bucketed`,
`colors` and `potential`.  Every question about the nice pair (no vertex
outside the pool forms an obstruction with two pool vertices) is a read of
one row block `m[xs, pool]`: each family's row test (`tpt_rows`,
`p3_rows`) returns a `PoolRows`, which the bucket decomposition, the clean,
add-1 and the validator all consume.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .report import Decided, KernelOutput, KernelReport, RoundRecord


@dataclass(frozen=True)
class PackingFound:
    """Greedy localization reached the requested number of obstructions."""

    packing: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class RuleStop:
    """A rainbow matching ended the run.  `state` is the family's final
    state that lifting consumes; `notes` are the round record's extra
    fields."""

    kept: frozenset[int]
    state: object
    notes: dict


@dataclass(frozen=True)
class RuleNext:
    """A cover was demoted; the run goes on from `decomp`."""

    decomp: object
    case: str  # "case1" | "case2"
    notes: dict


def decide(report: KernelReport, found: PackingFound, packing_problem: bool) -> Decided:
    """Threshold many disjoint obstructions answer the packing problem with
    yes and the hitting problem with no."""
    report.status = "early-yes" if packing_problem else "early-no"
    report.witness = [list(tri) for tri in found.packing]
    return Decided(packing_problem, found.packing, report)


class PoolRows(NamedTuple):
    """A family's row test of the vertices `xs` against a pool `ids` whose
    columns carry `keys`, read off `rows = m[xs, ids]`: per row its bucket
    `label` and whether it is `bad`, i.e. forms an obstruction with two pool
    vertices; `witnesses` holds the first one of each bad row, in row order."""

    xs: np.ndarray
    ids: np.ndarray
    keys: np.ndarray
    rows: np.ndarray
    label: np.ndarray
    bad: np.ndarray
    witnesses: list[tuple[int, int, int]]


def first_true(rows: np.ndarray) -> np.ndarray:
    """Per row, the column of its first True; the column count when none."""
    return rows.shape[1] - np.logical_or.accumulate(rows, axis=1).sum(axis=1)


def run_rounds(report: KernelReport, d, clean: Callable, check: Callable,
               apply_rule: Callable, validate: bool) -> KernelOutput:
    """Clean `d`, then run rounds until a rule stops.  Every round is
    recorded in `report`; the potential must drop each round, the round count
    stays within the initial potential, and the kept set within
    `report.bound`."""
    d = clean(d)
    max_rounds = d.potential
    prev_potential = None
    while True:
        if validate:
            problems = check(d)
            if problems:
                raise AssertionError("invariants broken: " + "; ".join(problems))
        if prev_potential is not None and d.potential >= prev_potential:
            raise AssertionError("round potential did not decrease")
        prev_potential = d.potential
        step = apply_rule(d)
        stop = isinstance(step, RuleStop)
        report.rounds.append(RoundRecord(
            index=len(report.rounds), case="matching" if stop else step.case,
            pool_size=len(d.pool), bucketed_size=len(d.bucketed),
            colors_size=len(d.colors), potential=d.potential, **step.notes))
        if stop:
            kept = tuple(sorted(step.kept))
            report.kept = list(kept)
            report.kernel_size = len(kept)
            if len(kept) > report.bound + 1e-9:
                raise AssertionError(f"kernel size {len(kept)} exceeds bound {report.bound}")
            return KernelOutput(kept, report, step.state)
        if len(report.rounds) > max_rounds:
            raise AssertionError("round count exceeded the initial potential")
        d = clean(step.decomp)
