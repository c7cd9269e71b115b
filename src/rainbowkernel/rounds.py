"""The round loop both kernel families share.

A kernelizer first localizes greedily.  When that already finds the
threshold number of disjoint obstructions the instance is decided
(`decide`).  Otherwise rounds run on a partial decomposition (`run_rounds`):
each asks the rainbow-matching-or-cover dichotomy on an auxiliary
multigraph, and either stops on a matching (`RuleStop`) or demotes a cover
and drops the round potential (`RuleNext`).  The families supply the
decomposition and the stages; a decomposition exposes `pool`, `bucketed`,
`colors` and `potential`.  Both families ask one question of a vertex x
outside the pool: which pool pairs form an obstruction with x?  Each answers
it with one `pairs` function (`triangle_pairs`, `p3_pairs`), which the
validators scan through `pattern_with_two_pool`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

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


def pattern_with_two_pool(pairs: Callable[[int], np.ndarray], ids: list[int],
                          outside: Iterable[int]) -> tuple[int, int, int] | None:
    """The first obstruction {x, ids[i], ids[j]} with x in `outside`, taking x
    in increasing order, as a sorted triple; None when there is none."""
    for x in sorted(outside):
        found = pairs(x)
        if found.any():
            i, j = np.argwhere(found)[0]
            return tuple(sorted((x, ids[i], ids[j])))
    return None


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
