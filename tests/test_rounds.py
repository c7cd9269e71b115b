"""Guards of the shared round driver, on stub stages over a fake
decomposition that only carries a potential."""
from dataclasses import dataclass

import numpy as np
import pytest

from rainbowkernel.report import KernelOutput, KernelReport
from rainbowkernel.rounds import RuleNext, RuleStop, run_rounds


@dataclass(frozen=True)
class FakeState:
    kept: frozenset[int]


@dataclass(frozen=True)
class FakeDecomp:
    potential: int
    ids = members = color_ids = np.empty(0, dtype=np.intp)  # no pool, bucketed or colors


def countdown(d):
    """Drop the potential by one per round; a matching stops at zero."""
    if d.potential == 0:
        return RuleStop(FakeState(frozenset({0, 1})), {"oracle": {"layer": "greedy"}})
    return RuleNext(FakeDecomp(d.potential - 1), "case1", {})


def run(apply_rule, *, check=lambda d: [], potential=3, bound=10.0):
    report = KernelReport(problem="TPT", n=5, k=1, params={}, status="kernel",
                          bound=bound)
    return run_rounds(report, localize=lambda threshold: "loc",
                      start=lambda loc: FakeDecomp(potential), clean=lambda d: d, check=check,
                      apply_rule=apply_rule)


def test_rounds_until_a_stop():
    out = run(countdown)
    assert isinstance(out, KernelOutput)
    assert out.kept == (0, 1) and out.state == FakeState(frozenset({0, 1}))
    assert out.report.kept == [0, 1] and out.report.kernel_size == 2
    assert [r.case for r in out.report.rounds] == ["case1"] * 3 + ["matching"]
    assert [r.potential for r in out.report.rounds] == [3, 2, 1, 0]
    assert out.report.rounds[-1].oracle == {"layer": "greedy"}


def test_validator_problems_raise():
    with pytest.raises(AssertionError, match="invariants broken: bucket 1 is empty"):
        run(countdown, check=lambda d: ["bucket 1 is empty"])


def test_validator_runs_every_round():
    # round 1 (potential 3) passes; the check fails from round 2 on and must still raise
    with pytest.raises(AssertionError, match="invariants broken: late fault"):
        run(countdown, check=lambda d: ["late fault"] if d.potential < 3 else [])


def test_potential_must_drop():
    with pytest.raises(AssertionError, match="potential did not decrease"):
        run(lambda d: RuleNext(FakeDecomp(d.potential), "case2", {}))


def test_rounds_capped_by_initial_potential():
    with pytest.raises(AssertionError, match="round count exceeded"):
        run(lambda d: RuleNext(FakeDecomp(d.potential - 1), "case1", {}), potential=1)


def test_kept_set_within_bound():
    with pytest.raises(AssertionError, match="kernel size 2 exceeds bound 1.5"):
        run(countdown, bound=1.5)
