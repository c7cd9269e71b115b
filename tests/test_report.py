"""The run report's JSON form."""
import dataclasses
import json
import random

from rainbowkernel.p3 import kernelize_p3
from rainbowkernel.rainbow import LAYER1_BUDGET, RainbowOracle
from rainbowkernel.tournament import kernelize_tournament

from .test_acceptance import _near_transitive
from .test_trace_targets import load


def _reports():
    """Seeded runs of all four problems, kernels and early decisions both."""
    rng = random.Random(5)
    for k in (2, 6, 20):
        for problem in ("TPT", "FVST"):
            yield kernelize_tournament(_near_transitive(60, 18, rng), k, problem=problem).report
    cliques_core = load("inputs").cliques_core
    for k in (1, 4, 8):
        for problem in ("I2PP", "I2PHS"):
            yield kernelize_p3(cliques_core(3, 15, 6, rng), k, problem=problem).report


def test_to_json_matches_the_deep_copy_form():
    reports = list(_reports())
    assert {r.problem for r in reports} == {"TPT", "FVST", "I2PP", "I2PHS"}
    assert {r.status for r in reports} >= {"kernel", "early-yes", "early-no"}
    assert any(r.rounds for r in reports)
    for report in reports:
        text = report.to_json()
        assert json.loads(text) == dataclasses.asdict(report)
        assert text == json.dumps(dataclasses.asdict(report), sort_keys=True)


def test_oracle_record_shows_layer1_budget_use(monkeypatch):
    seen = []
    solve = RainbowOracle.solve

    def recording(self, cm, epsilon):
        outcome, stats = solve(self, cm, epsilon)
        seen.append(stats)
        return outcome, stats

    monkeypatch.setattr(RainbowOracle, "solve", recording)
    records = [r.oracle for report in _reports() for r in report.rounds]
    assert records == [{"layer": s.layer, "p": s.p, "edges": s.n_edges,
                        "layer1_missing": s.layer1_missing, "layer1_visits": s.layer1_visits}
                       for s in seen]
    assert all(0 <= s.layer1_visits <= LAYER1_BUDGET for s in seen)
    assert any(s.layer1_missing for s in seen) and any(s.layer1_visits for s in seen)
