"""Golden round traces: the behaviour a refactor or speed-up must reproduce.

For every run of a fixed seeded corpus the fixture stores one digest of the
status, the kept set, the witness, and each round's case and answering oracle
layer, keyed by run id.  The corpus is the acceptance corpora (500 graphs x
k=1..5 x I2PP/I2PHS, 500 tournaments x k=1..4 x TPT/FVST), 20
near-transitive tournaments on 60 vertices at k=20 with the automatic delta,
and 12 cliques+core graphs of the benchmark (3 core paths, 15 cliques of 6)
at k=4 as I2PP and I2PHS.

A change that alters behaviour on purpose records the fixture again, and
says so, with

    PYTHONPATH=src python -m tests.test_golden_traces
"""
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from rainbowkernel.p3 import kernelize_p3
from rainbowkernel.tournament import kernelize_tournament

from .test_acceptance import (DELTA, EPSILON, _graph_corpus, _near_transitive,
                              _tournament_corpus)
from .test_trace_targets import load

FIXTURE = Path(__file__).parent / "data" / "golden_traces.json"


def _digest(report) -> str:
    trace = {
        "status": report.status,
        "kept": report.kept,
        "witness": report.witness,
        "rounds": [[r.case, r.oracle.get("layer")] for r in report.rounds],
    }
    return hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()[:16]


def _runs():
    """(run id, family, report) for every run of the corpus."""
    yield from p3_runs()
    yield from tournament_runs()


def p3_runs():
    """(run id, family, report) for the 2-path runs of the corpus."""
    for gi, g in enumerate(_graph_corpus(500, seed=1)):
        for k in range(1, 6):
            for problem in ("I2PP", "I2PHS"):
                out = kernelize_p3(g, k, epsilon=EPSILON, problem=problem)
                yield f"graph{gi}/k{k}/{problem}", "p3", out.report
    cliques_core = load("inputs").cliques_core
    rng = random.Random(99)
    for i in range(12):
        g = cliques_core(3, 15, 6, rng)
        for problem in ("I2PP", "I2PHS"):
            out = kernelize_p3(g, 4, problem=problem)
            yield f"cliques-core{i}/k4/{problem}", "p3", out.report


def tournament_runs():
    """(run id, family, report) for the tournament runs of the corpus."""
    for ti, t in enumerate(_tournament_corpus(500, seed=2)):
        for k in range(1, 5):
            for problem in ("TPT", "FVST"):
                out = kernelize_tournament(t, k, delta=DELTA, problem=problem)
                yield f"tournament{ti}/k{k}/{problem}", "tournament", out.report
    rng = random.Random(60)
    for i in range(20):
        t = _near_transitive(60, 18, rng)
        for problem in ("TPT", "FVST"):
            out = kernelize_tournament(t, 20, problem=problem)
            yield f"near-transitive{i}/k20/{problem}", "tournament", out.report


def test_golden_traces():
    golden = json.loads(FIXTURE.read_text())
    digests = {}
    cases = {"p3": Counter(), "tournament": Counter()}
    for run_id, family, report in _runs():
        digests[run_id] = _digest(report)
        cases[family].update(r.case for r in report.rounds)
    assert digests.keys() == golden.keys()
    changed = [run_id for run_id in golden if digests[run_id] != golden[run_id]]
    assert not changed, f"{len(changed)} runs changed behaviour: {changed[:10]}"
    # the corpus must exercise every step of the round loop in both families
    for family, counts in cases.items():
        assert all(counts[c] for c in ("case1", "case2", "matching")), (family, counts)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({run_id: _digest(report) for run_id, _, report in _runs()},
                                  indent=0, sort_keys=True) + "\n")
