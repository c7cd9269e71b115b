"""Per-layer tracing from outside the package.

`Tracer.install` replaces module attributes and class methods with wrappers
that record a span (name, start, end, parent) per call, in memory.  The
kernelizers reach their stages through their own module globals, and the
oracle through its class, so wrapping those names is enough; nothing in
`src/` changes.  Per-triple predicates (`is_induced_p3`, `is_inside`, ...)
run about a million times per op and are not wrapped: work counts computed
from the arguments of the wrapped calls stand in for them.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from rainbowkernel import cli, graphs, p3, rainbow, tournament

ROOT = "op"

#: (owner, attribute, span name); span names are the per-layer metric stems
TARGETS = (
    (cli, "parse_instance", "instances.parse_instance"),
    (cli, "serialize_instance", "instances.serialize_instance"),
    (cli, "kernelize_tournament", "tournament.kernelize_tournament"),
    (cli, "kernelize_p3", "p3.kernelize_p3"),
    (tournament, "greedy_localize_triangles", "tournament.greedy_localize_triangles"),
    (tournament, "build_tpt_aux", "tournament.build_tpt_aux"),
    (tournament, "clean_tpt", "tournament.clean_tpt"),
    (tournament, "check_tpt_decomp", "tournament.check_tpt_decomp"),
    (tournament, "apply_rule_tpt", "tournament.apply_rule_tpt"),
    (tournament, "compute_demand", "demand.compute_demand"),
    (tournament, "verify_outcome", "rainbow.verify_outcome"),
    (tournament, "topological_order", "graphs.topological_order"),
    (p3, "greedy_localize_p3", "p3.greedy_localize_p3"),
    (p3, "build_p3_aux", "p3.build_p3_aux"),
    (p3, "clean_p3", "p3.clean_p3"),
    (p3, "check_p3_decomp", "p3.check_p3_decomp"),
    (p3, "apply_rule_p3", "p3.apply_rule_p3"),
    (p3, "verify_outcome", "rainbow.verify_outcome"),
    (rainbow.RainbowOracle, "solve", "rainbow.solve"),
    (graphs.Tournament, "induced", "graphs.induced"),
    (graphs.UndirectedGraph, "induced", "graphs.induced"),
    (graphs.UndirectedGraph, "matrix", "graphs.UndirectedGraph.matrix"),
)

#: work counts, summed over the calls the wrappers see
COUNTS = ("rainbow.layer.empty", "rainbow.layer.dense-cover", "rainbow.layer.greedy",
          "rainbow.layer.blocked-cover", "rainbow.layer.exact-matching",
          "rainbow.layer.exact-cover", "rainbow.colors", "rainbow.edges",
          "rainbow.layer1_missing", "demand.intervals", "p3.aux_pairs",
          "tournament.rounds", "tournament.case1", "tournament.case2", "p3.rounds")


def _count_demand(counts: Counter, args, result) -> None:
    b = len(args[0].s_psi)
    counts["demand.intervals"] += b * (b - 1) // 2


def _count_solve(counts: Counter, args, result) -> None:
    _, stats = result
    counts["rainbow.layer." + stats.layer] += 1
    counts["rainbow.colors"] += stats.p
    counts["rainbow.edges"] += stats.n_edges
    counts["rainbow.layer1_missing"] += stats.layer1_missing


def _count_p3_aux(counts: Counter, args, result) -> None:
    d = args[0]
    pool = len(d.pool)
    counts["p3.aux_pairs"] += len(d.colors) * pool * (pool - 1) // 2


def _count_tpt_rounds(counts: Counter, args, result) -> None:
    cases = [r.case for r in result.report.rounds]
    counts["tournament.rounds"] += len(cases)
    counts["tournament.case1"] += cases.count("case1")
    counts["tournament.case2"] += cases.count("case2")


def _count_p3_rounds(counts: Counter, args, result) -> None:
    counts["p3.rounds"] += len(result.report.rounds)


COUNTERS = {
    "demand.compute_demand": _count_demand,
    "rainbow.solve": _count_solve,
    "p3.build_p3_aux": _count_p3_aux,
    "tournament.kernelize_tournament": _count_tpt_rounds,
    "p3.kernelize_p3": _count_p3_rounds,
}


class Tracer:
    """Spans and work counts of the ops run while installed."""

    def __init__(self):
        #: (name, start, end, parent index or -1); a span's slot is reserved
        #: when it opens, so parents precede their children
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def root(self, fn):
        """`fn` wrapped as the root span of one op."""
        return self._wrap(ROOT, fn)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> int:
        """A position in the span list, to split the spans by op or pass."""
        return len(self.spans)

    def self_times(self, lo: int, hi: int) -> Counter:
        """Seconds of self time per span name over spans[lo:hi]: each span's
        duration minus the part its children cover.  The root's self time is
        the op time no other span covers."""
        spans = self.spans[lo:hi]
        out: Counter = Counter()
        for name, start, end, parent in spans:
            out[name] += end - start
            if parent >= lo:
                out[self.spans[parent][0]] -= end - start
        return out

    def calls(self, lo: int, hi: int) -> Counter:
        return Counter(span[0] for span in self.spans[lo:hi])

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
