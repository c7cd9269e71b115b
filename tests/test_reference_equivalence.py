"""Differential tests: the numpy and precomputed forms return exactly what
the slow reference forms in `tests/reference/` return.

Covered: greedy triangle and induced-2-path localization (packing, order or
cliques, early stop; the triangle scan also against itself without the
filter that skips vertices no later vertex beats), the demand (order and values), the tournament and
graph text formats (bytes written, and the parsed payload or the ParseError
line and message), layer 1 of the rainbow oracle (assignment and missing
colors, also when its visit budget runs out), and the oracle outcome check
(verdict and problem list on corrupted outcomes).

The 2-path localizations of the named scale graphs compare against the
reference's output recorded in `data/p3_scale_localizations.json`, since
the O(n^3) reference takes about a minute on them.  The recording runs only
the reference:

    PYTHONPATH=src python -m tests.test_reference_equivalence
"""
import importlib.util
import json
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowkernel import instances, p3, rainbow
from rainbowkernel.demand import BucketProfile, compute_demand
from rainbowkernel.errors import ParseError
from rainbowkernel.graphs import (ColoredEdge, Tournament, UndirectedGraph, clique_fit, colored_edge,
                                  make_colored_multigraph)
from rainbowkernel.p3 import greedy_localize_p3
from rainbowkernel.rainbow import (ColorCover, RainbowMatching, RainbowOracle,
                                   rainbow_or_cover, verify_outcome)
from rainbowkernel.rounds import PackingFound
from rainbowkernel.tournament import greedy_localize_triangles

from .reference import demand as ref_demand
from .reference import p3 as ref_p3
from .reference import rainbow as ref_rainbow
from .reference import text as ref_text
from .reference import tournament as ref_tournament
from .strategies import colored_multigraphs, graphs, tournaments, twin_color_multigraphs
from .test_acceptance import _near_transitive

# the benchmark's generators build the named scale graphs
_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)


def _uniform(n: int, seed: int) -> Tournament:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    return Tournament(upper | np.tril(~upper.T, -1))


def _tournament(kind: str, n: int, seed: int) -> Tournament:
    if kind == "uniform":
        return _uniform(n, seed)
    if kind == "planted":
        planted = min(n // 3, 1 + seed % 20)
        return instances.generate_instance(instances.GeneratorConfig(
            "TPT", "planted", k=planted, filler=n - 3 * planted), seed).payload
    rng = random.Random(seed)
    return _near_transitive(n, rng.randint(0, n // 3) if n >= 2 else 0, rng)


# -- greedy triangle localization ----------------------------------------------


@given(kind=st.sampled_from(["near-transitive", "uniform"]),
       n=st.integers(min_value=0, max_value=600),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       threshold=st.sampled_from([0, 1, 2, 5, math.inf]))
@settings(max_examples=40)
@example(kind="near-transitive", n=600, seed=7, threshold=math.inf)
@example(kind="uniform", n=600, seed=7, threshold=math.inf)
@example(kind="uniform", n=600, seed=8, threshold=5)
def test_localization_matches_reference(kind, n, seed, threshold):
    t = _tournament(kind, n, seed)
    assert greedy_localize_triangles(t, threshold) == \
        ref_tournament.greedy_localize_triangles(t, threshold)


@given(tournaments(max_n=12), st.sampled_from([0, 1, 2, math.inf]))
@settings(max_examples=300)
def test_localization_matches_reference_small(t, threshold):
    assert greedy_localize_triangles(t, threshold) == \
        ref_tournament.greedy_localize_triangles(t, threshold)


@given(kind=st.sampled_from(["near-transitive", "uniform", "planted"]),
       n=st.integers(min_value=0, max_value=300),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       threshold=st.sampled_from([0, 1, 2, 5, math.inf]))
@settings(max_examples=60)
@example(kind="near-transitive", n=300, seed=7, threshold=math.inf)
@example(kind="uniform", n=300, seed=7, threshold=math.inf)
@example(kind="planted", n=300, seed=7, threshold=math.inf)
def test_later_beater_filter_keeps_the_packing(kind, n, seed, threshold):
    t = _tournament(kind, n, seed)
    assert greedy_localize_triangles(t, threshold) == \
        ref_tournament.greedy_localize_triangles_unfiltered(t, threshold)


@given(tournaments(max_n=12), st.sampled_from([0, 1, 2, math.inf]))
@settings(max_examples=300)
def test_later_beater_filter_keeps_the_packing_small(t, threshold):
    assert greedy_localize_triangles(t, threshold) == \
        ref_tournament.greedy_localize_triangles_unfiltered(t, threshold)


# -- greedy induced-2-path localization ---------------------------------------------


def _gnp(n: int, p: float, seed: int) -> UndirectedGraph:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return UndirectedGraph(n, np.argwhere(upper))


def _slow_form(g: UndirectedGraph) -> ref_text.UndirectedGraph:
    """The same graph with frozenset adjacency, which the reference scan reads
    at its original speed."""
    return ref_text.UndirectedGraph(g.n, g.edges())


@given(n=st.integers(min_value=0, max_value=40),
       p=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       threshold=st.one_of(st.integers(min_value=0, max_value=15), st.just(math.inf)))
@settings(max_examples=150)
def test_p3_localization_matches_reference(n, p, seed, threshold):
    g = _gnp(n, p, seed)
    assert greedy_localize_p3(g, threshold) == \
        ref_p3.greedy_localize_p3(_slow_form(g), threshold)


@given(graphs(max_n=12), st.sampled_from([0, 1, 2, 3, math.inf]))
@settings(max_examples=300)
def test_p3_localization_matches_reference_small(g, threshold):
    assert greedy_localize_p3(g, threshold) == ref_p3.greedy_localize_p3(g, threshold)


@st.composite
def relabelled_cliques_core(draw):
    """A cliques+core graph of the benchmark's generator with its ids
    permuted, so that the scan meets the cliques and the paths in any order
    and the first pass-over can come before the last claim."""
    paths, cliques = draw(st.integers(0, 4)), draw(st.integers(2, 8))
    g = bench_inputs.cliques_core(paths, cliques, draw(st.integers(1, 5)),
                                  random.Random(draw(st.integers(0, 2**32 - 1))))
    perm = draw(st.permutations(range(g.n)))
    return UndirectedGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(relabelled_cliques_core(), st.sampled_from([1, 2, 3, math.inf]))
@settings(max_examples=200)
def test_p3_localization_matches_reference_on_cliques_core(g, threshold):
    assert greedy_localize_p3(g, threshold) == ref_p3.greedy_localize_p3(g, threshold)


def test_p3_localization_fit_fails_before_the_last_claim():
    """Clique {0, 1}, then the 2-path 2-3-4, then clique {5, 6}: the first
    pass-over, at 0, comes before the claim of (2, 3, 4), so the one clique
    fit fails and passes over the two clique components only."""
    g = UndirectedGraph(7, [(0, 1), (2, 3), (3, 4), (5, 6)])
    fits = []

    def spy(m, ids):
        name, fit = clique_fit(m, ids)
        fits.append((ids.tolist(), fit.tolist()))
        return name, fit

    with mock.patch.object(p3, "clique_fit", spy):
        out = greedy_localize_p3(g, math.inf)
    # 2 sees exactly its class {2, 3}, but 3 sees 4 as well
    assert fits == [(list(range(7)), [True, True, True, False, False, True, True])]
    assert out == ref_p3.greedy_localize_p3(g, math.inf)
    assert out.packing == ((2, 3, 4),) and out.cliques == ((0, 1), (5, 6))


SCALE_GRAPHS = {
    "cliques+core n=321": (lambda: bench_inputs.cliques_core(7, 50, 6, random.Random(1)), 8),
    "cliques+core n=621": (lambda: bench_inputs.cliques_core(7, 100, 6, random.Random(2)), 8),
    "edgeless n=400": (lambda: UndirectedGraph(400), 1),
    "gnp n=300": (lambda: bench_inputs.gnp_graph(300, 0.3, random.Random(3)), 90),
}


SCALE_FIXTURE = Path(__file__).parent / "data" / "p3_scale_localizations.json"


def _scale_record(g: UndirectedGraph, threshold: int, out) -> dict:
    """The instance's size and threshold, and the localization as lists."""
    found = isinstance(out, PackingFound)
    return {"n": g.n, "threshold": threshold, "packing": [list(p) for p in out.packing],
            "core": None if found else sorted(out.core),
            "cliques": None if found else [list(c) for c in out.cliques]}


@pytest.mark.parametrize("name", SCALE_GRAPHS)
def test_p3_localization_matches_reference_at_scale(name):
    make, threshold = SCALE_GRAPHS[name]
    g = make()
    assert _scale_record(g, threshold, greedy_localize_p3(g, threshold)) == \
        json.loads(SCALE_FIXTURE.read_text())[name]


# -- demand ----------------------------------------------------------------------


@st.composite
def large_profiles(draw, max_buckets=40):
    count = draw(st.integers(min_value=0, max_value=max_buckets))
    indices = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=200),
                                        min_size=count, max_size=count))))
    seeds = {i: draw(st.integers(min_value=1, max_value=6)) for i in indices}
    bulk = {i: draw(st.integers(min_value=0, max_value=12)) for i in indices}
    return BucketProfile(indices, seeds, bulk)


@given(large_profiles(), st.booleans())
@settings(max_examples=40)
def test_demand_matches_level_scan(profile, reverse):
    fast = compute_demand(profile)
    slow = ref_demand.level_scan_demand(profile, reverse_within_level=reverse)
    assert list(fast.values.items()) == [(i, v) for i, v in slow.items() if v]
    assert fast.accepted == len(slow)


def test_demand_matches_level_scan_at_forty_buckets():
    rng = random.Random(40)
    for _ in range(10):
        indices = tuple(sorted(rng.sample(range(1, 400), 40)))
        seeds = {i: rng.randint(1, 6) for i in indices}
        bulk = {i: rng.randint(0, 12) for i in indices}
        profile = BucketProfile(indices, seeds, bulk)
        fast = compute_demand(profile)
        for reverse in (False, True):
            slow = ref_demand.level_scan_demand(profile, reverse_within_level=reverse)
            assert list(fast.values.items()) == [(i, v) for i, v in slow.items() if v]
            assert fast.accepted == len(slow)


# -- tournament text format --------------------------------------------------------


def _outcome(parse, lines):
    try:
        t, pos = parse(lines, 1)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", t, pos


@given(tournaments(max_n=12))
@settings(max_examples=60)
def test_serialization_matches_reference(t):
    text = instances.serialize_tournament(t)
    assert text.encode() == ref_text.serialize_tournament(t).encode()
    lines = ["problem FVST k 1"] + text.splitlines()
    assert _outcome(instances._parse_tournament_lines, lines) == \
        _outcome(ref_text._parse_tournament_lines, lines)


MUTATIONS = ("short row", "long row", "diagonal", "stray ascii", "non-ascii",
             "both arcs", "neither arc")


@given(tournaments(max_n=12, min_n=2), st.data())
@settings(max_examples=150)
def test_parse_errors_match_reference(t, data):
    n = t.n
    grid = [list(row) for row in instances.serialize_tournament(t).splitlines()[1:]]
    lengths = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        kind = data.draw(st.sampled_from(MUTATIONS))
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = (u + 1 + data.draw(st.integers(min_value=0, max_value=n - 2))) % n
        if kind == "short row":
            lengths[u] = data.draw(st.integers(min_value=0, max_value=n - 1))
        elif kind == "long row":
            lengths[u] = n + 1
        elif kind == "diagonal":
            grid[u][u] = data.draw(st.sampled_from(["0", "1", "x", "é"]))
        elif kind == "stray ascii":
            grid[u][v] = data.draw(st.sampled_from(["2", "x", " ", "-", "?"]))
        elif kind == "non-ascii":
            grid[u][v] = data.draw(st.sampled_from(["é", "１", "−", "\U0001f600"]))
        else:
            grid[u][v] = grid[v][u] = "1" if kind == "both arcs" else "0"
    rows = ["".join(row) for row in grid]
    for u, length in lengths.items():
        rows[u] = (rows[u] + "0")[:length]
    lines = ["problem TPT k 1", f"tournament {n}"] + rows
    assert _outcome(instances._parse_tournament_lines, lines) == \
        _outcome(ref_text._parse_tournament_lines, lines)


def test_parse_errors_at_scale_match_reference():
    t = _uniform(300, 3)
    rows = instances.serialize_tournament(t).splitlines()[1:]
    rows[200] = rows[200][:150] + "é" + rows[200][151:]
    rows[250] = rows[250][:-1]
    lines = ["problem TPT k 1", "tournament 300"] + rows
    outcome = _outcome(instances._parse_tournament_lines, lines)
    assert outcome == _outcome(ref_text._parse_tournament_lines, lines)
    assert outcome == ("error", 203, "line 203: unexpected character 'é'")


def _graph_outcome(parse, lines):
    try:
        g, pos = parse(lines, 1)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", g.n, g.edges(), pos


GRAPH_MUTATIONS = ("token count", "non-integer", "int() spelling", "out of range",
                   "self-loop", "duplicate", "reversed duplicate", "missing lines")


@given(graphs(max_n=12), st.data())
@settings(max_examples=200)
def test_graph_parse_errors_match_reference(g, data):
    text = instances.serialize_graph(g)
    rows = text.splitlines()[1:]
    m, edges = len(rows), g.edges()
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        kind = data.draw(st.sampled_from(GRAPH_MUTATIONS))
        i = data.draw(st.integers(min_value=0, max_value=max(len(rows) - 1, 0)))
        u = data.draw(st.integers(min_value=0, max_value=max(g.n - 1, 0)))
        if kind == "token count":
            rows.insert(i, data.draw(st.sampled_from(["", "1", "0 1 2", " ", "1\t2 3"])))
        elif kind == "non-integer":
            rows.insert(i, data.draw(st.sampled_from(["a 1", "0 x", "1.0 2", "0x1 2", "1 2e0"])))
        elif kind == "int() spelling":
            rows.insert(i, data.draw(st.sampled_from(
                ["+3 1", "1_000 2", " 0  1 ", "0\t1", "01 002", "١ 0", "-0 1"])))
        elif kind == "out of range":
            rows.insert(i, data.draw(st.sampled_from(
                [f"{g.n} 0", "-1 0", f"0 {10**20}", f"{10**18} 1"])))
        elif kind == "self-loop":
            rows.insert(i, f"{u} {u}")
        elif kind in ("duplicate", "reversed duplicate") and edges:
            a, b = data.draw(st.sampled_from(edges))
            rows.insert(i, f"{a} {b}" if kind == "duplicate" else f"{b} {a}")
        elif kind == "missing lines":
            rows = rows[:i]
        m = len(rows) if kind != "missing lines" else m + data.draw(st.integers(0, 2))
    lines = ["problem I2PP k 1", f"graph {g.n} {m}"] + rows
    assert _graph_outcome(instances._parse_graph_lines, lines) == \
        _graph_outcome(ref_text._parse_graph_lines, lines)


def _instance_outcome(text, line_parser_only=False):
    """What `parse_instance` makes of `text`: the instance as values, or the
    ParseError's line and message; optionally with the byte decode off."""
    decode = (lambda text: None) if line_parser_only else instances._parse_serialized_graph
    try:
        with mock.patch.object(instances, "_parse_serialized_graph", decode):
            spec = instances.parse_instance(text)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", spec.problem, spec.k, spec.payload.n, spec.payload.edges()


#: edits of a serialized graph instance; each takes its lines, the graph and a draw
TEXT_MUTATIONS = {
    "crlf": lambda lines, g, draw: [line + "\r" for line in lines],
    "spacing": lambda lines, g, draw: _edit(lines, draw, lambda line: line.replace(
        " ", draw(st.sampled_from(["  ", "\t", " \t"])), 1)),
    "count": lambda lines, g, draw: lines[:1] + [
        f"graph {g.n} {max(0, len(lines) - 2 + draw(st.sampled_from([-1, 1])))}"] + lines[2:],
    "id out of range": lambda lines, g, draw: _edit(lines, draw, lambda line: (
        f"{draw(st.sampled_from([g.n, 10 ** 17, 10 ** 18]))} {_ends(line)[1]}")),
    "self-loop": lambda lines, g, draw: _edit(lines, draw, lambda line: " ".join(_ends(line)[:1] * 2)),
    "vertex cap": lambda lines, g, draw: lines[:1] + [
        f"graph {instances.MAX_GRAPH_VERTICES + 1} {len(lines) - 2}"] + lines[2:],
    "leading zeros": lambda lines, g, draw: _edit(lines, draw, lambda line: "0" * draw(
        st.integers(1, 18)) + line),
    "header spacing": lambda lines, g, draw: [lines[0].replace(" ", "  ", 1)] + lines[1:],
    "long k": lambda lines, g, draw: [lines[0].rsplit(" ", 1)[0] + " " + "1" * 19] + lines[1:],
    "trailing": lambda lines, g, draw: lines + [draw(st.sampled_from(["", "  ", "\t", "\x0c", "x"]))],
    "non-ascii": lambda lines, g, draw: _edit(lines, draw, lambda line: line + "\u00e9"),
}


def _ends(line):
    """The first two tokens of `line`, padded with 0s."""
    return (line.split() + ["0", "0"])[:2]


def _edit(lines, draw, change):
    """`lines` with one edge line (else the graph header) changed."""
    i = draw(st.integers(min_value=min(2, len(lines) - 1), max_value=len(lines) - 1))
    return lines[:i] + [change(lines[i])] + lines[i + 1:]


@given(graphs(max_n=12), st.sampled_from(["I2PP", "I2PHS"]), st.integers(0, 20), st.data())
@settings(max_examples=300)
def test_serialized_graph_decode_matches_line_parser(g, problem, k, data):
    """A graph instance as `serialize_instance` writes it is decoded from its
    bytes into the instance the line parser reads; edited, it gives the line
    parser's instance or ParseError line and message."""
    text = instances.serialize_instance(instances.InstanceSpec(problem, g, k))
    spec = instances._parse_serialized_graph(text)
    assert spec is not None and _instance_outcome(text) == _instance_outcome(text, True)
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        kind = data.draw(st.sampled_from(sorted(TEXT_MUTATIONS)))
        lines = TEXT_MUTATIONS[kind](lines, g, data.draw)
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    assert _instance_outcome(text) == _instance_outcome(text, True)


# -- oracle layer 1 ------------------------------------------------------------------


@given(colored_multigraphs(max_vertices=30, max_colors=16),
       st.one_of(st.just(rainbow.LAYER1_BUDGET), st.integers(min_value=0, max_value=60)))
@settings(max_examples=300)
def test_layer1_matches_reference(cm, budget):
    """At the default budget and at small ones, where the visits run out
    part-way through the colors."""
    with mock.patch.object(rainbow, "LAYER1_BUDGET", budget), \
            mock.patch.object(ref_rainbow, "LAYER1_BUDGET", budget):
        assert RainbowOracle()._greedy(cm) == ref_rainbow.greedy_layer1(cm)


#: colors 0 and 3 are twins, and color 2 is placed between their searches
#: (layer 1's order is 1, 4, 0, 2, 3), so color 3 costs other visits than 0
TWINS_APART = make_colored_multigraph([1, 2, 3], [colored_edge(u, v, c) for u, v, c in (
    (1, 2, 0), (1, 3, 0), (2, 2, 1), (1, 1, 2), (2, 2, 2), (1, 2, 3), (1, 3, 3), (3, 3, 4))], 5)


@given(twin_color_multigraphs(max_vertices=10, max_colors=8),
       st.one_of(st.just(rainbow.LAYER1_BUDGET), st.integers(min_value=0, max_value=80)))
@example(TWINS_APART, rainbow.LAYER1_BUDGET)
@settings(max_examples=300)
def test_layer1_matches_reference_on_twin_colors(cm, budget):
    """Colors with equal edge sets, which layer 1 misses without a search
    after a twin failed: the same matching, missed colors and visits
    charged, also where the budget runs out among the twins."""
    with mock.patch.object(rainbow, "LAYER1_BUDGET", budget), \
            mock.patch.object(ref_rainbow, "LAYER1_BUDGET", budget):
        reference = ref_rainbow.greedy_layer1(cm)
        assert RainbowOracle()._greedy(cm) == reference
        if budget == rainbow.LAYER1_BUDGET:
            _, stats = RainbowOracle().solve(cm, 1.0)
            ran = stats.layer in ("greedy", "blocked-cover")
            assert stats.layer1_visits == (reference[2] if ran else 0)


# -- the oracle outcome check ------------------------------------------------------


def _corrupt_matching(cm, edges: list, kind: str, data) -> RainbowMatching:
    i = data.draw(st.integers(0, len(edges) - 1))
    e, others = edges[i], edges[:i] + edges[i + 1:]
    stranger = int(cm.vertices[-1]) + 1
    if kind == "dropped edge":
        return RainbowMatching(tuple(others))
    if kind == "edge not in the multigraph":
        ids = cm.vertices.tolist()
        absent = [colored_edge(x, y, e.color) for x in ids for y in ids
                  if colored_edge(x, y, e.color) not in cm.edges]
        e = data.draw(st.sampled_from(absent + [colored_edge(e.u, stranger, e.color)]))
    elif kind == "shared vertex":
        taken = {x for f in others for x in (f.u, f.v)}
        meets = [f for f in cm.edges if f.color == e.color and {f.u, f.v} & taken]
        e = data.draw(st.sampled_from(meets or [colored_edge(others[0].u, e.v, e.color)]))
    else:  # a wrong color set: one color twice, or one out of range
        e = ColoredEdge(e.u, e.v, data.draw(st.sampled_from(
            [c for c in range(cm.p + 1) if c != e.color])))
    return RainbowMatching(tuple(edges[:i] + [e] + edges[i + 1:]))


def _corrupt_cover(cm, cover: ColorCover, kind: str, data) -> ColorCover:
    stranger = int(cm.vertices[-1]) + 1
    colors, xs = cover.colors, cover.cover
    if kind == "wrong colors":
        colors = data.draw(st.sampled_from(
            [frozenset(), colors | {cm.p}, colors | {-1}] +
            [colors | {c} for c in range(cm.p) if c not in colors]))
    elif kind == "uncovered edge":
        f = data.draw(st.sampled_from([f for f in cm.edges if f.color in colors]))
        xs = xs - {f.u, f.v}
    elif kind == "stray cover vertex":
        xs = xs | {stranger + data.draw(st.integers(0, 3))}
    else:  # a cover as large as the bound: real vertices first, then strays
        spare = [v for v in cm.vertices.tolist() if v not in xs] + \
            list(range(stranger, stranger + 5 * len(colors)))
        xs = xs | set(spare[:math.ceil((4.0 + cover.epsilon) * len(colors)) - len(xs)])
    return ColorCover(colors, xs, cover.epsilon)


MATCHING_FAULTS = ("dropped edge", "edge not in the multigraph", "shared vertex", "wrong colors")
COVER_FAULTS = ("wrong colors", "uncovered edge", "stray cover vertex", "cover at the bound")


@given(colored_multigraphs(max_vertices=10, max_colors=6), st.data())
@settings(max_examples=400)
def test_verify_outcome_matches_reference(cm, data):
    """Valid oracle outcomes pass both checks; corrupted once, they get the
    same verdict and the same problems, in the same order."""
    outcome = rainbow_or_cover(cm, 1.0)
    assert verify_outcome(cm, outcome) == ref_rainbow.verify_outcome(cm, outcome) == (True, [])
    if isinstance(outcome, RainbowMatching):
        kind = data.draw(st.sampled_from([f for f in MATCHING_FAULTS
                                          if f != "shared vertex" or len(outcome.edges) > 1]))
        bad = _corrupt_matching(cm, list(outcome.edges), kind, data)
    else:
        kind = data.draw(st.sampled_from(COVER_FAULTS))
        bad = _corrupt_cover(cm, outcome, kind, data)
    ok, problems = verify_outcome(cm, bad)
    assert (ok, problems) == ref_rainbow.verify_outcome(cm, bad)
    assert not ok or (kind == "wrong colors" and isinstance(bad, ColorCover)), kind


if __name__ == "__main__":
    records = {}
    for name, (make, threshold) in SCALE_GRAPHS.items():
        g = make()
        records[name] = _scale_record(g, threshold, ref_p3.greedy_localize_p3(_slow_form(g), threshold))
    SCALE_FIXTURE.write_text("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(record)}"
                                                for name, record in records.items()) + "\n}\n")
