"""Differential tests: the numpy and precomputed forms on the tournament path
return exactly what the slow reference forms in `tests/reference/` return.

Covered: greedy triangle localization (packing, order, early stop), the
demand (order and values), the tournament text format (bytes written, and
the parsed tournament or the ParseError line and message), and layer 1 of
the rainbow oracle (assignment and missing colors).
"""
import math
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowkernel import instances
from rainbowkernel.demand import BucketProfile, compute_demand
from rainbowkernel.errors import ParseError
from rainbowkernel.graphs import Tournament
from rainbowkernel.rainbow import RainbowOracle
from rainbowkernel.tournament import greedy_localize_triangles

from .reference import demand as ref_demand
from .reference import rainbow as ref_rainbow
from .reference import text as ref_text
from .reference import tournament as ref_tournament
from .strategies import colored_multigraphs, tournaments
from .test_acceptance import _near_transitive


def _uniform(n: int, seed: int) -> Tournament:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
    return Tournament(upper | np.tril(~upper.T, -1))


def _tournament(kind: str, n: int, seed: int) -> Tournament:
    if kind == "uniform":
        return _uniform(n, seed)
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
    assert fast.order == slow.order
    assert fast.values == slow.values


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
            assert (fast.order, fast.values) == (slow.order, slow.values)


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


# -- oracle layer 1 ------------------------------------------------------------------


@given(colored_multigraphs(max_vertices=30, max_colors=16))
@settings(max_examples=150)
def test_layer1_matches_reference(cm):
    assert RainbowOracle()._greedy(cm) == ref_rainbow.greedy_layer1(cm)
