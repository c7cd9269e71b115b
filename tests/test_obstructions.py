"""The per-family obstruction test against a pool (`triangle_pairs`,
`p3_pairs`) and the validators' scan over it (`pattern_with_two_pool`),
checked against per-triple brute force."""
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rainbowkernel import p3, tournament
from rainbowkernel.graphs import colored_edge, is_induced_p3, is_triangle
from rainbowkernel.p3 import kernelize_p3, p3_pairs
from rainbowkernel.rounds import pattern_with_two_pool
from rainbowkernel.tournament import kernelize_tournament, triangle_pairs

from .strategies import graphs, tournaments
from .test_acceptance import _near_transitive
from .test_trace_targets import load

FAMILIES = {
    "p3": (graphs(max_n=10), p3_pairs, is_induced_p3),
    "tournament": (tournaments(max_n=9), triangle_pairs, is_triangle),
}


def _brute_matrix(g, x, ids, is_obstruction):
    """[i, j] = {x, ids[i], ids[j]} is an obstruction, for i != j."""
    out = np.zeros((len(ids), len(ids)), dtype=bool)
    for i, u in enumerate(ids):
        for j, w in enumerate(ids):
            out[i, j] = i != j and is_obstruction(g, (x, u, w))
    return out


@given(graphs(max_n=10))
def test_p3_pairs_marks_each_induced_path_once(g):
    for x in range(g.n):
        ids = [v for v in range(g.n) if v != x]
        expected = np.triu(_brute_matrix(g, x, ids, is_induced_p3), 1)
        assert np.array_equal(p3_pairs(g, ids)(x), expected)


@given(tournaments(max_n=9))
def test_triangle_pairs_marks_each_triangle_once(t):
    for x in range(t.n):
        ids = [v for v in range(t.n) if v != x]
        marked = triangle_pairs(t, ids)(x)
        assert not (marked & marked.T).any()
        assert np.array_equal(marked | marked.T, _brute_matrix(t, x, ids, is_triangle))
        # the marked orientation is x -> ids[i] -> ids[j] -> x
        assert all(t.has_arc(x, ids[i]) for i, _ in np.argwhere(marked))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
def test_pattern_with_two_pool_matches_brute_force(family, data):
    strategy, pairs_of, is_obstruction = FAMILIES[family]
    g = data.draw(strategy)
    in_pool = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    ids = [v for v in range(g.n) if in_pool[v]]
    outside = [v for v in range(g.n) if not in_pool[v]]
    brute = [(x, u, w) for x in outside for i, u in enumerate(ids) for w in ids[i + 1:]
             if is_obstruction(g, (x, u, w))]
    found = pattern_with_two_pool(pairs_of(g, ids), ids, outside)
    if not brute:
        assert found is None
        return
    assert found == tuple(sorted(found)) and is_obstruction(g, found)
    assert len(set(found) & set(ids)) == 2
    # the scan takes the outside vertices in increasing order
    assert set(found) - set(ids) == {brute[0][0]}


def _aux_calls(monkeypatch, module, name, run):
    """(arguments, result) of every call `run` makes to module.name."""
    real = getattr(module, name)
    calls = []

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    run()
    return calls


def _reference_color_edges(d, g, is_obstruction):
    """The per-triple loop `build_p3_aux` and `build_tpt_aux` used before the
    pool view: one edge {v, w} colored by the index of c per obstruction."""
    edges = []
    pool_sorted = sorted(d.pool)
    for idx, c in enumerate(sorted(d.colors)):
        for ia, v in enumerate(pool_sorted):
            for w in pool_sorted[ia + 1:]:
                if is_obstruction(g, (c, v, w)):
                    edges.append(colored_edge(v, w, idx))
    return sorted(edges)


def _p3_runs():
    cliques_core = load("inputs").cliques_core
    rng = random.Random(7)
    for _ in range(3):
        kernelize_p3(cliques_core(3, 15, 6, rng), 4)


def _tournament_runs():
    rng = random.Random(7)
    for _ in range(3):
        kernelize_tournament(_near_transitive(60, 18, rng), 20)


AUX_BUILDERS = {
    "p3": (p3, "build_p3_aux", _p3_runs, is_induced_p3),
    "tournament": (tournament, "build_tpt_aux", _tournament_runs, is_triangle),
}


@pytest.mark.parametrize("family", sorted(AUX_BUILDERS))
def test_aux_color_edges_match_per_triple_loop(family, monkeypatch):
    module, name, runs, is_obstruction = AUX_BUILDERS[family]
    calls = _aux_calls(monkeypatch, module, name, runs)
    assert calls
    for (d, g, *_), aux in calls:
        color_edges = [e for e in aux.cm.edges if not e.is_loop]
        assert color_edges == _reference_color_edges(d, g, is_obstruction)
    assert any(not e.is_loop for _, aux in calls for e in aux.cm.edges)
