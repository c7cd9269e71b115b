"""The nice-pair row test (`rounds.row_test`, bound by `tpt_rows` and
`p3_rows`) against brute force and each family's earlier row test, the color
edges the decompositions carry (`rounds.color_edges` with the sparse
`triangle_pairs`, `p3_pairs`), checked against per-triple brute force and
the dense marks in `tests/reference/`; the bucket decompositions against
the per-vertex loops there, the buckets and carried edges of every
golden-corpus round against a fresh read and the dense marks, and the
shared `rounds.Decomp.advance` under random keep masks against a fresh
decomposition; and the validators on valid decompositions corrupted once,
and on every golden-corpus round, against brute force and the reference
validators."""
import dataclasses
import random
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowkernel import p3, rounds, tournament
from rainbowkernel.errors import NotNicePair
from rainbowkernel.graphs import (Tournament, UndirectedGraph, colored_edge,
                                  is_induced_p3, is_triangle)
from rainbowkernel.p3 import (P3Localization, check_p3_decomp, kernelize_p3,
                              p3_pairs, p3_rows)
from rainbowkernel.tournament import (TriangleLocalization,
                                      check_tpt_decomp, kernelize_tournament,
                                      tpt_rows, triangle_pairs)

from .reference import p3 as ref_p3
from .reference import rounds as ref_rounds
from .reference import tournament as ref_tournament
from .strategies import graphs, tournaments
from .test_acceptance import _near_transitive
from .test_golden_traces import p3_runs, tournament_runs
from .test_trace_targets import load


def _brute_matrix(g, x, ids, is_obstruction):
    """[i, j] = {x, ids[i], ids[j]} is an obstruction, for i != j."""
    out = np.zeros((len(ids), len(ids)), dtype=bool)
    for i, u in enumerate(ids):
        for j, w in enumerate(ids):
            out[i, j] = i != j and is_obstruction(g, (x, u, w))
    return out


# -- the row test ----------------------------------------------------------------


@st.composite
def tournament_pools(draw, max_n=12):
    """A tournament made transitive on a drawn localization order, the
    localization, and a pool drawn from the order."""
    t = draw(tournaments(max_n=max_n))
    perm = draw(st.permutations(range(t.n)))
    order = perm[:draw(st.integers(min_value=0, max_value=t.n))]
    m = t.matrix.copy()
    for i, u in enumerate(order):
        later = list(order[i + 1:])
        m[u, later], m[later, u] = True, False
    pool = frozenset(v for v in order if draw(st.booleans()))
    return Tournament(m), TriangleLocalization((), frozenset(perm[len(order):]), tuple(order)), pool


@st.composite
def graph_pools(draw, max_n=12):
    """A graph made a disjoint union of cliques on a drawn remainder, the
    localization, and a pool drawn from the remainder."""
    g = draw(graphs(max_n=max_n))
    name = draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=g.n, max_size=g.n))
    rest = [v for v in range(g.n) if name[v] >= 0]
    edges = [(u, v) for u, v in g.edges() if min(name[u], name[v]) < 0]
    edges += [(u, v) for u, v in combinations(rest, 2) if name[u] == name[v]]
    cliques = sorted(tuple(v for v in rest if name[v] == c) for c in {name[v] for v in rest})
    loc = P3Localization((), frozenset(range(g.n)) - set(rest), tuple(cliques))
    return UndirectedGraph(g.n, edges), loc, frozenset(v for v in rest if draw(st.booleans()))


def _tpt_label(t, loc, pool, x):
    """The least position of a pool vertex x beats, t0 + 1 when none."""
    pos = loc.position.tolist()
    return min((pos[w] for w in pool if t.has_arc(x, w)), default=len(loc.order) + 1)


def _p3_label(g, loc, pool, x):
    """The clique of the least pool neighbour of x, -1 when none."""
    nb = sorted(w for w in pool if g.has_edge(x, w))
    return next(i for i, cl in enumerate(loc.cliques) if nb[0] in cl) if nb else -1


ROWS = {
    "p3": (graph_pools(), lambda g, loc, pool, xs: p3_rows(g, loc, ref_p3.pool_ids(pool), xs),
           is_induced_p3, _p3_label, ref_p3.bucket_decompose_p3, ref_p3.bucket_decompose_p3_loop),
    "tournament": (tournament_pools(),
                   lambda t, loc, pool, xs: tpt_rows(t, loc, ref_tournament.pool_ids(loc, pool), xs),
                   is_triangle, _tpt_label,
                   ref_tournament.bucket_decompose_tpt, ref_tournament.bucket_decompose_tpt_loop),
}


@pytest.mark.parametrize("family", sorted(ROWS))
@given(data=st.data())
@settings(max_examples=200)
def test_row_test_matches_brute_force(family, data):
    strategy, rows_of, is_obstruction, label_of, _, _ = ROWS[family]
    g, loc, pool = data.draw(strategy)
    xs = [v for v in range(g.n) if v not in pool]
    rows = rows_of(g, loc, pool, xs)
    witnesses = iter(rows.witnesses)
    for x, bad, label in zip(xs, rows.bad.tolist(), rows.label.tolist()):
        assert bad == any(is_obstruction(g, (x, u, w)) for u, w in combinations(pool, 2))
        assert label == label_of(g, loc, pool, x)
        if bad:
            witness = next(witnesses)
            assert x in witness and len(set(witness) & pool) == 2
            assert is_obstruction(g, witness)
    assert next(witnesses, None) is None


def _random_pool(family, n, rng):
    """A random tournament or graph, a localization of a random remainder
    (its order, or its split into three cliques) and a pool drawn from it,
    in position order or as sorted ids: no row follows any pattern."""
    upper = np.triu(rng.random((n, n)) < rng.random(), 1)
    rest = rng.permutation(n)[:rng.integers(0, n + 1)]
    core = frozenset(range(n)) - set(rest.tolist())
    pool = frozenset(rest[rng.random(rest.size) < 0.7].tolist())
    if family == "tournament":
        loc = TriangleLocalization((), core, tuple(rest.tolist()))
        return Tournament(upper | np.triu(~upper, 1).T), loc, ref_tournament.pool_ids(loc, pool)
    name = rng.integers(0, 3, rest.size)
    cliques = tuple(tuple(sorted(rest[name == c].tolist())) for c in range(3) if (name == c).any())
    return UndirectedGraph.from_matrix(upper | upper.T), P3Localization((), core, cliques), \
        ref_p3.pool_ids(pool)


#: each family's binding of the one row test and the row test it replaced
FAMILY_ROWS = {"p3": (p3_rows, ref_p3.p3_rows), "tournament": (tpt_rows, ref_tournament.tpt_rows)}


@pytest.mark.parametrize("family", sorted(FAMILY_ROWS))
@given(n=st.integers(min_value=0, max_value=12), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300)
def test_shared_row_test_matches_each_family_row_test(family, n, seed):
    """`rounds.row_test`, as each family binds it, gives the labels, bad
    flags and witnesses of that family's own earlier row test on random
    blocks."""
    rng = np.random.default_rng(seed)
    g, loc, ids = _random_pool(family, n, rng)
    xs = rng.permutation(sorted(set(range(n)) - set(ids.tolist())))
    shared, own = (rows_of(g, loc, ids, xs) for rows_of in FAMILY_ROWS[family])
    assert shared.label.dtype == own.label.dtype and np.array_equal(shared.label, own.label)
    assert np.array_equal(shared.bad, own.bad)
    assert shared.witnesses == own.witnesses
    assert all(type(v) is int for witness in shared.witnesses for v in witness)


#: each family's sparse emitter and the dense marks it replaced
EMITTERS = {"p3": (p3_pairs, ref_p3.p3_marks),
            "tournament": (triangle_pairs, ref_tournament.triangle_marks)}
DENSE = dict(EMITTERS.values())


def _edge_list(arrays):
    """The sorted `ColoredEdge`s of `color_edges`' arrays [colors, us, vs]."""
    colors, us, vs = (a.tolist() for a in arrays)
    return sorted(map(colored_edge, us, vs, colors))


def _dense_edges(d, g):
    """The edges `d` should carry, read afresh from its colors' block with
    the dense marks: sorted triples (color id, lower pool id, higher pool id)."""
    m, emit = (g.matrix, triangle_pairs) if isinstance(g, Tournament) else (g.matrix(), p3_pairs)
    rows = rounds.read_block(m, d.ids, d.keys, d.color_ids)
    return sorted((int(rows.xs[e.color]), e.u, e.v)
                  for e in _edge_list(ref_rounds.color_edges(rows, DENSE[emit])))


@pytest.mark.parametrize("family", sorted(ROWS))
@given(data=st.data())
@settings(max_examples=200)
def test_color_edges_mark_each_obstruction_once(family, data):
    strategy, rows_of, is_obstruction, _, _, _ = ROWS[family]
    emit, marks = EMITTERS[family]
    g, loc, pool = data.draw(strategy)
    xs = [v for v in range(g.n) if v not in pool]
    rows = rows_of(g, loc, pool, xs)
    # a small bound makes the 1s of the block span several chunks
    with mock.patch.object(rounds, "BLOCK_PAIRS", data.draw(st.integers(1, 200))):
        edges = _edge_list(rounds.color_edges(rows, emit))
    assert edges == _edge_list(ref_rounds.color_edges(rows, marks))
    ids = rows.ids.tolist()
    for r, x in enumerate(xs):
        upper = np.triu(_brute_matrix(g, x, ids, is_obstruction), 1)
        assert [e for e in edges if e.color == r] == \
            sorted(colored_edge(ids[i], ids[j], r) for i, j in np.argwhere(upper))
    assert all(e.color < len(xs) for e in edges)


def _outcome(decompose, *args):
    try:
        return "nice", decompose(*args)
    except NotNicePair as exc:
        return "not nice", exc.witness


@pytest.mark.parametrize("family", sorted(ROWS))
@given(data=st.data())
@settings(max_examples=200)
def test_bucket_decompose_matches_per_vertex_loop(family, data):
    strategy, _, _, _, decompose, reference = ROWS[family]
    g, loc, pool = data.draw(strategy)
    bucketed = frozenset(v for v in range(g.n) if v not in pool and data.draw(st.booleans()))
    assert _outcome(decompose, pool, bucketed, g, loc) == \
        _outcome(reference, pool, bucketed, g, loc)


def _fresh_tpt(d, t, pool, bucketed, colors):
    """The decomposition of (pool, bucketed, colors) with d's bulk, read from
    scratch."""
    bulk = ref_tournament.bulk_of(d)
    return ref_tournament.make_tpt_decomp(d.loc, pool, bucketed, colors,
                                          bucketed - d.loc.core - bulk, bulk, t,
                                          d.delta, d.c_delta)


def _fresh_p3(d, g, pool, bucketed, colors):
    """The decomposition of (pool, bucketed, colors), read from scratch."""
    return ref_p3.make_p3_decomp(d.loc, pool, bucketed, colors, g, d.epsilon)


#: each family's validator before it compared blocks with their expected pattern
REFERENCE_CHECKS = {"check_p3_decomp": ref_p3.check_p3_decomp,
                    "check_tpt_decomp": ref_tournament.check_tpt_decomp}


def _carried_against_fresh(monkeypatch, module, name, fresh, runs):
    """Run `runs` with `fresh(d, g)` asserted on every decomposition the
    validator `module.name` sees, its carried edges asserted equal to a
    fresh dense read, its messages asserted equal to the reference
    validator's, and the sparse color edges of every start read asserted
    equal to the dense marks' edges, and require that the runs reach case 1,
    case 2, a matching and a clean that demotes a color."""
    real, real_edges, steps = getattr(module, name), rounds.color_edges, Counter()

    def check(d, g):
        fresh(d, g)
        assert list(zip(*(e.tolist() for e in d.edges))) == _dense_edges(d, g)
        out = real(d, g)
        assert out == REFERENCE_CHECKS[name](d, g)
        return out

    def edges(rows, emit):
        out = real_edges(rows, emit)
        assert _edge_list(out) == _edge_list(ref_rounds.color_edges(rows, DENSE[emit]))
        return out

    monkeypatch.setattr(module, name, check)
    monkeypatch.setattr(rounds, "color_edges", edges)
    for _, _, report in runs():
        steps.update(r.case for r in report.rounds)
        steps["stale colors"] += bool(report.rounds) and report.rounds[0].colors_size < report.core_size
    assert all(steps[step] for step in ("case1", "case2", "matching", "stale colors"))


def test_relabelled_buckets_match_a_fresh_decomposition(monkeypatch):
    """The tournament rounds carry the labels and edges forward
    (`rounds.Decomp.advance`); every decomposition a golden-corpus run
    validates holds the buckets (read off its labels) and the edges that a
    fresh read of the tournament gives."""
    def fresh(d, t):
        assert (d.s_psi, ref_tournament.buckets_of(d)) == ref_tournament.bucket_decompose_tpt(
            d.pool, d.bucketed, t, d.loc)

    _carried_against_fresh(monkeypatch, tournament, "check_tpt_decomp", fresh, tournament_runs)


def test_carried_p3_buckets_match_a_fresh_decomposition(monkeypatch):
    """The 2-path rounds carry the labels and edges forward
    (`rounds.Decomp.advance`); every decomposition a golden-corpus run
    validates holds the pool parts, buckets and detached vertices (read off
    its labels) of the per-vertex read of the graph, and the edges of a
    fresh read."""
    def fresh(d, g):
        views = ref_p3.pool_parts_of(d), ref_p3.buckets_of(d), ref_p3.detached_of(d)
        assert views == ref_p3.bucket_decompose_p3_loop(d.pool, d.bucketed, g, d.loc)

    _carried_against_fresh(monkeypatch, p3, "check_p3_decomp", fresh, p3_runs)


#: per family: the validator, the row test, the fresh decomposition and one seeded run
ADVANCE = {"p3": (p3, "check_p3_decomp", p3_rows, _fresh_p3,
                  lambda rng: kernelize_p3(load("inputs").cliques_core(3, 6, 3, rng), 4)),
           "tournament": (tournament, "check_tpt_decomp", tpt_rows, _fresh_tpt,
                          lambda rng: kernelize_tournament(_near_transitive(60, 18, rng), 20))}


@pytest.mark.parametrize("family", sorted(ADVANCE))
def test_advance_matches_a_fresh_decomposition(family):
    """`rounds.Decomp.advance` under random `keep` masks, with a random
    subset of the colors that are fine against the kept pool joining at
    their row-test labels, holds the labels, pool and edges of a fresh
    decomposition, whose edges come from the reader of the start
    decomposition.  The masks reach states the golden rounds do not, such
    as a bucket's position leaving together with its pool neighbours."""
    module, name, rows_of, fresh, run = ADVANCE[family]
    runs = random.Random(23)
    seen = _validated(module, name, lambda: [run(runs) for _ in range(3)])
    rng = np.random.default_rng(5)
    checked = dropped = joins = 0
    for d, g in seen:
        for _ in range(8):
            keep = rng.random(d.ids.size) < rng.random()
            rows = rows_of(g, d.loc, d.ids[keep], d.color_ids)
            join = ~rows.bad & (rng.random(rows.xs.size) < 0.5)
            carried = d.advance(keep, rows.xs[join], rows.label[join])
            joined = frozenset(rows.xs[join].tolist())
            ref = fresh(d, g, frozenset(d.ids[keep].tolist()),
                        d.bucketed | joined | set(d.ids[~keep].tolist()), d.colors - joined)
            assert np.array_equal(carried.label, ref.label)
            assert np.array_equal(carried.ids, ref.ids) and np.array_equal(carried.keys, ref.keys)
            assert np.array_equal(carried.edges, ref.edges)
            assert list(zip(*(e.tolist() for e in carried.edges))) == _dense_edges(carried, g)
            gone = np.setdiff1d(d.keys[~keep], d.keys[keep])
            dropped += bool(np.isin(d.label[d.members], gone).any())
            joins += bool(joined)
            checked += 1
    assert checked >= 40 and dropped >= 10 and joins >= 10


# -- the validators on corrupted decompositions ------------------------------------


def _validated(module, name, run):
    """(decomposition, instance) of every validator call `run` makes."""
    real, seen = getattr(module, name), []

    def spy(d, g):
        seen.append((d, g))
        return real(d, g)

    with mock.patch.object(module, name, spy):
        run()
    return seen


def _flip(g, u, w):
    """g with the arc or edge between u and w reversed or toggled."""
    if isinstance(g, Tournament):
        m = g.matrix.copy()
        m[u, w], m[w, u] = m[w, u], m[u, w]
        return Tournament(m)
    edges = set(g.edges()) ^ {(min(u, w), max(u, w))}
    return UndirectedGraph(g.n, edges)


def _move(d, v, target):
    """d with bucketed vertex v relabelled to bucket `target`."""
    label = d.label.copy()
    label[v] = target
    return dataclasses.replace(d, label=label)


def _tpt_targets(d, v):
    return sorted((set(d.s_psi) | set(d.keys.tolist()) | {d.infinity}) - {d.label[v]})


def _tpt_sound(d, t):
    """Per triple and pair: the pool is transitive in position order, no
    bucketed vertex forms a triangle with two pool vertices, and each sits
    in the bucket of the least pool position it beats."""
    pool = sorted(d.pool, key=d.loc.position.__getitem__)
    if not all(t.has_arc(u, w) for u, w in combinations(pool, 2)):
        return False
    return all(not any(is_triangle(t, (x, u, w)) for u, w in combinations(pool, 2))
               and d.label[x] == _tpt_label(t, d.loc, d.pool, x) for x in d.bucketed)


def _p3_targets(d, v):
    return [i for i in range(-1, len(d.loc.cliques)) if i != d.label[v]]


def _p3_sound(d, g):
    """Per triple and pair: pool vertices are adjacent exactly within a
    clique, no bucketed vertex forms an induced 2-path with two pool
    vertices, and each sits in the bucket of the clique of its least pool
    neighbour (detached when it has none)."""
    clique = {v: i for i, cl in enumerate(d.loc.cliques) for v in cl}
    if any(g.has_edge(u, w) != (clique[u] == clique[w]) for u, w in combinations(d.pool, 2)):
        return False
    return all(not any(is_induced_p3(g, (x, u, w)) for u, w in combinations(d.pool, 2))
               and d.label[x] == _p3_label(g, d.loc, d.pool, x) for x in d.bucketed)


def _tpt_runs(seed, n):
    rng = random.Random(seed)
    return lambda: kernelize_tournament(_near_transitive(n, rng.randint(0, n // 2), rng),
                                        rng.randint(2, 12))


def _p3_runs(seed, n):
    rng = random.Random(seed)
    cliques_core = load("inputs").cliques_core
    return lambda: kernelize_p3(cliques_core(rng.randint(1, 3), n // 4, rng.randint(1, 5), rng),
                                rng.randint(4, 10))


CORRUPT = {
    "p3": (p3, "check_p3_decomp", _p3_runs, _p3_targets, _p3_sound),
    "tournament": (tournament, "check_tpt_decomp", _tpt_runs, _tpt_targets, _tpt_sound),
}


def _corrupt(data, d, g, targets):
    """d and g with one bucketed vertex moved to another bucket, or one arc
    or edge flipped between a pool vertex u and a bucketed, color or pool
    vertex."""
    u = data.draw(st.sampled_from(sorted(d.pool))) if d.pool else None
    kinds = [kind for kind in ("bucketed", "colors", "pool")
             if u is not None and getattr(d, kind) - {u}]
    movable = [v for v in sorted(d.bucketed) if targets(d, v)]
    kind = data.draw(st.sampled_from(kinds + ["move"] * bool(movable) or [None]))
    assume(kind)
    if kind == "move":
        v = data.draw(st.sampled_from(movable))
        return _move(d, v, data.draw(st.sampled_from(targets(d, v)))), g
    return d, _flip(g, u, data.draw(st.sampled_from(sorted(getattr(d, kind) - {u}))))


@pytest.mark.parametrize("family", sorted(CORRUPT))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=8, max_value=30), data=st.data())
@settings(max_examples=150, deadline=None)
def test_validator_is_exact_on_corrupted_decompositions(family, seed, n, data):
    module, name, runs, targets, sound = CORRUPT[family]
    seen = _validated(module, name, runs(seed, n))
    assume(seen)
    d, g = data.draw(st.sampled_from(seen))
    assert getattr(module, name)(d, g) == [] and sound(d, g)
    d, g = _corrupt(data, d, g, targets)
    problems = getattr(module, name)(d, g)
    assert (problems == []) == sound(d, g)
    assert problems == REFERENCE_CHECKS[name](d, g)


@pytest.mark.parametrize("family", sorted(CORRUPT))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=8, max_value=30), data=st.data())
@settings(max_examples=60, deadline=None)
def test_validator_matches_reference_on_repeatedly_corrupted_decompositions(family, seed, n, data):
    """Several corruptions at once give several kinds of message: the
    validator and the reference one list the same, in the same order."""
    module, name, runs, targets, _ = CORRUPT[family]
    seen = _validated(module, name, runs(seed, n))
    assume(seen)
    d, g = data.draw(st.sampled_from(seen))
    for _ in range(data.draw(st.integers(min_value=2, max_value=6))):
        d, g = _corrupt(data, d, g, targets)
    assert getattr(module, name)(d, g) == REFERENCE_CHECKS[name](d, g)


def _aux_calls(monkeypatch, module, name, runs):
    """(payload, decomposition, result) of every call to module.name while
    `runs` kernelizes each payload it yields."""
    real, calls = getattr(module, name), []

    def spy(d, *args):
        out = real(d, *args)
        calls.append((payload, d, out))
        return out

    monkeypatch.setattr(module, name, spy)
    for payload in runs():  # the run of a payload follows its yield
        pass
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


def _p3_aux_runs():
    cliques_core = load("inputs").cliques_core
    rng = random.Random(7)
    for _ in range(3):
        yield (g := cliques_core(3, 15, 6, rng))
        kernelize_p3(g, 4)


def _tournament_aux_runs():
    rng = random.Random(7)
    for _ in range(3):
        yield (t := _near_transitive(60, 18, rng))
        kernelize_tournament(t, 20)


AUX_BUILDERS = {
    "p3": (p3, "build_p3_aux", _p3_aux_runs, is_induced_p3),
    "tournament": (tournament, "build_tpt_aux", _tournament_aux_runs, is_triangle),
}


@pytest.mark.parametrize("family", sorted(AUX_BUILDERS))
def test_aux_color_edges_match_per_triple_loop(family, monkeypatch):
    module, name, runs, is_obstruction = AUX_BUILDERS[family]
    calls = _aux_calls(monkeypatch, module, name, runs)
    assert calls
    for g, d, aux in calls:
        color_edges = [e for e in aux.cm.edges if not e.is_loop]
        assert color_edges == _reference_color_edges(d, g, is_obstruction)
    assert any(not e.is_loop for _, _, aux in calls for e in aux.cm.edges)
