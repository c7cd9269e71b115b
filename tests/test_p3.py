import dataclasses
import random
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowkernel import p3
from rainbowkernel.errors import InvalidSolution, NotNicePair
from rainbowkernel.exact import exact_answer, optimum
from rainbowkernel.graphs import UndirectedGraph, enumerate_induced_p3
from rainbowkernel.instances import InstanceSpec
from rainbowkernel.p3 import (Decided, KernelOutput, P3Localization,
                              apply_rule_p3, build_p3_aux, check_p3_decomp,
                              clean_p3, greedy_localize_p3, kernelize_p3,
                              lift_hitting_set_p3, repack_packing_p3)
from rainbowkernel.rainbow import ColorCover, OracleStats, RainbowOracle
from rainbowkernel.rounds import PackingFound, RuleStop

from .reference.p3 import bucket_decompose_p3, bucket_of_scan, detached_of, make_p3_decomp
from .strategies import graphs
from .test_acceptance import _graph_corpus


def clique(n, offset=0):
    return [(u + offset, v + offset) for u in range(n) for v in range(u + 1, n)]


class TestLocalize:
    def test_clique_gives_empty_core(self):
        g = UndirectedGraph(5, clique(5))
        loc = greedy_localize_p3(g, threshold=1)
        assert isinstance(loc, P3Localization)
        assert loc.core == frozenset()
        assert loc.cliques == ((0, 1, 2, 3, 4),)

    def test_path_reaches_threshold(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        out = greedy_localize_p3(g, threshold=1)
        assert isinstance(out, PackingFound)

    def test_star_localizes_below_two(self):
        g = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])
        loc = greedy_localize_p3(g, threshold=2)
        assert isinstance(loc, P3Localization)
        assert len(loc.packing) == 1 and len(loc.core) == 3
        assert len(loc.cliques) == 1 and len(loc.cliques[0]) == 1

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=3))
    def test_localization_is_maximal(self, g, k):
        out = greedy_localize_p3(g, k)
        if isinstance(out, PackingFound):
            assert len(out.packing) == k
            return
        rest = [v for v in range(g.n) if v not in out.core]
        assert enumerate_induced_p3(g, rest) == []

    def test_cluster_graph_localizes_in_two_squares(self):
        """n = 3000 disjoint cliques: the one clique fit at the first
        pass-over settles the scan, and no more than the fit's two n x n
        bool blocks (the scope's rows, then its columns) are live at once."""
        n, rng, edges, lo = 3000, random.Random(3), [], 0
        while lo < n:
            size = min(rng.randint(1, 6), n - lo)
            edges += clique(size, lo)
            lo += size
        g = UndirectedGraph(n, edges)
        tracemalloc.start()
        try:
            loc = greedy_localize_p3(g, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loc.core == frozenset() and sum(map(len, loc.cliques)) == n
        assert peak < 2.05 * n * n


class TestBucketDecompose:
    def setup_method(self):
        # two cliques {0,1} and {2}, plus room for bucketed vertices 3, 4
        self.loc = P3Localization((), frozenset({3, 4}), ((0, 1), (2,)))

    def test_empty_bucketed(self):
        g = UndirectedGraph(5, [(0, 1)])
        parts, buckets, detached = bucket_decompose_p3(
            frozenset({0, 1, 2}), frozenset(), g, self.loc)
        assert all(not b for b in buckets) and not detached

    def test_full_neighborhood_lands_in_bucket(self):
        g = UndirectedGraph(5, [(0, 1), (3, 0), (3, 1)])
        _, buckets, _ = bucket_decompose_p3(
            frozenset({0, 1, 2}), frozenset({3}), g, self.loc)
        assert buckets[0] == frozenset({3})

    def test_partial_neighborhood_raises_with_witness(self):
        g = UndirectedGraph(5, [(0, 1), (3, 0)])
        with pytest.raises(NotNicePair) as err:
            bucket_decompose_p3(frozenset({0, 1, 2}), frozenset({3}), g, self.loc)
        assert set(err.value.witness) == {3, 0, 1}

    def test_two_clique_contact_raises(self):
        g = UndirectedGraph(5, [(0, 1), (4, 0), (4, 1), (4, 2)])
        with pytest.raises(NotNicePair):
            bucket_decompose_p3(frozenset({0, 1, 2}), frozenset({4}), g, self.loc)


def localized_decomp(g, k=10, epsilon=1.0):
    loc = greedy_localize_p3(g, k)
    assert isinstance(loc, P3Localization)
    return make_p3_decomp(loc, frozenset(range(g.n)) - loc.core, frozenset(),
                          loc.core, g, epsilon)


class TestCleaning:
    def test_already_clean_is_identity(self):
        g = UndirectedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (0, 3)])
        d = localized_decomp(g)
        cleaned = clean_p3(d, g)
        assert clean_p3(cleaned, g) is cleaned

    def test_isolated_color_moves(self):
        # core of one path {0,1,2}; vertex 3 isolated next to it
        g = UndirectedGraph(4, [(0, 1), (1, 2)])
        loc = greedy_localize_p3(g, 10)
        d = make_p3_decomp(loc, frozenset({3}), frozenset(), loc.core, g, 1.0)
        cleaned = clean_p3(d, g)
        assert cleaned.colors == frozenset()
        assert cleaned.bucketed == loc.core

    @given(graphs(max_n=10))
    def test_clean_colors_form_pool_paths(self, g):
        d = clean_p3(localized_decomp(g), g)
        for c in d.colors:
            assert any(len({u, v, w} & d.pool) == 2
                       for (u, v, w) in enumerate_induced_p3(g, d.pool | {c}))


class TestAuxGraph:
    def test_empty_pool_gives_empty_graph(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        loc = P3Localization(((0, 1, 2),), frozenset({0, 1, 2}), ())
        # the treated core sits detached: no color, no loop
        d = make_p3_decomp(loc, frozenset(), frozenset({0, 1, 2}), frozenset(), g, 1.0)
        aux = build_p3_aux(d)
        assert aux.cm.p == 0 and aux.cm.edges == ()

    def test_single_bucket_single_loop(self):
        # clique {0}; bucketed 1 adjacent to 0; no colors
        g = UndirectedGraph(2, [(0, 1)])
        loc = P3Localization((), frozenset({1}), ((0,),))
        d = make_p3_decomp(loc, frozenset({0}), frozenset({1}), frozenset(), g, 1.0)
        aux = build_p3_aux(d)
        assert aux.meanings == (("bucket", 1),)
        assert [(e.u, e.v, e.color) for e in aux.cm.edges] == [(0, 0, 0)]

    def test_no_colors_builds_no_pool_square(self):
        # the initial decomposition of an edgeless graph: no core, no colors
        n = 2000
        g = UndirectedGraph(n, [])
        d = localized_decomp(g)
        assert not d.colors and len(d.pool) == n
        tracemalloc.start()
        try:
            aux = build_p3_aux(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aux.cm.p == 0 and aux.cm.edges == ()
        assert peak < n * n  # one n x n bool matrix

    def test_validator_builds_no_pool_square(self):
        # the pool-shape test reads the pool in row blocks
        n = 4000
        g = UndirectedGraph(n, [])
        d = localized_decomp(g)
        tracemalloc.start()
        try:
            problems = check_p3_decomp(d, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert problems == [] and len(d.pool) == n
        assert peak < n * n  # one n x n bool matrix

    def test_cross_clique_color_edge(self):
        # cliques {0} and {1}; color 2 adjacent to both pool vertices
        g = UndirectedGraph(3, [(2, 0), (2, 1)])
        loc = P3Localization(((0, 2, 1),), frozenset({2}), ((0,), (1,)))
        d = make_p3_decomp(loc, frozenset({0, 1}), frozenset(), frozenset({2}), g, 1.0)
        aux = build_p3_aux(d)
        assert aux.meanings == (("color", 2),)
        assert [(e.u, e.v) for e in aux.cm.edges] == [(0, 1)]


class TestRule:
    def test_bucket_only_cover_moves_whole_slice(self):
        # one clique slice {0} with two bucket vertices 1, 2: the auxiliary
        # graph carries two loops on vertex 0, so no rainbow matching exists
        # and the cover colors are bucket vertices only -> the slice moves
        g = UndirectedGraph(3, [(0, 1), (0, 2)])
        loc = P3Localization((), frozenset({1, 2}), ((0,),))
        d = make_p3_decomp(loc, frozenset({0}), frozenset({1, 2}), frozenset(),
                           g, 1.0)
        step = apply_rule_p3(d, g, RainbowOracle())
        assert step.case == "case2"
        assert step.decomp.pool == frozenset()
        assert step.decomp.live == ()
        assert step.decomp.potential < d.potential

    def test_retired_color_with_a_pool_path_raises_with_witness(self, monkeypatch):
        # clique slice {0, 1}; color 2 sees only 0, so 2 - 0 - 1 is an induced
        # 2-path that a forged, empty cover of color 2 leaves in the pool
        g = UndirectedGraph(3, [(0, 1), (0, 2)])
        loc = P3Localization((), frozenset({2}), ((0, 1),))
        d = make_p3_decomp(loc, frozenset({0, 1}), frozenset(), frozenset({2}), g, 1.0)
        forged = SimpleNamespace(solve=lambda cm, epsilon: (
            ColorCover(frozenset({0}), frozenset(), epsilon), OracleStats()))
        monkeypatch.setattr(p3, "verify_outcome", lambda cm, outcome: (True, []))
        with pytest.raises(NotNicePair) as err:
            apply_rule_p3(d, g, forged)
        assert err.value.witness == (2, 0, 1)

    def test_empty_pool_stops_with_rest(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        loc = P3Localization(((0, 1, 2),), frozenset({0, 1, 2}), ())
        d = make_p3_decomp(loc, frozenset(), frozenset({0, 1, 2}), frozenset(), g, 1.0)
        step = apply_rule_p3(d, g, RainbowOracle())
        assert isinstance(step, RuleStop)
        assert step.state.kept == frozenset({0, 1, 2})

    def test_matching_stop_size_identity(self):
        rng = random.Random(3)
        found = 0
        for seed in range(40):
            n = rng.randint(6, 14)
            g = UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if random.Random(seed * 997 + u * 31 + v).random() < 0.3])
            out = kernelize_p3(g, 6)
            if not isinstance(out, KernelOutput):
                continue
            d = out.state.final
            matched, attached = out.state.matching.vertices(), d.bucketed - detached_of(d)
            assert len(matched) == 2 * len(d.colors) + len(attached)
            assert len(out.kept) == len(d.bucketed) + 3 * len(d.colors) + len(attached)
            found += 1
        assert found >= 3


class TestKernelize:
    @given(graphs(max_n=11), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50)
    def test_equivalence_both_problems(self, g, k):
        for problem in ("I2PP", "I2PHS"):
            out = kernelize_p3(g, k, problem=problem)
            truth = exact_answer(InstanceSpec(problem, g, k))
            if isinstance(out, Decided):
                assert out.answer == truth
            else:
                kernel = g.induced(out.kept)
                assert exact_answer(InstanceSpec(problem, kernel, k)) == truth

    @given(graphs(max_n=11), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30)
    def test_size_bound_and_potential(self, g, k):
        out = kernelize_p3(g, k, epsilon=1.0)
        if isinstance(out, Decided):
            return
        assert len(out.kept) <= 363 * k
        potentials = [r.potential for r in out.report.rounds]
        assert all(a > b for a, b in zip(potentials, potentials[1:]))
        assert len(out.report.rounds) <= potentials[0] + 1

    def test_epsilon_prime_reported(self):
        g = UndirectedGraph(4, clique(4))
        out = kernelize_p3(g, 2, epsilon=0.5)
        assert out.report.params["epsilon"] == 0.5
        assert out.report.params["epsilon_prime"] == pytest.approx(12 * 0.25 + 108 * 0.5)

    def test_planted_yes_instance_stays_yes(self):
        from rainbowkernel.instances import GeneratorConfig, generate_instance
        spec = generate_instance(
            GeneratorConfig(problem="I2PP", family="planted", k=3, planted=3,
                            filler=31, edge_prob=0.1), seed=12)
        out = kernelize_p3(spec.payload, 5, problem="I2PP")
        if isinstance(out, Decided):
            assert out.answer == exact_answer(InstanceSpec("I2PP", spec.payload, 5),
                                              limit=40)
        else:
            a = exact_answer(InstanceSpec("I2PP", spec.payload, 5), limit=40)
            b = exact_answer(InstanceSpec("I2PP", spec.payload.induced(out.kept), 5),
                             limit=40)
            assert a == b


def harvest_states(problem, count, max_n=14, seed=0):
    """Kernel runs that went through the full pipeline (no early answer)."""
    rng = random.Random(seed)
    found = []
    attempt = 0
    while len(found) < count and attempt < count * 40:
        attempt += 1
        n = rng.randint(5, max_n)
        prob = rng.choice([0.2, 0.35, 0.5, 0.7])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < prob]
        g = UndirectedGraph(n, edges)
        out = kernelize_p3(g, rng.randint(2, 6), problem=problem)
        if isinstance(out, KernelOutput):
            found.append((g, out))
    return found


class TestRestructuring:
    def test_packings_reroute_at_equal_size(self):
        for g, out in harvest_states("I2PP", 12, seed=21):
            paths = [tuple(sorted(t)) for t in enumerate_induced_p3(g)]
            rng = random.Random(g.n)
            for _ in range(3):
                order = paths[:]
                rng.shuffle(order)
                used, packing = set(), []
                for tri in order:
                    if not set(tri) & used:
                        packing.append(tri)
                        used |= set(tri)
                rerouted = repack_packing_p3(out.state, g, packing)
                assert len(rerouted) == len(packing)

    def test_optimal_packing_survives(self):
        for g, out in harvest_states("I2PP", 8, seed=33):
            opt = optimum("I2PP", g)
            rerouted = repack_packing_p3(out.state, g, list(opt.witness))
            assert len(rerouted) == opt.value


    def test_repeated_vertex_is_not_a_path(self):
        g, out = harvest_states("I2PP", 1, seed=21)[0]
        u, v = next(iter(g.edges()))
        with pytest.raises(InvalidSolution, match="is not an induced 2-path"):
            repack_packing_p3(out.state, g, [(u, u, v)])


    def test_broken_final_state_is_an_internal_error(self):
        """A final state whose color c is detached while it still forms an
        induced 2-path with two pool vertices is not nice: the repack raises
        NotNicePair (exit 3), not InvalidSolution (exit 2)."""
        for g, out in harvest_states("I2PP", 12, seed=21):
            d = out.state.final
            if not d.edges[0].size:
                continue
            c, u, w = (int(e[0]) for e in d.edges)
            label = d.label.copy()
            label[c] = -1
            broken = dataclasses.replace(out.state, final=dataclasses.replace(d, label=label))
            with pytest.raises(NotNicePair) as err:
                repack_packing_p3(broken, g, [(u, c, w)])
            assert err.value.witness == (u, c, w)
            return
        pytest.fail("no final state with a color")


class TestLifting:
    def test_lift_preserves_size_and_validity(self):
        for g, out in harvest_states("I2PHS", 12, seed=5):
            kernel_paths = enumerate_induced_p3(g, out.kept)
            best = None
            ids = list(out.kept)
            for size in range(len(ids) + 1):
                for comb in combinations(ids, size):
                    s = set(comb)
                    if all(s & set(t) for t in kernel_paths):
                        best = s
                        break
                if best is not None:
                    break
            lifted = lift_hitting_set_p3(out.state, g, best)
            assert len(lifted) <= len(best)
            rest = [v for v in range(g.n) if v not in lifted]
            assert enumerate_induced_p3(g, rest) == []
            # the minimum cannot improve under lifting of an optimal solution
            assert len(lifted) == optimum("I2PHS", g).value == len(best)

    def test_identity_when_kernel_is_whole_graph(self):
        for g, out in harvest_states("I2PHS", 4, max_n=9, seed=9):
            if set(out.kept) != set(range(g.n)):
                continue
            x = set(optimum("I2PHS", g).witness)
            lifted = lift_hitting_set_p3(out.state, g, x)
            assert len(lifted) <= len(x)

    def test_invalid_solution_rejected(self):
        for g, out in harvest_states("I2PHS", 6, seed=13):
            if enumerate_induced_p3(g, out.kept):
                with pytest.raises(InvalidSolution):
                    lift_hitting_set_p3(out.state, g, set())
                return


class TestValidator:
    @given(graphs(max_n=10))
    def test_initial_decomposition_validates(self, g):
        d = clean_p3(localized_decomp(g), g)
        assert check_p3_decomp(d, g) == []

    def test_pool_shape_with_matching_degrees_is_caught(self):
        # slices {0, 1} and {2, 3}, but the pool edges run across them: every
        # pool vertex still has its slice size minus one pool neighbours
        g = UndirectedGraph(4, [(0, 2), (1, 3)])
        loc = P3Localization((), frozenset(), ((0, 1), (2, 3)))
        d = make_p3_decomp(loc, frozenset(range(4)), frozenset(), frozenset(), g, 1.0)
        assert check_p3_decomp(d, g) == ["pool edges disagree with the clique slices"]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        for g, out in harvest_states("I2PP", 5, seed=41):
            again = kernelize_p3(g, out.report.k, problem="I2PP")
            assert isinstance(again, KernelOutput)
            assert again.kept == out.kept
            assert [r.case for r in again.report.rounds] == \
                [r.case for r in out.report.rounds]



class TestBucketIndex:
    def test_index_matches_scan_on_acceptance_corpus(self):
        checked = 0
        for g in _graph_corpus(500, seed=1):
            for k in range(1, 6):
                out = kernelize_p3(g, k, problem="I2PP")
                if not isinstance(out, KernelOutput):
                    continue
                d = out.state.final
                attached = d.bucketed - detached_of(d)
                assert {v: d.label[v] for v in attached} == \
                    {v: bucket_of_scan(d, v) for v in attached}
                checked += len(attached)
                # detached bucketed vertices sit in no bucket
                for v in detached_of(d):
                    assert d.label[v] == -1
                    with pytest.raises(KeyError):
                        bucket_of_scan(d, v)
        assert checked > 100
