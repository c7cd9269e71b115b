import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowkernel.demand import compute_demand
from rainbowkernel.errors import (InvalidSolution, NotNicePair,
                                  PreconditionViolated)
from rainbowkernel.exact import exact_answer, optimum
from rainbowkernel.graphs import Tournament, enumerate_triangles
from rainbowkernel.instances import InstanceSpec
from rainbowkernel.intervals import BucketInterval
from rainbowkernel.rainbow import RainbowOracle
from rainbowkernel.report import Decided, KernelOutput
from rainbowkernel.rounds import COLOR, POOL, PackingFound, RuleStop
from rainbowkernel.tournament import (TriangleLocalization, add1,
                                      add2, apply_rule_tpt, build_tpt_aux,
                                      check_tpt_decomp, choose_delta,
                                      clean_tpt, greedy_localize_triangles,
                                      kernelize_tournament, lift_fvs,
                                      local_size_constant,
                                      repack_via_allocation)

from .reference.tournament import (bucket_decompose_tpt,
                                   bucket_membership_problems, bucket_of_scan,
                                   buckets_of, bulk_of, make_tpt_decomp, window)
from .strategies import tournaments
from .test_acceptance import _near_transitive, _tournament_corpus


def transitive(n):
    return Tournament.from_arcs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def transitive_with_extras(t0, extras):
    """Order positions 1..t0 on ids 0..t0-1, then one id per extra spec.

    Each extra is (dominated_by_positions_below, position_cut): the extra
    vertex is dominated by order vertices at positions < cut and dominates
    the rest.  Extras beat each other by id order.
    """
    n = t0 + len(extras)
    arcs = [(u, v) for u in range(t0) for v in range(u + 1, t0)]
    for j, cut in enumerate(extras):
        x = t0 + j
        for p in range(1, t0 + 1):
            w = p - 1
            if p < cut:
                arcs.append((w, x))
            else:
                arcs.append((x, w))
        for i in range(j + 1, len(extras)):
            arcs.append((x, t0 + i))
    return Tournament.from_arcs(n, arcs)


class TestLocalize:
    def test_acyclic_gives_empty_core(self):
        loc = greedy_localize_triangles(transitive(6), threshold=1)
        assert isinstance(loc, TriangleLocalization)
        assert loc.core == frozenset() and loc.order == (0, 1, 2, 3, 4, 5)

    def test_single_cycle_reaches_one(self):
        t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        out = greedy_localize_triangles(t, threshold=1)
        assert isinstance(out, PackingFound) and len(out.packing) == 1

    def test_two_cycles_below_three(self):
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        for u in range(3):
            for v in range(3, 6):
                arcs.append((u, v))
        t = Tournament.from_arcs(6, arcs)
        assert optimum("TPT", t).value == 2
        loc = greedy_localize_triangles(t, threshold=3)
        assert isinstance(loc, TriangleLocalization)
        assert len(loc.core) == 6 and loc.order == ()

    @given(tournaments(max_n=10), st.integers(min_value=1, max_value=3))
    def test_maximality(self, t, k):
        out = greedy_localize_triangles(t, k)
        if isinstance(out, PackingFound):
            assert len(out.packing) == k
            return
        assert enumerate_triangles(t, list(out.order)) == []


class TestBucketDecompose:
    def test_position_is_a_read_only_array_by_vertex_id(self):
        loc = TriangleLocalization((), frozenset({0, 3}), (4, 1, 2))
        assert loc.position.tolist() == [0, 2, 3, 0, 1]
        assert not loc.position.flags.writeable

    def test_no_bucketed_no_buckets(self):
        t = transitive(5)
        loc = TriangleLocalization((), frozenset(), tuple(range(5)))
        s_psi, buckets = bucket_decompose_tpt(frozenset(range(5)), frozenset(), t, loc)
        assert s_psi == () and buckets == {}

    def test_reference_bucket_indices(self):
        # order positions 1..22; four extras cut at 8, 14, 20 and infinity
        t = transitive_with_extras(22, [8, 14, 20, 23])
        loc = TriangleLocalization((), frozenset({22, 23, 24, 25}), tuple(range(22)))
        s_psi, buckets = bucket_decompose_tpt(
            frozenset(range(22)), frozenset({22, 23, 24, 25}), t, loc)
        assert s_psi == (8, 14, 20, 23)  # 23 is the infinity sentinel (t0+1)
        assert buckets[8] == frozenset({22})
        assert buckets[23] == frozenset({25})

    def test_violation_carries_triangle_witness(self):
        # extra dominated by position 3 but dominating position 2: triangle
        t0 = 4
        arcs = [(u, v) for u in range(t0) for v in range(u + 1, t0)]
        x = 4
        arcs += [(0, x), (x, 1), (2, x), (x, 3)]
        t = Tournament.from_arcs(5, arcs)
        loc = TriangleLocalization((), frozenset({x}), tuple(range(4)))
        with pytest.raises(NotNicePair) as err:
            bucket_decompose_tpt(frozenset(range(4)), frozenset({x}), t, loc)
        assert set(err.value.witness) == {x, 1, 2}


def decomp_with_extras(t0, cuts, colors=(), delta=2.0):
    t = transitive_with_extras(t0, list(cuts) + [1] * len(colors))
    extras = [t0 + i for i in range(len(cuts))]
    color_ids = [t0 + len(cuts) + i for i in range(len(colors))]
    loc = TriangleLocalization((), frozenset(extras + color_ids), tuple(range(t0)))
    c = local_size_constant(delta)
    d = make_tpt_decomp(loc, frozenset(range(t0)), frozenset(extras),
                        frozenset(color_ids), frozenset(), frozenset(), t, delta, c)
    return t, d


class TestDemandOnDecompositions:
    def test_profile_reflects_buckets(self):
        t, d = decomp_with_extras(10, [4, 4, 7])
        prof = d.profile
        assert prof.s_psi == (4, 7)
        assert prof.seeds == {4: 2, 7: 1}
        assert prof.bulk == {4: 0, 7: 0}

    def test_window_contains_left_index_vertex(self):
        t, d = decomp_with_extras(10, [4, 7])
        assert window(d, BucketInterval(4, 7)) == {3, 4, 5}  # positions 4, 5, 6


class TestAuxGraph:
    def test_empty_for_no_colors_no_demand(self):
        t, d = decomp_with_extras(6, [3])
        demand = compute_demand(d.profile)
        aux = build_tpt_aux(d, demand)
        assert aux.cm.p == 0 and aux.cm.edges == ()

    def test_slot_loops_cover_window(self):
        t, d = decomp_with_extras(8, [3, 3, 6, 6])
        demand = compute_demand(d.profile)
        interval = BucketInterval(3, 6)
        assert demand.values[interval] == 2
        aux = build_tpt_aux(d, demand)
        loops = [e for e in aux.cm.edges if e.is_loop]
        vertices = window(d, interval)
        assert len(loops) == 2 * len(vertices)
        assert {e.u for e in loops} == vertices

    def test_color_edge_per_pool_triangle(self):
        # one color cut at 4: dominated by positions < 4, dominates >= 4:
        # triangles c -> w_p (p >= 4) -> ... -> w_q (q < 4) -> c need w_p -> w_q,
        # impossible in the transitive order, so make the color backwards:
        t0 = 5
        arcs = [(u, v) for u in range(t0) for v in range(u + 1, t0)]
        c = 5
        # c dominates w at positions 1..2 (ids 0..1), dominated by 3..5
        arcs += [(c, 0), (c, 1), (2, c), (3, c), (4, c)]
        t = Tournament.from_arcs(6, arcs)
        loc = TriangleLocalization((), frozenset({c}), tuple(range(5)))
        cd = local_size_constant(2.0)
        d = make_tpt_decomp(loc, frozenset(range(5)), frozenset(), frozenset({c}),
                            frozenset(), frozenset(), t, 2.0, cd)
        aux = build_tpt_aux(d, compute_demand(d.profile))
        expect = {(u, w) for u in (0, 1) for w in (2, 3, 4)}
        assert {(e.u, e.v) for e in aux.cm.edges} == expect
        assert all(aux.meanings[e.color] == ("color", c) for e in aux.cm.edges)


class TestAddOperations:
    def test_add1_retired_color_with_a_pool_triangle_raises_with_witness(self):
        # color 6 beats pool vertices 0..2 and loses to 3..5, so 0 -> 3 -> 6 -> 0 survives
        m = np.triu(np.ones((7, 7), dtype=bool), 1)
        m[:3, 6], m[6, :3] = False, True
        t = Tournament(m)
        loc = TriangleLocalization((), frozenset({6}), tuple(range(6)))
        d = make_tpt_decomp(loc, range(6), (), {6}, (), (), t, 2.0, local_size_constant(2.0))
        with pytest.raises(NotNicePair) as err:
            add1(d, t, frozenset(), frozenset({6}))
        assert err.value.witness == (6, 0, 3)

    def test_noop_add1(self):
        t, d = decomp_with_extras(8, [4])
        nxt = add1(d, t, frozenset(), frozenset())
        assert nxt.pool == d.pool and nxt.s_psi == d.s_psi

    def test_reference_index_shift(self):
        # bucket indices {8, 14, 20, inf}; demoting positions 14..21 plus two
        # retired colors (cut 13 and cut 8) shifts them to {8, 13, 22, inf}
        t0 = 23
        t = transitive_with_extras(t0, [8, 14, 20, 24, 13, 8])
        extras = [23, 24, 25, 26]
        color_ids = [27, 28]
        loc = TriangleLocalization((), frozenset(extras + color_ids),
                                   tuple(range(t0)))
        cd = local_size_constant(2.0)
        d = make_tpt_decomp(loc, frozenset(range(t0)), frozenset(extras),
                            frozenset(color_ids), frozenset(), frozenset(),
                            t, 2.0, cd)
        assert d.s_psi == (8, 14, 20, 24)
        moved = frozenset(range(13, 21))  # ids at positions 14..21
        nxt = add1(d, t, moved, frozenset(color_ids))
        assert nxt.s_psi == (8, 13, 22, 24)
        assert check_tpt_decomp(nxt, t) == []

    def test_add1_rejects_oversized_move(self):
        t, d = decomp_with_extras(8, [4], colors=[])
        with pytest.raises(PreconditionViolated):
            add1(d, t, frozenset({0}), frozenset())

    def test_add1_buckets_are_unions_of_old(self):
        t, d = decomp_with_extras(12, [4, 7, 10], colors=[1])
        color = sorted(d.colors)[0]
        moved = frozenset({3, 4})  # positions 4 and 5
        nxt = add1(d, t, moved, frozenset({color}))
        old_parts = set(buckets_of(d).values()) | {frozenset({v}) for v in moved | {color}}
        for members in buckets_of(nxt).values():
            rebuilt = set()
            for part in old_parts:
                if part <= members:
                    rebuilt |= part
            assert rebuilt == members

    def test_add2_merges_span(self):
        t, d = decomp_with_extras(8, [3, 6])
        interval = BucketInterval(3, 6)
        nxt = add2(d, compute_demand(d.profile), interval)
        assert nxt.s_psi == (6,)
        before = buckets_of(d)
        assert buckets_of(nxt)[6] == before[3] | before[6] | window(d, interval)
        assert bulk_of(nxt) == window(d, interval)
        assert check_tpt_decomp(nxt, t) == []

    def test_add2_seed_count_accumulates(self):
        t, d = decomp_with_extras(8, [3, 3, 6, 6])
        nxt = add2(d, compute_demand(d.profile), BucketInterval(3, 6))
        assert nxt.profile.seeds[6] >= 2

    def test_add2_rejects_oversized_window(self):
        t, d = decomp_with_extras(60, [3, 55])
        with pytest.raises(PreconditionViolated):
            add2(d, compute_demand(d.profile), BucketInterval(3, 55))

    def test_repeated_unit_merges_keep_local_size(self):
        # pairwise merges of singleton buckets never break the law at delta=2
        t, d = decomp_with_extras(12, [2, 4, 6, 8, 10])
        while len(d.s_psi) >= 2:
            interval = BucketInterval(d.s_psi[0], d.s_psi[1])
            demand = compute_demand(d.profile)
            if len(window(d, interval)) > 10 * demand.capacity(interval):
                break
            d = add2(d, demand, interval)
            assert check_tpt_decomp(d, t) == []


class TestChooseDelta:
    def test_small_k_capped_at_two(self):
        assert choose_delta(2) == 2.0

    def test_monotone_towards_one(self):
        values = [choose_delta(k) for k in (4, 16, 256, 2 ** 16, 2 ** 24)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0

    def test_reference_value(self):
        # 1 + sqrt(log2 21)/4 with log2 21 ~ 4.392
        assert choose_delta(2 ** 16) == pytest.approx(1.0 + math.sqrt(math.log2(21)) / 4
                                                      , abs=1e-9)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            choose_delta(1)

    def test_constant_at_two(self):
        assert local_size_constant(2.0) == pytest.approx(10.5)
        assert 6534 * local_size_constant(2.0) == pytest.approx(68607.0)


class TestRuleCases:
    def test_slot_only_cover_merges_window(self):
        # two adjacent buckets of two seed vertices each around a single-vertex
        # window: demand 2 puts two slot loops on one vertex, so the cover is
        # slot-only and the merge case fires, shrinking the pool
        t, d = decomp_with_extras(2, [1, 1, 2, 2])
        assert d.s_psi == (1, 2)
        demand = compute_demand(d.profile)
        assert demand.values[BucketInterval(1, 2)] == 2
        step = apply_rule_tpt(d, t, RainbowOracle())
        assert step.case == "case2"
        assert step.decomp.pool == d.pool - window(d, BucketInterval(1, 2))
        assert len(step.decomp.pool) < len(d.pool)

    def test_empty_everything_stops_with_buckets(self):
        t, d = decomp_with_extras(2, [1])
        d_empty = make_tpt_decomp(d.loc, frozenset(), d.bucketed | d.pool,
                                  frozenset(), frozenset(), d.pool | bulk_of(d),
                                  t, d.delta, d.c_delta)
        step = apply_rule_tpt(d_empty, t, RainbowOracle())
        assert isinstance(step, RuleStop)
        assert step.state.kept == d_empty.bucketed


class TestKernelize:
    def test_acyclic_trivial(self):
        out = kernelize_tournament(transitive(8), 1, problem="TPT")
        assert isinstance(out, KernelOutput)
        assert out.report.core_size == 0
        assert exact_answer(InstanceSpec("TPT", transitive(8).induced(out.kept), 1)) is False

    @given(tournaments(max_n=10), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50)
    def test_equivalence_both_problems(self, t, k):
        for problem in ("TPT", "FVST"):
            out = kernelize_tournament(t, k, problem=problem)
            truth = exact_answer(InstanceSpec(problem, t, k))
            if isinstance(out, Decided):
                assert out.answer == truth
            else:
                kernel = t.induced(out.kept)
                assert exact_answer(InstanceSpec(problem, kernel, k)) == truth

    @given(tournaments(max_n=10), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30)
    def test_size_bound_and_potential(self, t, k):
        out = kernelize_tournament(t, k, delta=2.0)
        if isinstance(out, Decided):
            return
        assert len(out.kept) <= 6534 * 10.5 * k ** 2
        potentials = [r.potential for r in out.report.rounds]
        assert all(a > b for a, b in zip(potentials, potentials[1:]))

    def test_matching_stop_counts(self):
        rng = random.Random(8)
        found = 0
        for seed in range(60):
            n = rng.randint(6, 13)
            m = np.zeros((n, n), dtype=bool)
            r2 = random.Random(seed)
            for u in range(n):
                for v in range(u + 1, n):
                    if r2.random() < 0.5:
                        m[u, v] = True
                    else:
                        m[v, u] = True
            t = Tournament(m)
            out = kernelize_tournament(t, rng.randint(2, 5))
            if not isinstance(out, KernelOutput):
                continue
            state = out.state
            d = state.final
            demand = state.demand
            vertices = state.matching.vertices()
            total = sum(demand.values.values())
            assert len(vertices) == total + 2 * len(d.colors)
            assert total + 2 * len(d.colors) <= \
                2 * sum(len(b) for b in buckets_of(d).values()) + 2 * len(d.colors)
            found += 1
        assert found >= 5

    def test_delta_auto_recorded(self):
        t = transitive(6)
        out = kernelize_tournament(t, 4, delta=None)
        assert out.report.params["delta"] == pytest.approx(choose_delta(4))


def harvest_states(count, seed=0, max_n=15, k_range=(2, 6)):
    rng = random.Random(seed)
    found = []
    attempt = 0
    while len(found) < count and attempt < count * 60:
        attempt += 1
        n = rng.randint(5, max_n)
        m = np.zeros((n, n), dtype=bool)
        r2 = random.Random(attempt * 7919 + seed)
        for u in range(n):
            for v in range(u + 1, n):
                if r2.random() < 0.5:
                    m[u, v] = True
                else:
                    m[v, u] = True
        t = Tournament(m)
        out = kernelize_tournament(t, rng.randint(*k_range), problem="FVST")
        if isinstance(out, KernelOutput):
            found.append((t, out))
    return found


class TestRepack:
    def test_bucket_only_packings_survive(self):
        for t, out in harvest_states(6, seed=2):
            d = out.state.final
            tris = [tr for tr in enumerate_triangles(t, sorted(d.bucketed))]
            used, packing = set(), []
            for tr in tris:
                if not set(tr) & used:
                    packing.append(tr)
                    used |= set(tr)
            rerouted = repack_via_allocation(out.state, t, packing)
            assert sorted(rerouted) == sorted(packing)

    def test_random_packings_reroute(self):
        total = 0
        for t, out in harvest_states(10, seed=3):
            d = out.state.final
            scope = sorted(d.pool | d.bucketed)
            tris = enumerate_triangles(t, scope)
            rng = random.Random(t.n)
            for _ in range(3):
                order = tris[:]
                rng.shuffle(order)
                used, packing = set(), []
                for tr in order:
                    if not set(tr) & used:
                        packing.append(tr)
                        used |= set(tr)
                rerouted = repack_via_allocation(out.state, t, packing)
                assert len(rerouted) == len(packing)
                used2 = set()
                for tr in rerouted:
                    assert not set(tr) & used2
                    used2 |= set(tr)
                total += 1
        assert total >= 15

    def test_rejects_pool_leak(self):
        for t, out in harvest_states(4, seed=4):
            d = out.state.final
            outside = [v for v in range(t.n) if v not in d.pool | d.bucketed]
            tris = [tr for tr in enumerate_triangles(t) if set(tr) & set(outside)]
            if tris:
                with pytest.raises(InvalidSolution):
                    repack_via_allocation(out.state, t, [tris[0]])
                return


    def test_broken_final_state_is_an_internal_error(self):
        """A final state whose color c is moved into a bucket while it still
        closes a triangle with two pool vertices is not nice: the repack
        raises NotNicePair (exit 3), not InvalidSolution (exit 2)."""
        t = _near_transitive(60, 18, random.Random(7))
        out = kernelize_tournament(t, 20)
        d = out.state.final
        c, u, w = (int(e[0]) for e in d.edges)
        label = d.label.copy()
        label[c] = d.infinity
        broken = dataclasses.replace(out.state, final=dataclasses.replace(d, label=label))
        with pytest.raises(NotNicePair) as err:
            repack_via_allocation(broken, t, [(c, u, w)])
        assert err.value.witness == (c, u, w)


class TestLiftFvs:
    def test_lift_preserves_size_and_validity(self):
        for t, out in harvest_states(10, seed=5):
            ids = list(out.kept)
            tris = enumerate_triangles(t, ids)
            best = set()
            if tris:
                found = None
                for size in range(len(ids) + 1):
                    for comb in combinations(ids, size):
                        s = set(comb)
                        if all(s & set(tr) for tr in tris):
                            found = s
                            break
                    if found is not None:
                        break
                best = found
            lifted = lift_fvs(out.state, t, best)
            assert len(lifted) <= len(best) if best else len(lifted) == len(best)
            rest = [v for v in range(t.n) if v not in lifted]
            assert enumerate_triangles(t, rest) == []
            assert len(lifted) == optimum("FVST", t).value

    def test_whole_kernel_is_slack_solution(self):
        for t, out in harvest_states(4, seed=6):
            lifted = lift_fvs(out.state, t, set(out.kept))
            assert len(lifted) <= len(out.kept)
            rest = [v for v in range(t.n) if v not in lifted]
            assert enumerate_triangles(t, rest) == []

    def test_invalid_solution_rejected(self):
        for t, out in harvest_states(6, seed=7):
            if enumerate_triangles(t, list(out.kept)):
                with pytest.raises(InvalidSolution):
                    lift_fvs(out.state, t, set())
                return


class TestDeterminism:
    def test_repeated_runs_identical(self):
        for t, out in harvest_states(5, seed=40):
            again = kernelize_tournament(t, out.report.k,
                                         delta=out.report.params["delta"],
                                         problem="FVST")
            assert isinstance(again, KernelOutput)
            assert again.kept == out.kept
            assert [r.case for r in again.report.rounds] == \
                [r.case for r in out.report.rounds]


class TestValidator:
    @given(tournaments(max_n=10))
    def test_initial_decomposition_validates(self, t):
        loc = greedy_localize_triangles(t, threshold=10 ** 9)
        assert isinstance(loc, TriangleLocalization)
        cd = local_size_constant(2.0)
        d = make_tpt_decomp(loc, frozenset(loc.order), frozenset(), loc.core,
                            frozenset(), frozenset(), t, 2.0, cd)
        d = clean_tpt(d, t)
        assert check_tpt_decomp(d, t) == []

    def test_membership_lines_match_pair_loop(self):
        t, d = decomp_with_extras(10, [4, 4, 7, 2])
        assert check_tpt_decomp(d, t) == []
        # relabel each bucket's vertices to the wrong buckets, both ways
        label = d.label.copy()
        for i, j in zip(d.s_psi, d.s_psi[::-1]):
            label[d.label == j] = i
        bad = dataclasses.replace(d, label=label)
        lines = [x for x in check_tpt_decomp(bad, t) if "pool vertex" in x]
        assert lines and lines == bucket_membership_problems(bad, t)

    @staticmethod
    def _leaves_alone(d, v, bucket):
        """d with pool vertex v moved to `bucket` and no other label moved."""
        label, keep = d.label.copy(), d.ids != v
        label[v] = bucket
        return dataclasses.replace(d, label=label, ids=d.ids[keep], keys=d.keys[keep])

    def test_bucket_index_must_be_a_pool_position(self):
        t, d = decomp_with_extras(10, [4, 4, 7])
        # vertex 3 leaves its position 4 for bucket 5, but bucket 4 stays
        bad = self._leaves_alone(d, 3, 5)
        assert "bucket index 4 is not a pool position" in check_tpt_decomp(bad, t)
        assert "bucket index 7 is not a pool position" not in check_tpt_decomp(bad, t)

    @staticmethod
    def _flipped(t, arcs):
        m = t.matrix.copy()
        for a, b in arcs:
            m[a, b], m[b, a] = m[b, a], m[a, b]
        return Tournament(m)

    def test_messages_on_a_flipped_pool_arc(self):
        """The exact problem lists, in order: one pool arc flipped (vertex
        6 now beats vertex 2), then also a bucket arc (bucket 4's vertex 10
        now loses to pool vertex 8), then also vertex 3 gone from the pool
        to bucket 5 without bucket 4."""
        t, d = decomp_with_extras(10, [4, 4, 7])
        assert check_tpt_decomp(d, self._flipped(t, [(2, 6)])) == [
            "pool arcs disagree with the localization order"]
        both = self._flipped(t, [(2, 6), (10, 8)])
        assert check_tpt_decomp(d, both) == [
            "pool arcs disagree with the localization order",
            "triangle (10, 3, 8) has two pool vertices",
            "bucket 4 vertex 10 dominated by later pool vertex 8"]
        assert check_tpt_decomp(self._leaves_alone(d, 3, 5), both) == [
            "pool arcs disagree with the localization order",
            "triangle (10, 4, 8) has two pool vertices",
            "bucket index 4 is not a pool position",
            "bucket 4 vertex 10 dominated by later pool vertex 8"]


class TestBucketIndex:
    def test_index_matches_scan_on_acceptance_corpus(self):
        checked = 0
        for t in _tournament_corpus(500, seed=2):
            for k in range(1, 5):
                out = kernelize_tournament(t, k, delta=2.0, problem="TPT")
                if not isinstance(out, KernelOutput):
                    continue
                d = out.state.final
                for v in range(t.n):
                    if v in d.bucketed:
                        assert d.label[v] == bucket_of_scan(d, v)
                        checked += 1
                    else:
                        assert d.label[v] == (POOL if v in d.pool else COLOR)
                        with pytest.raises(KeyError):
                            bucket_of_scan(d, v)
        assert checked > 1000
