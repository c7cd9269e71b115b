from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowkernel.errors import TooLarge
from rainbowkernel.exact import exact_answer, hitting_set_within, optimum
from rainbowkernel.graphs import (Tournament, UndirectedGraph,
                                  enumerate_induced_p3, enumerate_triangles,
                                  is_induced_p3, is_triangle)
from rainbowkernel.instances import InstanceSpec
from rainbowkernel.rainbow import COVER_EXACT_NODE_LIMIT

from .reference.exact import hitting_within
from .reference.rainbow import vertex_cover_within
from .strategies import graphs, tournaments


def transitive(n):
    return Tournament.from_arcs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return UndirectedGraph(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def brute_max_packing(triples):
    best = 0
    items = list(triples)

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(i, len(items)):
            if not set(items[j]) & used:
                rec(j + 1, used | set(items[j]), count + 1)

    rec(0, set(), 0)
    return best


def brute_min_hitting(triples, n):
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            s = set(sub)
            if all(s & set(t) for t in triples):
                return size
    return n


class TestTrivial:
    def test_acyclic_packs_zero(self):
        assert optimum("TPT", transitive(5)).value == 0

    def test_one_cycle_packs_one(self):
        t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert optimum("TPT", t).value == 1

    def test_acyclic_fvs_zero(self):
        assert optimum("FVST", transitive(5)).value == 0

    def test_single_cycle_fvs_one(self):
        t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert optimum("FVST", t).value == 1

    def test_clique_packs_zero(self):
        assert optimum("I2PP", clique(5)).value == 0

    def test_path3_packs_one(self):
        assert optimum("I2PP", path(3)).value == 1

    def test_path6_packs_two(self):
        assert optimum("I2PP", path(6)).value == 2

    def test_clique_hits_zero(self):
        assert optimum("I2PHS", clique(4)).value == 0

    def test_path3_hits_one(self):
        assert optimum("I2PHS", path(3)).value == 1

    def test_star_hits_one_via_center(self):
        g = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])
        ans = optimum("I2PHS", g)
        assert ans.value == 1 and ans.witness == (0,)

    def test_limit_enforced(self):
        with pytest.raises(TooLarge):
            optimum("TPT", transitive(30), limit=24)
        # default caps: 24 vertices for tournaments, 30 for graphs
        assert optimum("FVST", transitive(24)).value == 0
        with pytest.raises(TooLarge):
            optimum("FVST", transitive(25))
        assert optimum("I2PP", clique(30)).value == 0
        with pytest.raises(TooLarge):
            optimum("I2PHS", clique(31))


class TestWitnesses:
    @given(tournaments(max_n=8))
    def test_packing_witness_valid(self, t):
        ans = optimum("TPT", t)
        used = set()
        for tri in ans.witness:
            assert is_triangle(t, tri)
            assert not set(tri) & used
            used |= set(tri)

    @given(tournaments(max_n=8))
    def test_fvs_witness_valid(self, t):
        ans = optimum("FVST", t)
        rest = [v for v in range(t.n) if v not in set(ans.witness)]
        assert not enumerate_triangles(t, rest)

    @given(graphs(max_n=9))
    def test_p3_witnesses_valid(self, g):
        pk = optimum("I2PP", g)
        used = set()
        for tri in pk.witness:
            assert is_induced_p3(g, tri)
            assert not set(tri) & used
            used |= set(tri)
        hit = optimum("I2PHS", g)
        rest = [v for v in range(g.n) if v not in set(hit.witness)]
        assert not enumerate_induced_p3(g, rest)


class TestAgainstBruteForce:
    @given(tournaments(max_n=8))
    @settings(max_examples=40)
    def test_triangle_packing_optimal(self, t):
        triples = enumerate_triangles(t)
        assert optimum("TPT", t).value == brute_max_packing(triples)

    @given(tournaments(max_n=7))
    @settings(max_examples=30)
    def test_fvs_optimal(self, t):
        triples = enumerate_triangles(t)
        assert optimum("FVST", t).value == brute_min_hitting(triples, t.n)

    @given(graphs(max_n=8))
    @settings(max_examples=40)
    def test_p3_packing_optimal(self, g):
        triples = [tuple(sorted(tr)) for tr in enumerate_induced_p3(g)]
        assert optimum("I2PP", g).value == brute_max_packing(triples)

    @given(graphs(max_n=7))
    @settings(max_examples=30)
    def test_p3_hitting_optimal(self, g):
        triples = [tuple(sorted(tr)) for tr in enumerate_induced_p3(g)]
        assert optimum("I2PHS", g).value == brute_min_hitting(triples, g.n)


class TestAtTenVertices:
    def test_fixed_ten_vertex_instances(self):
        import random

        rng = random.Random(10)
        for trial in range(5):
            arcs = []
            for u in range(10):
                for v in range(u + 1, 10):
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            t = Tournament.from_arcs(10, arcs)
            tris = enumerate_triangles(t)
            assert optimum("TPT", t).value == brute_max_packing(tris)
            assert optimum("FVST", t).value == brute_min_hitting(tris, 10)
            g = UndirectedGraph(10, [(u, v) for u in range(10)
                                     for v in range(u + 1, 10)
                                     if rng.random() < 0.4])
            paths = [tuple(sorted(p)) for p in enumerate_induced_p3(g)]
            assert optimum("I2PP", g).value == brute_max_packing(paths)
            assert optimum("I2PHS", g).value == brute_min_hitting(paths, 10)


class TestDuality:
    @given(tournaments(max_n=8))
    def test_tournament_duality(self, t):
        assert optimum("FVST", t).value >= optimum("TPT", t).value

    @given(graphs(max_n=8))
    def test_graph_duality(self, g):
        assert optimum("I2PHS", g).value >= optimum("I2PP", g).value


class TestDecision:
    @given(tournaments(max_n=8))
    @settings(max_examples=30)
    def test_decision_matches_optimum(self, t):
        pack = optimum("TPT", t).value
        fvs = optimum("FVST", t).value
        for k in range(0, 4):
            assert exact_answer(InstanceSpec("TPT", t, k)) == (pack >= k)
            assert exact_answer(InstanceSpec("FVST", t, k)) == (fvs <= k)

    @given(graphs(max_n=8))
    @settings(max_examples=30)
    def test_graph_decision_matches_optimum(self, g):
        pack = optimum("I2PP", g).value
        hit = optimum("I2PHS", g).value
        for k in range(0, 4):
            assert exact_answer(InstanceSpec("I2PP", g, k)) == (pack >= k)
            assert exact_answer(InstanceSpec("I2PHS", g, k)) == (hit <= k)


class TestSharedSearch:
    """`hitting_set_within` returns the very set each search it replaced
    returned: the exact solvers' triple search, and oracle layer 2's vertex
    cover branching (loops as 1-tuples, under its node budget)."""

    @given(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3, unique=True)
                    .map(lambda tri: tuple(sorted(tri))), max_size=14),
           st.integers(0, 6))
    @settings(max_examples=300)
    def test_matches_the_triple_search(self, triples, budget):
        assert hitting_set_within(triples, budget) == hitting_within(triples, budget)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9))
                    .map(lambda e: (min(e), max(e))), max_size=20),
           st.integers(0, 8))
    @settings(max_examples=300)
    def test_matches_the_vertex_cover_branching(self, edges, budget):
        sets = [(u,) if u == v else (u, v) for u, v in edges]
        assert hitting_set_within(sets, budget, COVER_EXACT_NODE_LIMIT) == \
            vertex_cover_within(edges, budget)

    def test_node_budget_gives_up(self):
        # 8 disjoint triangles need 16 vertices, one node per vertex chosen
        triangles = [e for s in range(0, 24, 3) for e in ((s, s + 1), (s, s + 2), (s + 1, s + 2))]
        assert hitting_set_within(triangles, 15) is None
        assert hitting_set_within(triangles, 16) is not None
        assert hitting_set_within(triangles, 16, nodes=5) is None
