import math
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from rainbowkernel.errors import InternalError, OracleExhausted
from rainbowkernel.exact import hitting_set_within
from rainbowkernel.graphs import colored_edge, make_colored_multigraph
from rainbowkernel.rainbow import (ColorCover, RainbowMatching, RainbowOracle,
                                   rainbow_or_cover, verify_outcome)

from .reference.linegraph import (NotClawFree, PartitionedGraph,
                                  build_extended_line_graph,
                                  claw_free_violation, cover_from_dominating,
                                  independent_transversal_or_dominating,
                                  rainbow_from_transversal)
from .strategies import colored_multigraphs


def brute_force_has_rainbow(cm):
    """Independent oracle: plain DFS over colors, no ordering, no memo."""
    by_color = [[] for _ in range(cm.p)]
    for e in cm.edges:
        by_color[e.color].append(e)

    def rec(c, used):
        if c == cm.p:
            return True
        for e in by_color[c]:
            pts = e.endpoints()
            if not pts & used and rec(c + 1, used | pts):
                return True
        return False

    return rec(0, frozenset())


def brute_force_small_cover_exists(cm, epsilon):
    """Some non-empty color set whose minimum vertex cover is at most
    (4+eps)(|C|-1)."""
    for size in range(1, cm.p + 1):
        budget = int((4 + epsilon) * (size - 1) + 1e-9)
        for colors in combinations(range(cm.p), size):
            edges = [e for e in cm.edges if e.color in set(colors)]
            if hitting_set_within([(e.u,) if e.is_loop else (e.u, e.v) for e in edges],
                                  budget) is not None:
                return True
    return False


class TestExtendedLineGraph:
    def test_single_edge(self):
        cm = make_colored_multigraph([0, 1], [colored_edge(0, 1, 0)], 1)
        pg = build_extended_line_graph(cm)
        assert pg.n == 1 and pg.parts == ((0,),)
        assert all(not a for a in pg.adj)

    def test_two_loops_share_vertex(self):
        cm = make_colored_multigraph(
            [0], [colored_edge(0, 0, 0), colored_edge(0, 0, 1)], 2)
        pg = build_extended_line_graph(cm)
        assert pg.n == 2
        assert pg.adj[0] == {1} and pg.adj[1] == {0}

    def test_path_with_repeated_color(self):
        # colors may repeat on non-parallel edges: a-b (0), b-c (1), c-d (0)
        cm = make_colored_multigraph(
            [0, 1, 2, 3],
            [colored_edge(0, 1, 0), colored_edge(1, 2, 1), colored_edge(2, 3, 0)], 2)
        pg = build_extended_line_graph(cm)
        assert pg.n == 3
        edges = {(i, j) for i in range(3) for j in pg.adj[i] if i < j}
        assert edges == {(0, 1), (1, 2)}
        assert pg.parts[0] == (0, 2)

    @given(colored_multigraphs())
    def test_always_three_claw_free(self, cm):
        assert claw_free_violation(build_extended_line_graph(cm)) is None


class TestTransversalDichotomy:
    def test_all_singletons_no_edges(self):
        pg = PartitionedGraph(3, (frozenset(), frozenset(), frozenset()),
                              ((0,), (1,), (2,)))
        kind, val = independent_transversal_or_dominating(pg, 1.0)
        assert kind == "transversal" and set(val) == {0, 1, 2}

    def test_minimal_blocked_case(self):
        # two singleton classes joined by an edge: no transversal
        pg = PartitionedGraph(2, (frozenset({1}), frozenset({0})), ((0,), (1,)))
        kind, (subset, dom) = independent_transversal_or_dominating(pg, 1.0)
        assert kind == "dominating"
        assert set(subset) == {0, 1}
        assert set(dom) <= {0, 1} and len(dom) <= (2 + 1.0) * 1

    def test_two_disconnected_singletons(self):
        pg = PartitionedGraph(2, (frozenset(), frozenset()), ((0,), (1,)))
        kind, val = independent_transversal_or_dominating(pg, 1.0)
        assert kind == "transversal" and set(val) == {0, 1}

    def test_claw_violation_detected(self):
        # center 0 adjacent to three pairwise non-adjacent vertices in
        # three distinct classes
        adj = (frozenset({1, 2, 3}), frozenset({0}), frozenset({0}), frozenset({0}))
        pg = PartitionedGraph(4, adj, ((0, 1), (2,), (3,)))
        with pytest.raises(NotClawFree):
            independent_transversal_or_dominating(pg, 1.0)


class TestOracleExamples:
    def test_empty_multigraph(self):
        cm = make_colored_multigraph([], [], 0)
        out = rainbow_or_cover(cm, 1.0)
        assert isinstance(out, RainbowMatching) and out.edges == ()

    def test_two_disjoint_loops(self):
        cm = make_colored_multigraph(
            [0, 1], [colored_edge(0, 0, 0), colored_edge(1, 1, 1)], 2)
        out = rainbow_or_cover(cm, 1.0)
        assert isinstance(out, RainbowMatching)
        assert out.by_color()[0].u == 0 and out.by_color()[1].u == 1

    def test_conflicting_loops_force_cover(self):
        cm = make_colored_multigraph(
            [0], [colored_edge(0, 0, 0), colored_edge(0, 0, 1)], 2)
        out = rainbow_or_cover(cm, 1.0)
        assert isinstance(out, ColorCover)
        ok, problems = verify_outcome(cm, out)
        assert ok, problems
        assert not brute_force_has_rainbow(cm)

    def test_star_forces_cover(self):
        # a chain of conflicting pair edges, all one shared vertex
        edges = [colored_edge(0, i + 1, i) for i in range(4)]
        cm = make_colored_multigraph(range(5), edges, 4)
        assert not brute_force_has_rainbow(cm)
        out = rainbow_or_cover(cm, 1.0)
        assert isinstance(out, ColorCover)
        ok, _ = verify_outcome(cm, out)
        assert ok

    def test_unanswered_multigraph_raises_oracle_exhausted(self, monkeypatch):
        # layer 1 misses three colors of the star; with layer 2 silenced no layer answers
        cm = make_colored_multigraph(range(5), [colored_edge(0, i + 1, i) for i in range(4)], 4)
        monkeypatch.setattr(RainbowOracle, "_blocked_cover", lambda *args: None)
        with pytest.raises(OracleExhausted) as err:
            RainbowOracle().solve(cm, 1.0)
        assert err.value.cm is cm and isinstance(err.value, InternalError)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        cm = make_colored_multigraph([0], [colored_edge(0, 0, 0)], 1)
        with pytest.raises(ValueError, match="finite positive"):
            rainbow_or_cover(cm, epsilon)

    def test_epsilon_overflowing_the_cover_budget_is_a_value_error(self):
        # layer 2 would take floor((4 + eps) |C|) of the 4-color star
        cm = make_colored_multigraph(range(5), [colored_edge(0, i + 1, i) for i in range(4)], 4)
        assert isinstance(rainbow_or_cover(cm, 1e300), ColorCover)
        with pytest.raises(ValueError, match="overflows a float"):
            rainbow_or_cover(cm, 1e308)

    @pytest.mark.parametrize("t", [13, 16])
    def test_exact_cover_branching_is_budgeted(self, t):
        """Colors 0..3t/2-1 hold one edge each, a near-perfect matching; five
        more colors share the 3t edges of t disjoint triangles.  Layer 1 misses
        the five, and covering them takes 2t > 24 vertices, past the eps = 1
        budget, so an exact branching without a node budget ran for a minute."""
        n = 3 * t
        edges = [colored_edge(2 * i, 2 * i + 1, i) for i in range(n // 2)]
        triangles = [(3 * s + a, 3 * s + b) for s in range(t) for a, b in ((0, 1), (1, 2), (0, 2))]
        edges += [colored_edge(u, v, n // 2 + i % 5) for i, (u, v) in enumerate(triangles)]
        cm = make_colored_multigraph(range(n), edges, n // 2 + 5)
        start = time.perf_counter()
        out, stats = RainbowOracle().solve(cm, 1.0)
        assert time.perf_counter() - start < 5.0
        assert stats.layer == "blocked-cover" and verify_outcome(cm, out)[0]


class TestVerifyOutcome:
    def setup_method(self):
        self.cm = make_colored_multigraph(
            [0, 1, 2, 3],
            [colored_edge(0, 1, 0), colored_edge(2, 3, 1), colored_edge(0, 2, 1)], 2)

    def test_valid_matching(self):
        m = RainbowMatching((colored_edge(0, 1, 0), colored_edge(2, 3, 1)))
        ok, problems = verify_outcome(self.cm, m)
        assert ok and not problems

    def test_overlapping_matching_rejected(self):
        m = RainbowMatching((colored_edge(0, 1, 0), colored_edge(0, 2, 1)))
        ok, problems = verify_outcome(self.cm, m)
        assert not ok and any("shares a vertex" in p for p in problems)

    def test_cover_missing_edge_rejected(self):
        cover = ColorCover(frozenset({1}), frozenset({3}), 1.0)
        ok, problems = verify_outcome(self.cm, cover)
        assert not ok and any("not covered" in p for p in problems)


class TestDichotomyProperties:
    @given(colored_multigraphs())
    def test_outcome_always_verifies(self, cm):
        out = rainbow_or_cover(cm, 1.0)
        ok, problems = verify_outcome(cm, out)
        assert ok, problems

    @given(colored_multigraphs(max_vertices=8, max_colors=5))
    @settings(max_examples=40)
    def test_no_matching_implies_achievable_cover(self, cm):
        out = rainbow_or_cover(cm, 1.0)
        if isinstance(out, ColorCover):
            if not brute_force_has_rainbow(cm):
                assert brute_force_small_cover_exists(cm, 1.0)
        else:
            assert brute_force_has_rainbow(cm)

    @given(colored_multigraphs(max_vertices=24, max_colors=12),
           st.sampled_from((0.01, 0.1, 0.5, 1.0)))
    @settings(max_examples=300)
    def test_targeted_search_finds_no_unanswered_multigraph(self, cm, epsilon):
        """Pushed towards multigraphs where layer 1 misses many colors and
        layer 2's cover has little slack, the oracle still answers."""
        out, stats = RainbowOracle().solve(cm, epsilon)
        ok, problems = verify_outcome(cm, out)
        assert ok, problems
        target(float(stats.layer1_missing), label="colors layer 1 missed")
        target(float(stats.layer1_visits), label="edge visits layer 1 charged")
        if isinstance(out, ColorCover):
            target(len(out.cover) - (4 + epsilon) * len(out.colors), label="cover slack, negated")

    @given(colored_multigraphs(max_vertices=8, max_colors=4))
    @settings(max_examples=40)
    def test_translation_soundness(self, cm):
        """The reference route: extended line graph + transversal dichotomy,
        translated back, must verify against the multigraph."""
        pg = build_extended_line_graph(cm)
        kind, value = independent_transversal_or_dominating(pg, 0.5)
        if kind == "transversal":
            matching = rainbow_from_transversal(cm, value)
            ok, problems = verify_outcome(cm, matching)
            assert ok, problems
        else:
            subset, dom = value
            cover = cover_from_dominating(cm, subset, dom, 1.0)
            ok, problems = verify_outcome(cm, cover)
            assert ok, problems
            assert len(cover.cover) <= (4 + 1.0) * (len(subset) - 1)
