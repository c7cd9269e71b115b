from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowkernel.errors import NotAcyclic
from rainbowkernel.graphs import (ColoredMultigraph, Tournament,
                                  UndirectedGraph, clique_fit, clique_partition,
                                  colored_edge, enumerate_induced_p3, enumerate_triangles,
                                  is_acyclic, is_triangle, make_colored_multigraph,
                                  packing_fault, topological_order)

from .reference import p3 as ref_p3
from .reference.text import induced_by_edge_list
from .strategies import colored_multigraphs, graphs, tournaments


@st.composite
def near_cluster_graphs(draw, max_n=12):
    """A disjoint union of cliques with up to two vertex pairs toggled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    name = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    edges = {(u, v) for u, v in combinations(range(n), 2) if name[u] == name[v]}
    if n >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            edges ^= {tuple(sorted(draw(st.permutations(range(n)))[:2]))}
    return UndirectedGraph(n, edges)


def triangle_tournament():
    return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive(n):
    return Tournament.from_arcs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestTypes:
    def test_graph_rejects_self_loop(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(1, 1)])

    def test_graph_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            UndirectedGraph(2, [(0, 5)])

    def test_tournament_rejects_double_arc(self):
        with pytest.raises(ValueError):
            Tournament([[False, True], [True, False]])

    def test_tournament_rejects_missing_arc(self):
        with pytest.raises(ValueError):
            Tournament([[False, False], [False, False]])

    def test_induced_relabels_sorted(self):
        g = UndirectedGraph(5, [(0, 3), (3, 4), (1, 2)])
        h = g.induced([0, 3, 4])
        assert h.n == 3 and set(h.edges()) == {(0, 1), (1, 2)}

    def test_multigraph_requires_surjective_colors(self):
        with pytest.raises(ValueError, match="surjective"):
            make_colored_multigraph([0], [colored_edge(0, 0, 0)], 2)

    def test_multigraph_rejects_parallel_same_color(self):
        with pytest.raises(ValueError, match="parallel"):
            ColoredMultigraph((0, 1), [0, 1], [1, 0], [0, 0], 1)


class TestShortcuts:
    """`UndirectedGraph.from_matrix` and a multigraph built from edges
    already in order skip work; they must build what the long way builds
    and reject what it rejects, with the same messages."""

    @given(graphs(), st.lists(st.integers(min_value=0, max_value=11), max_size=16))
    def test_induced_equals_the_edge_list_path(self, g, keep):
        keep = [v for v in keep if v < g.n]
        h = g.induced(keep)
        assert h == induced_by_edge_list(g, keep) and h.n == len(set(keep))
        assert not h.matrix().flags.writeable

    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_from_matrix_accepts_exactly_adjacency_matrices(self, n, data):
        cells = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        m = np.array(cells, dtype=bool).reshape(n, n)
        if data.draw(st.booleans()):  # mostly valid: the upper triangle mirrored
            m = np.triu(m, 1) | np.triu(m, 1).T
        if (m == m.T).all() and not m.diagonal().any():
            g = UndirectedGraph.from_matrix(m)
            assert g == UndirectedGraph(n, np.argwhere(m)) and not g.matrix().flags.writeable
        else:
            with pytest.raises(ValueError):
                UndirectedGraph.from_matrix(m)

    @pytest.mark.parametrize("m", [np.zeros(3, dtype=bool), np.zeros((2, 3), dtype=bool),
                                   np.zeros((2, 2, 2), dtype=bool), [[False, True], [False, False]],
                                   [[True, False], [False, False]]],
                             ids=["vector", "non-square", "cube", "asymmetric", "loop"])
    def test_from_matrix_rejects(self, m):
        with pytest.raises(ValueError):
            UndirectedGraph.from_matrix(m)

    @staticmethod
    def _shuffled(us, vs, cs, data):
        """The edge columns in a drawn order, some with their ends swapped."""
        perm = np.array(data.draw(st.permutations(range(cs.size))), dtype=np.intp)
        swap = np.array(data.draw(st.lists(st.booleans(), min_size=cs.size, max_size=cs.size)),
                        dtype=bool)
        return np.where(swap, vs, us)[perm], np.where(swap, us, vs)[perm], cs[perm]

    @given(colored_multigraphs(), st.data())
    def test_in_order_input_builds_what_shuffled_input_builds(self, cm, data):
        us, vs, cs = cm.vertices[cm.u], cm.vertices[cm.v], cm.color
        n = cm.vertices.size
        assert (np.diff((cs * n + cm.u) * n + cm.v) > 0).all()  # strictly in order
        a = ColoredMultigraph(cm.vertices[::-1], us, vs, cs, cm.p)
        b = ColoredMultigraph(cm.vertices, *self._shuffled(us, vs, cs, data), cm.p)
        for name in ("vertices", "u", "v", "color", "offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert not getattr(a, name).flags.writeable

    @given(colored_multigraphs(), st.sampled_from(["duplicate vertex", "endpoint outside",
                                                   "color out of range", "parallel same color",
                                                   "unused color"]), st.data())
    def test_errors_do_not_depend_on_the_input_order(self, cm, fault, data):
        vertices, p = cm.vertices.tolist(), cm.p
        us, vs, cs = cm.vertices[cm.u], cm.vertices[cm.v], cm.color.copy()
        i = data.draw(st.integers(min_value=0, max_value=cs.size - 1))
        if fault == "duplicate vertex":
            vertices.append(vertices[i % len(vertices)])
        elif fault == "endpoint outside":
            vs[i] = max(vertices) + 1
        elif fault == "color out of range":
            cs[-1] = p
        elif fault == "parallel same color":
            us, vs, cs = (np.insert(x, i, x[i]) for x in (us, vs, cs))
        else:
            gone = cs != cs[i]
            if not gone.any():  # the only color: leave it, one past it goes unused
                gone, p = ~gone, p + 1
            us, vs, cs = us[gone], vs[gone], cs[gone]
        in_order = _constructor_error(vertices, us, vs, cs, p)
        shuffled = _constructor_error(vertices[::-1], *self._shuffled(us, vs, cs, data), p)
        assert in_order is not None and in_order == shuffled


def _constructor_error(*args) -> str | None:
    try:
        ColoredMultigraph(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestTopologicalOrder:
    def test_single_vertex(self):
        t = transitive(4)
        assert topological_order(t, [2]) == (2,)

    def test_transitive_triple(self):
        t = Tournament.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        assert topological_order(t, [0, 1, 2]) == (0, 1, 2)

    def test_directed_triangle_raises(self):
        t = triangle_tournament()
        # all six orders fail, so the witness is the triangle itself
        with pytest.raises(NotAcyclic) as err:
            topological_order(t, [0, 1, 2])
        assert set(err.value.witness) == {0, 1, 2}

    @given(tournaments())
    def test_arcs_go_forward(self, t):
        order = None
        try:
            order = topological_order(t, range(t.n))
        except NotAcyclic:
            return
        for i, u in enumerate(order):
            for v in order[i + 1:]:
                assert t.has_arc(u, v)

    @given(tournaments(max_n=12), st.data())
    def test_witness_is_a_triangle_in_scope(self, t, data):
        scope = data.draw(st.sets(st.sampled_from(range(t.n)))) if t.n else set()
        if is_acyclic(t, scope):
            topological_order(t, scope)
            return
        with pytest.raises(NotAcyclic) as err:
            topological_order(t, scope)
        witness = err.value.witness
        assert set(witness) <= scope and is_triangle(t, witness)

    def test_witness_at_scale(self):
        rng = np.random.default_rng(5)
        for n in (30, 200, 600):
            upper = np.triu(rng.random((n, n)) < 0.5, 1)
            t = Tournament(upper | np.tril(~upper.T, -1))
            scope = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
            with pytest.raises(NotAcyclic) as err:
                topological_order(t, scope)
            assert set(err.value.witness) <= set(scope)
            assert is_triangle(t, err.value.witness)


class TestEnumeration:
    def test_acyclic_has_no_triangles(self):
        assert enumerate_triangles(transitive(6)) == []

    def test_single_cycle(self):
        assert enumerate_triangles(triangle_tournament()) == [(0, 1, 2)]

    @given(tournaments(max_n=6, min_n=6))
    def test_triangles_match_naive(self, t):
        naive = []
        for a in range(6):
            for b in range(a + 1, 6):
                for c in range(b + 1, 6):
                    arcs = sum((t.has_arc(a, b), t.has_arc(b, c), t.has_arc(c, a)))
                    if arcs in (0, 3):
                        naive.append((a, b, c))
        assert enumerate_triangles(t) == sorted(naive)

    @given(tournaments(max_n=12), st.sets(st.integers(min_value=0, max_value=11)))
    def test_triangles_in_a_scope_match_naive(self, t, scope):
        scope = {v for v in scope if v < t.n}
        assert enumerate_triangles(t, scope) == \
            [tri for tri in combinations(sorted(scope), 3) if is_triangle(t, tri)]

    @given(tournaments(max_n=9), st.sets(st.integers(min_value=0, max_value=8)))
    def test_acyclic_iff_no_triangle(self, t, scope):
        scope = {v for v in scope if v < t.n}
        assert is_acyclic(t, scope) == (not enumerate_triangles(t, scope))

    def test_clique_has_no_p3(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert enumerate_induced_p3(g) == []

    def test_path(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        assert enumerate_induced_p3(g) == [(0, 1, 2)]

    def test_star_has_three(self):
        g = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])
        found = enumerate_induced_p3(g)
        assert len(found) == 3
        assert all(center == 0 for _, center, _ in found)

    @given(graphs())
    def test_p3_match_naive(self, g):
        naive = set()
        for a in range(g.n):
            for b in range(a + 1, g.n):
                for c in range(b + 1, g.n):
                    edges = [g.has_edge(a, b), g.has_edge(a, c), g.has_edge(b, c)]
                    if sum(edges) == 2:
                        naive.add((a, b, c))
        assert {tuple(sorted(tr)) for tr in enumerate_induced_p3(g)} == naive

    @given(st.one_of(graphs(), near_cluster_graphs()), st.data())
    @settings(max_examples=300)
    def test_clique_partition_matches_enumeration(self, g, data):
        scope = [v for v in range(g.n) if data.draw(st.booleans())]
        cliques = clique_partition(g, scope)
        assert (cliques is None) == bool(enumerate_induced_p3(g, scope))
        if cliques is not None:
            assert cliques == ref_p3.clique_components(g, scope)

    @given(st.one_of(graphs(), near_cluster_graphs()), st.data())
    @settings(max_examples=300)
    def test_clique_fit_matches_brute_force(self, g, data):
        """Per vertex of a non-empty scope: its name is the position of the
        least member of its closed neighbourhood in the scope, and it fits
        exactly when that neighbourhood is its name class."""
        scope = [v for v in range(g.n) if data.draw(st.booleans())]
        if not scope:
            return
        name, fits = clique_fit(g.matrix(), np.array(scope))
        closed = [{w for w in scope if w == v or g.has_edge(v, w)} for v in scope]
        assert name.tolist() == [scope.index(min(c)) for c in closed]
        classes = [{w for w, nm in zip(scope, name.tolist()) if nm == x} for x in name.tolist()]
        assert fits.tolist() == [c == cls for c, cls in zip(closed, classes)]

    def test_clique_partition_rejects_six_cycle(self):
        # every vertex sees as many vertices as carry its name, yet 0-5-2 is a 2-path
        g = UndirectedGraph(6, [(0, 4), (0, 5), (1, 2), (1, 3), (2, 5), (3, 4)])
        assert clique_partition(g, range(6)) is None
        assert clique_partition(g, [0, 4, 3]) is None
        assert clique_partition(g, [0, 4, 1, 2]) == ((0, 4), (1, 2))

    @given(tournaments())
    def test_triangle_scope_respected(self, t):
        scope = list(range(0, t.n, 2))
        for tri in enumerate_triangles(t, scope):
            assert set(tri) <= set(scope)


def _two_obstructions(kind: str):
    """{0, 1, 2} and {3, 4, 5} as directed triangles of a 7-vertex tournament
    that is transitive otherwise, or as induced 2-paths of a 7-vertex graph."""
    if kind == "tournament":
        m = np.triu(np.ones((7, 7), dtype=bool), 1)
        m[0, 2], m[2, 0], m[3, 5], m[5, 3] = False, True, False, True
        return Tournament(m), "is not a triangle"
    return UndirectedGraph(7, [(0, 1), (1, 2), (3, 4), (4, 5)]), "is not an induced 2-path"


@pytest.mark.parametrize("kind", ["tournament", "graph"])
@pytest.mark.parametrize("packing, scope, fault", [
    ([(0, 1, 2), (5, 4, 3)], None, None),
    ([(0, 1, 2), (3, 4, 5)], {0, 1, 2, 3, 4, 5}, None),
    ([], set(), None),
    ([(1, 1, 2)], None, "(1, 1, 2) {obstruction}"),
    ([(0, 1, 3)], None, "(0, 1, 3) {obstruction}"),
    ([(0, 1, 2), (2, 1, 0)], None, "packing is not vertex-disjoint"),
    ([(3, 4, 5), (0, 1, 2)], {0, 1, 3, 4, 5}, "(0, 1, 2) leaves the scope"),
], ids=["valid", "valid-in-scope", "empty", "repeated-vertex", "non-obstruction", "overlap",
        "outside-scope"])
def test_packing_fault(kind, packing, scope, fault):
    payload, obstruction = _two_obstructions(kind)
    expected = None if fault is None else fault.format(obstruction=obstruction)
    assert packing_fault(payload, packing, scope) == expected

