"""Hypothesis strategies shared by the test modules."""
import numpy as np
from hypothesis import strategies as st

from rainbowkernel.demand import BucketProfile
from rainbowkernel.graphs import (Tournament, UndirectedGraph, colored_edge,
                                  make_colored_multigraph)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return UndirectedGraph(n, [p for p, f in zip(pairs, flags) if f])


@st.composite
def tournaments(draw, max_n=10, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                m[u, v] = True
            else:
                m[v, u] = True
    return Tournament(m)


@st.composite
def colored_multigraphs(draw, max_vertices=12, max_colors=6):
    """Vertex ids are sparse and start past 0, so that a vertex position
    read as an id (or the reverse) shows."""
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    ids = sorted(draw(st.sets(st.integers(min_value=1, max_value=8 * max_vertices),
                              min_size=nv, max_size=nv)))
    p = draw(st.integers(min_value=1, max_value=max_colors))
    edges = {}
    count = draw(st.integers(min_value=0, max_value=3 * p + 4))
    for _ in range(count):
        c = draw(st.integers(min_value=0, max_value=p - 1))
        if draw(st.booleans()) or nv < 2:
            v = ids[draw(st.integers(min_value=0, max_value=nv - 1))]
            edges[(v, v, c)] = colored_edge(v, v, c)
        else:
            u = ids[draw(st.integers(min_value=0, max_value=nv - 1))]
            v = ids[draw(st.integers(min_value=0, max_value=nv - 1))]
            if u == v:
                continue
            e = colored_edge(u, v, c)
            edges[(e.u, e.v, c)] = e
    used = {c for (_, _, c) in edges}
    for c in range(p):
        if c not in used:
            v = ids[draw(st.integers(min_value=0, max_value=nv - 1))]
            edges[(v, v, c)] = colored_edge(v, v, c)
    return make_colored_multigraph(ids, edges.values(), p)


@st.composite
def twin_color_multigraphs(draw, max_vertices=12, max_colors=6, max_copies=4):
    """`colored_multigraphs` with each color's edge set copied into a run of
    consecutive colors, as an interval's slot colors are built; sometimes
    the colors are then shuffled, so that twins lie apart in layer 1's
    order."""
    cm = draw(colored_multigraphs(max_vertices, max_colors))
    cuts = cm.offsets.tolist()
    runs = []
    for c in range(cm.p):
        edges = [cm.edge(i) for i in range(cuts[c], cuts[c + 1])]
        runs += [edges] * draw(st.integers(min_value=1, max_value=max_copies))
    if draw(st.booleans()):
        runs = draw(st.permutations(runs))
    return make_colored_multigraph(cm.vertices.tolist(), [colored_edge(e.u, e.v, c)
                                   for c, edges in enumerate(runs) for e in edges], len(runs))


@st.composite
def bucket_profiles(draw, max_buckets=8, max_seed=4, max_bulk=6):
    count = draw(st.integers(min_value=1, max_value=max_buckets))
    indices = tuple(sorted(draw(st.sets(
        st.integers(min_value=1, max_value=40), min_size=count, max_size=count))))
    seeds = {i: draw(st.integers(min_value=1, max_value=max_seed)) for i in indices}
    bulk = {i: draw(st.integers(min_value=0, max_value=max_bulk)) for i in indices}
    return BucketProfile(indices, seeds, bulk)
