"""Core combinatorial objects: graphs, tournaments, edge-colored multigraphs.

Vertices are dense integer ids 0..n-1.  All objects are immutable after
construction (numpy buffers are frozen) and safe to share between workers.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NotAcyclic, ParseError


def take_block(matrix: np.ndarray, rows, cols) -> np.ndarray:
    """`matrix[rows][:, cols]` by two `take`s, 3-5x faster than `np.ix_`."""
    return matrix.take(rows, 0).take(cols, 1)


class UndirectedGraph:
    """Finite simple graph held as its read-only boolean adjacency matrix."""

    __slots__ = ("n", "_matrix")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            uv = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        except OverflowError:  # an id beyond the machine integers is out of range
            uv = np.array([[-1, -1]])
        if ((uv < 0) | (uv >= n)).any() or (uv[:, 0] == uv[:, 1]).any():
            for u, v in pairs:  # report the first bad edge
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-adjacency at vertex {u}")
        m = np.zeros((n, n), dtype=bool)
        m[uv[:, 0], uv[:, 1]] = m[uv[:, 1], uv[:, 0]] = True
        m.setflags(write=False)
        self.n, self._matrix = n, m

    @classmethod
    def from_matrix(cls, matrix) -> "UndirectedGraph":
        """The graph with the adjacency `matrix`: square, symmetric, no loops."""
        m = np.array(matrix, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.diagonal().any() or (m != m.T).any():
            raise ValueError("an adjacency matrix is square and symmetric with a False diagonal")
        m.setflags(write=False)
        g = cls.__new__(cls)
        g.n, g._matrix = m.shape[0], m
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._matrix[u, v])

    def neighbors(self, u: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._matrix[u]).tolist())

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(self._matrix)
        upper = us < vs
        return list(zip(us[upper].tolist(), vs[upper].tolist()))

    def matrix(self) -> np.ndarray:
        return self._matrix

    def induced(self, keep: Iterable[int]) -> "UndirectedGraph":
        """Induced subgraph on `keep`, relabeled to 0..|keep|-1 in sorted id order."""
        ids = sorted(set(keep))
        return UndirectedGraph.from_matrix(take_block(self._matrix, ids, ids))

    def __eq__(self, other) -> bool:
        return isinstance(other, UndirectedGraph) and np.array_equal(self._matrix, other._matrix)

    def __hash__(self):
        return hash((self.n, np.packbits(self._matrix).tobytes()))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={np.count_nonzero(self._matrix) // 2})"


class Tournament:
    """Complete digraph: exactly one arc per unordered vertex pair, no loops."""

    __slots__ = ("n", "_m")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("orientation matrix must be square")
        n = m.shape[0]
        if n and m.diagonal().any():
            raise ValueError("loops are not allowed")
        if n:
            both = m & m.T
            neither = ~(m | m.T)
            np.fill_diagonal(neither, False)
            if both.any() or neither.any():
                raise ValueError("every pair must carry exactly one arc")
        m.setflags(write=False)
        self.n = n
        self._m = m

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        m = np.zeros((n, n), dtype=bool)
        for u, v in arcs:
            m[u, v] = True
        return cls(m)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._m[u, v])

    def induced(self, keep: Iterable[int]) -> "Tournament":
        ids = sorted(set(keep))
        return Tournament(take_block(self._m, ids, ids))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and np.array_equal(self._m, other._m)
        )

    def __hash__(self):
        return hash((self.n, self._m.tobytes()))

    def __repr__(self):
        return f"Tournament(n={self.n})"


def enumerate_triangles(t: Tournament, scope: Iterable[int] | None = None) -> list[tuple[int, int, int]]:
    """All 3-sets inside `scope` that induce a directed 3-cycle, as sorted
    triples; the list is sorted.  Through its least vertex a, a 3-cycle
    runs a -> x -> y -> a with x and y later."""
    ids = np.array(sorted(set(scope)) if scope is not None else range(t.n), dtype=np.intp)
    sub = take_block(t.matrix, ids, ids)
    out = []
    for a in range(ids.size):
        xs, ys = (np.flatnonzero(line[a + 1:]) + a + 1 for line in (sub[a], sub[:, a]))
        i, j = np.nonzero(take_block(sub, xs, ys))
        b, c = ids[xs[i]], ids[ys[j]]
        out += zip([int(ids[a])] * i.size, np.minimum(b, c).tolist(), np.maximum(b, c).tolist())
    return sorted(out)


def is_triangle(t: Tournament, tri: Iterable[int]) -> bool:
    a, b, c = sorted(tri)
    m = t.matrix
    if m[a, b]:
        return bool(m[b, c] and m[c, a])
    return bool(m[c, b] and m[a, c])


def topological_order(t: Tournament, scope: Iterable[int]) -> tuple[int, ...]:
    """Unique topological order of an acyclic sub-tournament.

    Raises NotAcyclic (with a witnessing triangle) if the scoped part contains
    a directed 3-cycle.  An acyclic tournament is transitive, so sorting by
    out-degree inside the scope yields the order; the arcs are then verified.
    The witness closes the first backward arc j -> i of that order: i scores
    at least as high as j, which beats i, so some k has i -> k -> j.
    """
    ids = sorted(set(scope))
    if len(ids) <= 1:
        return tuple(ids)
    sub = take_block(t.matrix, ids, ids)
    scores = sub.sum(axis=1)
    perm = sorted(range(len(ids)), key=lambda i: (-int(scores[i]), ids[i]))
    reordered = take_block(sub, perm, perm)
    backward = np.flatnonzero(np.triu(~reordered, 1))
    if backward.size:
        p, q = divmod(int(backward[0]), len(ids))
        i, j = perm[p], perm[q]
        k = int(np.flatnonzero(sub[i] & sub[:, j])[0])
        raise NotAcyclic(tuple(sorted((ids[i], ids[j], ids[k]))))
    return tuple(ids[i] for i in perm)


def is_acyclic(t: Tournament, scope: Iterable[int]) -> bool:
    """Whether the scoped sub-tournament has no directed 3-cycle.  A tournament
    is acyclic exactly when its scores are pairwise distinct, so this is one
    O(n^2) pass with no witness search."""
    ids = sorted(set(scope))
    scores = take_block(t.matrix, ids, ids).sum(axis=1)
    return len(np.unique(scores)) == len(ids)


def enumerate_induced_p3(g: UndirectedGraph, scope: Iterable[int] | None = None) -> list[tuple[int, int, int]]:
    """All induced 2-paths inside `scope`, as (endpoint, center, endpoint) with
    endpoints sorted; the list is sorted.  A triple {u,v,w} qualifies iff
    exactly two of the three pairs are edges and they share the center."""
    ids = np.array(sorted(set(scope)) if scope is not None else range(g.n), dtype=np.intp)
    sub = take_block(g.matrix(), ids, ids)
    out = []
    for v in range(ids.size):
        nb = np.flatnonzero(sub[v])
        i, j = np.nonzero(np.triu(~take_block(sub, nb, nb), 1))
        out += zip(ids[nb[i]].tolist(), [int(ids[v])] * i.size, ids[nb[j]].tolist())
    return sorted(out)


def clique_fit(matrix: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex of the non-empty sorted scope `ids`: its name, the position
    in `ids` of the least member of its closed neighbourhood, and whether
    that is its name class: the least and largest name it sees are its own and
    its closed degree is its class size.  A class that fits is a clique component."""
    closed = take_block(matrix, ids, ids)
    np.fill_diagonal(closed, True)
    name = closed.argmax(axis=1)
    names = np.broadcast_to(name, closed.shape)
    low = np.minimum.reduce(names, axis=1, where=closed, initial=ids.size)
    high = np.maximum.reduce(names, axis=1, where=closed, initial=-1)
    sizes = np.bincount(name, minlength=ids.size)
    return name, (low == name) & (high == name) & (np.count_nonzero(closed, axis=1) == sizes[name])


def clique_partition(g: UndirectedGraph, scope: Iterable[int]) -> tuple[tuple[int, ...], ...] | None:
    """The cliques of a scope with no induced 2-path, ordered by least member;
    None when the scope has one, i.e. some vertex does not fit (`clique_fit`)."""
    ids = np.array(sorted(set(scope)), dtype=np.intp)
    if not ids.size:
        return ()
    name, fits = clique_fit(g.matrix(), ids)
    return tuple(group_by(name, ids, tuple).values()) if fits.all() else None


def group_by(label: np.ndarray, xs, into=frozenset) -> dict:
    """The `xs` grouped by their `label`, in increasing label order; `into`
    builds each group from its members in the order of `xs`."""
    order = np.argsort(label, kind="stable")
    label, members = label[order], np.asarray(xs)[order].tolist()
    starts = np.flatnonzero(np.diff(label, prepend=label[:1] - 1)).tolist()
    return {k: into(members[a:b]) for k, a, b in
            zip(label[starts].tolist(), starts, starts[1:] + [len(members)])}


def is_induced_p3(g: UndirectedGraph, triple: Iterable[int]) -> bool:
    a, b, c = sorted(triple)
    e = int(g.has_edge(a, b)) + int(g.has_edge(a, c)) + int(g.has_edge(b, c))
    return e == 2 and a < b < c


def packing_fault(payload: Tournament | UndirectedGraph, packing, scope=None) -> str | None:
    """Why `packing` is not a vertex-disjoint packing of obstructions of
    `payload` (triangles of a tournament, induced 2-paths of a graph) inside
    the vertex set `scope` (default: all of them); None when it is one."""
    tournament = isinstance(payload, Tournament)
    used: set[int] = set()
    for tri in packing:
        if scope is not None and not scope.issuperset(tri):
            return f"{tri} leaves the scope"
        if tournament and not is_triangle(payload, tri):
            return f"{tri} is not a triangle"
        if not tournament and not is_induced_p3(payload, tri):
            return f"{tri} is not an induced 2-path"
        if not used.isdisjoint(tri):
            return "packing is not vertex-disjoint"
        used.update(tri)
    return None


# ---------------------------------------------------------------------------
# Edge-colored multigraphs
# ---------------------------------------------------------------------------


class ColoredEdge(NamedTuple):
    """A loop (u == v) or ordinary edge (u < v) carrying one color.  Edges
    sort, compare and hash as the tuple (u, v, color)."""

    u: int
    v: int
    color: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def endpoints(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


def colored_edge(u: int, v: int, color: int) -> ColoredEdge:
    return ColoredEdge(min(u, v), max(u, v), color)


class ColoredMultigraph:
    """Multigraph with loops whose edges carry colors 0..p-1, held as arrays.

    `vertices` are the sorted vertex ids.  Edge i joins the vertex positions
    u[i] <= v[i] (a loop when equal) in color color[i]; the edges are sorted
    by (color, u, v), so color c owns edges offsets[c] to offsets[c + 1].
    Every color is used by at least one edge, and parallel edges (same
    endpoint set) never share a color.  The constructor takes the endpoints
    as vertex ids, in either order.
    """

    def __init__(self, vertices, us, vs, colors, p: int):
        ids = np.sort(np.asarray(vertices, dtype=np.intp))
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate vertices")
        us, vs, color = (np.array(x, dtype=np.intp) for x in (us, vs, colors))
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        u, v, ext = np.searchsorted(ids, lo), np.searchsorted(ids, hi), np.append(ids, 0)
        outside = (ext[u] != lo) | (ext[v] != hi) | (v == ids.size)
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"edge {ColoredEdge(int(lo[i]), int(hi[i]), int(color[i]))} has "
                             "endpoint outside the vertex set")
        if ((color < 0) | (color >= p)).any():
            raise ValueError(f"color {color[(color < 0) | (color >= p)][0]} out of range [0, {p})")
        # one key per edge orders by (color, u, v); strictly increasing keys need no sort
        n = max(ids.size, 1)
        key = (color * n + u) * n + v
        if not (key[1:] > key[:-1]).all():
            key.sort(kind="stable")
            color, u, v = key // (n * n), key // n % n, key % n
            twin = np.flatnonzero(key[1:] == key[:-1])
            if twin.size:
                i = twin[0]
                raise ValueError(f"parallel edges on {{{ids[u[i]]}, {ids[v[i]]}}} share color {color[i]}")
        offsets = np.searchsorted(color, np.arange(p + 1))
        if (np.diff(offsets) == 0).any():
            raise ValueError("color map not surjective; unused colors "
                             f"{np.flatnonzero(np.diff(offsets) == 0).tolist()}")
        for a in (ids, u, v, color, offsets):
            a.setflags(write=False)
        self.vertices, self.u, self.v, self.color, self.offsets, self.p = ids, u, v, color, offsets, p

    @cached_property
    def uv_order(self) -> np.ndarray:
        """The edge indices in (u, v, color) order."""
        return np.lexsort((self.color, self.v, self.u))

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) position pairs of the edges, in array order."""
        return tuple(zip(self.u.tolist(), self.v.tolist()))

    def edge(self, i: int) -> ColoredEdge:
        """Edge i as a `ColoredEdge` of vertex ids."""
        return ColoredEdge(int(self.vertices[self.u[i]]), int(self.vertices[self.v[i]]),
                           int(self.color[i]))

    @cached_property
    def edges(self) -> tuple[ColoredEdge, ...]:
        """The edges as `ColoredEdge`s, sorted."""
        return tuple(map(self.edge, self.uv_order.tolist()))


def make_colored_multigraph(vertices: Iterable[int], edges: Iterable[ColoredEdge], p: int) -> ColoredMultigraph:
    uvc = np.array(list(edges), dtype=np.intp).reshape(-1, 3)
    return ColoredMultigraph(sorted(set(vertices)), uvc[:, 0], uvc[:, 1], uvc[:, 2], p)


def dump_colored_multigraph(cm: ColoredMultigraph) -> str:
    """Debug dump: one line per edge, `loop v c` or `edge u v c`."""
    return "".join(f"loop {e.u} {e.color}\n" if e.is_loop else f"edge {e.u} {e.v} {e.color}\n"
                   for e in cm.edges)


def parse_colored_multigraph(text: str) -> ColoredMultigraph:
    """Parse the debug dump format.  Vertices and the color count are inferred
    from the edges; colors must form a contiguous range starting at 0."""
    edges = []
    vertices: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "loop" and len(parts) == 3:
                v, c = int(parts[1]), int(parts[2])
                edges.append(colored_edge(v, v, c))
                vertices.add(v)
            elif parts[0] == "edge" and len(parts) == 4:
                u, v, c = int(parts[1]), int(parts[2]), int(parts[3])
                if u == v:
                    raise ParseError(lineno, "ordinary edge with equal endpoints")
                edges.append(colored_edge(u, v, c))
                vertices.update((u, v))
            else:
                raise ParseError(lineno, f"unrecognized edge line {line!r}")
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(lineno, f"bad integer in {line!r}") from exc
    p = 1 + max((e.color for e in edges), default=-1)
    try:
        return make_colored_multigraph(vertices, edges, p)
    except (ValueError, OverflowError) as exc:
        raise ParseError(len(text.splitlines()), str(exc)) from exc
