"""Kernelization for induced-2-path packing and hitting (I2PP / I2PHS).

One round works on a partition (pool, bucketed, colors) of the vertices:

  pool      surviving vertices of the clique remainder left by greedy
            localization; candidates for deletion,
  bucketed  vertices already demoted next to the pool, grouped into buckets
            by their exact pool neighborhood (one bucket per clique),
  colors    localization-core vertices not treated yet; they color the
            auxiliary multigraph.

The auxiliary multigraph on the pool gets a loop per (bucket vertex, its
clique vertex) pair and an ordinary edge per induced 2-path with both ends in
the pool and its third vertex in `colors`.  A rainbow matching pins down the
few pool vertices worth keeping and the run stops; a color cover moves a
small slice of the pool (or whole cliques) into the buckets and the round
potential #live cliques + #colors drops.  The loop itself lives in
`rounds.py`; this module supplies the decomposition, its stages and the rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (InvalidSolution, NotNicePair, OracleContractViolation,
                     RepackFailed)
from .graphs import (ColoredEdge, ColoredMultigraph, UndirectedGraph,
                     colored_edge, enumerate_induced_p3, is_induced_p3,
                     make_colored_multigraph)
from .rainbow import ColorCover, RainbowMatching, RainbowOracle, verify_outcome
from .report import Decided, KernelOutput, KernelReport
from .rounds import (PackingFound, RuleNext, RuleStop, decide,
                     pattern_with_two_pool, run_rounds)


@dataclass(frozen=True)
class P3Localization:
    """A maximal induced-2-path packing and the clique partition it leaves."""

    packing: tuple[tuple[int, int, int], ...]
    core: frozenset[int]
    cliques: tuple[tuple[int, ...], ...]


def greedy_localize_p3(g: UndirectedGraph, threshold: int) -> PackingFound | P3Localization:
    """Scan vertex triples in lexicographic order, claiming disjoint induced
    2-paths; a single pass yields a maximal packing.  Stops early once
    `threshold` paths are claimed."""
    used = [False] * g.n
    packing: list[tuple[int, int, int]] = []
    if len(packing) >= threshold:
        return PackingFound(())
    for a in range(g.n):
        if used[a]:
            continue
        for b in range(a + 1, g.n):
            if used[a] or used[b]:
                continue
            for c in range(b + 1, g.n):
                if used[a] or used[b] or used[c]:
                    continue
                if is_induced_p3(g, (a, b, c)):
                    packing.append((a, b, c))
                    used[a] = used[b] = used[c] = True
                    if len(packing) >= threshold:
                        return PackingFound(tuple(packing))
                    break
    core = frozenset(v for tri in packing for v in tri)
    rest = [v for v in range(g.n) if v not in core]
    cliques = _clique_components(g, rest)
    return P3Localization(tuple(packing), core, cliques)


def _clique_components(g: UndirectedGraph, rest: list[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the remainder; each must induce a clique since
    the remainder has no induced 2-path."""
    restset = set(rest)
    seen: set[int] = set()
    comps = []
    for v in rest:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y in restset and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        members = tuple(sorted(comp))
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                if not g.has_edge(x, y):
                    raise AssertionError("remainder component is not a clique; "
                                         "the packing was not maximal")
        comps.append(members)
    return tuple(sorted(comps))


def p3_pairs(g: UndirectedGraph, ids: list[int]) -> Callable[[int], np.ndarray]:
    """The obstruction test against a pool `ids`: the returned function maps a
    vertex x outside `ids` to the boolean matrix marking (i, j), i < j, when
    {x, ids[i], ids[j]} is an induced 2-path, i.e. spans exactly two edges.
    The pool view is built once, here."""
    m = g.matrix()
    arr = np.asarray(ids, dtype=np.intp)
    sub = m[arr[:, None], arr].astype(np.int8)
    upper = np.triu(np.ones(sub.shape, dtype=bool), 1)

    def pairs(x: int) -> np.ndarray:
        nb = m[x, arr].astype(np.int8)
        return (nb[:, None] + sub + nb[None, :] == 2) & upper

    return pairs


@dataclass(frozen=True)
class P3Decomp:
    """Partial decomposition for the 2-path problems.

    `pool_parts[i]` is the surviving slice of clique i, `buckets[i]` the
    bucketed vertices whose pool neighborhood is exactly that slice, and
    `detached` the bucketed vertices with no pool neighbor at all.
    """

    loc: P3Localization
    pool: frozenset[int]
    bucketed: frozenset[int]
    colors: frozenset[int]
    epsilon: float
    pool_parts: tuple[frozenset[int], ...]
    buckets: tuple[frozenset[int], ...]
    detached: frozenset[int]

    @property
    def c1(self) -> float:
        return 4.0 + self.epsilon

    @property
    def attached(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.buckets:
            out |= b
        return frozenset(out)

    @property
    def live(self) -> tuple[int, ...]:
        return tuple(i for i, part in enumerate(self.pool_parts) if part)

    @property
    def potential(self) -> int:
        return len(self.live) + len(self.colors)

    @property
    def treated(self) -> frozenset[int]:
        return self.loc.core - self.colors

    def size(self) -> float:
        return len(self.detached) / (1.0 + 2.0 * self.c1) + len(self.attached)

    @cached_property
    def bucket_index(self) -> dict[int, int]:
        """The bucket index of every attached vertex."""
        return {v: i for i, b in enumerate(self.buckets) for v in b}

    def bucket_of(self, v: int) -> int:
        return self.bucket_index[v]


def bucket_decompose_p3(pool: frozenset[int], bucketed: frozenset[int],
                        g: UndirectedGraph, loc: P3Localization):
    """Group `bucketed` by pool neighborhood.  Each vertex must see either
    nothing or exactly one full clique slice; otherwise the pair is not nice
    and a witnessing induced 2-path with two pool vertices is raised."""
    rest = {v for cl in loc.cliques for v in cl}
    if not pool <= rest:
        raise ValueError("pool must lie inside the localization remainder")
    clique_of = {v: i for i, cl in enumerate(loc.cliques) for v in cl}
    parts = tuple(frozenset(v for v in cl if v in pool) for cl in loc.cliques)
    buckets: list[set[int]] = [set() for _ in loc.cliques]
    detached: set[int] = set()
    for v in sorted(bucketed):
        nb = g.neighbors(v) & pool
        if not nb:
            detached.add(v)
            continue
        witness_u = min(nb)
        i = clique_of[witness_u]
        part = parts[i]
        extra = nb - part
        if extra:
            other = min(extra)
            # v adjacent to two different cliques: u - v - other is induced
            raise NotNicePair((witness_u, v, other))
        lacking = part - nb
        if lacking:
            w = min(lacking)
            # v misses w inside the clique: v - u - w is induced
            raise NotNicePair((v, witness_u, w))
        buckets[i].add(v)
    return parts, tuple(frozenset(b) for b in buckets), frozenset(detached)


def make_p3_decomp(loc: P3Localization, pool, bucketed, colors,
                   g: UndirectedGraph, epsilon: float) -> P3Decomp:
    pool = frozenset(pool)
    bucketed = frozenset(bucketed)
    colors = frozenset(colors)
    parts, buckets, detached = bucket_decompose_p3(pool, bucketed, g, loc)
    return P3Decomp(loc, pool, bucketed, colors, epsilon, parts, buckets, detached)


def check_p3_decomp(d: P3Decomp, g: UndirectedGraph) -> list[str]:
    """Full validator; returns violations (empty list = decomposition holds)."""
    out: list[str] = []
    everything = d.pool | d.bucketed | d.colors
    if everything != frozenset(range(g.n)) or len(d.pool) + len(d.bucketed) + len(d.colors) != g.n:
        out.append("pool/bucketed/colors do not partition the vertex set")
    if not d.colors <= d.loc.core:
        out.append("colors must come from the localization core")
    rest = {v for cl in d.loc.cliques for v in cl}
    if not d.pool <= rest:
        out.append("pool leaks outside the localization remainder")
    # pool-only paths cannot exist because the pool is a union of cliques
    ids = sorted(d.pool)
    viol = pattern_with_two_pool(p3_pairs(g, ids), ids, d.bucketed)
    if viol is not None:
        out.append(f"induced 2-path {viol} has two pool vertices")
    for i, part in enumerate(d.pool_parts):
        expected = frozenset(v for v in d.loc.cliques[i] if v in d.pool)
        if part != expected:
            out.append(f"pool part {i} is not pool intersected with its clique")
        if not part and d.buckets[i]:
            out.append(f"bucket {i} non-empty although its clique slice is empty")
        for v in d.buckets[i]:
            if g.neighbors(v) & d.pool != part:
                out.append(f"bucket vertex {v} has the wrong pool neighborhood")
    for v in d.detached:
        if g.neighbors(v) & d.pool:
            out.append(f"detached vertex {v} has pool neighbors")
    cover = set(d.detached)
    for b in d.buckets:
        cover |= b
    if cover != set(d.bucketed):
        out.append("buckets plus detached do not partition the bucketed set")
    budget = (1.0 + 2.0 * d.c1) * len(d.treated)
    if d.size() > budget + 1e-9:
        out.append(f"size {d.size():.3f} exceeds budget {budget:.3f}")
    return out


def clean_p3(d: P3Decomp, g: UndirectedGraph) -> P3Decomp:
    """Demote colors that no longer form an induced 2-path with two pool
    vertices; the resulting decomposition is clean and still within budget."""
    pairs = p3_pairs(g, sorted(d.pool))
    stale = frozenset(c for c in d.colors if not pairs(c).any())
    if not stale:
        return d
    return make_p3_decomp(d.loc, d.pool, d.bucketed | stale, d.colors - stale,
                          g, d.epsilon)


@dataclass(frozen=True)
class P3Aux:
    """Auxiliary multigraph plus the meaning of each color index."""

    cm: ColoredMultigraph
    meanings: tuple[tuple, ...]  # ("color", vertex) or ("bucket", vertex)

    def color_vertex(self, color: int) -> int:
        return self.meanings[color][1]


def build_p3_aux(d: P3Decomp, g: UndirectedGraph) -> P3Aux:
    """Vertex set = pool.  A loop per (bucket vertex u, clique vertex v) pair,
    colored u; an ordinary edge per induced 2-path {c, v, w} with c in colors
    and v, w in the pool, colored c."""
    meanings: list[tuple] = [("color", c) for c in sorted(d.colors)]
    edges: list[ColoredEdge] = []
    ids = sorted(d.pool)
    pairs = p3_pairs(g, ids)
    for idx, c in enumerate(sorted(d.colors)):
        rows, cols = np.nonzero(pairs(c))
        edges += [colored_edge(ids[i], ids[j], idx) for i, j in zip(rows.tolist(), cols.tolist())]
    for i, bucket in enumerate(d.buckets):
        for u in sorted(bucket):
            idx = len(meanings)
            meanings.append(("bucket", u))
            for v in sorted(d.pool_parts[i]):
                edges.append(colored_edge(v, v, idx))
    cm = make_colored_multigraph(d.pool, edges, len(meanings))
    return P3Aux(cm, tuple(meanings))


@dataclass
class P3KernelState:
    """Everything the lifting and repacking constructions need."""

    final: P3Decomp
    matching: RainbowMatching
    aux: P3Aux


def apply_rule_p3(d: P3Decomp, g: UndirectedGraph, oracle: RainbowOracle) -> RuleStop | RuleNext:
    """One round: build the auxiliary multigraph and consume the oracle
    outcome.  A rainbow matching stops the run with kept = matched vertices
    plus bucketed plus colors.  A color cover either demotes the cover (and
    retires the covered colors) or, when bucket colors dominate, demotes the
    whole clique slices those buckets point at."""
    aux = build_p3_aux(d, g)
    outcome, stats = oracle.solve(aux.cm, d.epsilon)
    ok, problems = verify_outcome(aux.cm, outcome)
    if not ok:
        raise OracleContractViolation("; ".join(problems))
    notes = {"oracle": {"layer": stats.layer, "p": stats.p, "edges": stats.n_edges},
             "live_cliques": len(d.live)}
    if isinstance(outcome, RainbowMatching):
        kept = frozenset(outcome.vertices()) | d.bucketed | d.colors
        return RuleStop(kept, P3KernelState(d, outcome, aux), notes)
    cover: ColorCover = outcome
    tc = frozenset(cover.cover)
    xc = frozenset(aux.color_vertex(c) for c in cover.colors
                   if aux.meanings[c][0] == "color")
    xb = frozenset(aux.color_vertex(c) for c in cover.colors
                   if aux.meanings[c][0] == "bucket")
    if len(xb) <= len(xc):
        nxt = make_p3_decomp(d.loc, d.pool - tc, d.bucketed | tc | xc,
                             d.colors - xc, g, d.epsilon)
        return RuleNext(nxt, "case1", notes)
    hit_cliques = sorted({d.bucket_of(u) for u in xb})
    moved: set[int] = set()
    for i in hit_cliques:
        part = d.pool_parts[i]
        if not part <= tc:
            raise OracleContractViolation(
                f"bucket color in bucket {i} but its clique slice is not covered")
        moved |= part
    nxt = make_p3_decomp(d.loc, d.pool - moved, d.bucketed | moved, d.colors,
                         g, d.epsilon)
    return RuleNext(nxt, "case2", notes)


def kernelize_p3(g: UndirectedGraph, k: int, *, epsilon: float = 1.0,
                 problem: str = "I2PP", validate: bool = True) -> Decided | KernelOutput:
    """Shrink (g, k) to an equivalent induced sub-instance.

    The same rounds serve both problems; only the greedy threshold differs:
    a packing of k paths answers I2PP with yes, while k+1 disjoint paths rule
    out a hitting set of size k (I2PHS answers no).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if problem not in ("I2PP", "I2PHS"):
        raise ValueError(f"not a 2-path problem: {problem}")
    c1 = 4.0 + epsilon
    bound = 3.0 * (1.0 + 2.0 * c1) ** 2 * k
    params = {
        "epsilon": epsilon,
        "epsilon_prime": 12.0 * epsilon ** 2 + 108.0 * epsilon,
        "c1": c1,
    }
    report = KernelReport(problem=problem, n=g.n, k=k, params=params, status="kernel",
                          bound=bound, bound_formula="3*(1+2*(4+epsilon))^2*k")
    threshold = k if problem == "I2PP" else k + 1
    loc = greedy_localize_p3(g, threshold)
    if isinstance(loc, PackingFound):
        return decide(report, loc, problem == "I2PP")
    report.core_size = len(loc.core)
    report.rest_size = g.n - len(loc.core)
    oracle = RainbowOracle()
    d = make_p3_decomp(loc, frozenset(range(g.n)) - loc.core, frozenset(),
                       loc.core, g, epsilon)
    # stages are looked up at call time, so wrapping the module names traces them
    return run_rounds(report, d, clean=lambda d: clean_p3(d, g),
                      check=lambda d: check_p3_decomp(d, g),
                      apply_rule=lambda d: apply_rule_p3(d, g, oracle),
                      validate=validate)


# ---------------------------------------------------------------------------
# Constructions on top of a finished run
# ---------------------------------------------------------------------------


def repack_packing_p3(g: UndirectedGraph, state: P3KernelState,
                      packing: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Rebuild an equal-size induced-2-path packing inside the kernel.

    Paths avoiding the pool survive unchanged.  A path through a color c is
    rerouted onto c plus the matched edge of color c.  A color-free path
    enters some bucket i; its pool vertex is swapped for the loop vertex
    matched to its bucket neighbor, which stays an induced 2-path because all
    of clique slice i looks the same from that bucket."""
    d, matching, aux = state.final, state.matching, state.aux
    by_color = matching.by_color()
    meaning_index = {m: i for i, m in enumerate(aux.meanings)}

    def matched_edge(meaning: tuple) -> ColoredEdge:
        return by_color[meaning_index[meaning]]

    out: list[tuple[int, int, int]] = []
    used: set[int] = set()
    for tri in packing:
        tset = set(tri)
        if not is_induced_p3(g, tri):
            raise InvalidSolution(f"{tri} is not an induced 2-path")
        if tset & used:
            raise InvalidSolution("packing is not vertex-disjoint")
        used |= tset
        if not tset & d.pool:
            out.append(tuple(sorted(tset)))
            continue
        in_colors = sorted(tset & d.colors)
        if in_colors:
            c = in_colors[0]
            e = matched_edge(("color", c))
            out.append(tuple(sorted((c, e.u, e.v))))
            continue
        # color-free, pool-hitting: exactly one pool vertex, one bucket vertex
        pool_part = sorted(tset & d.pool)
        if len(pool_part) != 1:
            raise InvalidSolution(f"{tri} has {len(pool_part)} pool vertices")
        w = pool_part[0]
        rest = sorted(tset - {w})
        neighbor = next(v for v in rest if g.has_edge(v, w))
        e = matched_edge(("bucket", neighbor))
        out.append(tuple(sorted((rest[0], rest[1], e.u))))
    final_used: set[int] = set()
    kernel = set(matching.vertices()) | d.bucketed | d.colors
    for tri in out:
        if not is_induced_p3(g, tri):
            raise RepackFailed(f"rerouted triple {tri} is not an induced 2-path")
        if set(tri) & final_used or not set(tri) <= kernel:
            raise RepackFailed(f"rerouted triple {tri} collides or leaves the kernel")
        final_used |= set(tri)
    return out


def lift_hitting_set_p3(g: UndirectedGraph, state: P3KernelState,
                        hitting: set[int]) -> frozenset[int]:
    """Turn a hitting set of the kernel into one of g, no larger.

    After inclusion-minimizing the input, every clique slice it touches is
    swapped for the corresponding bucket, and all colors enter; counting the
    disjoint matched paths shows the exchange never grows the set."""
    d, matching, aux = state.final, state.matching, state.aux
    kept = set(matching.vertices()) | d.bucketed | d.colors
    kernel_paths = [tri for tri in enumerate_induced_p3(g, kept)]
    x = set(hitting)
    if any(not set(tri) & x for tri in kernel_paths):
        raise InvalidSolution("input does not hit every induced 2-path of the kernel")
    for v in sorted(x):
        trial = x - {v}
        if all(set(tri) & trial for tri in kernel_paths):
            x = trial
    hit_cliques = {i for i, part in enumerate(d.pool_parts) if x & part}
    lifted = set(d.colors) | (x & d.bucketed)
    for i in hit_cliques:
        lifted |= d.buckets[i]
    if len(lifted) > len(hitting):
        raise AssertionError("lifted hitting set grew; exchange argument violated")
    leftover = [v for v in range(g.n) if v not in lifted]
    if enumerate_induced_p3(g, leftover):
        raise AssertionError("lifted set misses a path; exchange argument violated")
    return frozenset(lifted)
