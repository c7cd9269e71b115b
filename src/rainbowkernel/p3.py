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
potential #live cliques + #colors drops.  The rounds carry the buckets
forward (`rounds.Decomp.advance`) and read only rows of colors; the validator
is the one fresh read.  The loop itself lives in `rounds.py`; this module
supplies the decomposition, its stages and the rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BrokenInvariant, InvalidSolution, NotNicePair, OracleContractViolation, RepackFailed
from .graphs import UndirectedGraph, clique_fit, clique_partition, group_by, packing_fault
from .rainbow import ColorCover, RainbowMatching, RainbowOracle, verify_outcome
from .report import Decided, KernelOutput, KernelReport
from .rounds import (COLOR, POOL, Aux, Decomp, KernelState, PackingFound, PoolRows, RuleNext,
                     RuleStop, build_aux, check_nice_pair, clean, demote, finite, row_test,
                     run_rounds)


@dataclass(frozen=True)
class P3Localization:
    """A maximal induced-2-path packing and the clique partition it leaves."""

    packing: tuple[tuple[int, int, int], ...]
    core: frozenset[int]
    cliques: tuple[tuple[int, ...], ...]

    @cached_property
    def clique_of(self) -> np.ndarray:
        """The clique index of every vertex, -1 on the core."""
        out = np.full(len(self.core) + sum(map(len, self.cliques)), -1, dtype=np.intp)
        for i, cl in enumerate(self.cliques):
            out[list(cl)] = i
        return out


def greedy_localize_p3(g: UndirectedGraph, threshold: int) -> PackingFound | P3Localization:
    """Claim disjoint induced 2-paths scanning triples lexicographically; one
    pass gives a maximal packing.  Stops once `threshold` paths are claimed.
    `free` marks the unclaimed vertices the scan has not passed.  The first
    pass-over fits the unclaimed vertices to cliques (`clique_fit`): all fit
    when no path is left; else their clique components, on no path, are passed."""
    if threshold <= 0:
        return PackingFound(())
    m = g.matrix()
    free = np.ones(g.n, dtype=bool)
    packing: list[tuple[int, int, int]] = []
    name = cliques = None
    for a in range(g.n):
        if not free[a]:
            continue
        free[a] = False
        near = m[a] & free
        found = near.any() and _first_p3(m, near, free)
        if found:
            packing.append((a, *found))
            free[list(found)] = False
            if len(packing) >= threshold:
                return PackingFound(tuple(packing))
        elif found is None and name is None:
            rest = np.delete(np.arange(g.n), np.array(packing, dtype=np.intp).ravel())
            name, fits = clique_fit(m, rest)
            if fits.all():
                cliques = tuple(group_by(name, rest, tuple).values())
                break
            free[rest[np.bincount(name[~fits], minlength=rest.size)[name] == 0]] = False
    core = frozenset(v for tri in packing for v in tri)
    if cliques is None:
        cliques = clique_partition(g, [v for v in range(g.n) if v not in core])
    if cliques is None:
        raise BrokenInvariant("the remainder has an induced 2-path; the packing was not maximal")
    return P3Localization(tuple(packing), core, cliques)


def _first_p3(m: np.ndarray, near: np.ndarray, free: np.ndarray) -> tuple[int, int] | tuple[()] | None:
    """The lexicographically first free (b, c) on an induced 2-path with a,
    whose free neighbours are `near`, else ().  Row b marks the free c for
    which exactly two of ab, ac, bc are edges; the first row with a mark is
    the least b, so its first mark is c > b.  The first free row is probed
    alone, the rest read in blocks of 2, 4, ... rows, unless no path through
    a is left: then `near` is a clique on no path with a, passed over (None)."""
    b = int(free.argmax())
    row = m[b] ^ near if near[b] else m[b] & near  # with ab, ac or bc; else both
    row &= free
    row[b] = False
    if row.any():
        return b, int(row.argmax())
    ns = np.flatnonzero(near)
    diff = m[ns]
    diff &= free
    diff ^= near  # the row of x in `near` differs from `near` only at x
    if np.count_nonzero(diff) == ns.size:
        free[ns] = False
        return None
    rows = np.flatnonzero(free)
    lo, size = 1, 2
    while lo < rows.size:
        bs = rows[lo:lo + size]
        hits = (m[bs].view(np.int8) + near + near[bs, None] == 2) & free
        hits[np.arange(bs.size), bs] = False
        if hits.any():
            i, c = divmod(int(hits.argmax()), m.shape[1])
            return int(bs[i]), c
        lo, size = lo + size, 2 * size
    return ()


def p3_rows(g: UndirectedGraph, loc: P3Localization, ids: np.ndarray, xs) -> PoolRows:
    """The nice-pair row test against the pool `ids`, sorted, keyed by clique:
    a member of bucket i sees exactly the pool slice of clique i, -1 when it
    sees no pool vertex, so a bad row sees two slices or misses part of one."""
    return row_test(g.matrix(), ids, loc.clique_of[ids], xs, np.equal, -1)


def p3_pairs(rows: PoolRows, r: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `rounds.color_edges` emitter of 2-paths: per 1 p at (r[p], i[p]) of a
    `p3_rows` block, the j with exactly one of cj (c the color of row r) and
    the pool edge ij, which is there exactly when keys[i] == keys[j].  A pair
    seen from both ends is kept at j > i."""
    cells = rows.rows[r]
    marks = cells != (rows.keys[i, None] == rows.keys)
    marks &= ~cells | (np.arange(rows.ids.size) > i[:, None])
    return np.nonzero(marks)


@dataclass(frozen=True, eq=False)
class P3Decomp(Decomp):
    """Partial decomposition for the 2-path problems: the pool as sorted
    ids, keyed by clique, and a bucket named by the clique whose surviving
    pool slice its members see exactly; -1 names the detached vertices,
    those with no pool neighbor at all.
    """

    loc: P3Localization
    epsilon: float

    def __post_init__(self):
        super().__post_init__()
        if (self.keys < 0).any():
            raise BrokenInvariant("pool must lie inside the localization remainder")

    def relabel(self, kept: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """No edge is read: the pool is a union of clique slices with no edge
        between them, so a bucket stays with its clique while the slice keeps
        a vertex, else it is detached (-1 reads the last count, always 0)."""
        return np.where(np.bincount(kept, minlength=len(self.loc.cliques) + 1)[labels] > 0, labels, -1)

    @cached_property
    def live(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.keys.tolist())))

    @property
    def potential(self) -> int:
        return len(self.live) + self.color_ids.size


def check_p3_decomp(d: P3Decomp, g: UndirectedGraph) -> list[str]:
    """Full validator, and the one fresh read of the graph in a round:
    colors, the nice-pair law (`rounds.check_nice_pair`) and the size budget
    (empty list = all hold).  The labels partition the vertices; the
    constructors hold the pool ids to the POOL labels and in the remainder."""
    out = ["colors must come from the localization core"] if (d.loc.clique_of[d.color_ids] >= 0).any() else []
    out += check_nice_pair(d, g.matrix(), np.equal, -1)
    per_treated = 1.0 + 2.0 * (4.0 + d.epsilon)  # 1 + 2 c1
    budget = per_treated * len(d.loc.core - d.colors)
    size = np.count_nonzero(d.label == -1) / per_treated + np.count_nonzero(d.label >= 0)  # + |attached|
    if size > budget + 1e-9:
        out.append(f"size {size:.3f} exceeds budget {budget:.3f}")
    return out


def clean_p3(d: P3Decomp, g: UndirectedGraph) -> P3Decomp:
    """Demote colors that no longer form an induced 2-path with two pool
    vertices into the buckets; the result is clean and still within budget."""
    return clean(d, lambda xs: p3_rows(g, d.loc, d.ids, xs))


def build_p3_aux(d: P3Decomp) -> Aux:
    """Vertex set = pool.  An ordinary edge per induced 2-path {c, v, w}
    with c in colors and v, w in the pool, colored c; a loop per (bucket
    vertex u, clique vertex v) pair, colored u; the pool is grouped by clique
    only when some bucket vertex needs its loops."""
    looped = [(u, i) for u, i in zip(d.members.tolist(), d.label[d.members].tolist()) if i >= 0]
    parts = group_by(d.keys, d.ids, list) if looped else {}
    return build_aux(d, [(("bucket", u), parts.get(i, [])) for u, i in looped])


def apply_rule_p3(d: P3Decomp, g: UndirectedGraph, oracle: RainbowOracle) -> RuleStop | RuleNext:
    """One round: build the auxiliary multigraph and consume the oracle
    outcome.  A rainbow matching stops the run.  A color cover either
    demotes the cover (and retires the covered colors) or, when bucket
    colors dominate, demotes the whole clique slices those buckets point at.  Only the retired colors'
    rows are read, against the surviving pool: none may form an induced
    2-path with two of its vertices."""
    aux = build_p3_aux(d)
    outcome, notes = aux.ask(oracle, d.epsilon, verify_outcome, live_cliques=len(d.live))
    if isinstance(outcome, RainbowMatching):
        return RuleStop(KernelState(d, outcome, aux), notes)
    cover: ColorCover = outcome
    covered = np.zeros(d.label.size, dtype=bool)
    covered[list(cover.cover)] = True
    xc, buckets = aux.split(cover.colors)
    xb = [u for _, u in buckets]
    if len(xb) <= len(xc):
        keep = ~covered[d.ids]
        return RuleNext(demote(d, keep, p3_rows(g, d.loc, d.ids[keep], sorted(xc))), "case1", notes)
    hit = np.zeros(len(d.loc.cliques), dtype=bool)
    hit[d.label[xb]] = True
    open_slices = d.keys[hit[d.keys] & ~covered[d.ids]]
    if open_slices.size:
        raise OracleContractViolation(
            f"bucket color in bucket {open_slices.min()} but its clique slice is not covered")
    return RuleNext(d.advance(~hit[d.keys], d.ids[:0], d.keys[:0]), "case2", notes)


def kernelize_p3(g: UndirectedGraph, k: int, *, epsilon: float = 1.0,
                 problem: str = "I2PP") -> Decided | KernelOutput:
    """Shrink (g, k) to an equivalent induced sub-instance.

    The same rounds serve both problems; only the greedy threshold differs:
    a packing of k paths answers I2PP with yes, while k+1 disjoint paths rule
    out a hitting set of size k (I2PHS answers no).
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be a finite positive number")
    if problem not in ("I2PP", "I2PHS"):
        raise ValueError(f"not a 2-path problem: {problem}")
    c1 = 4.0 + epsilon
    bound = finite("the kernel bound", lambda: 3.0 * (1.0 + 2.0 * c1) ** 2 * k)
    params = {
        "epsilon": epsilon,
        "epsilon_prime": 12.0 * epsilon ** 2 + 108.0 * epsilon,
        "c1": c1,
    }
    report = KernelReport(problem=problem, n=g.n, k=k, params=params, status="kernel",
                          bound=bound, bound_formula="3*(1+2*(4+epsilon))^2*k")
    oracle = RainbowOracle()
    # stages are looked up at call time, so wrapping the module names traces them
    return run_rounds(report, localize=lambda threshold: greedy_localize_p3(g, threshold),
                      start=lambda loc: P3Decomp.start(
                          g.matrix(), p3_pairs, np.where(loc.clique_of >= 0, POOL, COLOR),
                          np.flatnonzero(loc.clique_of >= 0), loc.clique_of[loc.clique_of >= 0],
                          loc, epsilon),
                      clean=lambda d: clean_p3(d, g),
                      check=lambda d: check_p3_decomp(d, g),
                      apply_rule=lambda d: apply_rule_p3(d, g, oracle))


# ---------------------------------------------------------------------------
# Constructions on top of a finished run
# ---------------------------------------------------------------------------


def repack_packing_p3(state: KernelState, g: UndirectedGraph,
                      packing: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Rebuild an equal-size induced-2-path packing inside the kernel.

    Paths avoiding the pool survive unchanged.  A path through a color c is
    rerouted onto c plus the matched edge of color c.  A color-free path
    enters some bucket i; its pool vertex is swapped for the loop vertex
    matched to its bucket neighbor, which stays an induced 2-path because all
    of clique slice i looks the same from that bucket."""
    d = state.final
    fault = packing_fault(g, packing)
    if fault:
        raise InvalidSolution(fault)
    matched = state.aux.matched(state.matching)
    out: list[tuple[int, int, int]] = []
    for tri in packing:
        tset = set(tri)
        if not tset & d.pool:
            out.append(tuple(sorted(tset)))
            continue
        in_colors = sorted(tset & d.colors)
        if in_colors:
            c = in_colors[0]
            e = matched[("color", c)]
            out.append(tuple(sorted((c, e.u, e.v))))
            continue
        # color-free, pool-hitting: exactly one pool vertex, one bucket vertex
        pool_part = sorted(tset & d.pool)
        if len(pool_part) != 1:  # a nice decomposition has no such path
            raise NotNicePair(tri)
        w = pool_part[0]
        rest = sorted(tset - {w})
        neighbor = next(v for v in rest if g.has_edge(v, w))
        e = matched[("bucket", neighbor)]
        out.append(tuple(sorted((rest[0], rest[1], e.u))))
    fault = packing_fault(g, out, state.kept)
    if fault:
        raise RepackFailed(f"rerouted packing: {fault}")
    return out


def lift_hitting_set_p3(state: KernelState, g: UndirectedGraph,
                        hitting: set[int]) -> frozenset[int]:
    """Turn a hitting set of the kernel into one of g, no larger.

    After inclusion-minimizing the input, every clique slice it touches is
    swapped for the corresponding bucket, and all colors enter; counting the
    disjoint matched paths shows the exchange never grows the set.  A set hits
    every induced 2-path of the kernel exactly when the rest splits into cliques."""
    d, kept = state.final, state.kept
    x = set(hitting)
    if clique_partition(g, kept - x) is None:
        raise InvalidSolution("input does not hit every induced 2-path of the kernel")
    for v in sorted(x):
        if clique_partition(g, kept - (x - {v})) is not None:
            x.discard(v)
    hit = np.zeros(len(d.loc.cliques) + 1, dtype=bool)  # detached, -1, reads the last mark
    hit[d.loc.clique_of[sorted(x & d.pool)]] = True
    lifted = set(d.colors) | (x & d.bucketed)
    lifted |= set(d.members[hit[d.label[d.members]]].tolist())
    if len(lifted) > len(hitting):
        raise BrokenInvariant("lifted hitting set grew; exchange argument violated")
    if clique_partition(g, [v for v in range(g.n) if v not in lifted]) is None:
        raise BrokenInvariant("lifted set misses a path; exchange argument violated")
    return frozenset(lifted)
