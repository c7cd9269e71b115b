"""Rainbow-matching-or-cover oracle for edge-colored multigraphs.

Given a p-edge-colored multigraph, `rainbow_or_cover` returns either a rainbow
matching (one edge per color, pairwise vertex-disjoint) or a non-empty color
set C together with a vertex cover X of the C-colored edges satisfying
|X| < (4+eps)|C|.  One of the two always exists.

The search is layered:

  layer 0  trivial certificates (p == 0; more colors than vertices)
  layer 1  greedy matching extension with bounded eviction swaps
  layer 2  blocked-color analysis: grow a candidate color set from the colors
           the partial matching missed, cover it with a maximal-matching
           2-approximation (the exact search `exact.hitting_set_within` for
           small residuals), accept when the cover beats the (4+eps) budget

When no layer answers, `solve` raises `OracleExhausted`, an internal error
carrying the multigraph (the command line exits 3).  No test, corpus or
random search has produced such a multigraph.

Every layer and `verify_outcome` read the multigraph's edge arrays over vertex
positions; layer 1 takes back a failed eviction swap through an undo log.
A failed search so leaves the matching as it was: until a color is placed, a later color with
the same edges (a twin) is missed unsearched and charged its visits, if the budget covers them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OracleExhausted
from .exact import hitting_set_within
from .graphs import ColoredEdge, ColoredMultigraph


@dataclass(frozen=True)
class RainbowMatching:
    """One edge per color 0..p-1; edges pairwise vertex-disjoint."""

    edges: tuple[ColoredEdge, ...]

    def by_color(self) -> dict[int, ColoredEdge]:
        return {e.color: e for e in self.edges}

    def vertices(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in (e.u, e.v))


@dataclass(frozen=True)
class ColorCover:
    """A non-empty color set and a vertex cover of the edges in those colors."""

    colors: frozenset[int]
    cover: frozenset[int]
    epsilon: float


def verify_outcome(cm: ColoredMultigraph, outcome) -> tuple[bool, list[str]]:
    """Re-check every invariant of a matching / cover against `cm`."""
    problems: list[str] = []
    pos = {x: i for i, x in enumerate(cm.vertices.tolist())}
    if isinstance(outcome, RainbowMatching):
        seen_colors = [e.color for e in outcome.edges]
        if sorted(seen_colors) != list(range(cm.p)):
            problems.append(f"colors {sorted(seen_colors)} != 0..{cm.p - 1}")
        cuts = cm.offsets.tolist()
        for e in outcome.edges:
            if not (0 <= e.color < cm.p and
                    (pos.get(e.u), pos.get(e.v)) in cm.pairs[cuts[e.color]:cuts[e.color + 1]]):
                problems.append(f"edge {e} not in the multigraph")
        used: set[int] = set()
        for e in sorted(outcome.edges):
            pts = e.endpoints()
            if pts & used:
                problems.append(f"edge {e} shares a vertex with an earlier edge")
            used |= pts
    elif isinstance(outcome, ColorCover):
        if not outcome.colors:
            problems.append("color set is empty")
        bad = [c for c in outcome.colors if not 0 <= c < cm.p]
        if bad:
            problems.append(f"colors {sorted(bad)} out of range")
        stray = [v for v in outcome.cover if v not in pos]
        if stray:
            problems.append(f"cover vertices {sorted(stray)} not in the graph")
        picked, hit = np.zeros(cm.p, dtype=bool), np.zeros(len(pos), dtype=bool)
        picked[[c for c in outcome.colors if 0 <= c < cm.p]] = True
        hit[[pos[v] for v in outcome.cover if v in pos]] = True
        order = cm.uv_order
        for i in order[(picked[cm.color] & ~hit[cm.u] & ~hit[cm.v])[order]].tolist():
            problems.append(f"edge {cm.edge(i)} of covered color is not covered")
        bound = (4.0 + outcome.epsilon) * len(outcome.colors)
        if not len(outcome.cover) < bound:
            problems.append(f"|X| = {len(outcome.cover)} not < (4+eps)|C| = {bound}")
    else:
        problems.append(f"unknown outcome type {type(outcome).__name__}")
    return (not problems, problems)


# ---------------------------------------------------------------------------
# Direct layered oracle
# ---------------------------------------------------------------------------


#: eviction depth of layer 1's swaps, its edge-visit budget, the edge count
#: up to which layer 2 covers a color set by exact branching, and the nodes
#: one such branching may visit
SWAP_DEPTH = 3
LAYER1_BUDGET = 200_000
COVER_EXACT_EDGE_LIMIT = 48
COVER_EXACT_NODE_LIMIT = 20_000


@dataclass
class OracleStats:
    p: int = 0
    n_edges: int = 0
    layer: str = ""
    layer1_missing: int = 0
    layer1_visits: int = 0  # edge visits layer 1 charged to its budget


class RainbowOracle:
    """Stateless solver; a fresh instance may be used per call or shared."""

    def solve(self, cm: ColoredMultigraph, epsilon: float) -> tuple[RainbowMatching | ColorCover, OracleStats]:
        if not 0 < epsilon < math.inf:
            raise ValueError("epsilon must be a finite positive number")
        if not (4.0 + epsilon) * cm.p < math.inf:
            raise ValueError("the cover budget (4 + epsilon) p overflows a float")
        stats = OracleStats(p=cm.p, n_edges=len(cm.u))
        stats.layer, outcome = self._first_answer(cm, epsilon, stats)
        return outcome, stats

    def _first_answer(self, cm: ColoredMultigraph, epsilon: float, stats: OracleStats) -> tuple:
        """The first layer that answers, and its answer."""
        if cm.p == 0:
            return "empty", RainbowMatching(())
        incident = np.flatnonzero(np.bincount(np.concatenate((cm.u, cm.v))))
        if cm.p > len(incident):  # pigeonhole: p disjoint edges need p distinct vertices
            return "dense-cover", ColorCover(frozenset(range(cm.p)), _ids(cm, incident), epsilon)
        assign, missing, stats.layer1_visits = self._greedy(cm)
        if not missing:
            return "greedy", RainbowMatching(tuple(assign[c] for c in range(cm.p)))
        stats.layer1_missing = len(missing)
        cover = self._blocked_cover(cm, missing, epsilon)
        if cover is not None:
            return "blocked-cover", cover
        raise OracleExhausted(cm)

    # -- layer 1 ------------------------------------------------------------

    def _greedy(self, cm: ColoredMultigraph) -> tuple[dict[int, ColoredEdge], list[int], int]:
        # edges are (u, v) position pairs; a loop names its vertex twice
        cuts = cm.offsets.tolist()
        by_color = [cm.pairs[cuts[c]:cuts[c + 1]] for c in range(cm.p)]
        order = np.argsort(np.diff(cm.offsets), kind="stable").tolist()  # by size, then color
        assign: list[tuple[int, int] | None] = [None] * cm.p
        owner = [-1] * len(cm.vertices)
        log: list[tuple[int, tuple[int, int] | None]] = []  # (color, its previous edge)
        budget = LAYER1_BUDGET

        def undo(mark: int) -> None:
            while len(log) > mark:
                c, e = log.pop()
                if assign[c]:
                    owner[assign[c][0]] = owner[assign[c][1]] = -1
                if e:
                    owner[e[0]] = owner[e[1]] = c
                assign[c] = e

        def try_color(c: int, depth: int, banned: tuple[int, ...]) -> bool:
            nonlocal budget
            edges = by_color[c]
            for a, b in edges:
                budget -= 1
                if budget < 0:
                    return False
                if owner[a] < 0 and owner[b] < 0:
                    log.append((c, None))
                    assign[c], owner[a], owner[b] = (a, b), c, c
                    return True
            if depth == 0:
                return False
            inner = (*banned, c)
            for e in edges:
                budget -= 1
                if budget < 0:
                    return False
                # the colors holding e's ends, in increasing order
                ha, hb = owner[e[0]], owner[e[1]]
                if ha in banned or hb in banned or ha == hb == -1:
                    continue
                holders = (hb,) if ha < 0 else (ha,) if hb < 0 or hb == ha else \
                    (min(ha, hb), max(ha, hb))
                mark = len(log)
                for h in holders:
                    log.append((h, assign[h]))
                    owner[assign[h][0]] = owner[assign[h][1]] = -1
                    assign[h] = None
                log.append((c, None))
                assign[c], owner[e[0]], owner[e[1]] = e, c, c
                for h in holders:
                    if not try_color(h, depth - 1, inner):
                        undo(mark)
                        break
                else:
                    return True
            return False

        failed: dict[tuple, int] = {}  # a failed color's edges -> the visits it charged
        missing = []
        for c in order:
            edges, before = by_color[c], budget
            if failed.get(edges, before + 1) <= before:  # a twin failed: c fails alike
                budget -= failed[edges]
            elif try_color(c, SWAP_DEPTH, (c,)):
                failed.clear()
                continue
            failed.setdefault(edges, before - budget)  # if set, the budget is spent
            missing.append(c)
        ids = cm.vertices.tolist()
        return ({c: ColoredEdge(ids[e[0]], ids[e[1]], c) for c, e in enumerate(assign) if e},
                sorted(missing), LAYER1_BUDGET - budget)

    # -- layer 2 ------------------------------------------------------------

    def _cover_of(self, cm: ColoredMultigraph, picked: np.ndarray, epsilon: float) -> frozenset[int] | None:
        """A cover of the edges of the `picked` colors meeting the strict
        budget, or None.

        Loops force their vertex; a greedy maximal matching over the edges in
        (u, v, color) order covers the rest at twice the optimum.  Small
        residual instances get a node-budgeted exact branching."""
        sel = cm.uv_order[picked[cm.color[cm.uv_order]]]
        edges = list(zip(cm.u[sel].tolist(), cm.v[sel].tolist()))
        # the largest integer strictly below (4+eps)|C|, tolerant of float noise
        budget = math.floor((4.0 + epsilon) * np.count_nonzero(picked) - 1e-9)
        cover = _maximal_matching_cover(edges)
        if len(cover) <= budget:
            return _ids(cm, cover)
        if len(edges) <= COVER_EXACT_EDGE_LIMIT:
            exact = hitting_set_within([(u,) if u == v else (u, v) for u, v in edges], budget,
                                       COVER_EXACT_NODE_LIMIT)
            if exact is not None:
                return _ids(cm, exact)
        return None

    def _blocked_cover(self, cm: ColoredMultigraph, missing: list[int], epsilon: float) -> ColorCover | None:
        for seed in [missing, list(range(cm.p))] + [[c] for c in missing]:
            picked = np.zeros(cm.p, dtype=bool)
            picked[seed] = True
            for _ in range(cm.p + 1):
                cover = self._cover_of(cm, picked, epsilon)
                if cover is not None:
                    return ColorCover(frozenset(np.flatnonzero(picked).tolist()), cover, epsilon)
                hit = np.zeros(len(cm.vertices), dtype=bool)
                hit[list(_maximal_matching_cover(
                    [cm.pairs[i] for i in np.flatnonzero(picked[cm.color]).tolist()]))] = True
                # a color grows the set when the approximate cover meets all its edges
                grown = np.logical_and.reduceat(hit[cm.u] | hit[cm.v], cm.offsets[:-1]) & ~picked
                if not grown.any():
                    break
                picked |= grown
        return None


def _ids(cm: ColoredMultigraph, positions) -> frozenset[int]:
    """The vertex ids at `positions`."""
    return frozenset(cm.vertices[list(positions)].tolist())


def _maximal_matching_cover(edges: Sequence[tuple[int, int]]) -> set[int]:
    """The loop vertices, then both ends of each edge that a greedy maximal
    matching over the other edges takes, in the given order."""
    cover = {u for u, v in edges if u == v}
    for u, v in edges:
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


def rainbow_or_cover(cm: ColoredMultigraph, epsilon: float) -> RainbowMatching | ColorCover:
    outcome, _ = RainbowOracle().solve(cm, epsilon)
    return outcome
