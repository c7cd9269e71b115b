"""Rainbow-matching-or-cover oracle for edge-colored multigraphs.

Given a p-edge-colored multigraph, `rainbow_or_cover` returns either a rainbow
matching (one edge per color, pairwise vertex-disjoint) or a non-empty color
set C together with a vertex cover X of the C-colored edges satisfying
|X| < (4+eps)|C|.  One of the two always exists, so the oracle never fails.

The search is layered:

  layer 0  trivial certificates (p == 0; more colors than vertices)
  layer 1  greedy matching extension with bounded eviction swaps
  layer 2  blocked-color analysis: grow a candidate color set from the colors
           the partial matching missed, cover it with a maximal-matching
           2-approximation (exact branching for small residuals), accept when
           the cover beats the (4+eps) budget
  layer 3  exact fallback: rainbow-matching decision by DFS over colors with
           memoized vertex sets, then color subsets in increasing size taking
           the first whose minimum vertex cover is small enough

Layer 3 is exponential and intended for desk scale; it still runs whenever
the fast layers fail, because a valid outcome is required unconditionally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graphs import ColoredEdge, ColoredMultigraph


@dataclass(frozen=True)
class RainbowMatching:
    """One edge per color 0..p-1; edges pairwise vertex-disjoint."""

    edges: tuple[ColoredEdge, ...]

    def by_color(self) -> dict[int, ColoredEdge]:
        return {e.color: e for e in self.edges}

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for e in self.edges:
            out |= e.endpoints()
        return frozenset(out)


@dataclass(frozen=True)
class ColorCover:
    """A non-empty color set and a vertex cover of the edges in those colors."""

    colors: frozenset[int]
    cover: frozenset[int]
    epsilon: float


def verify_outcome(cm: ColoredMultigraph, outcome) -> tuple[bool, list[str]]:
    """Re-check every invariant of a matching / cover against `cm`."""
    problems: list[str] = []
    if isinstance(outcome, RainbowMatching):
        seen_colors = [e.color for e in outcome.edges]
        if sorted(seen_colors) != list(range(cm.p)):
            problems.append(f"colors {sorted(seen_colors)} != 0..{cm.p - 1}")
        legal = set(cm.edges)
        for e in outcome.edges:
            if e not in legal:
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
        stray = [v for v in outcome.cover if v not in cm.vertex_set]
        if stray:
            problems.append(f"cover vertices {sorted(stray)} not in the graph")
        for e in cm.edges:
            if e.color in outcome.colors and not (e.endpoints() & outcome.cover):
                problems.append(f"edge {e} of covered color is not covered")
        bound = (4.0 + outcome.epsilon) * len(outcome.colors)
        if not len(outcome.cover) < bound:
            problems.append(f"|X| = {len(outcome.cover)} not < (4+eps)|C| = {bound}")
    else:
        problems.append(f"unknown outcome type {type(outcome).__name__}")
    return (not problems, problems)


# ---------------------------------------------------------------------------
# Direct layered oracle
# ---------------------------------------------------------------------------


#: eviction depth of layer 1's swaps, its edge-visit budget, and the edge
#: count up to which layer 2 covers a color set by exact branching
SWAP_DEPTH = 3
LAYER1_BUDGET = 200_000
COVER_EXACT_EDGE_LIMIT = 48


@dataclass
class OracleStats:
    p: int = 0
    n_vertices: int = 0
    n_edges: int = 0
    layer: str = ""
    outcome: str = ""
    layer1_missing: int = 0


def _strict_budget(x: float) -> int:
    """Largest integer strictly below x (tolerant of float noise)."""
    return math.floor(x - 1e-9)


class RainbowOracle:
    """Stateless solver; a fresh instance may be used per call or shared."""

    def solve(self, cm: ColoredMultigraph, epsilon: float) -> tuple[RainbowMatching | ColorCover, OracleStats]:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        stats = OracleStats(p=cm.p, n_vertices=len(cm.vertices), n_edges=len(cm.edges))
        if cm.p == 0:
            stats.layer, stats.outcome = "empty", "matching"
            return RainbowMatching(()), stats

        incident = sorted({x for e in cm.edges for x in (e.u, e.v)})
        if cm.p > len(incident):
            # pigeonhole: p disjoint edges need p distinct vertices
            stats.layer, stats.outcome = "dense-cover", "cover"
            return ColorCover(frozenset(range(cm.p)), frozenset(incident), epsilon), stats

        assign, missing = self._greedy(cm)
        if not missing:
            stats.layer, stats.outcome = "greedy", "matching"
            return RainbowMatching(tuple(assign[c] for c in range(cm.p))), stats
        stats.layer1_missing = len(missing)

        cover = self._blocked_cover(cm, missing, epsilon)
        if cover is not None:
            stats.layer, stats.outcome = "blocked-cover", "cover"
            return cover, stats

        matching = self._exact_matching(cm)
        if matching is not None:
            stats.layer, stats.outcome = "exact-matching", "matching"
            return matching, stats
        cover = self._exact_cover(cm, epsilon)
        if cover is None:
            raise RuntimeError("dichotomy exhausted; this cannot happen")
        stats.layer, stats.outcome = "exact-cover", "cover"
        return cover, stats

    # -- layer 1 ------------------------------------------------------------

    def _greedy(self, cm: ColoredMultigraph) -> tuple[dict[int, ColoredEdge], list[int]]:
        # endpoints are read as (e.u, e.v); a loop names its vertex twice
        by_color: list[list[ColoredEdge]] = [[] for _ in range(cm.p)]
        for e in sorted(cm.edges):
            by_color[e.color].append(e)
        order = sorted(range(cm.p), key=lambda c: (len(by_color[c]), c))
        assign: dict[int, ColoredEdge] = {}
        owner: dict[int, int] = {}
        budget = [LAYER1_BUDGET]

        def place(c: int, e: ColoredEdge) -> None:
            assign[c] = e
            owner[e.u] = owner[e.v] = c

        def unplace(c: int) -> None:
            e = assign.pop(c)
            owner.pop(e.u, None)
            owner.pop(e.v, None)

        def try_color(c: int, depth: int, banned: frozenset[int]) -> bool:
            for e in by_color[c]:
                budget[0] -= 1
                if budget[0] < 0:
                    return False
                if e.u not in owner and e.v not in owner:
                    place(c, e)
                    return True
            if depth == 0:
                return False
            for e in by_color[c]:
                budget[0] -= 1
                if budget[0] < 0:
                    return False
                holders = {owner[x] for x in (e.u, e.v) if x in owner}
                if not holders or holders & banned:
                    continue
                snapshot = (dict(assign), dict(owner))
                for h in holders:
                    unplace(h)
                place(c, e)
                if all(try_color(h, depth - 1, banned | {c}) for h in sorted(holders)):
                    return True
                assign.clear(); assign.update(snapshot[0])
                owner.clear(); owner.update(snapshot[1])
            return False

        missing = []
        for c in order:
            if not try_color(c, SWAP_DEPTH, frozenset({c})):
                missing.append(c)
        return assign, sorted(missing)

    # -- layer 2 ------------------------------------------------------------

    def _cover_of(self, cm: ColoredMultigraph, colors: set[int], epsilon: float) -> frozenset[int] | None:
        """A cover of the `colors`-edges meeting the strict budget, or None.

        Loops force their vertex; a greedy maximal matching covers the rest at
        twice the optimum.  Small residual instances get an exact branching."""
        edges = [e for e in cm.edges if e.color in colors]
        budget = _strict_budget((4.0 + epsilon) * len(colors))
        cover: set[int] = {e.u for e in edges if e.is_loop}
        for e in sorted(edges):
            if not e.is_loop and e.u not in cover and e.v not in cover:
                cover.add(e.u)
                cover.add(e.v)
        if len(cover) <= budget:
            return frozenset(cover)
        if len(edges) <= COVER_EXACT_EDGE_LIMIT:
            exact = _vertex_cover_within(edges, budget)
            if exact is not None:
                return frozenset(exact)
        return None

    def _blocked_cover(self, cm: ColoredMultigraph, missing: list[int], epsilon: float) -> ColorCover | None:
        seeds: list[set[int]] = [set(missing), set(range(cm.p))]
        seeds += [{c} for c in missing]
        edges_by_color: dict[int, list[ColoredEdge]] = {c: [] for c in range(cm.p)}
        for e in cm.edges:
            edges_by_color[e.color].append(e)
        for seed in seeds:
            colors = set(seed)
            for _ in range(cm.p + 1):
                cover = self._cover_of(cm, colors, epsilon)
                if cover is not None:
                    return ColorCover(frozenset(colors), cover, epsilon)
                approx: set[int] = {e.u for c in colors for e in edges_by_color[c] if e.is_loop}
                for c in sorted(colors):
                    for e in sorted(edges_by_color[c]):
                        if not e.is_loop and e.u not in approx and e.v not in approx:
                            approx.add(e.u)
                            approx.add(e.v)
                grown = {
                    c for c in range(cm.p)
                    if c not in colors
                    and all(e.endpoints() & approx for e in edges_by_color[c])
                }
                if not grown:
                    break
                colors |= grown
        return None

    # -- layer 3 ------------------------------------------------------------

    def _exact_matching(self, cm: ColoredMultigraph) -> RainbowMatching | None:
        index = {v: i for i, v in enumerate(cm.vertices)}
        by_color: list[list[tuple[int, ColoredEdge]]] = [[] for _ in range(cm.p)]
        for e in sorted(cm.edges):
            mask = (1 << index[e.u]) | (1 << index[e.v])
            by_color[e.color].append((mask, e))
        order = sorted(range(cm.p), key=lambda c: (len(by_color[c]), c))
        failed: set[tuple[int, int]] = set()
        chosen: list[ColoredEdge] = []

        def dfs(i: int, used: int) -> bool:
            if i == cm.p:
                return True
            key = (i, used)
            if key in failed:
                return False
            for mask, e in by_color[order[i]]:
                if mask & used:
                    continue
                chosen.append(e)
                if dfs(i + 1, used | mask):
                    return True
                chosen.pop()
            failed.add(key)
            return False

        if not dfs(0, 0):
            return None
        edges = sorted(chosen, key=lambda e: e.color)
        return RainbowMatching(tuple(edges))

    def _exact_cover(self, cm: ColoredMultigraph, epsilon: float) -> ColorCover | None:
        """First color subset (increasing size, lexicographic) whose minimum
        vertex cover is at most (4+eps)(|C|-1).  Guaranteed to exist when no
        rainbow matching does."""
        edges_by_color: dict[int, list[ColoredEdge]] = {c: [] for c in range(cm.p)}
        for e in cm.edges:
            edges_by_color[e.color].append(e)
        for size in range(1, cm.p + 1):
            budget = math.floor((4.0 + epsilon) * (size - 1) + 1e-9)
            for colors in combinations(range(cm.p), size):
                edges = [e for c in colors for e in edges_by_color[c]]
                cover = _vertex_cover_within(edges, budget)
                if cover is not None:
                    return ColorCover(frozenset(colors), frozenset(cover), epsilon)
        return None


def _vertex_cover_within(edges: Sequence[ColoredEdge], budget: int) -> set[int] | None:
    """A vertex cover of `edges` of size <= budget, or None.  Branches on the
    endpoints of an uncovered ordinary edge; loop vertices are forced."""
    if budget < 0:
        return None
    forced = {e.u for e in edges if e.is_loop}
    if len(forced) > budget:
        return None
    pairs = [e for e in edges if not e.is_loop]

    def rec(cover: set[int], remaining: list[ColoredEdge], slack: int) -> set[int] | None:
        live = [e for e in remaining if e.u not in cover and e.v not in cover]
        if not live:
            return set(cover)
        if slack == 0:
            return None
        e = live[0]
        for v in (e.u, e.v):
            result = rec(cover | {v}, live, slack - 1)
            if result is not None:
                return result
        return None

    return rec(set(forced), pairs, budget - len(forced))


def rainbow_or_cover(cm: ColoredMultigraph, epsilon: float) -> RainbowMatching | ColorCover:
    outcome, _ = RainbowOracle().solve(cm, epsilon)
    return outcome
