"""Layer 1 of the rainbow oracle with a fresh `frozenset` of endpoints per
edge visit, dict owners, a full snapshot per eviction swap and a full search
for every color, twins of a failed one included; and the
outcome check over `ColoredEdge` sets, as both read the multigraph when it
held a tuple of `ColoredEdge`s.  Also layer 2's own exact vertex-cover
branching, before it shared `exact.hitting_set_within`."""
from __future__ import annotations

from typing import Sequence

from rainbowkernel.graphs import ColoredEdge, ColoredMultigraph
from rainbowkernel.rainbow import (COVER_EXACT_NODE_LIMIT, LAYER1_BUDGET, SWAP_DEPTH,
                                   ColorCover, RainbowMatching)


def greedy_layer1(cm: ColoredMultigraph) -> tuple[dict[int, ColoredEdge], list[int], int]:
    """The matching, the missed colors and the edge visits charged."""
    by_color: list[list[ColoredEdge]] = [[] for _ in range(cm.p)]
    for e in sorted(cm.edges):
        by_color[e.color].append(e)
    order = sorted(range(cm.p), key=lambda c: (len(by_color[c]), c))
    assign: dict[int, ColoredEdge] = {}
    owner: dict[int, int] = {}
    budget = [LAYER1_BUDGET]

    def place(c: int, e: ColoredEdge) -> None:
        assign[c] = e
        for x in e.endpoints():
            owner[x] = c

    def unplace(c: int) -> None:
        e = assign.pop(c)
        for x in e.endpoints():
            owner.pop(x, None)

    def try_color(c: int, depth: int, banned: frozenset[int]) -> bool:
        for e in by_color[c]:
            budget[0] -= 1
            if budget[0] < 0:
                return False
            if not any(x in owner for x in e.endpoints()):
                place(c, e)
                return True
        if depth == 0:
            return False
        for e in by_color[c]:
            budget[0] -= 1
            if budget[0] < 0:
                return False
            holders = {owner[x] for x in e.endpoints() if x in owner}
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
    return assign, sorted(missing), LAYER1_BUDGET - budget[0]


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
        vertex_set = set(cm.vertices.tolist())
        stray = [v for v in outcome.cover if v not in vertex_set]
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


def vertex_cover_within(edges: Sequence[tuple[int, int]], budget: int) -> set[int] | None:
    """A vertex cover of the (u, v, ...) `edges` of size <= budget, or None.
    Branches on the endpoints of an uncovered ordinary edge; loop vertices
    are forced.  None also when the branching visits more than
    COVER_EXACT_NODE_LIMIT nodes."""
    forced = {e[0] for e in edges if e[0] == e[1]}
    if len(forced) > budget:
        return None
    pairs = [e for e in edges if e[0] != e[1]]
    nodes = COVER_EXACT_NODE_LIMIT

    def rec(cover: set[int], remaining: list, slack: int) -> set[int] | None:
        nonlocal nodes
        nodes -= 1
        live = [e for e in remaining if e[0] not in cover and e[1] not in cover]
        if not live:
            return set(cover)
        if slack == 0 or nodes < 0:
            return None
        for v in live[0][:2]:
            result = rec(cover | {v}, live, slack - 1)
            if result is not None:
                return result
        return None

    return rec(set(forced), pairs, budget - len(forced))
