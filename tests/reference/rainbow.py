"""Layer 1 of the rainbow oracle with a fresh `frozenset` of endpoints per
edge visit and the dataclass order for sorting."""
from __future__ import annotations

from rainbowkernel.graphs import ColoredEdge, ColoredMultigraph
from rainbowkernel.rainbow import LAYER1_BUDGET, SWAP_DEPTH


def greedy_layer1(cm: ColoredMultigraph) -> tuple[dict[int, ColoredEdge], list[int]]:
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
    return assign, sorted(missing)
