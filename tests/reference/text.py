"""Per-character tournament text format: an arc list while parsing, one
numpy scalar lookup per character while serializing."""
from __future__ import annotations

from rainbowkernel.errors import ParseError
from rainbowkernel.graphs import Tournament
from rainbowkernel.instances import _reject_trailing


def serialize_tournament(t: Tournament) -> str:
    rows = []
    m = t.matrix
    for u in range(t.n):
        rows.append("".join("-" if u == v else ("1" if m[u, v] else "0") for v in range(t.n)))
    return f"tournament {t.n}\n" + "".join(r + "\n" for r in rows)


def _parse_tournament_lines(lines: list[str], start: int) -> tuple[Tournament, int]:
    """Parse a tournament payload beginning at `lines[start]`; returns the
    parsed object and the index one past the payload."""
    if start >= len(lines):
        raise ParseError(start + 1, "missing tournament header")
    parts = lines[start].split()
    if len(parts) != 2 or parts[0] != "tournament":
        raise ParseError(start + 1, f"expected 'tournament <n>', got {lines[start]!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(start + 1, f"bad vertex count {parts[1]!r}") from None
    if n < 0:
        raise ParseError(start + 1, "vertex count must be non-negative")
    if start + 1 + n > len(lines):
        raise ParseError(len(lines) + 1, f"expected {n} orientation rows")
    arcs = []
    for u in range(n):
        lineno = start + 2 + u
        row = lines[start + 1 + u]
        if len(row) != n:
            raise ParseError(lineno, f"row has {len(row)} characters, expected {n}")
        for v, ch in enumerate(row):
            if u == v:
                if ch != "-":
                    raise ParseError(lineno, "diagonal entry must be '-'")
            elif ch == "1":
                arcs.append((u, v))
            elif ch != "0":
                raise ParseError(lineno, f"unexpected character {ch!r}")
    try:
        t = Tournament.from_arcs(n, arcs)
    except ValueError as exc:
        raise ParseError(start + 1, str(exc)) from exc
    return t, start + 1 + n


def parse_tournament(text: str) -> Tournament:
    lines = text.splitlines()
    t, pos = _parse_tournament_lines(lines, 0)
    _reject_trailing(lines, pos)
    return t
