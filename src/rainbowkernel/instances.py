"""Problem instances: typed specs, seeded generators, and the text formats."""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, ParseError
from .graphs import Tournament, UndirectedGraph

PROBLEMS = ("TPT", "FVST", "I2PP", "I2PHS")
TOURNAMENT_PROBLEMS = frozenset({"TPT", "FVST"})
GRAPH_PROBLEMS = frozenset({"I2PP", "I2PHS"})

#: problems asking for a packing of size >= k (the others ask for a hitting
#: set of size <= k)
PACKING_PROBLEMS = frozenset({"TPT", "I2PP"})

#: largest vertex count a graph header may declare.  A graph is held as an
#: n x n one-byte matrix (100 MB at this cap); greedy localization reads up
#: to half its rows at once, the validator and `rounds.Decomp.start` read row
#: blocks of a few million pairs.  A header is a few bytes, so without the
#: cap a short file could ask for any amount of memory
MAX_GRAPH_VERTICES = 10_000


@dataclass(frozen=True)
class InstanceSpec:
    """A problem name, its payload, and the parameter k.

    `witness` records the planted obstructions for generated yes-instances; it
    is not part of the wire format and does not take part in equality.
    """

    problem: str
    payload: UndirectedGraph | Tournament
    k: int
    witness: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise InvalidConfig(f"unknown problem {self.problem!r}")
        if self.k < 0:
            raise InvalidConfig("k must be non-negative")
        wants_tournament = self.problem in TOURNAMENT_PROBLEMS
        if wants_tournament != isinstance(self.payload, Tournament):
            raise InvalidConfig(f"{self.problem} payload must be a "
                                f"{'tournament' if wants_tournament else 'graph'}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded instance family.

    Families: `uniform` (random tournament), `gnp` (Erdos-Renyi graph) and
    `planted` (k disjoint obstructions plus acyclic/cluster filler; the
    planted witness is recorded on the instance).
    """

    problem: str
    family: str
    n: int | None = None
    k: int = 1
    planted: int | None = None
    filler: int = 0
    edge_prob: float = 0.5

    def planted_count(self) -> int:
        return self.k if self.planted is None else self.planted


def _planted_size(cfg: GeneratorConfig) -> int:
    return 3 * cfg.planted_count() + cfg.filler


def _validate_config(cfg: GeneratorConfig) -> None:
    if cfg.problem not in PROBLEMS:
        raise InvalidConfig(f"unknown problem {cfg.problem!r}")
    if cfg.k < 0:
        raise InvalidConfig("k must be non-negative")
    if not 0.0 <= cfg.edge_prob <= 1.0:
        raise InvalidConfig("edge_prob must lie in [0, 1]")
    if cfg.filler < 0 or (cfg.planted is not None and cfg.planted < 0):
        raise InvalidConfig("sizes must be non-negative")
    is_tournament = cfg.problem in TOURNAMENT_PROBLEMS
    if cfg.family == "uniform" and not is_tournament:
        raise InvalidConfig("family 'uniform' generates tournaments")
    if cfg.family == "gnp" and is_tournament:
        raise InvalidConfig("family 'gnp' generates graphs")
    if cfg.family == "planted" and cfg.n is not None and cfg.n != _planted_size(cfg):
        raise InvalidConfig(
            f"planted family has n = 3*planted + filler = {_planted_size(cfg)}, got {cfg.n}")
    if cfg.family not in ("uniform", "gnp", "planted"):
        raise InvalidConfig(f"unknown family {cfg.family!r}")
    n = _planted_size(cfg) if cfg.family == "planted" else cfg.n
    if n is None:
        raise InvalidConfig(f"family {cfg.family!r} needs a vertex count")
    if n < 0:
        raise InvalidConfig("vertex count must be non-negative")
    if not is_tournament and n > MAX_GRAPH_VERTICES:  # the parser would reject the file
        raise InvalidConfig(f"vertex count {n} exceeds the limit {MAX_GRAPH_VERTICES}")


def generate_instance(cfg: GeneratorConfig, seed: int) -> InstanceSpec:
    """Deterministic for a fixed (config, seed): same call, identical instance."""
    _validate_config(cfg)
    rng = random.Random(seed)
    if cfg.family == "uniform":
        payload: UndirectedGraph | Tournament = _uniform_tournament(cfg.n, rng)
        witness = None
    elif cfg.family == "gnp":
        payload = _gnp_graph(cfg.n, cfg.edge_prob, rng)
        witness = None
    elif cfg.problem in TOURNAMENT_PROBLEMS:
        payload, witness = _planted_tournament(cfg, rng)
    else:
        payload, witness = _planted_graph(cfg, rng)
    return InstanceSpec(cfg.problem, payload, cfg.k, witness)


def _uniform_tournament(n: int, rng: random.Random) -> Tournament:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Tournament.from_arcs(n, arcs)


def _gnp_graph(n: int, p: float, rng: random.Random) -> UndirectedGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return UndirectedGraph(n, edges)


def _shuffled_labels(n: int, rng: random.Random) -> list[int]:
    labels = list(range(n))
    rng.shuffle(labels)
    return labels


def _planted_tournament(cfg: GeneratorConfig, rng: random.Random):
    """k disjoint directed triangles, transitive filler, random cross arcs.

    Cross arcs cannot break a planted triangle, so the witness survives."""
    count = cfg.planted_count()
    n = _planted_size(cfg)
    lab = _shuffled_labels(n, rng)
    arcs = []
    group = [0] * n
    for i in range(count):
        a, b, c = lab[3 * i], lab[3 * i + 1], lab[3 * i + 2]
        arcs += [(a, b), (b, c), (c, a)]
        group[3 * i] = group[3 * i + 1] = group[3 * i + 2] = i
    filler = list(range(3 * count, n))
    for gi, i in enumerate(filler):
        group[i] = count  # one transitive block
        for j in filler[gi + 1:]:
            arcs.append((lab[i], lab[j]))
    for i in range(n):
        for j in range(i + 1, n):
            if group[i] != group[j]:
                arcs.append((lab[i], lab[j]) if rng.random() < 0.5 else (lab[j], lab[i]))
    witness = tuple(tuple(sorted(lab[3 * i:3 * i + 3])) for i in range(count))
    return Tournament.from_arcs(n, arcs), witness


def _planted_graph(cfg: GeneratorConfig, rng: random.Random):
    """k disjoint induced 2-paths, clique filler, random cross edges.

    An induced 2-path is a property of its three internal pairs only, so
    edges leaving the triple never destroy the planted witness."""
    count = cfg.planted_count()
    n = _planted_size(cfg)
    lab = _shuffled_labels(n, rng)
    edges = []
    group = [0] * n
    for i in range(count):
        a, b, c = lab[3 * i], lab[3 * i + 1], lab[3 * i + 2]
        edges += [(a, b), (b, c)]  # b is the center, endpoints stay non-adjacent
        group[3 * i] = group[3 * i + 1] = group[3 * i + 2] = i
    pos = 3 * count
    gid = count
    while pos < n:
        size = min(rng.randint(1, 4), n - pos)
        members = list(range(pos, pos + size))
        for x in members:
            group[x] = gid
        for ia, x in enumerate(members):
            for y in members[ia + 1:]:
                edges.append((lab[x], lab[y]))
        pos += size
        gid += 1
    for i in range(n):
        for j in range(i + 1, n):
            if group[i] != group[j] and rng.random() < cfg.edge_prob:
                edges.append((lab[i], lab[j]))
    witness = tuple(tuple(sorted(lab[3 * i:3 * i + 3])) for i in range(count))
    return UndirectedGraph(n, edges), witness


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def serialize_tournament(t: Tournament) -> str:
    n = t.n
    cells = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    cells[:, :n] = np.where(t.matrix, ord("1"), ord("0"))
    cells[np.arange(n), np.arange(n)] = ord("-")
    return f"tournament {n}\n" + cells.tobytes().decode("ascii")


def serialize_graph(g: UndirectedGraph) -> str:
    us, vs = np.nonzero(g.matrix())
    upper = us < vs
    m = int(upper.sum())
    flat = np.column_stack((us[upper], vs[upper])).ravel().tolist()
    return f"graph {g.n} {m}\n" + ("%d %d\n" * m) % tuple(flat)


def serialize_instance(spec: InstanceSpec) -> str:
    header = f"problem {spec.problem} k {spec.k}\n"
    if isinstance(spec.payload, Tournament):
        return header + serialize_tournament(spec.payload)
    return header + serialize_graph(spec.payload)


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
    rows = lines[start + 1:start + 1 + n]
    # rows before the first one of the wrong length; a bad character in them
    # is reported first, as a row-by-row scan would
    whole = next((u for u, row in enumerate(rows) if len(row) != n), n)
    # non-ASCII characters become '?', one byte each, and so fail the check
    cells = np.frombuffer("".join(rows[:whole]).encode("ascii", "replace"),
                          dtype=np.uint8).reshape(whole, n)
    bad = (cells != ord("0")) & (cells != ord("1"))
    diag = np.arange(whole)
    bad[diag, diag] = cells[diag, diag] != ord("-")
    hits = np.flatnonzero(bad)
    if hits.size:
        u, v = divmod(int(hits[0]), n)
        message = ("diagonal entry must be '-'" if u == v
                   else f"unexpected character {rows[u][v]!r}")
        raise ParseError(start + 2 + u, message)
    if whole < n:
        raise ParseError(start + 2 + whole,
                         f"row has {len(rows[whole])} characters, expected {n}")
    try:
        t = Tournament(cells == ord("1"))
    except ValueError as exc:
        raise ParseError(start + 1, str(exc)) from exc
    return t, start + 1 + n


def _parse_edge(line: str, lineno: int) -> tuple[int, int]:
    toks = line.split()
    if len(toks) != 2:
        raise ParseError(lineno, f"expected 'u v', got {line!r}")
    try:
        return int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError(lineno, "bad edge endpoints") from None


def _parse_graph_lines(lines: list[str], start: int) -> tuple[UndirectedGraph, int]:
    if start >= len(lines):
        raise ParseError(start + 1, "missing graph header")
    parts = lines[start].split()
    if len(parts) != 3 or parts[0] != "graph":
        raise ParseError(start + 1, f"expected 'graph <n> <m>', got {lines[start]!r}")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(start + 1, "bad graph header counts") from None
    if n < 0 or m < 0:
        raise ParseError(start + 1, "counts must be non-negative")
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(start + 1, f"vertex count {n} exceeds the limit {MAX_GRAPH_VERTICES}")
    if start + 1 + m > len(lines):
        raise ParseError(len(lines) + 1, f"expected {m} edge lines")
    edges = [_parse_edge(line, start + 2 + i) for i, line in enumerate(lines[start + 1:start + 1 + m])]
    try:
        g = UndirectedGraph(n, edges)
    except ValueError as exc:
        raise ParseError(start + 1, str(exc)) from exc
    return g, start + 1 + m


def _reject_trailing(lines: list[str], pos: int) -> None:
    for i in range(pos, len(lines)):
        if lines[i].strip():
            raise ParseError(i + 1, f"trailing garbage {lines[i]!r}")


def _parse_serialized_graph(text: str) -> InstanceSpec | None:
    """The graph instance in `text`, decoded from bytes, when it is exactly
    as `serialize_instance` writes it: m lines `u v` of 1-18 digits (the
    first 2m non-digit bytes alternate space and newline), then whitespace."""
    data = text.encode("ascii", "replace")  # anything else becomes '?' and fails
    head = re.match(rb"problem (I2PP|I2PHS) k ([0-9]{1,18})\ngraph ([0-9]{1,18}) ([0-9]{1,18})\n", data)
    if head is None or int(head[3]) > MAX_GRAPH_VERTICES:
        return None
    n, m = int(head[3]), int(head[4])
    rest = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    seps = np.flatnonzero((rest < ord("0")) | (rest > ord("9")))[:2 * m]
    end = head.end() + (int(seps[-1]) + 1 if seps.size else 0)
    width = np.diff(seps, prepend=-1)  # a token's digits and the separator after them
    if seps.size != 2 * m or rest[seps].tobytes() != b" \n" * m \
            or m and not 2 <= width.min() <= width.max() <= 19 or data[end:].strip():
        return None
    try:
        g = UndirectedGraph(n, np.fromstring(data[head.end():end], dtype=np.int64, sep=" ").reshape(m, 2))
    except ValueError:  # an id out of range or a loop: the line parser names its line
        return None
    return InstanceSpec(head[1].decode(), g, int(head[2]))


def parse_instance(text: str) -> InstanceSpec:
    spec = _parse_serialized_graph(text)
    if spec is not None:
        return spec
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "problem" or parts[2] != "k":
        raise ParseError(1, f"expected 'problem <name> k <k>', got {lines[0]!r}")
    problem = parts[1]
    if problem not in PROBLEMS:
        raise ParseError(1, f"unknown problem {problem!r}")
    try:
        k = int(parts[3])
    except ValueError:
        raise ParseError(1, f"bad parameter {parts[3]!r}") from None
    if k < 0:
        raise ParseError(1, "k must be non-negative")
    if problem in TOURNAMENT_PROBLEMS:
        payload, pos = _parse_tournament_lines(lines, 1)
    else:
        payload, pos = _parse_graph_lines(lines, 1)
    _reject_trailing(lines, pos)
    return InstanceSpec(problem, payload, k)
