"""Run reports: per-round traces of a kernelization and its outcome."""
from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class RoundRecord:
    index: int
    case: str  # "matching" | "case1" | "case2"
    pool_size: int
    bucketed_size: int
    colors_size: int
    potential: int
    live_cliques: int | None = None  # P3 problems
    demand: dict | None = None       # tournament problems
    oracle: dict = field(default_factory=dict)


@dataclass
class KernelReport:
    problem: str
    n: int
    k: int
    params: dict
    status: str  # "kernel" | "early-yes" | "early-no"
    core_size: int | None = None
    rest_size: int | None = None
    rounds: list[RoundRecord] = field(default_factory=list)
    kept: list[int] = field(default_factory=list)
    kernel_size: int = 0
    bound: float = 0.0
    bound_formula: str = ""
    witness: list | None = None
    equivalent: bool | None = None

    def to_json(self) -> str:
        """One line, by the C encoder (an `indent` falls back to the pure-Python one)."""
        return json.dumps(self, default=vars, sort_keys=True)


@dataclass
class Decided:
    """The greedy phase already settled the instance; no kernel is emitted."""

    answer: bool
    witness: tuple
    report: KernelReport


@dataclass
class KernelOutput:
    """A finished run: the kept vertex ids, the trace, and the final state
    (decomposition, matching, ...) that lifting constructions consume."""

    kept: tuple[int, ...]
    report: KernelReport
    state: object

