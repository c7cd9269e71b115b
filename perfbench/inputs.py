"""Seeded benchmark inputs: generators, the workload table, and the set-up step.

Run as a script, this is the timed set-up of one benchmark run:

    python3 perfbench/inputs.py <workload> <seed> <directory>

It imports the package, generates the workload's instances from the seed,
writes one instance file per op of a pass into the directory, and prints a
JSON line with the file names and the wall seconds all of that took.  The benchmark keeps its own generators so that its inputs
stay fixed whatever the package's generators become.
"""
from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time includes every import below

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rainbowkernel.graphs import Tournament, UndirectedGraph  # noqa: E402
from rainbowkernel.instances import InstanceSpec, serialize_instance  # noqa: E402


# ---------------------------------------------------------------------------
# Generators; each draws from the `random.Random` it is given and nothing else
# ---------------------------------------------------------------------------


def near_transitive(n: int, flips: int, rng: random.Random) -> Tournament:
    """The transitive tournament on 0..n-1 (u beats every v > u) with
    `flips` random pairs pointed backwards (a pair drawn twice stays so)."""
    m = np.triu(np.ones((n, n), dtype=bool), 1)
    for _ in range(flips):
        u, v = sorted(rng.sample(range(n), 2))
        m[u, v] = False
        m[v, u] = True
    return Tournament(m)


def uniform_tournament(n: int, rng: random.Random) -> Tournament:
    """Each arc oriented by a fair coin."""
    m = np.zeros((n, n), dtype=bool)
    for u in range(n):
        row = np.array([rng.random() < 0.5 for _ in range(u + 1, n)], dtype=bool)
        m[u, u + 1:] = row
        m[u + 1:, u] = ~row
    return Tournament(m)


def gnp_graph(n: int, p: float, rng: random.Random) -> UndirectedGraph:
    """Erdos-Renyi graph: each pair is an edge with probability p."""
    return UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])


def cliques_core(paths: int, cliques: int, size: int,
                 rng: random.Random) -> UndirectedGraph:
    """`paths` disjoint induced 2-paths on ids 0..3*paths-1 (the core), then
    `cliques` disjoint cliques of `size` vertices.  Each core vertex is joined
    to a prefix, of random length 1..5, of two distinct random cliques."""
    edges = []
    for i in range(paths):
        a = 3 * i
        edges += [(a, a + 1), (a + 1, a + 2)]
    base = 3 * paths
    members = [list(range(base + j * size, base + (j + 1) * size))
               for j in range(cliques)]
    for clique in members:
        edges += [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
    for c in range(base):
        for j in rng.sample(range(cliques), 2):
            edges += [(c, v) for v in members[j][:rng.randint(1, min(5, size))]]
    return UndirectedGraph(base + cliques * size, edges)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


# One function per workload, building the instances of one pass.  Why each
# workload exists, and which layer it loads, is recorded in BENCHMARK.json.


def _tournament(rng: random.Random) -> list[InstanceSpec]:
    """Small TPT instances that run the round loop, FVST instances where
    triangle localization does most of the work, and two uniform tournaments
    that greedy localization settles early.  There are many small TPT
    instances because their cost varies a lot from one to the next."""
    specs = [InstanceSpec("TPT", near_transitive(60, 18, rng), 20) for _ in range(200)]
    specs += [InstanceSpec("FVST", near_transitive(300, 6, rng), 8) for _ in range(6)]
    specs += [InstanceSpec("TPT", uniform_tournament(600, rng), 180),
              InstanceSpec("FVST", uniform_tournament(400, rng), 100)]
    return specs


def _p3_graph(rng: random.Random) -> list[InstanceSpec]:
    """Cliques+core graphs, each kernelized for I2PP and for I2PHS, and two
    gnp graphs that greedy localization settles early."""
    specs = []
    for _ in range(12):
        g = cliques_core(3, 15, 6, rng)
        specs += [InstanceSpec("I2PP", g, 4), InstanceSpec("I2PHS", g, 4)]
    specs += [InstanceSpec("I2PP", gnp_graph(300, 0.3, rng), 90),
              InstanceSpec("I2PHS", gnp_graph(200, 0.3, rng), 40)]
    return specs


WORKLOADS = {
    "tournament": _tournament,
    "p3-graph": _p3_graph,
}


def make_pass(workload: str, seed: int) -> list[InstanceSpec]:
    """The instances of one pass; the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def write_inputs(workload: str, seed: int, directory: Path) -> list[str]:
    """Write one instance file per op of a pass; returns the file names."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, spec in enumerate(make_pass(workload, seed)):
        name = f"in{i:03d}.txt"
        (directory / name).write_text(serialize_instance(spec))
        names.append(name)
    return names


if __name__ == "__main__":
    names = write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(json.dumps({"files": names, "setup_s": time.perf_counter() - _START}))
