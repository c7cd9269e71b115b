"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The whole module is sized
to finish in a few minutes on commodity hardware.
"""
import random
import time
from itertools import combinations

import numpy as np

from rainbowkernel.demand import BucketProfile
from rainbowkernel.exact import exact_answer, hitting_set_within
from rainbowkernel.graphs import (Tournament, UndirectedGraph, colored_edge,
                                  enumerate_induced_p3, enumerate_triangles,
                                  make_colored_multigraph)
from rainbowkernel.instances import (GeneratorConfig, InstanceSpec,
                                     generate_instance)
from rainbowkernel.p3 import kernelize_p3, lift_hitting_set_p3
from rainbowkernel.rainbow import ColorCover, RainbowOracle, verify_outcome
from rainbowkernel.report import Decided, KernelOutput
from rainbowkernel.tournament import (kernelize_tournament, lift_fvs,
                                      repack_via_allocation)

from .reference import p3 as ref_p3
from .reference.demand import demand_property_violations

EPSILON = 1.0   # P3 problems; 363k vertex bound
DELTA = 2.0     # tournament problems; 6534 * 10.5 * k^2 vertex bound


def _verdict(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {name}: {status}")
    assert not failures, failures[:10]


def _potentials_strictly_decrease(report) -> bool:
    pots = [r.potential for r in report.rounds]
    return all(a > b for a, b in zip(pots, pots[1:]))


# -- criterion 1 + the P3 halves of criteria 3 and 4 -------------------------


def _graph_corpus(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        if i % 2 == 0:
            n = rng.randint(5, 30)
            cfg = GeneratorConfig(problem="I2PP", family="gnp", n=n, k=1,
                                  edge_prob=rng.choice([0.15, 0.3, 0.5, 0.75]))
        else:
            planted = rng.randint(1, 5)
            filler = rng.randint(0, min(20, 30 - 3 * planted))
            cfg = GeneratorConfig(problem="I2PP", family="planted", k=1,
                                  planted=planted, filler=filler,
                                  edge_prob=rng.choice([0.1, 0.3]))
        yield generate_instance(cfg, seed=seed * 100_003 + i).payload


def test_criterion_1_and_3_4_p3_equivalence():
    failures = []
    graphs = list(_graph_corpus(500, seed=1))
    assert len(graphs) >= 500
    for gi, g in enumerate(graphs):
        for k in range(1, 6):
            for problem in ("I2PP", "I2PHS"):
                truth = exact_answer(InstanceSpec(problem, g, k))
                out = kernelize_p3(g, k, epsilon=EPSILON, problem=problem)
                if isinstance(out, Decided):
                    if out.answer != truth:
                        failures.append(f"graph {gi} k={k} {problem}: early answer wrong")
                    continue
                kernel = g.induced(out.kept)
                if exact_answer(InstanceSpec(problem, kernel, k)) != truth:
                    failures.append(f"graph {gi} k={k} {problem}: kernel answer differs")
                if len(out.kept) > 363 * k:
                    failures.append(f"graph {gi} k={k} {problem}: size {len(out.kept)} > 363k")
                if not _potentials_strictly_decrease(out.report):
                    failures.append(f"graph {gi} k={k} {problem}: potential not decreasing")
    _verdict("1 (P3 equivalence, 500 graphs x k=1..5, plus the 363k bound "
             "and per-round invariants)", failures)


# -- criterion 2 + the tournament halves of criteria 3 and 4 -----------------


def _near_transitive(n: int, flips: int, rng: random.Random) -> Tournament:
    m = np.zeros((n, n), dtype=bool)
    for u in range(n):
        m[u, u + 1:] = True
    for _ in range(flips):
        u, v = sorted(rng.sample(range(n), 2))
        m[u, v] = False
        m[v, u] = True
    return Tournament(m)


def _tournament_corpus(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            n = rng.randint(4, 24)
            yield generate_instance(
                GeneratorConfig(problem="TPT", family="uniform", n=n, k=1),
                seed=seed * 99_991 + i).payload
        elif kind == 1:
            planted = rng.randint(1, 4)
            filler = rng.randint(0, min(12, 24 - 3 * planted))
            yield generate_instance(
                GeneratorConfig(problem="TPT", family="planted", k=1,
                                planted=planted, filler=filler),
                seed=seed * 99_991 + i).payload
        else:
            n = rng.randint(6, 24)
            yield _near_transitive(n, rng.randint(0, 4), rng)


def test_criterion_2_and_3_4_tournament_equivalence():
    failures = []
    tournaments = list(_tournament_corpus(500, seed=2))
    assert len(tournaments) >= 500
    for ti, t in enumerate(tournaments):
        for k in range(1, 5):
            for problem in ("TPT", "FVST"):
                truth = exact_answer(InstanceSpec(problem, t, k))
                out = kernelize_tournament(t, k, delta=DELTA, problem=problem)
                if isinstance(out, Decided):
                    if out.answer != truth:
                        failures.append(f"tournament {ti} k={k} {problem}: early answer wrong")
                    continue
                kernel = t.induced(out.kept)
                if exact_answer(InstanceSpec(problem, kernel, k)) != truth:
                    failures.append(f"tournament {ti} k={k} {problem}: kernel answer differs")
                if len(out.kept) > 6534 * 10.5 * k ** 2:
                    failures.append(f"tournament {ti} k={k} {problem}: size bound broken")
                if not _potentials_strictly_decrease(out.report):
                    failures.append(f"tournament {ti} k={k} {problem}: potential not decreasing")
    _verdict("2 (tournament equivalence, 500 tournaments x k=1..4, plus the "
             "6534*c(2)*k^2 bound and per-round invariants)", failures)


# -- criterion 5: oracle dichotomy at reference scale -------------------------


def _random_multigraph(rng: random.Random):
    nv = rng.randint(1, 12)
    p = rng.randint(1, 6)
    edges = {}
    for _ in range(rng.randint(p, 3 * p + 4)):
        c = rng.randrange(p)
        if rng.random() < 0.4 or nv < 2:
            v = rng.randrange(nv)
            edges[(v, v, c)] = colored_edge(v, v, c)
        else:
            u, v = rng.sample(range(nv), 2)
            e = colored_edge(u, v, c)
            edges[(e.u, e.v, c)] = e
    for c in range(p):
        if c not in {cc for (_, _, cc) in edges}:
            v = rng.randrange(nv)
            edges[(v, v, c)] = colored_edge(v, v, c)
    return make_colored_multigraph(range(nv), edges.values(), p)


def _brute_has_rainbow(cm) -> bool:
    by_color = [[] for _ in range(cm.p)]
    for e in cm.edges:
        by_color[e.color].append(e)

    def rec(c, used):
        if c == cm.p:
            return True
        for e in by_color[c]:
            pts = e.endpoints()
            if not pts & used and rec(c + 1, used | pts):
                return True
        return False

    return rec(0, frozenset())


def _brute_achievable_cover(cm, epsilon) -> bool:
    for size in range(1, cm.p + 1):
        budget = int((4 + epsilon) * (size - 1) + 1e-9)
        for colors in combinations(range(cm.p), size):
            edges = [e for e in cm.edges if e.color in set(colors)]
            if hitting_set_within([(e.u,) if e.is_loop else (e.u, e.v) for e in edges],
                                  budget) is not None:
                return True
    return False


def test_criterion_5_oracle_dichotomy():
    from rainbowkernel.graphs import dump_colored_multigraph

    failures = []
    rng = random.Random(5)
    oracle = RainbowOracle()
    for trial in range(1000):
        cm = _random_multigraph(rng)
        outcome, _ = oracle.solve(cm, EPSILON)
        ok, problems = verify_outcome(cm, outcome)
        if not ok:
            failures.append(f"trial {trial}: outcome fails verification: {problems}\n"
                            f"{dump_colored_multigraph(cm)}")
            continue
        if not _brute_has_rainbow(cm):
            if not isinstance(outcome, ColorCover):
                failures.append(f"trial {trial}: no rainbow matching exists but one "
                                f"returned\n{dump_colored_multigraph(cm)}")
            elif not _brute_achievable_cover(cm, EPSILON):
                failures.append(f"trial {trial}: contrapositive bound unachievable\n"
                                f"{dump_colored_multigraph(cm)}")
    _verdict("5 (oracle dichotomy on 1000 fuzzed multigraphs, <=12 vertices, "
             "<=6 colors)", failures)


# -- criterion 6: demand law suite ---------------------------------------------


def test_criterion_6_demand_laws():
    failures = []
    rng = random.Random(6)
    for trial in range(1000):
        count = rng.randint(1, 8)
        indices = tuple(sorted(rng.sample(range(1, 40), count)))
        seeds, bulk = {}, {}
        for i in indices:
            size = rng.randint(1, 6)
            seeds[i] = rng.randint(1, size)
            bulk[i] = size - seeds[i]
        profile = BucketProfile(indices, seeds, bulk)
        violations = demand_property_violations(
            profile, subset_cap=200, rng=random.Random(trial))
        if violations:
            failures.append(f"trial {trial}: {violations[:3]}")
    _verdict("6 (demand laws on 1000 bucket configurations, <=8 buckets, "
             "bucket sizes <=6)", failures)


# -- criterion 7: safeness constructions --------------------------------------


def _random_tournament(n: int, rng: random.Random) -> Tournament:
    m = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                m[u, v] = True
            else:
                m[v, u] = True
    return Tournament(m)


def _greedy_packing(triples, rng):
    order = list(triples)
    rng.shuffle(order)
    used, packing = set(), []
    for tri in order:
        if not set(tri) & used:
            packing.append(tuple(tri))
            used |= set(tri)
    return packing


def _harvest_tournament_states(target: int, rng: random.Random):
    states = []
    attempt = 0
    while len(states) < target and attempt < target * 80:
        attempt += 1
        t = _random_tournament(rng.randint(5, 15), rng)
        out = kernelize_tournament(t, rng.randint(2, 6), delta=DELTA,
                                   problem="FVST")
        if isinstance(out, KernelOutput):
            states.append((t, out))
    return states


def _harvest_graph_states(target: int, rng: random.Random):
    states = []
    attempt = 0
    while len(states) < target and attempt < target * 80:
        attempt += 1
        n = rng.randint(5, 15)
        prob = rng.choice([0.2, 0.35, 0.5, 0.7])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < prob]
        g = UndirectedGraph(n, edges)
        out = kernelize_p3(g, rng.randint(2, 6), epsilon=EPSILON,
                           problem="I2PHS")
        if isinstance(out, KernelOutput):
            states.append((g, out))
    return states


def _min_hitting_of_kernel(triples, ids) -> set:
    for size in range(len(ids) + 1):
        for comb in combinations(ids, size):
            s = set(comb)
            if all(s & set(tr) for tr in triples):
                return s
    return set(ids)


def test_criterion_7_safeness_constructions():
    failures = []
    rng = random.Random(7)

    # triangle repacking: >= 500 (decomposition, allocation, packing) triples
    tstates = _harvest_tournament_states(110, rng)
    repacks = 0
    for t, out in tstates:
        d = out.state.final
        triples = enumerate_triangles(t, sorted(d.pool | d.bucketed))
        for _ in range(5):
            packing = _greedy_packing(triples, rng)
            try:
                rerouted = repack_via_allocation(out.state, t, packing)
            except Exception as exc:
                failures.append(f"repack raised: {exc}")
                continue
            if len(rerouted) != len(packing):
                failures.append("repack changed the packing size")
            used = set()
            for tri in rerouted:
                if set(tri) & used:
                    failures.append("repack output overlaps")
                used |= set(tri)
            repacks += 1
    if repacks < 500:
        failures.append(f"only {repacks} repack triples exercised")

    # feedback vertex set lifting: >= 500 triples
    lifts = 0
    for t, out in tstates:
        ids = list(out.kept)
        triples = enumerate_triangles(t, ids)
        minimum = _min_hitting_of_kernel(triples, ids)
        solutions = [set(minimum), set(ids)]
        for extra in range(3):
            base = set(minimum)
            base |= set(rng.sample(ids, min(len(ids), extra)))
            solutions.append(base)
        for x in solutions:
            try:
                lifted = lift_fvs(out.state, t, set(x))
            except Exception as exc:
                failures.append(f"lift_fvs raised: {exc}")
                continue
            if len(lifted) > len(x):
                failures.append("lift_fvs grew the solution")
            rest = [v for v in range(t.n) if v not in lifted]
            if enumerate_triangles(t, rest):
                failures.append("lift_fvs output misses a triangle")
            lifts += 1
    if lifts < 500:
        failures.append(f"only {lifts} lift_fvs triples exercised")

    # induced 2-path hitting set lifting: >= 500 triples
    gstates = _harvest_graph_states(110, rng)
    plifts = 0
    wide = random.Random(77)  # wider random hitting sets, off the criterion's own stream
    for g, out in gstates:
        ids = list(out.kept)
        paths = enumerate_induced_p3(g, ids)
        minimum = _min_hitting_of_kernel(paths, ids)
        solutions = [set(minimum), set(ids)]
        for extra in range(3):
            base = set(minimum)
            base |= set(rng.sample(ids, min(len(ids), extra)))
            solutions.append(base)
        for _ in range(3):
            x = minimum | set(wide.sample(ids, wide.randint(0, len(ids))))
            if lift_hitting_set_p3(out.state, g, set(x)) != \
                    ref_p3.lift_hitting_set_p3(out.state, g, set(x)):
                failures.append("lift_hitting_set_p3 differs from the enumerating lift")
        for x in solutions:
            try:
                lifted = lift_hitting_set_p3(out.state, g, set(x))
            except Exception as exc:
                failures.append(f"lift_hitting_set_p3 raised: {exc}")
                continue
            if len(lifted) > len(x):
                failures.append("lift_hitting_set_p3 grew the solution")
            if lifted != ref_p3.lift_hitting_set_p3(out.state, g, set(x)):
                failures.append("lift_hitting_set_p3 differs from the enumerating lift")
            rest = [v for v in range(g.n) if v not in lifted]
            if enumerate_induced_p3(g, rest):
                failures.append("lift_hitting_set_p3 output misses a path")
            plifts += 1
    if plifts < 500:
        failures.append(f"only {plifts} lift_hitting_set_p3 triples exercised")

    _verdict("7 (safeness: >=500 repack triples, >=500 FVS lifts, >=500 "
             "hitting-set lifts, all verified by enumeration)", failures)


# -- criterion 8: performance smoke --------------------------------------------


def test_criterion_8_performance_smoke():
    failures = []
    start = time.perf_counter()

    # literal criterion shape: uniform random n=300, k=20, delta=2
    spec = generate_instance(
        GeneratorConfig(problem="TPT", family="uniform", n=300, k=20), seed=8)
    out = kernelize_tournament(spec.payload, 20, delta=DELTA)
    if len(out.report.rounds) > 300:
        failures.append("round count exceeds the vertex count")

    # a shape that cannot be settled greedily, so the full pipeline runs
    rng = random.Random(88)
    t = _near_transitive(300, 18, rng)
    out2 = kernelize_tournament(t, 20, delta=DELTA)
    if not isinstance(out2, KernelOutput):
        failures.append("near-transitive shape unexpectedly settled early")
    else:
        budget = out2.report.rest_size + out2.report.core_size
        if len(out2.report.rounds) > budget:
            failures.append(f"{len(out2.report.rounds)} rounds exceed "
                            f"|order| + |core| = {budget}")
        if len(out2.kept) > out2.report.bound:
            failures.append("kernel size exceeds the bound")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runs took {elapsed:.1f}s, budget is 60s")
    print(f"\n  (criterion 8 wall time: {elapsed:.2f}s)")
    _verdict("8 (n=300 kernelization under 60s with bounded round count)",
             failures)
