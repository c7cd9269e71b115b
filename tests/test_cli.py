import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from rainbowkernel import cli, exact, instances, p3, rainbow, tournament
from rainbowkernel.cli import build_parser, main
from rainbowkernel.demand import BucketProfile
from rainbowkernel.errors import NotNicePair, ParseError
from rainbowkernel.intervals import BucketInterval
from rainbowkernel.graphs import Tournament, UndirectedGraph
from rainbowkernel.rounds import COLOR, POOL
from rainbowkernel.instances import (MAX_GRAPH_VERTICES, InstanceSpec,
                                     parse_instance, serialize_instance)

from .reference.text import induced_by_edge_list


CYCLIC_TPT = serialize_instance(InstanceSpec("TPT", Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)]), 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _colors_join_pool(d, key_of):
    """d with its colors relabelled and listed as pool vertices, keyed by `key_of`."""
    xs = d.color_ids
    return dataclasses.replace(d, label=np.where(d.label == COLOR, POOL, d.label),
                               ids=np.append(d.ids, xs), keys=np.append(d.keys, key_of[xs]))


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--problem", "TPT", "--family", "uniform", "--n", "10",
                "--k", "2", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_parses(self, capsys):
        code, out, _ = run(capsys, "gen", "--problem", "I2PP", "--family", "gnp",
                           "--n", "6", "--k", "1", "--seed", "1")
        assert code == 0
        spec = parse_instance(out)
        assert spec.problem == "I2PP" and spec.payload.n == 6


@pytest.mark.parametrize("argv, error", [
    (["--problem", "I2PP", "--family", "gnp", "--n", "10001"],
     "vertex count 10001 exceeds the limit 10000"),
    (["--problem", "I2PHS", "--family", "planted", "--k", "1", "--planted", "3334"],
     "vertex count 10002 exceeds the limit 10000"),
    (["--problem", "TPT", "--family", "uniform", "--n", "-1"],
     "vertex count must be non-negative"),
], ids=["gnp-10001", "planted-10002", "uniform-negative"])
def test_gen_rejects_sizes_the_parser_rejects(capsys, monkeypatch, argv, error):
    def reached(*args):
        raise AssertionError("the generator ran")
    for name in ("_uniform_tournament", "_gnp_graph", "_planted_tournament", "_planted_graph"):
        monkeypatch.setattr(instances, name, reached)
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("gen", [
    ["--problem", "TPT", "--family", "planted", "--k", "8", "--planted", "1", "--filler", "30"],
    ["--problem", "I2PHS", "--family", "gnp", "--n", "40", "--k", "10", "--edge-prob", "0.05",
     "--seed", "2"],
], ids=["TPT", "I2PHS"])
def test_output_bytes_are_pinned(tmp_path, capsys, gen):
    """`gen`, kernel and report files are the serialized text as bytes with
    `\\n` line ends; the kernel is what the edge-list path builds, and a
    CRLF copy of the input gives the same files."""
    inst, crlf = tmp_path / "inst.txt", tmp_path / "crlf.txt"
    assert main(["gen", *gen, "--output", str(inst)]) == 0
    text = inst.read_bytes()
    spec = parse_instance(text.decode())
    assert text == serialize_instance(spec).encode() and b"\r" not in text
    crlf.write_bytes(text.replace(b"\n", b"\r\n"))
    result = cli._kernelize(spec, None, None)
    assert result.report.status == "kernel" and len(result.kept) < spec.payload.n
    kernel = InstanceSpec(spec.problem, induced_by_edge_list(spec.payload, result.kept), spec.k)
    for source in (inst, crlf):
        kern, rep = tmp_path / f"{source.stem}.kernel", tmp_path / f"{source.stem}.json"
        code, _, _ = run(capsys, "kernelize", "--input", str(source), "--output", str(kern),
                         "--report", str(rep))
        assert code == 0
        assert kern.read_bytes() == serialize_instance(kernel).encode()
        assert rep.read_bytes() == (result.report.to_json() + "\n").encode()


class TestKernelize:
    def test_acyclic_tpt_zero_reduction_rounds(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "planted", "--k", "1",
              "--planted", "0", "--filler", "8", "--seed", "2",
              "--output", str(inst)])
        rep = tmp_path / "rep.json"
        code, out, _ = run(capsys, "kernelize", "--input", str(inst),
                           "--report", str(rep), "--output", str(tmp_path / "k.txt"))
        assert code == 0
        report = json.loads(rep.read_text())
        cases = [r["case"] for r in report["rounds"]]
        assert "case1" not in cases and "case2" not in cases

    def test_verified_equivalence_reported(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "I2PHS", "--family", "planted", "--k", "2",
              "--planted", "2", "--filler", "6", "--seed", "3",
              "--output", str(inst)])
        rep = tmp_path / "rep.json"
        code, out, _ = run(capsys, "kernelize", "--input", str(inst),
                           "--verify", "--report", str(rep))
        assert code == 0
        report = json.loads(rep.read_text())
        if report["status"] == "kernel":
            assert report["equivalent"] is True
            assert "equivalent: true" in out
        else:
            assert report["status"] in ("early-yes", "early-no")

    def test_verify_past_the_limit_reports_null(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "FVST", "--family", "uniform", "--n", "12",
              "--k", "3", "--seed", "3001", "--output", str(inst)])
        rep = tmp_path / "rep.json"
        code, out, _ = run(capsys, "kernelize", "--input", str(inst), "--verify",
                           "--oracle-limit", "8", "--report", str(rep))
        report = json.loads(rep.read_text())
        assert code == 0 and report["status"] == "kernel"
        assert report["equivalent"] is None and "equivalent" not in out

    def test_verify_and_output_build_the_kernel_once(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "I2PHS", "--family", "gnp", "--n", "40", "--k", "10",
              "--edge-prob", "0.05", "--seed", "2", "--output", str(inst)])
        calls = []
        induced = UndirectedGraph.induced
        monkeypatch.setattr(UndirectedGraph, "induced",
                            lambda g, keep: calls.append(keep) or induced(g, keep))
        code, out, _ = run(capsys, "kernelize", "--input", str(inst), "--verify",
                           "--oracle-limit", "40", "--output", str(tmp_path / "k.txt"))
        assert code == 0 and "equivalent: true" in out and len(calls) == 1

    def test_failed_verification_exits_1(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "FVST", "--family", "uniform", "--n", "12",
              "--k", "3", "--seed", "3001", "--output", str(inst)])
        answers = iter([True, False])
        monkeypatch.setattr(exact, "exact_answer", lambda spec, limit: next(answers))
        code, _, err = run(capsys, "kernelize", "--input", str(inst), "--verify")
        assert code == 1 and "equivalent: false" in err

    def test_auto_delta_recorded(self, tmp_path, capsys):
        import math

        from rainbowkernel.tournament import choose_delta

        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "planted", "--k", "30",
              "--planted", "0", "--filler", "9", "--seed", "2",
              "--output", str(inst)])
        rep = tmp_path / "rep.json"
        code, _, _ = run(capsys, "kernelize", "--input", str(inst),
                         "--report", str(rep))
        assert code == 0
        report = json.loads(rep.read_text())
        expected = 1.0 + math.sqrt(math.log2(21)) / math.sqrt(math.log2(30))
        assert expected < 2.0  # genuinely below the cap
        assert report["params"]["delta"] == pytest.approx(choose_delta(30), abs=1e-9)
        assert report["params"]["delta"] == pytest.approx(expected, abs=1e-9)

    def test_kernel_file_parses_and_bound_recorded(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "FVST", "--family", "uniform", "--n", "13",
              "--k", "3", "--seed", "11", "--output", str(inst)])
        kern = tmp_path / "kern.txt"
        rep = tmp_path / "rep.json"
        code, _, _ = run(capsys, "kernelize", "--input", str(inst),
                         "--output", str(kern), "--report", str(rep),
                         "--delta", "2.0")
        assert code == 0
        report = json.loads(rep.read_text())
        if report["status"] == "kernel":
            spec = parse_instance(kern.read_text())
            assert spec.payload.n == report["kernel_size"]
            assert report["kernel_size"] <= report["bound"]
            assert report["bound_formula"]

    @pytest.mark.parametrize("exc", [NotNicePair((0, 1, 2)), AssertionError("invariants broken")],
                             ids=["NotNicePair", "AssertionError"])
    def test_internal_error_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch, exc):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "uniform", "--n", "12",
              "--k", "3", "--seed", "3001", "--output", str(inst)])

        def broken(*args):
            raise exc

        monkeypatch.setattr(tournament, "greedy_localize_triangles", broken)
        code, _, err = run(capsys, "kernelize", "--input", str(inst))
        assert code == 3 and err == f"internal error: {exc}\n"

    # each stage is replaced by one that hands an internal constructor a value
    # breaking its law; the run must end as an internal error, not bad input
    BROKEN_STAGES = {
        "pool_inside_remainder_p3": ("I2PP", p3, "clean_p3",
                                     lambda d, g: _colors_join_pool(d, d.loc.clique_of),
                                     "pool must lie inside the localization remainder"),
        "pool_inside_remainder_tpt": ("TPT", tournament, "clean_tpt",
                                      lambda d, t: _colors_join_pool(d, d.loc.position),
                                      "pool must lie inside the localization remainder"),
        "pool_ids_labelled_pool": ("TPT", tournament, "clean_tpt",
                                   lambda d, t: dataclasses.replace(
                                       d, label=np.where(d.label == POOL, COLOR, d.label)),
                                   "the pool ids must be the vertices labelled POOL"),
        "bulk_inside_bucketed_remainder": ("TPT", tournament, "clean_tpt",
                                           lambda d, t: dataclasses.replace(
                                               d, in_bulk=d.label == POOL),
                                           "bulk must lie inside the bucketed remainder part"),
        "BucketInterval": ("TPT", tournament, "compute_demand", lambda profile: BucketInterval(3, 3),
                           "interval needs l < r, got (3, 3)"),
        "BucketProfile": ("TPT", tournament, "compute_demand",
                          lambda profile: BucketProfile((2, 1), {1: 1, 2: 1}, {}),
                          "bucket indices must be sorted"),
        # a localization that misses a triangle, and a clean that keeps stale
        # colors, make a helper raise its own ValueError
        "topological_order": ("TPT", tournament, "_first_triangle", lambda m, a, free: None,
                              "remainder triangle (1, 2, 7); the packing was not maximal"),
        "ColoredMultigraph": ("I2PP", p3, "clean_p3", lambda d, g: d,
                              "auxiliary multigraph: color map not surjective; unused colors "
                              f"{list(range(12))}"),
    }

    @pytest.mark.parametrize("site", BROKEN_STAGES)
    def test_broken_internal_value_exits_3(self, tmp_path, capsys, monkeypatch, site):
        problem, module, stage, broken, message = self.BROKEN_STAGES[site]
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", problem, "--family", "planted", "--k", "20",
              "--planted", "1", "--filler", "9", "--seed", "5", "--output", str(inst)])
        assert run(capsys, "kernelize", "--input", str(inst))[0] == 0
        monkeypatch.setattr(module, stage, broken)
        code, _, err = run(capsys, "kernelize", "--input", str(inst))
        assert code == 3 and err == f"internal error: {message}\n"

    def test_exhausted_oracle_exits_3(self, tmp_path, capsys, monkeypatch):
        # on this instance layer 1 misses two colors in the first round
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "uniform", "--n", "12",
              "--k", "3", "--seed", "20", "--output", str(inst)])
        assert run(capsys, "kernelize", "--input", str(inst))[0] == 0
        monkeypatch.setattr(rainbow.RainbowOracle, "_blocked_cover", lambda *args: None)
        code, _, err = run(capsys, "kernelize", "--input", str(inst))
        assert code == 3 and err.startswith("internal error: no rainbow oracle layer answered")
        assert "Traceback" not in err

    # parameters outside the float range: NaN, infinity, a power past it
    # (1e200), a bound that rounds to infinity (5e153) and a k too long to
    # convert
    @pytest.mark.parametrize("problem, k, flags, message", [
        ("I2PP", "3", ["--epsilon", "nan"], "epsilon must be a finite positive number"),
        ("I2PP", "3", ["--epsilon", "inf"], "epsilon must be a finite positive number"),
        ("I2PP", "3", ["--epsilon", "1e200"], "the kernel bound overflows a float"),
        ("I2PP", "3", ["--epsilon", "5e153"], "the kernel bound overflows a float"),
        ("TPT", "3", ["--delta", "1.001"], "c(delta) overflows a float"),
        ("I2PP", "9" * 400, [], "the kernel bound overflows a float"),
        ("TPT", "9" * 400, [], "the kernel bound overflows a float")],
        ids=["epsilon-nan", "epsilon-inf", "epsilon-1e200", "epsilon-5e153", "delta-1.001",
             "I2PP-400-digit-k", "TPT-400-digit-k"])
    def test_parameters_past_the_float_range_exit_2(self, tmp_path, capsys, problem, k, flags,
                                                    message):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", problem, "--family", "gnp" if problem == "I2PP" else "uniform",
              "--n", "12", "--k", "3", "--seed", "20", "--output", str(inst)])
        inst.write_text(inst.read_text().replace(" k 3\n", f" k {k}\n", 1))
        code, out, err = run(capsys, "kernelize", "--input", str(inst), *flags)
        assert code == 2 and err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out

    def test_edgeless_graph_kernelizes_fast(self, tmp_path, capsys):
        inst = tmp_path / "edgeless.txt"
        inst.write_text("problem I2PP k 1\ngraph 2000 0\n")
        start = time.perf_counter()
        code, _, _ = run(capsys, "kernelize", "--input", str(inst))
        assert code == 0 and time.perf_counter() - start < 5.0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("problem TPT k x\n")
        code, _, err = run(capsys, "kernelize", "--input", str(bad))
        assert code == 2 and "error" in err

    def test_oversized_tournament_header_allocates_nothing(self, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("problem TPT k 1\ntournament 1000000000\n")
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "kernelize", "--input", str(bad))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "line 3: expected 1000000000 orientation rows" in err
        assert peak < 1_000_000

    def test_oversized_graph_header_allocates_nothing(self, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("problem I2PP k 1\ngraph 1000000000 0\n")
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "kernelize", "--input", str(bad))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert (f"line 2: vertex count 1000000000 exceeds the limit "
                f"{MAX_GRAPH_VERTICES}") in err
        assert peak < 1_000_000

    def test_graph_vertex_cap_is_inclusive(self):
        text = "problem I2PHS k 1\ngraph {} 0\n"
        assert parse_instance(text.format(MAX_GRAPH_VERTICES)).payload.n == MAX_GRAPH_VERTICES
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_instance(text.format(MAX_GRAPH_VERTICES + 1))


class TestSolveVerify:
    def test_solve_prints_answer(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "planted", "--k", "2",
              "--planted", "2", "--filler", "0", "--seed", "1",
              "--output", str(inst)])
        code, out, _ = run(capsys, "solve", "--input", str(inst))
        assert code == 0
        assert "answer: yes" in out

    def test_verify_packing_solution(self, tmp_path, capsys):
        from rainbowkernel.exact import optimum

        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "planted", "--k", "2",
              "--planted", "2", "--filler", "0", "--seed", "1",
              "--output", str(inst)])
        spec = parse_instance(inst.read_text())
        witness = optimum("TPT", spec.payload).witness
        sol = tmp_path / "sol.txt"
        body = "".join(" ".join(map(str, tri)) + "\n" for tri in witness)
        sol.write_text(f"solution packing {len(witness)}\n{body}")
        code, out, _ = run(capsys, "verify", "--input", str(inst),
                           "--solution", str(sol))
        assert code == 0 and "valid: true" in out

    def test_verify_rejects_bad_hitting(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "FVST", "--family", "planted", "--k", "1",
              "--planted", "2", "--filler", "0", "--seed", "1",
              "--output", str(inst)])
        sol = tmp_path / "sol.txt"
        sol.write_text("solution hitting 1\n0\n")
        code, out, _ = run(capsys, "verify", "--input", str(inst),
                           "--solution", str(sol))
        assert "valid:" in out
        # one vertex cannot hit two disjoint planted triangles
        assert code == 1 and "valid: false" in out

    @pytest.mark.parametrize("instance, body, error", [
        (CYCLIC_TPT, "solution packing 1\n0 1 2\n", None),
        (CYCLIC_TPT, "solution packing 1\n0 1 -1\n", "line 2: vertex ids must lie in 0..2"),
        (CYCLIC_TPT, "solution packing 1\n0 1 99\n", "line 2: vertex ids must lie in 0..2"),
        (CYCLIC_TPT, "solution packing x\n", "line 1: expected 'solution <packing|hitting> <count>'"),
        (CYCLIC_TPT, "solution packing 1\n0 1 x\n", "line 2: vertex ids must be integers"),
        # the one edge 0-1 carries no induced 2-path, however often 0 is named
        ("problem I2PP k 1\ngraph 3 1\n0 1\n", "solution packing 1\n0 0 1\n", False),
    ], ids=["valid", "negative-id", "id-past-n", "non-integer-count", "non-integer-id",
            "repeated-vertex"])
    def test_verify_checks_solution_lines(self, tmp_path, capsys, instance, body, error):
        inst, sol = tmp_path / "inst.txt", tmp_path / "sol.txt"
        inst.write_text(instance)
        sol.write_text(body)
        code, out, err = run(capsys, "verify", "--input", str(inst), "--solution", str(sol))
        if error is None:
            assert code == 0 and "valid: true" in out
        elif error is False:
            assert code == 1 and "valid: false" in out
        else:
            assert code == 2 and err.startswith(f"error: {error}") and "valid" not in out

    @pytest.mark.parametrize("modes", [[], ["--solution", "{inst}", "--kernel", "{inst}"]],
                             ids=["neither", "both"])
    def test_verify_needs_exactly_one_mode(self, tmp_path, capsys, modes):
        inst = tmp_path / "inst.txt"
        inst.write_text(CYCLIC_TPT)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--input", str(inst), *(m.format(inst=inst) for m in modes)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "--solution" in err and "--kernel" in err
        assert "Traceback" not in err

    def test_verify_kernel_pair(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "FVST", "--family", "uniform", "--n", "12",
              "--k", "3", "--seed", "4", "--output", str(inst)])
        kern = tmp_path / "kern.txt"
        code, _, _ = run(capsys, "kernelize", "--input", str(inst),
                         "--output", str(kern), "--delta", "2.0")
        assert code == 0
        if kern.exists():
            code, out, _ = run(capsys, "verify", "--input", str(inst),
                               "--kernel", str(kern))
            assert code == 0 and "equivalent: true" in out


@pytest.mark.parametrize("argv", [
    ["kernelize", "--input", "{missing}"],
    ["kernelize", "--input", "{directory}"],
    ["solve", "--input", "{missing}"],
    ["verify", "--input", "{inst}", "--solution", "{missing}"],
    ["gen", "--problem", "TPT", "--family", "uniform", "--n", "6", "--k", "1", "--output", "{missing}"],
    ["kernelize", "--input", "{inst}", "--report", "{missing}"],
    ["verify", "--input", "{inst}", "--kernel", "{inst}", "--oracle-limit", "2"],
    ["verify", "--input", "{inst}", "--solution", ""],
], ids=["kernelize-missing-input", "kernelize-directory-input", "solve-missing-input",
        "verify-missing-solution", "gen-output-in-missing-directory",
        "kernelize-report-in-missing-directory", "verify-kernel-past-the-exact-limit",
        "verify-empty-solution-path"])
def test_file_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    inst = tmp_path / "inst.txt"
    inst.write_text(CYCLIC_TPT)
    paths = {"missing": tmp_path / "absent" / "x.txt", "directory": tmp_path, "inst": inst}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


# there is no `bench` subcommand, and `kernelize` reads only files, which `gen` writes
@pytest.mark.parametrize("argv", [
    ["bench", "--problem", "FVST", "--family", "uniform", "--n", "12"],
    ["kernelize", "--report", "{report}"],
    ["kernelize", "--input", "{inst}", "--family", "uniform"],
], ids=["bench", "kernelize-without-input", "kernelize-with---family"])
def test_removed_cli_surface_exits_2(tmp_path, capsys, argv):
    inst = tmp_path / "inst.txt"
    inst.write_text(CYCLIC_TPT)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(inst=inst, report=tmp_path / "r.json") for arg in argv])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: ") and "Traceback" not in err


class TestFlags:
    # each subcommand registers only the flags it reads
    REQUIRED = {"kernelize": ["--input", "x"], "solve": ["--input", "x"],
                "verify": ["--input", "x", "--solution", "y"],
                "gen": ["--problem", "TPT", "--family", "uniform"]}
    UNREAD = {"kernelize": ("--problem", "--k", "--family", "--n", "--seed"),
              "solve": ("--epsilon", "--delta", "--seed"),
              "verify": ("--epsilon", "--delta", "--seed"),
              "gen": ("--epsilon", "--delta", "--oracle-limit")}

    def test_unread_flags_are_rejected(self, capsys):
        for command, flags in self.UNREAD.items():
            build_parser().parse_args([command, *self.REQUIRED[command]])
            for flag in flags:
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, *self.REQUIRED[command], flag, "1"])

    # the per-round validator cannot be switched off
    @pytest.mark.parametrize("argv", [["kernelize", "--input", "{inst}"]])
    def test_no_validate_is_an_unknown_flag(self, tmp_path, capsys, argv):
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", "TPT", "--family", "uniform", "--output", str(inst)])
        with pytest.raises(SystemExit) as exc:
            main([*(arg.format(inst=inst) for arg in argv), "--no-validate"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-validate" in capsys.readouterr().err

    # the kernel flags are registered for both families, so the problem decides
    @pytest.mark.parametrize("command", ["kernelize"])
    @pytest.mark.parametrize("problem, flag, value", [
        ("TPT", "--epsilon", "nan"), ("FVST", "--epsilon", "1"),
        ("I2PP", "--delta", "2"), ("I2PHS", "--delta", "1.5")])
    def test_flags_the_problem_does_not_read_exit_2(self, tmp_path, capsys, command, problem,
                                                      flag, value):
        family = "gnp" if problem.startswith("I2") else "uniform"
        inst = tmp_path / "inst.txt"
        main(["gen", "--problem", problem, "--family", family, "--n", "10", "--seed", "1",
              "--k", "2", "--output", str(inst)])
        args = [command, "--input", str(inst)]
        assert run(capsys, *args)[0] == 0
        code, out, err = run(capsys, *args, flag, value)
        assert (code, out) == (2, "") and err == f"error: {flag} does not apply to {problem}\n"
