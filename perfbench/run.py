"""File-to-kernel benchmark of the rainbowkernel CLI.

One op is one in-process `rainbowkernel kernelize --input F --output K
--report R` call through `rainbowkernel.cli.main`: parse, localization,
rounds, kernel extraction, serialization and the JSON report.  Ops run in a
closed loop, one at a time in one process.  A pass kernelizes each input
file of the workload once; a run repeats passes for about `--seconds`, after
untimed warm-up passes.

Times are normalized: a fixed reference loop runs after every op, and each
op's wall time is scaled by how much slower than nominal the loop ran around
it (see reference.py).  On a shared host whose speed drifts by 2x over tens
of seconds this keeps runs comparable; wall times are printed as well.  Per
file, the median over passes is taken; `norm_ops_per_s` is files over the
sum of those medians and `norm_op_s_p50` their median.

    python3 perfbench/run.py --workload tournament --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(self time per stage, work counts, and the tracing overhead); `all` runs
every workload both ways, each in its own process.  Every op's outputs are
checked off the timed path (see checks.py).  The last line of a run is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
#: untimed passes before measuring: the host runs a process that was idle
#: faster for its first seconds of load, then settles at a lower speed
WARMUP_SECONDS = 10.0


@dataclass
class Op:
    file: int
    seconds: float
    norm: float  # seconds scaled to the reference host speed (reference.py)
    failure: str | None
    report: dict | None


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def workload_reason(workload: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return "(BENCHMARK.json not readable)"
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), "")


def setup(workload: str, seed: int, work: Path) -> tuple[float, Path, list[str]]:
    """Generate and write the inputs SETUP_REPEATS times, each in a fresh
    interpreter so that imports count; returns the median set-up time in
    normalized seconds (the speed factor is taken just before and just after
    each set-up), the input directory and the file names.  The copies must be
    byte-identical."""
    from reference import speed_factor
    times, first = [], None
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        before = speed_factor()
        proc = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(directory)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.splitlines()[-1])
        times.append(out["setup_s"] * (before + speed_factor()) / 2)
        texts = [(directory / name).read_text() for name in out["files"]]
        if first is None:
            first = (directory, out["files"], texts)
        elif (out["files"], texts) != first[1:]:
            raise RuntimeError(f"seed {seed} gave different {workload} inputs twice")
    return statistics.median(times), first[0], first[1]


class Runner:
    """Runs passes of ops over one workload's input files and checks them."""

    def __init__(self, inputs: Path, files: list[str], out: Path):
        from checks import load_golden, text_digest
        from rainbowkernel import cli
        from rainbowkernel.instances import parse_instance
        self.cli = cli
        self.paths = [inputs / name for name in files]
        texts = [p.read_text() for p in self.paths]
        self.specs = [parse_instance(t) for t in texts]
        golden = load_golden()
        self.expected = [golden.get(text_digest(t)) for t in texts]
        self.recorded = sum(e is not None for e in self.expected)
        self.seen: list[str | None] = [None] * len(files)
        self.kernel, self.report = out / "kernel.txt", out / "report.json"

    def op(self, main, i: int) -> tuple[float, int | None, str | None]:
        for p in (self.kernel, self.report):
            p.unlink(missing_ok=True)
        argv = ["kernelize", "--input", str(self.paths[i]),
                "--output", str(self.kernel), "--report", str(self.report)]
        rc = error = None
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return seconds, rc, error

    def check(self, i: int, rc, error) -> tuple[str | None, dict | None]:
        from checks import behaviour_digest, check_op
        failure, report = check_op(self.specs[i], rc, error, self.report, self.kernel)
        if failure is None:
            digest = behaviour_digest(report)
            if self.expected[i] is not None and digest != self.expected[i]:
                failure = "kept set / round trace differs from the recorded one"
            elif self.seen[i] is not None and digest != self.seen[i]:
                failure = "kept set / round trace differs between repetitions"
            self.seen[i] = digest
        return failure, report

    def passes(self, budget: float, tracer=None) -> tuple[list[list[list[Op]]], list]:
        """Run whole passes while another one is expected to fit the budget
        (at least one); returns the passes of each mode.  With a tracer there
        are two modes: each file runs untraced and then traced, so that drift
        in machine speed hits both alike.  Each traced op's span range and
        speed factor are returned too.  The reference loop runs after every
        op; an op's speed factor comes from the runs just before and after."""
        from reference import REFERENCE_S, reference_seconds
        modes = [self.cli.main] if tracer is None else [self.cli.main, tracer.root(self.cli.main)]
        runs: list[list[list[Op]]] = [[] for _ in modes]
        ranges = []
        start = time.perf_counter()
        before = reference_seconds()
        while True:
            ops: list[list[Op]] = [[] for _ in modes]
            for i in range(len(self.paths)):
                for mode, main in enumerate(modes):
                    if mode:
                        tracer.install()
                        lo = tracer.mark()
                    seconds, rc, error = self.op(main, i)
                    after = reference_seconds()
                    factor = 2 * REFERENCE_S / (before + after)
                    before = after
                    if mode:
                        ranges.append((len(runs[1]), lo, tracer.mark(), factor))
                        tracer.uninstall()
                    failure, report = self.check(i, rc, error)
                    ops[mode].append(Op(i, seconds, seconds * factor, failure, report))
            for mode, done in enumerate(ops):
                runs[mode].append(done)
            used = time.perf_counter() - start
            if used + used / len(runs[0]) > budget:
                return runs, ranges


def kept_ratio(ops: list[Op]) -> float:
    """Sum of |A| over sum of n: A is the kept set of a kernel, or the vertex
    set of the witness for an early decision."""
    kept = total = 0
    for op in ops:
        if op.report is None:
            continue
        if op.report["status"] == "kernel":
            kept += len(op.report["kept"])
        else:
            kept += len({v for tri in op.report["witness"] for v in tri})
        total += op.report["n"]
    return kept / total if total else 0.0


def file_medians(runs: list[list[Op]], attr: str = "norm") -> list[float]:
    """Each file's median op time over the passes, normalized or wall."""
    return [statistics.median(getattr(ops[i], attr) for ops in runs)
            for i in range(len(runs[0]))]


def end_to_end(runner: Runner, budget: float, setup_s: float) -> tuple[dict, list[Op]]:
    (runs,), _ = runner.passes(budget)
    ops = [op for ops in runs for op in ops]
    times = sorted(op.norm for op in ops)
    medians, wall = file_medians(runs), file_medians(runs, "seconds")
    print(f"passes: {len(runs)} of {len(runner.paths)} files; op samples: {len(times)}")
    print("pass wall s: " + " ".join(f"{sum(op.seconds for op in ops):.3f}" for ops in runs))
    print("pass norm s: " + " ".join(f"{sum(op.norm for op in ops):.3f}" for ops in runs))
    print(f"wall ops_per_s: {len(wall) / sum(wall)!r} 1/s; wall op_s_p50: "
          f"{statistics.median(wall)!r} s (medians over passes of each file)")
    quantiles = statistics.quantiles(times, n=10)
    if len(times) - sum(t <= quantiles[-1] for t in times) >= 10:
        print(f"norm_op_s_p90: {quantiles[-1]!r} s ({len(times)} samples)")
    else:
        print(f"norm_op_s_p90: not reported, fewer than 10 of {len(times)} samples above it")
    metrics = {
        "norm_ops_per_s": (len(medians) / sum(medians), "1/s"),
        "norm_op_s_p50": (statistics.median(medians), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "kept_ratio": (kept_ratio(ops), "ratio"),
    }
    return metrics, ops


def per_layer(runner: Runner, budget: float, dump: Path) -> tuple[dict, list[Op]]:
    from spans import COUNTS, ROOT as OP_SPAN, TARGETS, Tracer
    tracer = Tracer()
    try:
        (plain, traced), ranges = runner.passes(budget, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(dump)
    selfs = [Counter() for _ in traced]
    calls = [Counter() for _ in traced]
    residual = 0.0
    for k, lo, hi, factor in ranges:
        op_self = tracer.self_times(lo, hi)
        _, start, end, _ = tracer.spans[lo]
        residual += end - start - sum(op_self.values())
        selfs[k].update({name: t * factor for name, t in op_self.items()})
        calls[k].update(tracer.calls(lo, hi))
    print(f"trace: {len(tracer.spans)} spans over {len(ranges)} ops; "
          f"self times miss {residual!r} wall s of op time")

    median = statistics.median
    metrics = {f"{name}.s": (median(p[name] for p in selfs), "s")
               for name in dict.fromkeys(name for _, _, name in TARGETS)}
    metrics["cli.self_s"] = (median(p[OP_SPAN] for p in selfs), "s")
    metrics["rainbow.solve.calls"] = (median(c["rainbow.solve"] for c in calls), "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / len(traced), "count")
    plain_s, traced_s = sum(file_medians(plain)), sum(file_medians(traced))
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return metrics, [op for ops in plain + traced for op in ops]


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, inputs, files = setup(args.workload, args.seed, work)
        runner = Runner(inputs, files, work)
        print("env: " + json.dumps(environment()))
        print(f"workload: {args.workload} (seed {args.seed}): {workload_reason(args.workload)}")
        print(f"golden digests recorded for {runner.recorded} of {len(files)} inputs")
        (warm,), _ = runner.passes(min(WARMUP_SECONDS, args.seconds))
        if args.trace:
            dump = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, ops = per_layer(runner, args.seconds, dump)
        else:
            metrics, ops = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    ops = [op for done in warm for op in done] + ops
    failures = [op for op in ops if op.failure]
    for op in failures[:5]:
        print(f"FAILED {files[op.file]}: {op.failure}")
    print(f"failed_share: {len(failures) / len(ops)!r} ({len(failures)} of {len(ops)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rainbowkernel" / "cli.py").is_file():
        fail(f"package source not found under {SRC}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
