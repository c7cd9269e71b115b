"""Output checks of one op, run off the timed path.

An op fails when the CLI returned nonzero or raised, when the kernel is
larger than the report's bound, when the kernel file is not the input
induced on the kept set, when an early decision's witness is not a disjoint
family of at least `threshold` triangles or induced 2-paths, or when the
behaviour digest differs from the one recorded for this input.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from rainbowkernel.graphs import Tournament, is_induced_p3, is_triangle
from rainbowkernel.instances import PACKING_PROBLEMS, InstanceSpec, parse_instance

GOLDEN = Path(__file__).with_name("golden.json")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def behaviour_digest(report: dict) -> str:
    """Digest of what a speed-up must reproduce: status, kept set, witness,
    and each round's case and answering oracle layer."""
    trace = {
        "status": report["status"],
        "kept": report["kept"],
        "witness": report["witness"],
        "rounds": [[r["case"], r["oracle"].get("layer")] for r in report["rounds"]],
    }
    return text_digest(json.dumps(trace, sort_keys=True))


def load_golden() -> dict:
    """Recorded behaviour digests, keyed by the digest of the input file."""
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())


def _witness_problem(spec: InstanceSpec, witness) -> str | None:
    payload = spec.payload
    threshold = spec.k if spec.problem in PACKING_PROBLEMS else spec.k + 1
    if witness is None or len(witness) < threshold:
        return f"witness has fewer than {threshold} obstructions"
    used: set[int] = set()
    is_obstruction = is_triangle if isinstance(payload, Tournament) else is_induced_p3
    for triple in witness:
        if len(triple) != 3 or len(set(triple)) != 3:
            return f"witness entry {triple} is not three distinct vertices"
        if not all(isinstance(v, int) and 0 <= v < payload.n for v in triple):
            return f"witness entry {triple} names a vertex out of range"
        if used & set(triple):
            return f"witness entry {triple} overlaps an earlier one"
        used.update(triple)
        if not is_obstruction(payload, triple):
            return f"witness entry {triple} is not an obstruction"
    return None


def check_op(spec: InstanceSpec, rc: int | None, error: str | None,
             report_path: Path, kernel_path: Path) -> tuple[str | None, dict | None]:
    """(reason the op failed or None, parsed report or None)."""
    if error is not None:
        return f"raised {error}", None
    if rc != 0:
        return f"exit code {rc}", None
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}", None
    status = report.get("status")
    if status == "kernel":
        kept = report["kept"]
        if len(kept) != report["kernel_size"] or len(set(kept)) != len(kept):
            return "kept list disagrees with kernel_size", report
        if len(kept) > report["bound"]:
            return f"|A| = {len(kept)} exceeds the bound {report['bound']}", report
        try:
            kernel = parse_instance(kernel_path.read_text())
        except (OSError, ValueError) as exc:
            return f"kernel file does not parse: {exc}", report
        if (kernel.problem, kernel.k, kernel.payload.n) != (spec.problem, spec.k, len(kept)):
            return "kernel file is not the same problem on |A| vertices", report
        if kernel.payload != spec.payload.induced(kept):
            return "kernel file is not the input induced on the kept set", report
    elif status in ("early-yes", "early-no"):
        if kernel_path.exists():
            return "an early decision wrote a kernel file", report
        problem = _witness_problem(spec, report.get("witness"))
        if problem is not None:
            return problem, report
    else:
        return f"unknown status {status!r}", report
    return None, report
