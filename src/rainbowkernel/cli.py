"""Command-line front end: kernelize, solve, verify, gen."""
from __future__ import annotations

import argparse
import functools
import sys

from . import exact
from .errors import InternalError, InvalidSolution, ParseError, TooLarge
from .graphs import Tournament, clique_partition, is_acyclic, packing_fault
from .instances import (GRAPH_PROBLEMS, PACKING_PROBLEMS, PROBLEMS,
                        GeneratorConfig, InstanceSpec, generate_instance,
                        parse_instance, serialize_instance)
from .p3 import kernelize_p3
from .report import Decided, KernelOutput
from .tournament import kernelize_tournament


def _read(path: str) -> str:
    with open(path) as fh:  # text mode: decoding and newlines as `Path.read_text`
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "wb") as fh:  # bytes: no text layer, line ends as given
        fh.write(text.encode())


def _kernelize(spec: InstanceSpec, epsilon, delta):
    graph = spec.problem in GRAPH_PROBLEMS
    if (delta if graph else epsilon) is not None:
        raise ValueError(f"{'--delta' if graph else '--epsilon'} does not apply to {spec.problem}")
    if graph:
        return kernelize_p3(spec.payload, spec.k, epsilon=1.0 if epsilon is None else epsilon,
                            problem=spec.problem)
    return kernelize_tournament(spec.payload, spec.k, delta=delta, problem=spec.problem)


def _equivalent(spec: InstanceSpec, kernel: InstanceSpec, limit: int | None) -> bool | None:
    """Whether `kernel` answers as `spec` does, by the exact solvers; None
    when either instance is past their size limit."""
    try:
        return exact.exact_answer(spec, limit) == exact.exact_answer(kernel, limit)
    except TooLarge:
        return None


def cmd_kernelize(args) -> int:
    spec = parse_instance(_read(args.input))
    result = _kernelize(spec, args.epsilon, args.delta)
    report = result.report
    if isinstance(result, KernelOutput) and (args.verify or args.output):
        kernel = InstanceSpec(spec.problem, spec.payload.induced(result.kept), spec.k)
        if args.verify:
            report.equivalent = _equivalent(spec, kernel, args.oracle_limit)
        if args.output:
            _write(args.output, serialize_instance(kernel))
    if args.report:
        _write(args.report, report.to_json() + "\n")
    else:
        print(report.to_json())
    if isinstance(result, Decided):
        print(f"answer: {'yes' if result.answer else 'no'}")
        return 0
    print(f"kernel_size: {len(result.kept)} (bound {report.bound:g})")
    if report.equivalent is False:
        print("equivalent: false", file=sys.stderr)
        return 1
    if args.verify and report.equivalent:
        print("equivalent: true")
    return 0


def cmd_solve(args) -> int:
    spec = parse_instance(_read(args.input))
    opt = exact.optimum(spec.problem, spec.payload, args.oracle_limit)
    answer = opt.value >= spec.k if spec.problem in PACKING_PROBLEMS else opt.value <= spec.k
    print(f"problem: {spec.problem}")
    print(f"optimum: {opt.value}")
    print(f"answer: {'yes' if answer else 'no'}")
    if args.witness:
        for item in opt.witness:
            if isinstance(item, tuple):
                print(" ".join(str(v) for v in item))
            else:
                print(item)
    return 0


def _parse_solution(text: str, n: int):
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing solution header")
    parts = lines[0].split()
    if len(parts) != 3 or parts[0] != "solution" or parts[1] not in ("packing", "hitting") \
            or not parts[2].isdecimal():
        raise ParseError(1, f"expected 'solution <packing|hitting> <count>', got {lines[0]!r}")
    kind, count = parts[1], int(parts[2])
    items = []
    for lineno in range(2, count + 2):
        if lineno > len(lines):
            raise ParseError(len(lines) + 1, f"expected {count} solution lines")
        toks = lines[lineno - 1].split()
        if len(toks) != (3 if kind == "packing" else 1):
            raise ParseError(lineno, "packing lines carry three vertex ids" if kind == "packing"
                             else "hitting lines carry one vertex id")
        try:
            ids = [int(x) for x in toks]
        except ValueError:
            raise ParseError(lineno, f"vertex ids must be integers, got {lines[lineno - 1]!r}") from None
        if not all(0 <= v < n for v in ids):
            raise ParseError(lineno, f"vertex ids must lie in 0..{n - 1}, got {lines[lineno - 1]!r}")
        items.append(tuple(ids) if kind == "packing" else ids[0])
    for i in range(count + 2, len(lines) + 1):
        if lines[i - 1].strip():
            raise ParseError(i, f"trailing garbage {lines[i - 1]!r}")
    return kind, items


def _check_solution(spec: InstanceSpec, kind: str, items) -> bool:
    payload = spec.payload
    if kind == "packing":
        return packing_fault(payload, items) is None and len(items) >= spec.k
    removed = set(items)
    if len(removed) > spec.k:
        return False
    survivors = [v for v in range(payload.n) if v not in removed]
    if isinstance(payload, Tournament):
        return is_acyclic(payload, survivors)
    return clique_partition(payload, survivors) is not None


def cmd_verify(args) -> int:
    spec = parse_instance(_read(args.input))
    if args.solution is not None:
        kind, items = _parse_solution(_read(args.solution), spec.payload.n)
        expected = "packing" if spec.problem in PACKING_PROBLEMS else "hitting"
        if kind != expected:
            print(f"valid: false (need a {expected} for {spec.problem})")
            return 1
        ok = _check_solution(spec, kind, items)
        print(f"valid: {'true' if ok else 'false'}")
        return 0 if ok else 1
    other = parse_instance(_read(args.kernel))
    if other.problem != spec.problem:
        print("equivalent: false (different problems)")
        return 1
    ok = exact.exact_answer(spec, args.oracle_limit) == exact.exact_answer(other, args.oracle_limit)
    print(f"equivalent: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    config = GeneratorConfig(problem=args.problem, family=args.family, n=args.n, k=args.k,
                             planted=args.planted, filler=args.filler, edge_prob=args.edge_prob)
    spec = generate_instance(config, args.seed)
    text = serialize_instance(spec)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _add_oracle_limit(sub):
    sub.add_argument("--oracle-limit", dest="oracle_limit", type=int, default=None)


@functools.cache  # once per process: argparse sizes the terminal on each add_argument
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowkernel",
        description="Kernel preprocessing for TPT, FVST, I2PP and I2PHS")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("kernelize", help="shrink an instance to an equivalent kernel")
    p.add_argument("--input", required=True, help="instance file (write one with gen)")
    p.add_argument("--output", help="kernel instance file")
    p.add_argument("--report", help="report JSON file (default: stdout)")
    p.add_argument("--verify", action="store_true",
                   help="confirm equivalence with the exact solvers")
    p.add_argument("--epsilon", type=float, default=None,
                   help="oracle slack of the 2-path problems; omit for 1")
    p.add_argument("--delta", type=float, default=None,
                   help="exponent in (1,2]; omit for the k-dependent choice")
    _add_oracle_limit(p)
    p.set_defaults(func=cmd_kernelize)

    p = subs.add_parser("solve", help="run the exact solver on an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", action="store_true")
    _add_oracle_limit(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="check a solution file or a kernel pair")
    p.add_argument("--input", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--solution")
    mode.add_argument("--kernel")
    _add_oracle_limit(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("gen", help="write a generated instance")
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--output")
    p.add_argument("--family", choices=("uniform", "gnp", "planted"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--planted", type=int, default=None)
    p.add_argument("--filler", type=int, default=0)
    p.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidSolution, TooLarge, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
