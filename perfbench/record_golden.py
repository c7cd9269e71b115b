"""Record the behaviour digests that benchmark runs check every op against.

    python3 perfbench/record_golden.py --seeds 0-19 [--workload NAME ...]

For each workload and seed this writes the inputs, kernelizes each file once
through the CLI, checks the outputs, and adds digest(input file) ->
digest(status, kept set, witness, round cases, oracle layers) to golden.json.
A digest already recorded must come out the same, so a change that alters
behaviour on purpose deletes the file and records it again, and says so.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import ROOT, SRC, Runner

sys.path.insert(0, str(SRC))

from checks import GOLDEN, behaviour_digest, load_golden, text_digest  # noqa: E402
from inputs import WORKLOADS, write_inputs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=tuple(WORKLOADS))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    added = {}
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for workload in args.workload or list(WORKLOADS):
            for seed in range(first, last + 1):
                directory = work / f"{workload}-{seed}"
                files = write_inputs(workload, seed, directory)
                runner = Runner(directory, files, work)
                for i, name in enumerate(files):
                    _, rc, error = runner.op(runner.cli.main, i)
                    failure, report = runner.check(i, rc, error)
                    if failure:
                        print(f"{workload} seed {seed} {name}: {failure}", file=sys.stderr)
                        return 1
                    added[text_digest((directory / name).read_text())] = behaviour_digest(report)
                print(f"{workload} seed {seed}: {len(files)} inputs", flush=True)
                shutil.rmtree(directory)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = load_golden()  # another recorder may have written meanwhile
    golden.update(added)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
