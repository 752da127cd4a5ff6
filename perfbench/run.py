#!/usr/bin/env python3
"""acdope benchmark: one workload per invocation.

    python3 perfbench/run.py --workload gacd-bulk --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with no wrappers installed: the CLI
workloads run each pipeline step as its own `python3 -m acdope.cli` process.
Timings are scaled by the shared host's slowdown, measured with a fixed
reference routine between the timed pieces (perfbench/hostspeed.py).
--trace 1 is the separate per-layer run: it calls `cli.main` in-process with
span wrappers installed (perfbench/tracing.py) and reports self times and
counters per layer, plus the tracing overhead: in-process passes alternate
with and without wrappers.

The benchmark is a closed loop with one caller: one child process or one
call at a time, no threads.  Every input is drawn from --seed; every output
is checked.  The last line of stdout is one JSON object; the lines before it
name the tail percentiles, the sample counts and the ciphertext SHA-256.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gacd-bulk", "opf-beta-dense", "flatten-skewed")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main():
    args = parse_args()
    if not (ROOT / "src" / "acdope" / "cli.py").is_file():
        print(f"error: acdope sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure
    import workloads

    measure.OUT.mkdir(exist_ok=True)
    workdir = measure.OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    checks = workloads.Checks()
    notes = []
    try:
        wl = workloads.make(args.workload, args.seed, workdir, in_process=bool(args.trace))
        if args.trace:
            metrics = measure.run_traced(wl, args.seconds, checks, notes)
        else:
            metrics = measure.run_untraced(wl, args.seconds, checks, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in notes:
        print(line)
    print(json.dumps({
        "correct": checks.unexplained == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
