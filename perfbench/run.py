"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload t2-period --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The full record (environment, per-angle outcomes, set-up
samples and, for traced runs, every span) is written to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

The program under test is imported from ``src/`` next to this directory;
the run exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS threads are fixed so that runs on one machine compare
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "screwgen" / "__init__.py").is_file():
        print(f"error: the screwgen sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = threads
    sys.path[:0] = [str(SRC), str(ROOT)]

    import screwgen
    if Path(screwgen.__file__).resolve().parent != SRC / "screwgen":
        print(f"error: screwgen was imported from {screwgen.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    detail, summary = result["detail"], result["summary"]
    path = harness.results_path(args.workload, args.seed, bool(args.trace))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail))

    print(f"results {path}")
    print("environment " + json.dumps(detail["environment"]))
    print(f"outcomes {json.dumps(detail['outcomes'])} "
          f"untyped={detail['untyped_failures']}")
    for line in detail["failures"]:
        print("failed " + line)
    for reason in detail["problems"]:
        print("problem " + reason)
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
