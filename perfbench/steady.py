"""Steadiness check: run workloads over several seeds and compare.

Usage, from the repository root:

    python3 perfbench/steady.py --seeds 10 [--workloads t2-period]
                                [--first-seed 1] [--trace-seeds 1]

For every end-to-end metric it reports the median over the seeds and the
distance between the first and third quartile as a share of the median,
against the metric's bound in BENCHMARK.json.  It fails when a spread other
than that of ``setup_s`` exceeds its bound, or when an angle's outcome or
counts differ between any two runs: outcome, Newton and control iterations
in every run, and Newton steps, factorizations, LU fill and control
iterations in traced runs.  Traced runs also give the tracing overhead as
the ratio of traced to untraced build time per angle.

Runs are sequential.  The summary is written to
``perfbench/results/steady-<first-seed>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    path = next(line.split(" ", 1)[1] for line in lines
                if line.startswith("results "))
    return json.loads(lines[-1]), json.loads(Path(path).read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median) if median else 0.0


def angle_signatures(details):
    """theta -> set of (outcome, counts) seen over the given runs."""
    seen = defaultdict(set)
    for detail in details:
        for records in detail["passes"]:
            for r in records:
                counts = tuple(sorted((r.get("counts") or {}).items()))
                seen[r["theta"]].add((r["outcome"], r["newton_iterations"],
                                      r["control_iterations"], counts))
    return seen


def check_workload(workload, seeds, trace_seeds, seconds, bounds):
    untraced = [run_once(workload, s, seconds, 0) for s in seeds]
    traced = [run_once(workload, s, seconds, 1) for s in trace_seeds]
    report = {"workload": workload, "metrics": {}, "failures": []}
    for name, bound in bounds.items():
        values = [summary["metrics"][name]["value"] for summary, _ in untraced]
        median, share = spread(values)
        verdict = "ok" if share < bound / 3 else "wide" if share <= bound \
            else "too wide"
        if name == "setup_s" and verdict != "ok":
            verdict += " (not checked)"
        elif verdict == "too wide":
            report["failures"].append(f"{name} spread {share:.4f} > {bound}")
        report["metrics"][name] = {"median": median, "spread": share,
                                   "bound": bound, "verdict": verdict,
                                   "values": values}
    if any(not summary["correct"] for summary, _ in untraced + traced):
        report["failures"].append("a run reported correct=false")
    for theta, signatures in sorted(angle_signatures(
            [d for _, d in untraced]).items()):
        if len(signatures) > 1:
            report["failures"].append(
                f"theta={theta:.6f}: outcomes differ between runs {signatures}")
    for theta, signatures in sorted(angle_signatures(
            [d for _, d in traced]).items()):
        if len(signatures) > 1:
            report["failures"].append(
                f"theta={theta:.6f}: traced counts differ {signatures}")
    if traced:
        plain = defaultdict(list)
        for _, detail in untraced:
            for records in detail["passes"]:
                for r in records:
                    plain[r["theta"]].append(r["build_s"])
        ratios = [r["build_s"] / statistics.median(plain[r["theta"]])
                  for _, detail in traced for records in detail["passes"]
                  for r in records if plain.get(r["theta"])]
        report["trace_overhead"] = statistics.median(ratios) - 1 \
            if ratios else None
        report["layers"] = [summary["metrics"] for summary, _ in traced]
    report["outcomes"] = [d["outcomes"] for _, d in untraced]
    return report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seeds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.seeds < 4:
        parser.error("--seeds must be at least 4 for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    trace_seeds = seeds[:args.trace_seeds]
    reports = []
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        report = check_workload(workload, seeds, trace_seeds, args.seconds,
                                bounds)
        reports.append(report)
        print(f"== {workload}  outcomes {report['outcomes'][0]}")
        for name, m in report["metrics"].items():
            print(f"  {name:22s} median {m['median']:.6g}  spread "
                  f"{m['spread']:.4f}  bound {m['bound']}  {m['verdict']}")
        if report.get("trace_overhead") is not None:
            print(f"  tracing overhead {report['trace_overhead']:+.4f}")
        for failure in report["failures"]:
            print("  FAIL " + failure)
        sys.stdout.flush()
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"steady-{args.first_seed}-{args.seeds}.json"
    out.write_text(json.dumps(reports, indent=1))
    return 1 if any(r["failures"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
