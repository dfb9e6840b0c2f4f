"""Workloads, the measured run loop and the end-to-end metrics.

One run builds a ``PipelineContext`` for the workload's geometry and then
sweeps the workload's angles in whole passes, each pass in an order drawn
from the run's seed.  Every angle is one operation: ``build_patches(theta)``
called cold, without a warm-start seed.  Another pass starts only while it
is expected to end within the run's time budget; a run always measures at
least one pass.  Every returned patch set is checked by ``perfbench.verify``
before it counts as verified.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from screwgen.errors import ScrewgenError
from screwgen.fitting import bounding_box_diagonal
from screwgen.pipeline import BooySource, PipelineContext
from screwgen import profiles
from screwgen.profiles import ScrewParams

from perfbench import trace as tr
from perfbench.verify import min_scaled_jacobian, ortho_ratio, verify

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
N_POINTS = 1024
# cold set-ups per untraced run: this process's own plus fresh interpreters
SETUP_SAMPLES = 3

# the paper's 2D geometry, exactly as in tests/test_profiles.py
TABLE2 = ScrewParams(screw_radius=15.275e-3, centerline_distance=26.2e-3,
                     screw_screw_clearance=0.2e-3,
                     screw_barrel_clearance=0.15e-3)


@dataclass(frozen=True)
class Workload:
    params: ScrewParams
    fit_factor: float          # fit threshold as a share of the rotor bbox diagonal
    control_maps: bool
    angles: tuple              # rotation angles in multiples of pi


WORKLOADS = {
    # One full profile period with control maps: the sweep a user runs.  It
    # mixes every layer, and six of its eight angles fail at the seed.
    "t2-period": Workload(TABLE2, 1e-3, True, tuple(k / 8 for k in range(8))),
    # A fine separator without control maps: the EGG linear solve dominates
    # and the control-map layer does no work.
    "t2-egg-fine": Workload(TABLE2, 3e-4, False, (0.0, 0.25, 0.5, 0.75)),
    # No TABLE8 workload: there one angle stops at the 200-iteration cap of
    # the control-map optimization after 28-39 s on a 2-core x86_64 host, so
    # a run holds a single operation and its run-to-run spread (0.20 over
    # ten seeds) leaves no margin under any allowed bound.
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def rotor_diagonal(params: ScrewParams) -> float:
    """Bounding-box diagonal of both rotor clouds at angle zero, as
    ``PipelineContext`` computes it for its default threshold.  The profile
    is looked up on its module at call time, so a traced set-up records it."""
    sec0 = profiles.booy_profile(params, 0.0, N_POINTS)
    return bounding_box_diagonal(np.vstack([sec0.left_rotor.points,
                                            sec0.right_rotor.points]))


def make_context(workload: Workload) -> PipelineContext:
    """The set-up a user runs: the fit threshold from the angle-zero rotor
    clouds, then the context."""
    diag = rotor_diagonal(workload.params)
    return PipelineContext(BooySource(workload.params, N_POINTS),
                           fit_threshold=workload.fit_factor * diag,
                           optimize_control_maps=workload.control_maps)


def timed_setup(name: str) -> tuple[float, PipelineContext]:
    """Seconds to set up the workload's context in this process, and the
    context."""
    t0 = time.perf_counter()
    ctx = make_context(WORKLOADS[name])
    return time.perf_counter() - t0, ctx


_SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "from perfbench.harness import timed_setup; "
                "print(repr(timed_setup(sys.argv[3])[0]))")


def cold_setup_times(name: str, count: int) -> list[float]:
    """Set-up times, each in a fresh interpreter so that no module-level
    cache is warm."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(ROOT),
             name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# one angle
# ---------------------------------------------------------------------------

@dataclass
class AngleRecord:
    theta: float
    outcome: str = "ok"        # ok | wrong:<check> | exception class name
    typed: bool = True         # False for exceptions outside ScrewgenError
    build_s: float = 0.0
    detail_keys: list = field(default_factory=list)
    message: str = ""
    newton_iterations: int | None = None
    control_iterations: int | None = None
    ortho_ratio: float | None = None
    min_scaled_jac: float | None = None
    counts: dict | None = None  # traced runs only
    traceback: str = ""          # untyped failures only

    def signature(self):
        """What must repeat exactly wherever this angle is built again."""
        return (self.outcome, self.newton_iterations, self.control_iterations,
                tuple(sorted((self.counts or {}).items())))


def attempt(ctx: PipelineContext, workload: Workload, theta: float,
            tracer: tr.Tracer | None) -> tuple[AngleRecord, int | None]:
    """Build and check one angle; returns the record and its root span."""
    record = AngleRecord(theta)
    root = None
    scope = tracer.root("angle") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with scope as span:
            root = span.root if tracer else None
            patch_set = ctx.build_patches(theta)
    except ScrewgenError as exc:
        record.build_s = time.perf_counter() - t0
        record.outcome = type(exc).__name__
        record.detail_keys = sorted(exc.details)
        record.message = str(exc)[:300]
        history = getattr(exc, "history", None)
        if history:
            record.newton_iterations = len(history) - 1
        return record, root
    except Exception as exc:  # an untyped failure is reported, not raised
        record.build_s = time.perf_counter() - t0
        record.outcome = type(exc).__name__
        record.typed = False
        record.message = str(exc)[:300]
        record.traceback = traceback.format_exc()[-4000:]
        return record, root
    record.build_s = time.perf_counter() - t0
    record.newton_iterations = patch_set.newton_iterations
    record.control_iterations = patch_set.control_iterations
    failed_check = verify(patch_set, workload.params)
    if failed_check is not None:
        record.outcome = "wrong:" + failed_check
        return record, root
    record.ortho_ratio = ortho_ratio(patch_set)
    record.min_scaled_jac = min_scaled_jacobian(patch_set)
    return record, root


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

END_TO_END = {
    "patch_sets_per_min": "1/min",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ortho_ratio_p50": "ratio",
    "min_scaled_jac_p50": "ratio",
}


def end_to_end_metrics(passes, setup_times, peak_rss_mb) -> dict:
    """``{name: (value, unit)}`` for an untraced run.

    Throughput is verified sets per pass over the time of one pass, taking
    each angle at its median build time over the run's passes; failed
    angles count in that time.
    """
    records = [r for p in passes for r in p]
    ok = [r for r in records if r.outcome == "ok"]
    build_s = defaultdict(list)
    for r in records:
        build_s[r.theta].append(r.build_s)
    pass_s = sum(statistics.median(times) for times in build_s.values())
    values = {
        "patch_sets_per_min": 60.0 * len(ok) / len(passes) / pass_s,
        "ok_frac": len(ok) / len(records),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ortho_ratio_p50": statistics.median(r.ortho_ratio for r in ok)
        if ok else 0.0,
        "min_scaled_jac_p50": statistics.median(r.min_scaled_jac for r in ok)
        if ok else 0.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def problems(passes) -> list[str]:
    """Reasons the run's figures cannot be trusted.

    A failed angle, including a returned set that fails verification, is a
    counted failure, not one of these.  The run is untrustworthy when no
    set was verified, or when an angle's outcome or counts differ between
    passes, which means state carried over from the angles built before it.
    """
    records = [r for p in passes for r in p]
    out = [] if any(r.outcome == "ok" for r in records) \
        else ["no verified patch set"]
    seen = {}
    for r in records:
        first = seen.setdefault(r.theta, r.signature())
        if first != r.signature():
            out.append(f"theta={r.theta:.6f}: outcome or counts depend on "
                       f"the angle order ({first} vs {r.signature()})")
    return out


def failures(passes) -> list[str]:
    """One line per distinct failed angle: a failed check, or the exception
    and whether it is a ``ScrewgenError``."""
    lines = {}
    for r in (r for p in passes for r in p if r.outcome != "ok"):
        if r.outcome.startswith("wrong:"):
            line = r.outcome
        else:
            kind = "ScrewgenError" if r.typed else "UNTYPED"
            line = f"{r.outcome} ({kind}) {r.message}"
        lines.setdefault(r.theta, f"theta={r.theta:.6f} {line}")
    return [lines[t] for t in sorted(lines)]


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    angles = list(workload.angles)
    tracer = tr.Tracer() if traced else None
    passes, pass_roots, setup_roots = [], [], []
    with tr.instrument(tracer) if traced else contextlib.nullcontext():
        # this process's own set-up is cold too; add fresh-interpreter samples
        if traced:
            with tracer.root("setup") as span:
                ctx = make_context(workload)
            setup_roots.append(span.root)
            setup_times = []
        else:
            first, ctx = timed_setup(name)
            setup_times = [first] + cold_setup_times(name, SETUP_SAMPLES - 1)
        start = time.perf_counter()
        while True:
            order = angles[:]
            rng.shuffle(order)
            pass_start = time.perf_counter()
            results = [attempt(ctx, workload, a * math.pi, tracer)
                       for a in order]
            passes.append([rec for rec, _ in results])
            pass_roots.append([root for _, root in results])
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > seconds:
                break

    spans = None
    if traced:
        stats = tr.root_stats(tracer.spans)
        for records, roots in zip(passes, pass_roots):
            for rec, root in zip(records, roots):
                rec.counts = tr.angle_counts(stats, root)
        metrics = tr.layer_metrics(tracer, stats, setup_roots, pass_roots,
                                   tr.wrapper_overhead_s())
        spans = [s.to_list() for s in tracer.spans]
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end_metrics(passes, setup_times, peak_rss_mb)

    reasons = problems(passes)
    records = [r for p in passes for r in p]
    summary = {
        "correct": not reasons,
        "attempted": len(records),
        "failed": sum(r.outcome != "ok" for r in records),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "spec": asdict(workload),
        "environment": environment(),
        "problems": reasons,
        "failures": failures(passes),
        "untyped_failures": sum(not r.typed for r in records),
        "outcomes": dict(Counter(r.outcome for r in records)),
        "setup_s": setup_times,
        "passes": [[asdict(r) for r in p] for p in passes],
        "missing_bindings": tracer.missing if traced else [],
        "summary": summary,
        "spans": spans,
    }
    return {"summary": summary, "detail": detail}


def results_path(name: str, seed: int, traced: bool) -> Path:
    return RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json"
