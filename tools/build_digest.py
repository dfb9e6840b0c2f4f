"""Print one row per patch-set build and the SHA-256 of all rows.

Two trees that print the same final digest build the same patch sets bit
for bit.  Each row holds the build's label and angle, its outcome (the
class name and message of a ``ScrewgenError``, or ``ok``), the Newton and
control iteration counts, and the SHA-256 of the separator net with its
eta knots, of both C-grid nets with their xi knots and of the control
coefficients.  The builds are 332:

* every angle of both benchmark workloads, each context made through
  ``perfbench.harness.make_context`` with the workload's control maps;
* TABLE2 at fit factors 1e-3 and 3e-4, TABLE8, a one-flight TABLE2 and a
  three-flight screw, 32 angles over one profile period each, with
  control maps off and on.

Run it from the repository root, with one BLAS thread so that the runs
compare::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 tools/build_digest.py

It takes a few seconds; ``--quiet`` prints the final digest alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.harness import TABLE2, WORKLOADS, make_context  # noqa: E402
from screwgen.errors import ScrewgenError  # noqa: E402
from screwgen.pipeline import BooySource, PipelineContext  # noqa: E402
from screwgen.profiles import ScrewParams, booy_profile  # noqa: E402
from screwgen.splines import bounding_box_diagonal  # noqa: E402

TABLE8 = ScrewParams(screw_radius=0.156, centerline_distance=0.262,
                     screw_screw_clearance=0.004, screw_barrel_clearance=0.004,
                     pitch_length=0.28)
THREE_FLIGHT = ScrewParams(screw_radius=0.05, centerline_distance=0.095,
                           screw_screw_clearance=0.5e-3,
                           screw_barrel_clearance=0.5e-3, flight_count=3)
# label: (params, fit threshold as a share of the rotor bbox diagonal,
# points per rotor cloud)
CASES = {
    "table2": (TABLE2, 1e-3, 1024),
    "table2_fine": (TABLE2, 3e-4, 1024),
    "table8": (TABLE8, 1e-3, 1024),
    "one_flight": (dataclasses.replace(TABLE2, flight_count=1), 1e-3, 1024),
    "three_flight": (THREE_FLIGHT, 1e-3, 1008),
}
ANGLES_PER_PERIOD = 32


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def row(label: str, ctx: PipelineContext, theta: float) -> str:
    try:
        ps = ctx.build_patches(theta)
    except ScrewgenError as exc:
        return f"{label}\t{theta!r}\t{type(exc).__name__}\t{exc}"
    sep = ps.separator.map
    c_grids = [sha(c.map.control_points, c.map.basis.xi.knots)
               for c in (ps.left_c, ps.right_c)]
    return "\t".join([label, repr(theta), "ok", str(ps.newton_iterations),
                      str(ps.control_iterations),
                      sha(sep.control_points, sep.basis.eta.knots), *c_grids,
                      sha(ps.control.coeffs)])


def rows():
    for name, workload in WORKLOADS.items():
        ctx = make_context(workload)
        for k in workload.angles:
            yield row(name, ctx, k * math.pi)
    for name, (params, factor, n_points) in CASES.items():
        sec0 = booy_profile(params, 0.0, n_points)
        threshold = factor * bounding_box_diagonal(
            np.vstack([sec0.left_rotor.points, sec0.right_rotor.points]))
        period = 2.0 * math.pi / params.flight_count
        for control in (False, True):
            ctx = PipelineContext(BooySource(params, n_points),
                                  fit_threshold=threshold,
                                  optimize_control_maps=control)
            for k in range(ANGLES_PER_PERIOD):
                yield row(f"{name}/control={int(control)}", ctx,
                          k * period / ANGLES_PER_PERIOD)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quiet", action="store_true",
                        help="print the final digest alone")
    args = parser.parse_args(argv)
    digest, count = hashlib.sha256(), 0
    for line in rows():
        digest.update(line.encode() + b"\n")
        count += 1
        if not args.quiet:
            print(line)
    print(f"{count} builds, digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
