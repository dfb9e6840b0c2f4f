"""Per-angle three-patch construction.

For one screw geometry this module owns everything between a source of
rotor clouds (a ``BooySource``, or a ``CrossSection`` such as
``load_profile`` reads; the barrel is always that of the source's
``ScrewParams``) and the three patch parameterizations plus the separator
control map:

* the casing curves and the cusp cut fraction: one fit of the left
  retained barrel arc on CASING_SPANS grid spans, cusp to cusp with the
  exact cusps as its ends, and the right arc as its point reflection
  through the axes' midpoint (same knots, negated control points);
* the rotation-angle-zero rotor fit over the casing-aligned grid
  coordinate (radial projection), reused at every angle through the
  periodic shift of that coordinate, and stored doubled over two periods:
  knots 0.5 t, then 0.5 + 0.5 t past the seam, control points c, then
  c[1:], as both ends of the fit are the seam point;
* rotor arcs at any angle as one extraction from that two-period curve,
  its control points ``turned`` (the material cloud only rotates, so the
  fit never has to be redone, and no arc wraps);
* the separator's xi basis, XI_ELEMENTS_PER_HALF spans on each side of
  its C0 knot at the cusp line, and its Greville abscissae;
* per angle, in this order: the gap-arc matching; the separator boundary
  from the gap arcs alone (``_separator_boundary``: the eta knots of the
  matched clouds' fits, the gap arcs refit in them, the cut edges through
  the cusps); the regularity certificate of the separator's west/east
  boundaries, which rejects a backtracking boundary with
  ``MatchingError`` before any C-grid or EGG work; the EGG solve with
  folding repair; each C-grid as the ruled map between its rotor and
  casing arcs promoted onto their merged knot vector, xi running clockwise
  about the rotor axis so that det J > 0; the orthogonality control map.
  Every ``ScrewgenError`` that ``build_patches`` raises carries the angle
  as ``theta`` in its details.

All three patches are positively oriented, and ``check_folding``, the
Bernstein sign certificate of ``parameterization``, certifies each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_map import (ControlMap, default_control_basis,
                          identity_control, optimize_control)
from .errors import (FitError, FoldingError, InvalidGeometryError,
                     MatchingError, ScrewgenError)
from .fitting import (ReparamFunction, chord_length_params, fit_curve,
                      fit_curve_adaptive, match_points)
from .parameterization import (PatchParameterization, check_boundary_regular,
                               check_folding, egg_solve, repair_folding,
                               transfinite)
from .profiles import (CrossSection, ScrewParams, booy_profile, cusp_points,
                       turned)
from .splines import (KNOT_TOL, KnotVector, SplineCurve, SplineMap,
                      TensorBasis, bounding_box_diagonal, greville_abscissae,
                      merge_knot_vectors, open_knots, promote_curve,
                      uniform_knots)

TWO_PI = 2.0 * math.pi
DEGREE = 3                 # degree of every boundary curve and patch map
XI_ELEMENTS_PER_HALF = 4   # separator xi spans on each side of the cusp line
ETA_MAX_SPANS = 256        # span budget of the separator's eta fits
GAP_SAMPLES = 200          # points per gap-arc cloud for the matching
REFIT_SAMPLES = 16         # gap-arc samples per control point of the refit
CASING_SPANS = 64          # uniform grid-coordinate spans of the casing fit


# ---------------------------------------------------------------------------
# geometry sources
# ---------------------------------------------------------------------------

class BooySource:
    """Self-wiping profile sections of ``params`` at any angle."""

    def __init__(self, params: ScrewParams, n_points: int):
        self.params = params
        self.n_points = n_points

    def section(self, theta: float) -> CrossSection:
        return booy_profile(self.params, theta, self.n_points)


# ---------------------------------------------------------------------------
# per-geometry fixed data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GapArcs:
    """The rotor arcs bounding the separator at one angle (south to north,
    grid-coordinate parameterized), their sampled clouds, those clouds'
    chord-length parameters and the both-float matching functions of
    them."""

    west: SplineCurve
    east: SplineCurve
    west_cloud: np.ndarray
    east_cloud: np.ndarray
    west_chord: np.ndarray
    east_chord: np.ndarray
    f_w: ReparamFunction
    f_e: ReparamFunction


@dataclass
class PatchSet:
    """Everything produced for one rotation angle."""

    theta: float
    left_c: PatchParameterization
    right_c: PatchParameterization
    separator: PatchParameterization
    control: ControlMap

    @property
    def newton_iterations(self) -> int:
        return self.separator.iterations

    @property
    def control_iterations(self) -> int:
        return self.control.iterations


class PipelineContext:
    """Fixed per-geometry machinery and the per-angle patch builder.

    ``source`` supplies the rotor clouds at angle zero through its
    ``section`` and, through its ``params``, the barrel: a ``BooySource``,
    or a ``CrossSection`` such as ``load_profile`` returns, whose clouds
    ``CrossSection.section`` turns about the rotor axes.
    ``fit_threshold``, a positive finite length (default 1e-4 of the
    rotor clouds' bounding-box diagonal), bounds the rotor fit: every rotor
    cloud point lies within it of the fit at the point's grid fraction, and
    so of each C-grid rotor edge, an exact extraction of that fit.  It is
    also the budget of the separator's eta fits, whose west and east refits
    nothing checks.  The casing arc has its own bound, 5e-7 of the barrel
    radius, so barrel vertices stay on the physical circle.  Both
    clearances must be positive: a closed gap leaves the separator or a
    C-grid no room, and it would fail late with a fold error.
    """

    def __init__(self, source: BooySource | CrossSection,
                 fit_threshold: float | None = None,
                 optimize_control_maps: bool = True):
        p = source.params
        for name in ("screw_screw_clearance", "screw_barrel_clearance"):
            value = getattr(p, name)
            if not value > 0:
                raise InvalidGeometryError(f"{name} must be > 0 to mesh",
                                           field=name, value=value)
        self.params = p
        sec0 = source.section(0.0)
        if fit_threshold is None:
            fit_threshold = 1e-4 * bounding_box_diagonal(
                np.vstack([sec0.left_rotor.points, sec0.right_rotor.points]))
        if not (math.isfinite(fit_threshold) and fit_threshold > 0):
            raise FitError("fit_threshold must be a positive finite number",
                           fit_threshold=fit_threshold)
        self.fit_threshold = fit_threshold
        self.casing_threshold = 5e-7 * p.barrel_radius
        # the separator's xi basis: uniform spans on each side of the cusp
        # line, which is its C0 knot at 0.5
        grid = np.linspace(0.0, 1.0, 2 * XI_ELEMENTS_PER_HALF + 1)[1:-1]
        self.xi_basis = open_knots(DEGREE, grid,
                                   np.where(grid == 0.5, DEGREE, 1))
        self.xi_greville = greville_abscissae(self.xi_basis)
        self.control_basis = default_control_basis()
        self.optimize_control_maps = optimize_control_maps

        self.cusps = cusp_points(p)           # (upper, lower)
        beta = math.atan2(self.cusps[0, 1], 0.5 * p.centerline_distance)
        self.cut_frac = beta / TWO_PI         # q: cusp fraction on each casing
        # the axes, and so the bores and the cusp pairs, are symmetric about
        # the origin: the right arc is the left one turned by pi about it
        left = self._fit_casing()
        self.casing_arc = {"left": left, "right": SplineCurve(
            left.basis, -left.control_points)}
        # the base rotor fit doubled over two periods of the grid
        # coordinate, so that every wrapped grid range is one extraction;
        # both ends of the fit are the seam point
        self._two_period_rotor: dict[str, SplineCurve] = {}
        for side in ("left", "right"):
            fit = self._fit_rotor(side, sec0)
            t, c = 0.5 * fit.basis.knots, fit.control_points
            self._two_period_rotor[side] = SplineCurve(
                KnotVector(DEGREE, np.concatenate([t[:-1],
                                                   0.5 + t[DEGREE + 1:]])),
                np.vstack([c, c[1:]]))

    # -- casing -------------------------------------------------------------

    def _fit_casing(self) -> SplineCurve:
        """Arc-length parameterized fit of the left retained barrel arc, CCW
        about the left axis from the upper cusp to the lower one.  Its end
        samples are the exact cusps, which the fit interpolates.

        The knots are those of n = CASING_SPANS uniform spans over the
        whole grid coordinate g = q + t (1 - 2q) that fall inside the arc, so
        at angles on that grid they coincide with the rotor arc's knots and
        the C-grid's union knot vector stays small.  A cubic fit errs by
        about R (2 pi / n)^4 on every geometry, against casing_threshold
        5e-7 R: 64 spans meet it by a factor of about four, 32 miss it by
        as much, and a missed threshold raises InvalidGeometryError.
        """
        p, q = self.params, self.cut_frac
        ang = np.linspace(TWO_PI * q, TWO_PI * (1.0 - q), 4096)
        pts = p.left_center + p.barrel_radius * np.column_stack(
            [np.cos(ang), np.sin(ang)])
        pts[0], pts[-1] = self.cusps
        t = np.linspace(0.0, 1.0, len(pts))
        g = np.arange(1, CASING_SPANS) / CASING_SPANS
        g = g[(g > q + KNOT_TOL) & (g < 1.0 - q - KNOT_TOL)]
        fit = fit_curve(pts, t, open_knots(DEGREE, (g - q) / (1 - 2 * q)))
        if fit.max_residual > self.casing_threshold:
            raise InvalidGeometryError("casing fit misses its threshold",
                                       max_residual=fit.max_residual,
                                       threshold=self.casing_threshold)
        return fit.curve

    # -- base rotor fit and matching -----------------------------------------

    def _center(self, side: str) -> np.ndarray:
        return self.params.left_center if side == "left" \
            else self.params.right_center

    def _fit_rotor(self, side: str, sec0: CrossSection) -> SplineCurve:
        """Assign casing-aligned grid fractions to the rotation-angle-zero
        rotor cloud and fit the boundary over the grid coordinate.

        For the circular casing the hierarchical Euclidean matching has the
        closed form of the radial projection: every rotor point pairs with
        the foot of its ray from the rotor axis, so the grid fraction is the
        casing arc fraction of that foot.  Rotating the rotor then shifts
        every fraction by theta / 2 pi exactly, which is what lets the base
        fit serve all angles.

        The fractions are taken in boundary order, counterclockwise (a
        clockwise cloud is reversed) from the point nearest the seam at
        fraction 0, and must increase: a cloud whose polar angle about its
        axis backtracks, or repeats, raises MatchingError with the ``index``
        in the cloud of the first point that does.
        """
        pts = (sec0.left_rotor if side == "left" else sec0.right_rotor).points
        center = self._center(side)
        anchor = 0.0 if side == "left" else math.pi
        rel = pts - center
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        fracs = ((ang - anchor) / TWO_PI) % 1.0
        order = np.arange(len(pts))
        # twice the signed area (shoelace) is negative for a clockwise cloud
        if np.sum(rel[:, 0] * np.roll(rel[:, 1], -1)
                  - np.roll(rel[:, 0], -1) * rel[:, 1]) < 0:
            order = order[::-1]
        order = np.roll(order, -int(np.argmin(fracs[order])))
        g = fracs[order]
        back = np.flatnonzero(np.diff(g) <= 0)
        if back.size:
            raise MatchingError(
                f"{side} rotor cloud is not star-shaped about its axis; "
                "its polar angle does not increase along the boundary",
                side=side,
                index=int(order[back[0] + 1]))
        pp = pts[order]
        # synthesize the seam point at grid 0 across the wrap gap
        gl, gr = g[-1] - 1.0, g[0]
        w = -gl / (gr - gl)
        seam = pp[-1] + w * (pp[0] - pp[-1])
        cloud = np.vstack([seam, pp, seam])
        params = np.concatenate([[0.0], g, [1.0]])
        keep = np.concatenate([[True], np.diff(params) > 1e-11])
        cloud, params = cloud[keep], params[keep]

        kv = uniform_knots(DEGREE, 16)
        return fit_curve_adaptive(cloud, params, kv, self.fit_threshold,
                                  max_spans=1024).curve

    # -- per-angle curves -----------------------------------------------------

    def _rotor_arc(self, side: str, theta: float, a: float,
                   b: float) -> SplineCurve:
        """Rotor boundary at the given angle over the wrapped grid range
        [a, b]: the two-period fit over [lo, lo + (b - a) mod 1] / 2, with
        lo the range's start in the base fit's grid, turned about the
        rotor axis."""
        lo = (a - theta / TWO_PI) % 1.0
        arc = self._two_period_rotor[side].extract(
            lo / 2, (lo + (b - a) % 1.0) / 2)
        return SplineCurve(arc.basis, turned(arc.control_points, theta,
                                             self._center(side)))

    def rotor_arc_gap(self, side: str, theta: float) -> SplineCurve:
        """Rotor boundary over the cut-away (intermeshing) arc, running
        south to north."""
        q = self.cut_frac
        arc = self._rotor_arc(side, theta, 1.0 - q, q)
        return arc if side == "left" else arc.reversed()

    # -- patches ---------------------------------------------------------------

    def build_c_grid(self, side: str, theta: float) -> PatchParameterization:
        """Ruled map from the rotor arc (eta = 0) to the casing arc (eta = 1)
        over the retained grid range [q, 1 - q], with xi running clockwise
        about the rotor axis so that det J > 0: linear in eta, so its net is
        the two curves' control points side by side, reversed in xi.  A map
        that ``check_folding`` does not certify raises FoldingError."""
        q = self.cut_frac
        rotor = self._rotor_arc(side, theta, q, 1.0 - q)
        casing = self.casing_arc[side]
        kv = merge_knot_vectors(rotor.basis, casing.basis)
        net = np.stack([promote_curve(rotor, kv).control_points,
                        promote_curve(casing, kv).control_points], axis=1)
        c_grid = SplineMap(TensorBasis(
            KnotVector(DEGREE, 1.0 - kv.knots[::-1]),
            KnotVector(1, [0.0, 0.0, 1.0, 1.0])), net[::-1])
        boxes = check_folding(c_grid)
        if boxes:
            raise FoldingError(f"{side} C-grid not certified fold-free",
                               cells=boxes, side=side)
        return PatchParameterization(c_grid)

    # -- separator ---------------------------------------------------------------

    def separator_reparams(self, theta: float) -> GapArcs:
        """Both gap arcs at the given angle, their point clouds with their
        chord-length parameters and the both-float matching of the clouds."""
        west = self.rotor_arc_gap("left", theta)
        east = self.rotor_arc_gap("right", theta)
        t = np.linspace(0.0, 1.0, GAP_SAMPLES)
        wpts, epts = west(t), east(t)
        tw, te = chord_length_params(wpts), chord_length_params(epts)
        f_w, f_e = match_points(wpts, epts, tw, te)
        return GapArcs(west, east, wpts, epts, tw, te, f_w, f_e)

    def _cut_edge(self, start, cusp, end) -> SplineCurve:
        """The cut edge start -> cusp -> end in the xi basis: the polyline
        at the Greville abscissae, exact because the kink lies on the C0
        knot at 0.5."""
        g = self.xi_greville[:, None]
        return SplineCurve(self.xi_basis, np.where(
            g <= 0.5, start + 2 * g * (cusp - start),
            cusp + (2 * g - 1) * (end - cusp)))

    def _separator_boundary(self, gap: GapArcs):
        """The separator's boundary curves (west, east, south, north), in
        the orientations ``transfinite`` takes, and their eta knot vector.

        The eta knot vector merges the adaptive fits of the two gap clouds
        at their matched parameters f(chord).  West and east are the gap
        arcs refit in it from REFIT_SAMPLES points per control point of the
        larger arc, placed at f of the arcs' grid coordinate, not of the
        chord parameter the matching acts on, so the matched cloud points
        miss the refit arcs.  South and north are the cut edges, rotor end
        -> cusp -> rotor end; their ends, the corners, are the gap arcs'
        end control points, the rotor ends of the C-grid cut edges.
        """
        kv = uniform_knots(DEGREE, 8)
        eta_kv = merge_knot_vectors(*(
            fit_curve_adaptive(pts, f(t), kv, self.fit_threshold,
                               max_spans=ETA_MAX_SPANS).curve.basis
            for pts, t, f in ((gap.west_cloud, gap.west_chord, gap.f_w),
                              (gap.east_cloud, gap.east_chord, gap.f_e))))
        t = np.linspace(0.0, 1.0,
                        REFIT_SAMPLES * max(gap.west.basis.n, gap.east.basis.n))
        (sw, nw), (se, ne) = (gap.west.control_points[[0, -1]],
                              gap.east.control_points[[0, -1]])
        upper, lower = self.cusps
        return (fit_curve(gap.west(t), gap.f_w(t), eta_kv).curve,
                fit_curve(gap.east(t), gap.f_e(t), eta_kv).curve,
                self._cut_edge(sw, lower, se), self._cut_edge(nw, upper, ne),
                eta_kv)

    def build_separator(self, theta: float) -> PatchParameterization:
        west, east, south, north, eta_kv = self._separator_boundary(
            self.separator_reparams(theta))
        # a backtracking west/east boundary admits no fold-free interior
        # map, so it is rejected before any EGG work
        check_boundary_regular(west, self.params.left_center, side="west")
        check_boundary_regular(east, self.params.right_center, side="east")
        patch = egg_solve(transfinite(west, east, south, north,
                                      TensorBasis(self.xi_basis, eta_kv)))
        boxes = check_folding(patch.map)
        if boxes:
            patch = repair_folding(patch, boxes)
        return patch

    # -- full patch set ------------------------------------------------------------

    def build_patches(self, theta: float) -> PatchSet:
        """The three patches and the control map at ``theta``; every
        ``ScrewgenError`` raised on the way carries ``theta`` in its
        details."""
        try:
            # the separator first: its boundary certificate rejects an
            # angle before any C-grid is built
            separator = self.build_separator(theta)
            left_c = self.build_c_grid("left", theta)
            right_c = self.build_c_grid("right", theta)
            control = identity_control(self.control_basis)
            if self.optimize_control_maps:
                control = optimize_control(separator.map, control)
        except ScrewgenError as exc:
            exc.details.setdefault("theta", theta)
            raise
        return PatchSet(theta, left_c, right_c, separator, control)
