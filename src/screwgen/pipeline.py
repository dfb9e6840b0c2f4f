"""Per-angle three-patch construction.

For one screw geometry this module owns everything between a cross-section
point cloud and the three patch parameterizations plus the separator
control map:

* the casing curves, one fit per retained barrel arc with its ends on the
  cusp points, and the cusp cut fraction;
* the rotation-angle-zero rotor fit over the casing-aligned grid
  coordinate (radial projection), reused at every angle through the
  periodic shift of that coordinate, and stored as the fit joined to
  itself over two periods;
* rotor arcs at any angle as one extraction from that two-period curve,
  rotated (the material cloud only rotates, so the fit never has to be
  redone, and no arc wraps);
* per angle, in this order: the gap-arc matching and the separator
  boundary assembly from the gap arcs alone, then the regularity
  certificate of the separator's west/east boundaries, which rejects a
  backtracking boundary with ``MatchingError`` before any C-grid or EGG
  work; the EGG solve with folding repair; each C-grid as the ruled map
  between its rotor arc and casing arc; the orthogonality control map.

Every fold check is the Bernstein sign certificate of ``parameterization``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_map import (ControlMap, default_control_basis,
                          identity_control, optimize_control)
from .errors import InvalidGeometryError, MatchingError, TopologyError
from .fitting import (ReparamFunction, bounding_box_diagonal,
                      chord_length_params, fit_curve, fit_curve_adaptive,
                      match_points)
from .parameterization import (PatchParameterization,
                               assemble_separator_boundary,
                               check_boundary_regular, check_folding,
                               check_ruled_map, egg_solve, repair_folding,
                               separator_xi_basis, transfinite)
from .profiles import (CasingArc, CrossSection, ScrewParams, booy_profile,
                       cusp_points, rotation)
from .splines import (KNOT_TOL, KnotVector, SplineCurve, SplineMap,
                      TensorBasis, join_curves, open_knots, uniform_knots,
                      unique_knots)

TWO_PI = 2.0 * math.pi
DEGREE = 3                 # degree of every boundary curve and patch map
XI_ELEMENTS_PER_HALF = 4   # separator xi spans on each side of the cusp line
ETA_MAX_SPANS = 256        # span budget of the separator's eta fits
GAP_SAMPLES = 200          # points per gap-arc cloud for the matching


# ---------------------------------------------------------------------------
# geometry sources
# ---------------------------------------------------------------------------

class GeometrySource:
    """Provider of cross sections at arbitrary rotation angles."""

    def __init__(self, params: ScrewParams):
        self.params = params

    def section(self, theta: float) -> CrossSection:
        raise NotImplementedError


class BooySource(GeometrySource):
    def __init__(self, params: ScrewParams, n_points: int = 1024):
        super().__init__(params)
        self.n_points = n_points

    def section(self, theta: float) -> CrossSection:
        return booy_profile(self.params, theta, self.n_points)


class FileSource(GeometrySource):
    """Profile from a point-cloud file; other angles rotate the base clouds
    about their own centers (co-rotating kinematics)."""

    def __init__(self, base: CrossSection, params: ScrewParams):
        super().__init__(params)
        self.base = base

    def section(self, theta: float) -> CrossSection:
        delta = theta - self.base.angle
        p = self.params
        left = self.base.left_rotor.rotated(delta, p.left_center)
        right = self.base.right_rotor.rotated(delta, p.right_center)
        return CrossSection(theta, p, left, right, self.base.casing_left,
                            self.base.casing_right, self.base.cusp_points)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _interior_counts(a: KnotVector, b: KnotVector):
    """Distinct interior knot values of a and b together, with the
    multiplicity of each in a and in b (KNOT_TOL clustering)."""
    vals = unique_knots(np.sort(np.concatenate([a.knots, b.knots])))[0][1:-1]

    def count(kv):
        return np.sum(np.abs(kv.knots[None, :] - vals[:, None]) <= KNOT_TOL,
                      axis=1)
    return vals, count(a), count(b)


def merge_knot_vectors(a: KnotVector, b: KnotVector) -> KnotVector:
    """Union spline space: same degree, interior knots at max multiplicity."""
    if a.degree != b.degree:
        raise TopologyError("cannot merge knot vectors of different degree")
    vals, ca, cb = _interior_counts(a, b)
    return open_knots(a.degree, vals, np.maximum(ca, cb))


def promote_curve(curve: SplineCurve, target: KnotVector) -> SplineCurve:
    """Re-express a curve in the (finer) target knot vector."""
    vals, have, want = _interior_counts(curve.basis, target)
    return curve.refine(np.repeat(vals, np.maximum(want - have, 0)))


def rotate_curve(curve: SplineCurve, theta: float, about) -> SplineCurve:
    about = np.asarray(about, dtype=float)
    cp = (curve.control_points - about) @ rotation(theta).T + about
    return SplineCurve(curve.basis, cp)


# ---------------------------------------------------------------------------
# per-geometry fixed data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    fit_threshold governs the rotor boundary fits; the casing fit gets a
    tighter budget so barrel vertices stay on the physical circle.
    """

    def __init__(self, source: GeometrySource,
                 fit_threshold: float | None = None,
                 optimize_control_maps: bool = True):
        p = source.params
        self.params = p
        sec0 = source.section(0.0)
        diag = bounding_box_diagonal(
            np.vstack([sec0.left_rotor.points, sec0.right_rotor.points]))
        self.fit_threshold = fit_threshold if fit_threshold is not None \
            else 1e-4 * diag
        self.casing_threshold = 5e-7 * p.barrel_radius
        self.xi_basis = separator_xi_basis(DEGREE, XI_ELEMENTS_PER_HALF)
        self.control_basis = default_control_basis()
        self.optimize_control_maps = optimize_control_maps

        self.cusps = cusp_points(p)           # (upper, lower)
        beta = math.atan2(self.cusps[0, 1], 0.5 * p.centerline_distance)
        self.cut_frac = beta / TWO_PI         # q: cusp fraction on each casing
        self.casing_arc = {"left": self._fit_casing_arc(sec0.casing_left),
                           "right": self._fit_casing_arc(sec0.casing_right)}
        # the separator's north/south boundaries end on the cusps, so each
        # casing arc (user-supplied through a FileSource) must end there
        scale = np.linalg.norm(self.cusps[0] - self.cusps[1])
        for side, ends in (("left", self.cusps), ("right", self.cusps[::-1])):
            cp = self.casing_arc[side].control_points
            for got, want, name in zip(cp[[0, -1]], ends, ("start", "end")):
                gap = np.linalg.norm(got - want)
                if gap > 1e-9 * scale:
                    raise TopologyError(f"{side} casing arc {name} is off "
                                        "its cusp", gap=float(gap))
        # the base rotor fit joined to itself over two periods of the grid
        # coordinate, so that every wrapped grid range is one extraction
        self._two_period_rotor: dict[str, SplineCurve] = {}
        for side in ("left", "right"):
            fit = self._fit_rotor(side, sec0)
            self._two_period_rotor[side] = join_curves(fit, fit, 0.5)

    # -- casing -------------------------------------------------------------

    def _fit_casing_arc(self, arc: CasingArc) -> SplineCurve:
        """Arc-length parameterized fit of a retained barrel arc; its ends
        are the cusps, which the fit interpolates.

        The knots are those of n uniform spans over the whole grid
        coordinate g = q + t (1 - 2q) that fall inside the arc, so at angles
        on that grid they coincide with the rotor arc's knots and the
        C-grid's union knot vector stays small.
        """
        q = self.cut_frac
        ang = np.linspace(arc.start_angle, arc.end_angle, 4096)
        pts = arc.center + arc.radius * np.column_stack([np.cos(ang),
                                                         np.sin(ang)])
        t = np.linspace(0.0, 1.0, len(pts))
        n = 8
        while True:
            g = np.arange(1, n) / n
            g = g[(g > q + KNOT_TOL) & (g < 1.0 - q - KNOT_TOL)]
            fit = fit_curve(pts, t, open_knots(DEGREE, (g - q) / (1 - 2 * q)))
            if fit.max_residual <= self.casing_threshold:
                return fit.curve
            n *= 2
            if n > 1024:
                raise InvalidGeometryError("casing fit failed to converge")

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
        """
        pts = (sec0.left_rotor if side == "left" else sec0.right_rotor).points
        center = self._center(side)
        anchor = 0.0 if side == "left" else math.pi
        ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
        fracs = ((ang - anchor) / TWO_PI) % 1.0
        order = np.argsort(fracs)
        g = fracs[order]
        if np.any(np.diff(g) <= 0):
            raise MatchingError(
                f"{side} rotor cloud is not star-shaped about its axis; "
                "radial grid assignment is ambiguous")
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
        lo the range's start in the base fit's grid, rotated."""
        lo = (a - theta / TWO_PI) % 1.0
        arc = self._two_period_rotor[side].extract(
            lo / 2, (lo + (b - a) % 1.0) / 2)
        return rotate_curve(arc, theta, self._center(side))

    def rotor_arc_gap(self, side: str, theta: float) -> SplineCurve:
        """Rotor boundary over the cut-away (intermeshing) arc, running
        south to north."""
        q = self.cut_frac
        arc = self._rotor_arc(side, theta, 1.0 - q, q)
        return arc if side == "left" else arc.reversed()

    # -- patches ---------------------------------------------------------------

    def build_c_grid(self, side: str, theta: float) -> PatchParameterization:
        """Ruled map from the rotor arc (eta = 0) to the casing arc (eta = 1)
        over the retained grid range [q, 1 - q], fold-checked: linear in
        eta, so its net is the two curves' control points side by side."""
        q = self.cut_frac
        rotor = self._rotor_arc(side, theta, q, 1.0 - q)
        casing = self.casing_arc[side]
        kv = merge_knot_vectors(rotor.basis, casing.basis)
        rotor, casing = promote_curve(rotor, kv), promote_curve(casing, kv)
        check_ruled_map(rotor, casing, side=side, theta=theta)
        basis = TensorBasis(kv, KnotVector(1, [0.0, 0.0, 1.0, 1.0]))
        return PatchParameterization(SplineMap(basis, np.stack(
            [rotor.control_points, casing.control_points], axis=1)))

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

    def _eta_basis(self, gap: GapArcs) -> KnotVector:
        """Common eta knot vector: adapt a fit of each cloud at its matched
        parameters and merge the resulting knot vectors."""
        kv = uniform_knots(DEGREE, 8)
        union = None
        for pts, t, f in ((gap.west_cloud, gap.west_chord, gap.f_w),
                          (gap.east_cloud, gap.east_chord, gap.f_e)):
            fit = fit_curve_adaptive(pts, f(t), kv, self.fit_threshold,
                                     max_spans=ETA_MAX_SPANS)
            union = fit.curve.basis if union is None \
                else merge_knot_vectors(union, fit.curve.basis)
        return union

    def build_separator(self, theta: float) -> PatchParameterization:
        gap = self.separator_reparams(theta)
        eta_kv = self._eta_basis(gap)
        bounds = assemble_separator_boundary(
            (gap.west, gap.east), self.cusps, (gap.f_w, gap.f_e),
            self.xi_basis, eta_kv)
        # a backtracking west/east boundary admits no fold-free interior
        # map, so it is rejected before any EGG work
        check_boundary_regular(bounds.gamma_w, self.params.left_center,
                               side="west", theta=theta)
        check_boundary_regular(bounds.gamma_e, self.params.right_center,
                               side="east", theta=theta)
        patch = egg_solve(transfinite(bounds, TensorBasis(self.xi_basis,
                                                          eta_kv)))
        boxes = check_folding(patch.map)
        if boxes:
            patch = repair_folding(patch, boxes)
        return patch

    # -- full patch set ------------------------------------------------------------

    def build_patches(self, theta: float) -> PatchSet:
        # the separator first: its boundary certificate rejects an angle
        # before any C-grid is built
        separator = self.build_separator(theta)
        left_c = self.build_c_grid("left", theta)
        right_c = self.build_c_grid("right", theta)
        control = identity_control(self.control_basis)
        if self.optimize_control_maps:
            control = optimize_control(separator.map, control)
        return PatchSet(theta, left_c, right_c, separator, control)
