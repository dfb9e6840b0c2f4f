"""Per-angle three-patch construction.

For one screw geometry this module owns everything between a cross-section
point cloud and the three patch parameterizations plus the separator
control map:

* the fixed casing curves (arc-length parameterized, pinned exactly onto
  the cusp points) and the cusp cut fractions;
* the rotation-angle-zero rotor/casing matching, reused at every angle
  through the periodic shift of the grid coordinate;
* rotor boundary curves at any angle by exact subdivision of the base fit
  (the material cloud only rotates, so the fit never has to be redone);
* O-grid validity, C-grid cutting, separator boundary assembly, the EGG
  solve with folding repair, and the orthogonality control map with warm
  starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_map import (ControlMap, default_control_basis,
                          identity_control, optimize_control)
from .errors import InvalidGeometryError, MatchingError, TopologyError
from .fitting import (bounding_box_diagonal, chord_length_params, fit_curve,
                      fit_curve_adaptive, match_points)
from .parameterization import (BoundarySet, PatchParameterization,
                               assemble_separator_boundary, build_egg_problem,
                               check_folding, cut_c_grid, egg_solve,
                               o_grid_validity, repair_folding,
                               separator_xi_basis, transfinite)
from .profiles import (CrossSection, ScrewParams, booy_profile, cusp_points,
                       rotation)
from .splines import (KNOT_TOL, KnotVector, SplineCurve, SplineMap,
                      TensorBasis, extract_wrapped, open_knots, uniform_knots,
                      unique_knots)

TWO_PI = 2.0 * math.pi


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

def merge_knot_vectors(a: KnotVector, b: KnotVector) -> KnotVector:
    """Union spline space: same degree, interior knots at max multiplicity."""
    if a.degree != b.degree:
        raise TopologyError("cannot merge knot vectors of different degree")
    va, ca = unique_knots(a.knots)
    vb, cb = unique_knots(b.knots)
    vals = {}
    for v, c in zip(va, ca):
        vals[round(float(v), 12)] = int(c)
    for v, c in zip(vb, cb):
        key = round(float(v), 12)
        vals[key] = max(vals.get(key, 0), int(c))
    items = sorted(vals.items())
    interior = [(v, c) for v, c in items if KNOT_TOL < v < 1 - KNOT_TOL]
    return open_knots(a.degree,
                      [v for v, _ in interior],
                      [c for _, c in interior])


def promote_curve(curve: SplineCurve, target: KnotVector) -> SplineCurve:
    """Re-express a curve in the (finer) target knot vector."""
    va, ca = unique_knots(curve.basis.knots)
    vt, ct = unique_knots(target.knots)
    missing = []
    for v, c in zip(vt, ct):
        if KNOT_TOL < v < 1 - KNOT_TOL:
            have = 0
            for v0, c0 in zip(va, ca):
                if abs(v0 - v) <= 1e-12:
                    have = c0
                    break
            missing.extend([v] * max(0, c - have))
    return curve.refine(missing) if missing else curve


def rotate_curve(curve: SplineCurve, theta: float, about) -> SplineCurve:
    about = np.asarray(about, dtype=float)
    cp = (curve.control_points - about) @ rotation(theta).T + about
    return SplineCurve(curve.basis, cp)


# ---------------------------------------------------------------------------
# per-geometry fixed data
# ---------------------------------------------------------------------------

@dataclass
class PatchSet:
    """Everything produced for one rotation angle."""

    theta: float
    left_c: PatchParameterization
    right_c: PatchParameterization
    separator: PatchParameterization
    control: ControlMap
    newton_iterations: int = 0
    control_iterations: int = 0


class PipelineContext:
    """Fixed per-geometry machinery and the per-angle patch builder.

    fit_threshold governs the rotor boundary fits; the casing fit gets a
    tighter budget so barrel vertices stay on the physical circle.
    """

    def __init__(self, source: GeometrySource,
                 fit_threshold: float | None = None,
                 xi_elements_per_half: int = 4,
                 degree: int = 3,
                 control_basis: TensorBasis | None = None,
                 control_margin: float = 1e-3,
                 newton_tol: float = 1e-8,
                 max_newton_iter: int = 50,
                 optimize_control_maps: bool = True,
                 eta_max_spans: int = 256):
        self.source = source
        p = source.params
        self.params = p
        sec0 = source.section(0.0)
        diag = bounding_box_diagonal(
            np.vstack([sec0.left_rotor.points, sec0.right_rotor.points]))
        self.fit_threshold = fit_threshold if fit_threshold is not None \
            else 1e-4 * diag
        self.casing_threshold = 5e-7 * p.barrel_radius
        self.degree = degree
        self.xi_basis = separator_xi_basis(degree, xi_elements_per_half)
        self.control_basis = control_basis or default_control_basis()
        self.control_margin = control_margin
        self.newton_tol = newton_tol
        self.max_newton_iter = max_newton_iter
        self.optimize_control_maps = optimize_control_maps
        self.eta_max_spans = eta_max_spans

        self.cusps = cusp_points(p)           # (upper, lower)
        beta = math.atan2(self.cusps[0, 1], 0.5 * p.centerline_distance)
        self.cut_frac = beta / TWO_PI         # q: cusp fraction on each casing
        self._build_casing_curves()
        self._base_rotor: dict[str, SplineCurve] = {}
        for side in ("left", "right"):
            self._build_base_rotor(side, sec0)

    # -- casing -------------------------------------------------------------

    def _casing_circle_points(self, side: str, n: int) -> np.ndarray:
        p = self.params
        center = p.left_center if side == "left" else p.right_center
        anchor = 0.0 if side == "left" else math.pi
        ang = anchor + TWO_PI * np.arange(n) / n
        return center + p.barrel_radius * np.column_stack([np.cos(ang),
                                                           np.sin(ang)])

    def _build_casing_curves(self):
        """Arc-length parameterized full-circle casing fits, interpolating
        the cusp points exactly at the cut fractions."""
        p = self.params
        q = self.cut_frac
        self.casing_curve = {}
        for side in ("left", "right"):
            pts = self._casing_circle_points(side, 4096)
            pts = np.vstack([pts, pts[:1]])
            t = np.linspace(0.0, 1.0, len(pts))
            top, bot = self.cusps[0], self.cusps[1]
            pins = [(q, top), (1 - q, bot)] if side == "left" \
                else [(q, bot), (1 - q, top)]
            kv = uniform_knots(self.degree, 8)
            while True:
                fit = fit_curve(pts, t, kv, pins=pins)
                if fit.max_residual <= self.casing_threshold:
                    break
                spans = kv.n_elements * 2
                if spans > 1024:
                    raise InvalidGeometryError("casing fit failed to converge")
                kv = uniform_knots(self.degree, spans)
            self.casing_curve[side] = fit.curve

    # -- base rotor fit and matching -----------------------------------------

    def _rotor_cloud(self, side: str, section: CrossSection) -> np.ndarray:
        cloud = section.left_rotor if side == "left" else section.right_rotor
        return cloud.points

    def _center(self, side: str) -> np.ndarray:
        return self.params.left_center if side == "left" \
            else self.params.right_center

    def _anchor_angle(self, side: str) -> float:
        return 0.0 if side == "left" else math.pi

    def _build_base_rotor(self, side: str, sec0: CrossSection):
        """Assign casing-aligned grid fractions to the rotation-angle-zero
        rotor cloud and fit the boundary over the grid coordinate.

        For the circular casing the hierarchical Euclidean matching has the
        closed form of the radial projection: every rotor point pairs with
        the foot of its ray from the rotor axis, so the grid fraction is the
        casing arc fraction of that foot.  Rotating the rotor then shifts
        every fraction by theta / 2 pi exactly, which is what lets the base
        fit serve all angles.
        """
        pts = self._rotor_cloud(side, sec0)
        center = self._center(side)
        anchor = self._anchor_angle(side)
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

        kv = uniform_knots(self.degree, 16)
        fit = fit_curve_adaptive(cloud, params, kv, self.fit_threshold,
                                 max_spans=1024)
        self._base_rotor[side] = fit.curve

    # -- per-angle curves -----------------------------------------------------

    def rotor_curve_full(self, side: str, theta: float) -> SplineCurve:
        """Full-loop rotor boundary at the given angle over the grid
        coordinate: the base fit, parameter-shifted and rotated."""
        s = (theta / TWO_PI) % 1.0
        base = self._base_rotor[side]
        if s < 1e-12 or s > 1 - 1e-12:
            shifted = base
        else:
            shifted = extract_wrapped(base, (1.0 - s) % 1.0, (1.0 - s) % 1.0)
        return rotate_curve(shifted, theta, self._center(side))

    def rotor_arc_gap(self, side: str, theta: float) -> SplineCurve:
        """Rotor boundary over the cut-away (intermeshing) arc, running
        south to north."""
        s = (theta / TWO_PI) % 1.0
        q = self.cut_frac
        base = self._base_rotor[side]
        a = (1.0 - q - s) % 1.0
        b = (q - s) % 1.0
        arc = rotate_curve(extract_wrapped(base, a, b), theta,
                           self._center(side))
        return arc if side == "left" else arc.reversed()

    # -- patches ---------------------------------------------------------------

    def build_c_grid(self, side: str, theta: float,
                     validity_samples: int | None = None) -> PatchParameterization:
        """O-grid by unidirectional transfinite interpolation, validity-gated,
        cut at the cusp fractions."""
        rotor = self.rotor_curve_full(side, theta)
        casing = self.casing_curve[side]
        kv = merge_knot_vectors(rotor.basis, casing.basis)
        rotor_p = promote_curve(rotor, kv)
        casing_p = promote_curve(casing, kv)
        valid, crossings = o_grid_validity(rotor_p, casing_p,
                                           validity_samples)
        if not valid:
            raise MatchingError(
                f"{side} O-grid isolines cross at theta={theta:.4f}; the "
                "rotor reparameterization does not align with the casing",
                crossings=crossings[:8])
        eta_kv = KnotVector(1, [0.0, 0.0, 1.0, 1.0])
        basis = TensorBasis(kv, eta_kv)
        o_map = transfinite(BoundarySet(gamma_s=rotor_p, gamma_n=casing_p),
                            basis)
        o_grid = PatchParameterization(o_map, f"c_grid_{side}", theta)
        return cut_c_grid(o_grid, (self.cut_frac, 1.0 - self.cut_frac))

    # -- separator ---------------------------------------------------------------

    def _gap_clouds(self, theta: float, n: int = 200):
        west = self.rotor_arc_gap("left", theta)
        east = self.rotor_arc_gap("right", theta)
        t = np.linspace(0.0, 1.0, n)
        return west, east, west(t), east(t)

    def separator_reparams(self, theta: float):
        """Both-float matching functions for the west/east gap arcs at the
        given angle."""
        _, _, wpts, epts = self._gap_clouds(theta)
        return match_points(wpts, epts, "both_float")

    def _eta_fitter(self, probe_sets):
        """Common eta-basis fitter: adapt on each (points, params) probe set,
        merge the resulting knot vectors, refit in the union."""
        kv = uniform_knots(self.degree, 8)
        union = None
        for pts, t in probe_sets:
            fit = fit_curve_adaptive(pts, t, kv, self.fit_threshold,
                                     max_spans=self.eta_max_spans)
            union = fit.curve.basis if union is None \
                else merge_knot_vectors(union, fit.curve.basis)

        def fitter(pts, t):
            return fit_curve(pts, t, union).curve
        return fitter

    def build_separator(self, theta: float, left_c, right_c,
                        reparams=None, seed_maps=None) -> PatchParameterization:
        if reparams is None:
            reparams = self.separator_reparams(theta)
        f_w, f_e = reparams
        west, east, wpts, epts = self._gap_clouds(theta)
        probe = [(wpts, f_w(chord_length_params(wpts))),
                 (epts, f_e(chord_length_params(epts)))]
        fitter = self._eta_fitter(probe)
        bounds = assemble_separator_boundary(
            left_c, right_c, (west, east),
            (self.cusps[0], self.cusps[1]), reparams,
            self.xi_basis, fitter)
        basis = TensorBasis(self.xi_basis, bounds.gamma_w.basis)
        init = transfinite(bounds, basis)
        if seed_maps:
            gx, ge = basis.greville_grid()
            blend = np.zeros((basis.xi.n, basis.eta.n, 2))
            total = 0.0
            for w_k, m_k in seed_maps:
                blend += w_k * m_k.evaluate_grid(gx, ge)
                total += w_k
            cp = init.control_points.copy()
            cp[1:-1, 1:-1] = (blend / total)[1:-1, 1:-1]
            init = SplineMap(basis, cp)
        problem = build_egg_problem(init, newton_tol=self.newton_tol,
                                    max_iter=self.max_newton_iter,
                                    patch_kind="separator", theta=theta)
        patch = egg_solve(problem)
        defects = check_folding(patch, 40)
        if defects:
            patch = repair_folding(problem, defects, n_samples=40)
        return patch

    # -- full patch set ------------------------------------------------------------

    def build_patches(self, theta: float, reparams=None,
                      seed: PatchSet | None = None,
                      seed_maps=None) -> PatchSet:
        left_c = self.build_c_grid("left", theta)
        right_c = self.build_c_grid("right", theta)
        separator = self.build_separator(theta, left_c, right_c,
                                         reparams=reparams,
                                         seed_maps=seed_maps)
        if self.optimize_control_maps:
            init_ctrl = identity_control(self.control_basis,
                                         self.control_margin)
            if seed is not None and seed.control is not None:
                init_ctrl = ControlMap(self.control_basis,
                                       seed.control.coeffs,
                                       self.control_margin)
            control = optimize_control(separator.map, init_ctrl,
                                       margin=self.control_margin)
        else:
            control = identity_control(self.control_basis,
                                       self.control_margin)
        return PatchSet(theta, left_c, right_c, separator, control,
                        newton_iterations=separator.iterations,
                        control_iterations=control.iterations)
