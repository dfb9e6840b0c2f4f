"""Boundary-curve fitting and parametric matching.

Point clouds are fitted with a stabilized least-squares collocation whose
knot vector is reselected adaptively from the local projection residual.
``fit_curve`` checks and clips its parameters once, on entry, evaluates
the basis there once, and takes both the normal equations and the
residuals from that one window, so the residuals are measured at exactly
the parameters it fitted.  Matching assigns consistent parametric values
to two opposing clouds by recursive closest-pair bisection into monotone
reparameterization functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError, FitError, MatchingError
from .splines import (KnotVector, SplineCurve, _check_param,
                      basis_ders_nonzero, bounding_box_diagonal,
                      greville_abscissae)


def _cloud(points) -> np.ndarray:
    """The cloud as a float array; fewer than 2 points, or a non-finite
    coordinate (details: the first such row, ``row``), raise FitError."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise FitError(f"need at least 2 points, got {len(points)}",
                       n_points=len(points))
    bad = ~np.isfinite(points).reshape(len(points), -1).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        raise FitError(f"cloud point {row} is not finite", row=row)
    return points


def chord_length_params(points) -> np.ndarray:
    """Cumulative chord-length parameters of an ordered cloud, scaled to [0, 1]."""
    points = _cloud(points)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = seg.sum()
    if total <= 0:
        raise FitError("degenerate cloud: zero total chord length")
    t = np.concatenate([[0.0], np.cumsum(seg)]) / total
    t[-1] = 1.0
    return t


# ---------------------------------------------------------------------------
# stabilized least-squares fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FitResult:
    curve: SplineCurve
    params: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def _second_differences(g) -> np.ndarray:
    """(n-2, n) second divided differences of a control polygon over its
    Greville abscissae g, scaled by the local gap: straight lines lie in the
    null space and the penalty weight decays under knot refinement, so the
    stabilization fixes rank deficiency without flooring fine fits."""
    h = np.diff(g)
    h0, h1 = h[:-1], h[1:]
    hbar = 0.5 * (h0 + h1)
    a, c = hbar / h0, hbar / h1
    D = np.zeros((len(hbar), len(g)))
    # row i holds a, -(a + c), c from column i on: three strided diagonals
    flat, step = D.reshape(-1), len(g) + 1
    flat[::step], flat[1::step], flat[2::step] = a, -(a + c), c
    return D


def _penalty_weight(points) -> float:
    """The default penalty weight of a cloud: 1e-7 times its squared
    extent."""
    return 1e-7 * bounding_box_diagonal(points) ** 2


def fit_curve(points, params, kv: KnotVector,
              lam_reg: float | None = None) -> FitResult:
    """Stabilized least-squares fit of (points, params) against the basis.

    The first and last control points are pinned to the first and last cloud
    points (exact endpoint interpolation); the remaining control points
    minimize the squared collocation residual plus ``lam_reg`` times a
    second-difference penalty, which keeps the normal system regular even
    when the cloud carries fewer points than the basis has functions.
    A cloud of fewer than 2 points raises FitError.  Parameters outside
    [0, 1] by more than KNOT_TOL raise DomainError; the rest are clipped
    into it, and fit and residuals both use the clipped values.
    """
    points = _cloud(points)
    params = np.asarray(params, dtype=float)
    if points.shape[0] != params.shape[0]:
        raise FitError("points and params length mismatch")
    params = _check_param(params)
    if lam_reg is None:
        lam_reg = _penalty_weight(points)
    n = kv.n
    cols, ders = basis_ders_nonzero(kv, params, 0)
    B = np.zeros((len(params), n))
    B[np.arange(len(params))[:, None], cols] = ders[0]
    D = _second_differences(greville_abscissae(kv))
    ctrl = np.zeros((n, 2))
    ctrl[0] = points[0]
    ctrl[-1] = points[-1]
    # the inner control points, columns 1 .. n-2, and the pinned ends,
    # columns 0 and n-1, as views; an empty system (n = 2) solves to nothing
    free, ends = slice(1, n - 1), slice(None, None, n - 1)
    Bf, Df = B[:, free], D[:, free]
    rhs_pts = points - B[:, ends] @ ctrl[ends]
    Dp = D[:, ends] @ ctrl[ends]
    M = Bf.T @ Bf + lam_reg * (Df.T @ Df)
    rhs = Bf.T @ rhs_pts - lam_reg * (Df.T @ Dp)
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular fitting system: {exc}") from exc
    if not np.isfinite(sol).all():
        raise FitError("fitting system numerically singular despite stabilization")
    ctrl[free] = sol
    curve = SplineCurve(kv, ctrl)
    fitted = np.einsum("mj,mjd->md", ders[0], curve.control_points[cols])
    return FitResult(curve, params, np.linalg.norm(fitted - points, axis=1))


def adapt_knots(fit: FitResult, threshold: float) -> KnotVector:
    """Bisect every knot span containing a point whose residual exceeds the
    threshold; spans without offenders are kept."""
    kv = fit.curve.basis
    bps = kv.breakpoints
    offenders = fit.params[fit.residuals > threshold]
    # span k = [bps[k], bps[k+1]] holds t when k + 1 lies in
    # [searchsorted left, searchsorted right]: one span for an inner t, both
    # neighbours for a t on a breakpoint; hit[k + 1] marks span k
    hit = np.zeros(len(bps) + 1, dtype=bool)
    for side in ("left", "right"):
        hit[np.searchsorted(bps, offenders, side=side)] = True
    new = (0.5 * (bps[:-1] + bps[1:]))[hit[1:-1]]
    if not new.size:
        return kv
    return KnotVector(kv.degree, np.sort(np.concatenate([kv.knots, new])))


def fit_curve_adaptive(points, params, kv: KnotVector, threshold: float,
                       max_spans: int = 512) -> FitResult:
    """Repeated fit/adapt loop until max_residual <= threshold.

    The penalty weight depends on the cloud alone, so it is computed once
    and every level's fit (through ``fit_curve``) uses it.  Raises
    FitConvergenceError (carrying the best fit) if the span budget is
    exhausted first.
    """
    points = _cloud(points)
    lam_reg = _penalty_weight(points)
    best = None
    while True:
        fit = fit_curve(points, params, kv, lam_reg)
        if best is None or fit.max_residual < best.max_residual:
            best = fit
        if fit.max_residual <= threshold:
            return fit
        refined = adapt_knots(fit, threshold)
        if refined.n_elements > max_spans:
            raise FitConvergenceError(
                f"adaptive fit exceeded {max_spans} spans at residual "
                f"{best.max_residual:.3e} (threshold {threshold:.3e})",
                best_fit=best)
        if refined is kv or refined.n == kv.n:
            raise FitConvergenceError(
                "adaptive fit stalled without reaching the threshold",
                best_fit=best)
        kv = refined


# ---------------------------------------------------------------------------
# reparameterization functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReparamFunction:
    """Monotone piecewise-linear map [0,1] -> [0,1] given by breakpoints."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
            raise MatchingError("breakpoint arrays must be equal-length 1d")
        # NaN fails every comparison, so each test asks for what must hold
        ends = np.array([x[0], x[-1] - 1, y[0], y[-1] - 1])
        if not np.all(np.abs(ends) <= 1e-12):
            raise MatchingError("reparameterization must map 0->0 and 1->1")
        if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
            raise MatchingError("breakpoints must be strictly increasing")
        x = x.copy()
        y = y.copy()
        x[0] = 0.0
        x[-1] = 1.0
        y[0] = 0.0
        y[-1] = 1.0
        for a in (x, y):
            a.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __call__(self, t):
        return np.interp(t, self.x, self.y)


def _hierarchical_pairs(dist):
    """Matched index pairs by recursive closest-pair bisection.

    The globally closest pair splits both index ranges; recursion continues
    on each side and stops on segments of <= 2 points.  Pairs are monotone
    by construction.
    """
    na, nb = dist.shape
    pairs = [(0, 0), (na - 1, nb - 1)]
    stack = [(0, na - 1, 0, nb - 1)]
    while stack:
        a0, a1, b0, b1 = stack.pop()
        if a1 - a0 < 2 or b1 - b0 < 2:
            continue
        i, j = divmod(int(dist[a0 + 1:a1, b0 + 1:b1].argmin()), b1 - b0 - 1)
        ia, jb = a0 + 1 + i, b0 + 1 + j
        pairs.append((ia, jb))
        stack.append((a0, ia, b0, jb))
        stack.append((ia, a1, jb, b1))
    return sorted(pairs)


def match_points(cloud_a, cloud_b, ta, tb):
    """Match two consistently ordered open clouds by hierarchical
    closest-pair bisection and float both parameterizations.

    ta and tb are the clouds' increasing parameters from 0 to 1 (their
    chord-length parameters in the pipeline, computed once by the caller).
    Matched pairs receive the average of their parameters; returns the pair
    (f_a, f_b) mapping each cloud's parameter to the common value.  The
    pairs increase strictly in both indices, so the breakpoints do wherever
    the parameters do; a repeated point matched twice repeats its parameter
    and raises MatchingError, as do a non-finite point or parameter.
    """
    a = np.asarray(cloud_a, dtype=float)
    b = np.asarray(cloud_b, dtype=float)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MatchingError("matched clouds must be finite")
    # reversed-orientation input would force crossing matches; detect it from
    # the endpoint correspondence before committing to the recursion
    d_fwd = np.linalg.norm(a[0] - b[0]) + np.linalg.norm(a[-1] - b[-1])
    d_rev = np.linalg.norm(a[0] - b[-1]) + np.linalg.norm(a[-1] - b[0])
    if d_rev < 0.5 * d_fwd:
        raise MatchingError("clouds appear oppositely oriented (crossing matches)")
    dist, dy = (np.subtract.outer(a[:, k], b[:, k]) for k in (0, 1))
    dist *= dist    # in place: two (n_a, n_b) arrays in all
    dy *= dy
    dist += dy
    pairs = _hierarchical_pairs(np.sqrt(dist, out=dist))

    ia, jb = np.array(pairs).T
    avg = 0.5 * (ta[ia] + tb[jb])
    return ReparamFunction(ta[ia], avg), ReparamFunction(tb[jb], avg)
