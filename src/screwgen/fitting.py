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
                      basis_ders_nonzero, greville_abscissae)


def bounding_box_diagonal(points) -> float:
    points = np.asarray(points, dtype=float)
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def chord_length_params(points) -> np.ndarray:
    """Cumulative chord-length parameters of an ordered cloud, scaled to [0, 1]."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise FitError("need at least 2 points for chord-length parameters")
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

@dataclass(frozen=True)
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
    h0, h1 = np.diff(g)[:-1], np.diff(g)[1:]
    hbar = 0.5 * (h0 + h1)
    i = np.arange(len(hbar))
    D = np.zeros((len(hbar), len(g)))
    D[i, i], D[i, i + 1], D[i, i + 2] = \
        hbar / h0, -(hbar / h0 + hbar / h1), hbar / h1
    return D


def fit_curve(points, params, kv: KnotVector,
              lam_reg: float | None = None) -> FitResult:
    """Stabilized least-squares fit of (points, params) against the basis.

    The first and last control points are pinned to the first and last cloud
    points (exact endpoint interpolation); the remaining control points
    minimize the squared collocation residual plus ``lam_reg`` times a
    second-difference penalty, which keeps the normal system regular even
    when the cloud carries fewer points than the basis has functions.
    Parameters outside [0, 1] by more than KNOT_TOL raise DomainError;
    the rest are clipped into it, and fit and residuals both use the
    clipped values.
    """
    points = np.asarray(points, dtype=float)
    params = np.asarray(params, dtype=float)
    if points.shape[0] != params.shape[0]:
        raise FitError("points and params length mismatch")
    params = _check_param(params)
    if lam_reg is None:
        lam_reg = 1e-7 * bounding_box_diagonal(points) ** 2
    n = kv.n
    cols, ders = basis_ders_nonzero(kv, params, 0)
    B = np.zeros((len(params), n))
    np.put_along_axis(B, cols, ders[0], axis=1)
    D = _second_differences(greville_abscissae(kv))
    pinned = np.zeros((n, 2))
    pinned[0] = points[0]
    pinned[-1] = points[-1]
    free = np.arange(1, n - 1)
    if free.size:
        Bf = B[:, free]
        rhs_pts = points - B[:, [0, n - 1]] @ pinned[[0, -1]]
        Df = D[:, free]
        Dp = D[:, [0, n - 1]] @ pinned[[0, -1]]
        M = Bf.T @ Bf + lam_reg * (Df.T @ Df)
        rhs = Bf.T @ rhs_pts - lam_reg * (Df.T @ Dp)
        try:
            sol = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular fitting system: {exc}") from exc
        if not np.all(np.isfinite(sol)):
            raise FitError("fitting system numerically singular despite stabilization")
        ctrl = pinned
        ctrl[free] = sol
    else:
        ctrl = pinned
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

    Raises FitConvergenceError (carrying the best fit) if the span budget is
    exhausted first.
    """
    best = None
    while True:
        fit = fit_curve(points, params, kv)
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

@dataclass(frozen=True)
class ReparamFunction:
    """Monotone piecewise-linear map [0,1] -> [0,1] given by breakpoints."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
            raise MatchingError("breakpoint arrays must be equal-length 1d")
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1) > 1e-12 \
                or abs(y[0]) > 1e-12 or abs(y[-1] - 1) > 1e-12:
            raise MatchingError("reparameterization must map 0->0 and 1->1")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
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

    def inverse(self) -> "ReparamFunction":
        return ReparamFunction(self.y, self.x)


def _dedupe_breakpoints(x, y):
    """Sort and strictly monotonize matched breakpoint pairs."""
    order = np.argsort(x)
    x, y = np.asarray(x, float)[order], np.asarray(y, float)[order]
    keep_x, keep_y = [x[0]], [y[0]]
    for xi, yi in zip(x[1:], y[1:]):
        if xi - keep_x[-1] > 1e-12 and yi - keep_y[-1] > 1e-12:
            keep_x.append(xi)
            keep_y.append(yi)
    # endpoints are anchored by construction; force them exactly
    keep_x[0], keep_y[0] = 0.0, 0.0
    if abs(keep_x[-1] - 1) > 1e-12 or abs(keep_y[-1] - 1) > 1e-12:
        keep_x.append(1.0)
        keep_y.append(1.0)
    else:
        keep_x[-1], keep_y[-1] = 1.0, 1.0
    return np.array(keep_x), np.array(keep_y)


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
    (f_a, f_b) mapping each cloud's parameter to the common value.
    """
    a = np.asarray(cloud_a, dtype=float)
    b = np.asarray(cloud_b, dtype=float)
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    # reversed-orientation input would force crossing matches; detect it from
    # the endpoint correspondence before committing to the recursion
    d_fwd = np.linalg.norm(a[0] - b[0]) + np.linalg.norm(a[-1] - b[-1])
    d_rev = np.linalg.norm(a[0] - b[-1]) + np.linalg.norm(a[-1] - b[0])
    if d_rev < 0.5 * d_fwd:
        raise MatchingError("clouds appear oppositely oriented (crossing matches)")
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    pairs = _hierarchical_pairs(np.sqrt(dx * dx + dy * dy))

    ia = np.array([p[0] for p in pairs])
    jb = np.array([p[1] for p in pairs])
    avg = 0.5 * (ta[ia] + tb[jb])
    xa, ya = _dedupe_breakpoints(ta[ia], avg)
    xb, yb = _dedupe_breakpoints(tb[jb], avg)
    return ReparamFunction(xa, ya), ReparamFunction(xb, yb)
