"""Orthogonality control mapping.

A control map is a unit-square self-map s(mu, nu) = (mu, sigma(mu, nu))
that slides grid lines in the eta direction only.  Its scalar field sigma
is spanned by an independent (low-order) tensor basis whose first and last
eta control columns are pinned to 0 and 1; per-column ordering of the
remaining control values with a positive margin is a sufficient linear
condition for bijectivity.  The control values minimize a discrete Riemann
sum of the squared dot product between the composite map's mu- and
nu-derivatives, which maximizes grid orthogonality.

The composite x o s needs no fold check of its own.  With eta degree q and
knots t, sigma_nu is a convex combination of the slopes
q (c[i, j+1] - c[i, j]) / (t[j+q+1] - t[j+1]), and ``feasible()`` keeps
every gap c[i, j+1] - c[i, j] at least margin - 1e-9, so

    sigma_nu >= q (margin - 1e-9) / max_j (t[j+q+1] - t[j+1]) > 0.

det J(x o s) = det J_x(mu, sigma) sigma_nu then has the sign of det J_x,
and the certificate on x certifies x o s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import minimize

from .errors import ConstraintError, DomainError
from .splines import (SplineMap, TensorBasis, basis_ders_nonzero, basis_matrix,
                      greville_abscissae, uniform_knots)

DEFAULT_MARGIN = 1e-3
N_CELLS = 64   # cost sample cells per direction


def default_control_basis() -> TensorBasis:
    """Biquadratic basis with 8 uniform spans per direction."""
    return TensorBasis(uniform_knots(2, 8), uniform_knots(2, 8))


@dataclass(frozen=True)
class ControlMap:
    """Unit-square self-map sliding in eta: s(mu, nu) = (mu, sigma(mu, nu))."""

    basis: TensorBasis
    coeffs: np.ndarray  # (n_mu, n_nu) control values of sigma
    margin: float = DEFAULT_MARGIN
    iterations: int = 0

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=float)
        if c.shape != self.basis.shape:
            raise DomainError("control value grid does not match the basis")
        if np.abs(c[:, 0]).max() > 1e-12 or np.abs(c[:, -1] - 1).max() > 1e-12:
            raise ConstraintError("boundary control rows must be pinned to 0 and 1")
        if np.any(np.diff(c, axis=1) <= 0):
            raise ConstraintError("control values must increase along eta")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def sigma_grid(self, mus, nus, dmu: int = 0, dnu: int = 0) -> np.ndarray:
        """sigma (or its derivative) on the tensor grid mus x nus."""
        Bu = basis_matrix(self.basis.xi, mus, der=dmu)
        Bv = basis_matrix(self.basis.eta, nus, der=dnu)
        return Bu @ self.coeffs @ Bv.T

    def feasible(self) -> bool:
        return bool(np.all(np.diff(self.coeffs, axis=1) >= self.margin - 1e-9))


def identity_control(basis: TensorBasis, margin: float = DEFAULT_MARGIN) -> ControlMap:
    """sigma(mu, nu) = nu exactly, via Greville control values."""
    g = greville_abscissae(basis.eta)
    coeffs = np.tile(g, (basis.xi.n, 1))
    return ControlMap(basis, coeffs, margin)


# ---------------------------------------------------------------------------
# composite evaluation
# ---------------------------------------------------------------------------

def folded_cells(det) -> list:
    """Cells (i, j) of a lattice of (n+1) x (n+1) determinant samples that
    have a corner with det <= 0, in row-major order."""
    bad = np.asarray(det) <= 0.0
    cells = bad[:-1, :-1] | bad[1:, :-1] | bad[:-1, 1:] | bad[1:, 1:]
    return [(int(i), int(j)) for i, j in np.argwhere(cells)]


def check_composite_folding(x: SplineMap, s: ControlMap | None,
                            n_samples: int) -> list:
    """Cells of the n x n lattice whose corners carry det d(x o s) <= 0;
    s = None means the identity.  By the chain rule the determinant is
    det J_x at (mu, sigma) times sigma_nu.  This sampled check is the
    oracle of tests and the benchmark, not used by the pipeline."""
    t = np.linspace(0.0, 1.0, n_samples + 1)
    sig, sig_nu = np.tile(t, (len(t), 1)), 1.0
    if s is not None:
        sig = np.clip(s.sigma_grid(t, t), 0.0, 1.0)
        sig_nu = s.sigma_grid(t, t, 0, 1)
    _, det_x = x.jacobian(np.repeat(t, len(t)), sig.ravel())
    return folded_cells(det_x.reshape(sig.shape) * sig_nu)


# ---------------------------------------------------------------------------
# orthogonality cost
# ---------------------------------------------------------------------------

class CostEvaluator:
    """Riemann-sum orthogonality cost and its exact gradient.

    The sample mu-columns are fixed, so each column's eta-splines
    x(mu_a, .) and x_xi(mu_a, .) are fixed piecewise polynomials.  Their
    Taylor coefficients about each knot span's left breakpoint are tabled
    once, and a call reads the slid ordinates (mu_a, sigma_ab) by one
    table lookup and one Horner loop.  With t_mu = x_xi + sigma_mu x_eta and
    t_nu = sigma_nu x_eta, the per-sample dot D = t_mu . t_nu depends on the
    control values through sigma (via x), sigma_mu and sigma_nu, so the
    gradient of 0.5 sum D^2 is three basis contractions of D times the
    partials of D.
    """

    def __init__(self, x: SplineMap, basis: TensorBasis):
        if N_CELLS < 2 * max(basis.shape):
            raise DomainError("sample grid must be at least twice the control "
                              "resolution")
        self.x = x
        t = (np.arange(N_CELLS) + 0.5) / N_CELLS
        self.cell_area = 1.0 / (N_CELLS * N_CELLS)
        self.Bmu = basis_matrix(basis.xi, t, der=0)
        self.Bmu_d = basis_matrix(basis.xi, t, der=1)
        self.Bnu = basis_matrix(basis.eta, t, der=0)
        self.Bnu_d = basis_matrix(basis.eta, t, der=1)
        # eta-spline coefficients per mu-column, x in components 0-1 and
        # x_xi in 2-3, and their Taylor coefficients (derivative k over k!)
        # about the left breakpoints lo of the knot spans
        cp = x.control_points
        coef = np.concatenate(
            [np.einsum("ai,ijd->ajd", basis_matrix(x.basis.xi, t, der), cp)
             for der in (0, 1)], axis=-1)
        kv = x.basis.eta
        p = kv.degree
        self.lo = np.unique(kv.knots[p:kv.n])
        cols, ders = basis_ders_nonzero(kv, self.lo, p)
        factorials = [math.factorial(k) for k in range(p + 1)]
        ders /= np.array(factorials)[:, None, None]
        self.taylor = np.ascontiguousarray(
            np.einsum("ksj,asjc->kcas", ders, coef[:, cols]).reshape(
                p + 1, 4, N_CELLS * len(self.lo)))
        self._row = (np.arange(N_CELLS) * len(self.lo))[:, None]

    def _terms(self, coeffs, partials: bool):
        """Per-sample dots D, the products |t_mu|^2 |t_nu|^2 that bound D^2,
        and, if asked, the partials of D with respect to sigma, sigma_mu and
        sigma_nu."""
        sig = self.Bmu @ coeffs @ self.Bnu.T
        sig_mu = self.Bmu_d @ coeffs @ self.Bnu.T
        sig_nu = self.Bmu @ coeffs @ self.Bnu_d.T
        eta = np.clip(sig, 0.0, 1.0)
        s = np.clip(np.searchsorted(self.lo, eta, "right") - 1,
                    0, len(self.lo) - 1)
        u = eta - self.lo[s]
        c = np.take(self.taylor, self._row + s, axis=2)
        # Horner: value, first derivative and half the second derivative
        val = c[-1]
        d1 = d2 = np.zeros_like(val)
        for k in range(len(c) - 2, -1, -1):
            if partials:
                d2 = d2 * u + d1
            d1 = d1 * u + val
            val = val * u + c[k]
        x_eta, x_xi = d1[:2], val[2:]
        t_mu = (x_xi[0] + sig_mu * x_eta[0], x_xi[1] + sig_mu * x_eta[1])
        t_nu = (sig_nu * x_eta[0], sig_nu * x_eta[1])
        dots = t_mu[0] * t_nu[0] + t_mu[1] * t_nu[1]
        sizes = ((t_mu[0] * t_mu[0] + t_mu[1] * t_mu[1])
                 * (t_nu[0] * t_nu[0] + t_nu[1] * t_nu[1]))
        if not partials:
            return dots, sizes, None
        x_xieta, x_etaeta = d1[2:], 2.0 * d2[:2]
        d_sig = (((x_xieta[0] + sig_mu * x_etaeta[0]) * t_nu[0]
                  + (x_xieta[1] + sig_mu * x_etaeta[1]) * t_nu[1])
                 + (t_mu[0] * (sig_nu * x_etaeta[0])
                    + t_mu[1] * (sig_nu * x_etaeta[1])))
        d_sig[(sig < 0.0) | (sig > 1.0)] = 0.0  # x is read at the clipped sigma
        d_mu = x_eta[0] * t_nu[0] + x_eta[1] * t_nu[1]
        d_nu = t_mu[0] * x_eta[0] + t_mu[1] * x_eta[1]
        return dots, sizes, (d_sig, d_mu, d_nu)

    def _cost(self, dots) -> float:
        return 0.5 * float(np.sum(dots * dots)) * self.cell_area

    def cost_of(self, coeffs: np.ndarray) -> float:
        dots, _, _ = self._terms(coeffs, False)
        return self._cost(dots)

    def cost_and_scale(self, coeffs: np.ndarray):
        """``(cost_of(coeffs), scale)`` from one pass, the scale being
        0.5 sum |t_mu|^2 |t_nu|^2 * area: the cost the same tangents would
        have if each pair were parallel.  It bounds the cost (Cauchy-
        Schwarz) and scales with it, so their ratio is free of the length
        unit."""
        dots, sizes, _ = self._terms(coeffs, False)
        return self._cost(dots), 0.5 * float(np.sum(sizes)) * self.cell_area

    def gradient(self, coeffs: np.ndarray):
        """``(cost_of(coeffs), gradient)`` from one pass, the gradient being
        exact over the interior eta columns."""
        dots, _, (d_sig, d_mu, d_nu) = self._terms(coeffs, True)
        g = (self.Bmu.T @ (dots * d_sig) @ self.Bnu
             + self.Bmu_d.T @ (dots * d_mu) @ self.Bnu
             + self.Bmu.T @ (dots * d_nu) @ self.Bnu_d)
        return self._cost(dots), self.cell_area * g[:, 1:-1].ravel()


def orthogonality_cost(x: SplineMap, s: ControlMap) -> float:
    """0.5 sum over cell centers of (d(x o s)/dmu . d(x o s)/dnu)^2 * area."""
    return CostEvaluator(x, s.basis).cost_of(s.coeffs)


# ---------------------------------------------------------------------------
# constrained optimization
# ---------------------------------------------------------------------------

def _constraint_matrix(n_mu: int, n_nu: int, margin: float):
    """Linear ordering constraints A z >= b on the free (interior eta
    columns) control values, rows ordered per mu-column: the differences
    c[i, j+1] - c[i, j] with pinned c[i, 0] = 0 and c[i, -1] = 1."""
    diff = np.eye(n_nu - 1, n_nu - 2) - np.eye(n_nu - 1, n_nu - 2, k=-1)
    b = np.full((n_mu, n_nu - 1), margin)
    b[:, -1] -= 1.0
    return block_diag(*[diff] * n_mu), b.ravel()


def optimize_control(x: SplineMap, init: ControlMap,
                     max_iter: int = 200) -> ControlMap:
    """Minimize the orthogonality cost over the sliding control values.

    Sequential quadratic programming (SLSQP) on the interior eta columns
    with the start's ordering margin per column as linear inequality
    constraints.  Each SLSQP point takes the cost and its exact gradient
    from one pass of ``CostEvaluator.gradient``.  A start whose cost is
    below 1e-14 of its scale (``cost_and_scale``, one pass) is already
    orthogonal to rounding, at any length unit, and is returned after 0
    iterations.  The returned map is ``feasible()`` and its cost never
    exceeds the initial one; a result short of the margin raises
    ConstraintError (``min_diff``).
    """
    if not init.feasible():
        raise ConstraintError("initial control map violates the ordering margin")
    margin = init.margin
    n_mu, n_nu = init.basis.shape
    ev = CostEvaluator(x, init.basis)
    A, b = _constraint_matrix(n_mu, n_nu, margin)

    def unpack(z):
        c = np.empty((n_mu, n_nu))
        c[:, 0] = 0.0
        c[:, -1] = 1.0
        c[:, 1:-1] = z.reshape(n_mu, n_nu - 2)
        return c

    def fun(z):
        return ev.cost_of(unpack(z))

    def fun_and_jac(z):
        return ev.gradient(unpack(z))

    z0 = init.coeffs[:, 1:-1].ravel().copy()
    f0, scale = ev.cost_and_scale(unpack(z0))
    if f0 <= 1e-14 * scale:
        return ControlMap(init.basis, init.coeffs, margin, iterations=0)
    cons = [{"type": "ineq", "fun": lambda z: A @ z - b, "jac": lambda z: A}]
    res = minimize(fun_and_jac, z0, jac=True, method="SLSQP", constraints=cons,
                   options={"maxiter": max_iter, "ftol": 1e-8 * max(f0, 1e-30)})
    z = res.x
    if fun(z) > f0:
        z = z0  # never return a worse map than the start
    out = ControlMap(init.basis, unpack(z), margin, iterations=int(res.nit))
    # SLSQP's own feasibility slack may leave a gap just short of the margin
    if not out.feasible():
        raise ConstraintError("optimizer left the feasible region",
                              min_diff=float(np.diff(out.coeffs, axis=1).min()))
    return out
