"""Orthogonality control mapping.

A control map is a unit-square self-map s(mu, nu) = (mu, sigma(mu, nu))
that slides grid lines in the eta direction only.  Its scalar field sigma
is spanned by an independent (low-order) tensor basis whose first and last
eta control columns are pinned to 0 and 1; per-column ordering of the
remaining control values with a positive margin is a sufficient linear
condition for bijectivity.  The control values minimize a discrete Riemann
sum of the squared dot product between the composite map's mu- and
nu-derivatives, which maximizes grid orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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

    The sample mu-columns are fixed, so the map's xi-contraction is done
    once; each call only evaluates eta-direction splines at the slid
    ordinates (mu_a, sigma_ab).  With t_mu = x_xi + sigma_mu x_eta and
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
        self.basis = basis
        t = (np.arange(N_CELLS) + 0.5) / N_CELLS
        self.cell_area = 1.0 / (N_CELLS * N_CELLS)
        Bx = basis_matrix(x.basis.xi, t, der=0)
        Bxd = basis_matrix(x.basis.xi, t, der=1)
        # eta-spline coefficient stacks per mu-column: x and x_xi
        self.coef_x = np.einsum("ai,ijd->ajd", Bx, x.control_points)
        self.coef_xxi = np.einsum("ai,ijd->ajd", Bxd, x.control_points)
        self.Bmu = basis_matrix(basis.xi, t, der=0)
        self.Bmu_d = basis_matrix(basis.xi, t, der=1)
        self.Bnu = basis_matrix(basis.eta, t, der=0)
        self.Bnu_d = basis_matrix(basis.eta, t, der=1)
        self.eta_kv = x.basis.eta
        self._col = np.repeat(np.arange(N_CELLS), N_CELLS)

    def _terms(self, coeffs, partials: bool):
        """Per-sample dots D and, if asked, the partials of D with respect
        to sigma, sigma_mu and sigma_nu."""
        sig = self.Bmu @ coeffs @ self.Bnu.T
        sig_mu = self.Bmu_d @ coeffs @ self.Bnu.T
        sig_nu = self.Bmu @ coeffs @ self.Bnu_d.T
        eta = np.clip(sig.ravel(), 0.0, 1.0)
        spans, ders = basis_ders_nonzero(self.eta_kv, eta, 2 if partials else 1)
        p = self.eta_kv.degree
        win = spans[:, None] + np.arange(-p, 1)[None, :]
        cx = self.coef_xxi[self._col[:, None], win]
        ce = self.coef_x[self._col[:, None], win]

        def eta_der(k, c):
            return np.einsum("mj,mjd->md", ders[k], c).reshape(sig.shape + (2,))

        x_xi, x_eta = eta_der(0, cx), eta_der(1, ce)
        t_mu = x_xi + sig_mu[..., None] * x_eta
        t_nu = sig_nu[..., None] * x_eta
        dots = np.einsum("abd,abd->ab", t_mu, t_nu)
        if not partials:
            return dots, None
        x_xieta, x_etaeta = eta_der(1, cx), eta_der(2, ce)
        d_sig = (np.einsum("abd,abd->ab", x_xieta + sig_mu[..., None] * x_etaeta,
                           t_nu)
                 + np.einsum("abd,abd->ab", t_mu, sig_nu[..., None] * x_etaeta))
        d_sig[(sig < 0.0) | (sig > 1.0)] = 0.0  # x is read at the clipped sigma
        d_mu = np.einsum("abd,abd->ab", x_eta, t_nu)
        d_nu = np.einsum("abd,abd->ab", t_mu, x_eta)
        return dots, (d_sig, d_mu, d_nu)

    def cost_of(self, coeffs: np.ndarray) -> float:
        dots, _ = self._terms(coeffs, False)
        return 0.5 * float(np.sum(dots * dots)) * self.cell_area

    def gradient(self, coeffs: np.ndarray) -> np.ndarray:
        """Exact gradient of ``cost_of`` over the interior eta columns."""
        dots, (d_sig, d_mu, d_nu) = self._terms(coeffs, True)
        g = (self.Bmu.T @ (dots * d_sig) @ self.Bnu
             + self.Bmu_d.T @ (dots * d_mu) @ self.Bnu
             + self.Bmu.T @ (dots * d_nu) @ self.Bnu_d)
        return self.cell_area * g[:, 1:-1].ravel()


def orthogonality_cost(x: SplineMap, s: ControlMap) -> float:
    """0.5 sum over cell centers of (d(x o s)/dmu . d(x o s)/dnu)^2 * area."""
    return CostEvaluator(x, s.basis).cost_of(s.coeffs)


# ---------------------------------------------------------------------------
# constrained optimization
# ---------------------------------------------------------------------------

def _constraint_matrix(n_mu: int, n_nu: int, margin: float):
    """Linear ordering constraints A z >= b on the free (interior eta
    columns) control values, rows ordered per mu-column."""
    n_free = n_nu - 2
    nz = n_mu * n_free
    A = np.zeros((n_mu * (n_nu - 1), nz))
    b = np.full(n_mu * (n_nu - 1), margin)
    for i in range(n_mu):
        for j in range(n_nu - 1):
            row = i * (n_nu - 1) + j
            # difference c[i, j+1] - c[i, j] with pinned c[i,0]=0, c[i,-1]=1
            if j + 1 <= n_free:
                A[row, i * n_free + j] += 1.0
            else:
                b[row] -= 1.0  # c[i, -1] = 1
            if 1 <= j:
                A[row, i * n_free + j - 1] -= 1.0
    return A, b


def optimize_control(x: SplineMap, init: ControlMap,
                     max_iter: int = 200) -> ControlMap:
    """Minimize the orthogonality cost over the sliding control values.

    Sequential quadratic programming (SLSQP) on the interior eta columns
    with the start's ordering margin per column as linear inequality
    constraints and the exact gradient of the Riemann-sum cost.  Every
    accepted iterate stays feasible and the returned cost never exceeds
    the initial one.
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

    def jac(z):
        return ev.gradient(unpack(z))

    z0 = init.coeffs[:, 1:-1].ravel().copy()
    f0 = fun(z0)
    if f0 <= 1e-14:
        return ControlMap(init.basis, init.coeffs, margin, iterations=0)
    cons = [{"type": "ineq", "fun": lambda z: A @ z - b, "jac": lambda z: A}]
    res = minimize(fun, z0, jac=jac, method="SLSQP", constraints=cons,
                   options={"maxiter": max_iter, "ftol": 1e-8 * max(f0, 1e-30)})
    z = res.x
    if fun(z) > f0:
        z = z0  # never return a worse map than the start
    coeffs = unpack(z)
    # repair sub-tolerance constraint drift from the SQP's own feasibility slack
    diffs = np.diff(coeffs, axis=1)
    if diffs.min() < margin - 1e-7:
        raise ConstraintError("optimizer left the feasible region",
                              min_diff=float(diffs.min()))
    for j in range(1, n_nu - 1):
        lo = coeffs[:, j - 1] + max(margin - 1e-7, 1e-12)
        coeffs[:, j] = np.maximum(coeffs[:, j], lo)
    return ControlMap(init.basis, coeffs, margin,
                      iterations=int(res.nit))
