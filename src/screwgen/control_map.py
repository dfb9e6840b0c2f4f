"""Orthogonality control mapping.

A control map is a unit-square self-map s(mu, nu) = (mu, sigma(mu, nu))
that slides grid lines in the eta direction only.  Its scalar field sigma
is spanned by an independent (low-order) tensor basis whose first and last
eta control columns are pinned to 0 and 1; per-column ordering of the
remaining control values with a positive margin is a sufficient linear
condition for bijectivity.  The control values minimize a discrete Riemann
sum of the squared dot product D between the composite map's mu- and
nu-derivatives, which maximizes grid orthogonality.

The cost 0.5 sum D^2 * area is a least-squares sum, so ``optimize_control``
runs Gauss-Newton damped by Levenberg-Marquardt (Nocedal & Wright,
*Numerical Optimization*, ch. 10).  Each sample's D depends on the control
values only through sigma, sigma_mu and sigma_nu, each of which pairs one
mu row with one nu row of the fixed sample matrices, so the Gauss-Newton
matrix J^T J is a sum of Kronecker products of their row-wise products,
weighted per sample by products of D's partials.  The ordering constraints
are handled by a primal active set (ch. 16) on one gap operator D, which
maps a step on the interior values to the change of every gap.  The damped
matrix K is fixed within a step, so the step makes one solve with K, and
each pass solves only the Schur system of its working gaps for their
multipliers (range-space form, section 16.2); a ratio test on D p keeps
every other gap at or above the margin.  The loop works on the cost divided
by its start value, which is free of the length unit, and stops once a step
lowers it by less than a fixed share.

Each point costs one pass over the samples, which gives its cost and the
partials its gradient needs: ``CostEvaluator.cost_of`` returns the pass
with the cost, and the caller hands that pass to ``gradient``, so a trial's
cost and, once it is taken, its gradient come from the same pass.  The
sample rows of each knot vector of the control basis and of the map's xi
basis, all fixed for a geometry, are built once by ``_column_rows`` and
shared through ``splines.basis_tables``, keyed by the knot vector and
bounded by TABLE_CACHE_SIZE entries; nothing is keyed by the per-angle eta
knots.

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

from .errors import ConstraintError, DomainError
from .splines import (SplineMap, TensorBasis, basis_ders_nonzero, basis_matrix,
                      basis_tables, greville_abscissae, uniform_knots)

DEFAULT_MARGIN = 1e-3
N_CELLS = 64   # cost sample cells per direction
# optimize_control stops once a step lowers the cost by less than this share
# of the start cost
STOP_DECREASE = 5e-3
# initial Levenberg-Marquardt damping, relative to the largest diagonal
# entry of the Gauss-Newton matrix
DAMPING = 1e-4


def default_control_basis() -> TensorBasis:
    """Biquadratic basis with 8 uniform spans per direction."""
    return TensorBasis(uniform_knots(2, 8), uniform_knots(2, 8))


@dataclass(frozen=True, eq=False)
class ControlMap:
    """Unit-square self-map sliding in eta: s(mu, nu) = (mu, sigma(mu, nu))."""

    basis: TensorBasis
    coeffs: np.ndarray  # (n_mu, n_nu) control values of sigma
    margin: float = DEFAULT_MARGIN
    iterations: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ConstraintError("margin must be a positive finite number",
                                  margin=self.margin)
        c = np.ascontiguousarray(self.coeffs, dtype=float)
        if c.shape != self.basis.shape:
            raise DomainError("control value grid does not match the basis")
        if not np.all(np.isfinite(c)):
            raise DomainError("control values must be finite")
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

def check_composite_folding(x: SplineMap, s: ControlMap,
                            n_samples: int) -> list:
    """Cells (i, j), row-major, of the n x n lattice that have a corner
    with det d(x o s) <= 0; the identity control map (``identity_control``)
    checks x itself.  By the chain rule the determinant is det J_x at
    (mu, sigma) times sigma_nu.  This sampled check is the oracle of tests
    and the benchmark, not used by the pipeline."""
    t = np.linspace(0.0, 1.0, n_samples + 1)
    sig = np.clip(s.sigma_grid(t, t), 0.0, 1.0)
    _, det_x = x.jacobian(np.repeat(t, len(t)), sig.ravel())
    bad = det_x.reshape(sig.shape) * s.sigma_grid(t, t, 0, 1) <= 0.0
    cells = bad[:-1, :-1] | bad[1:, :-1] | bad[:-1, 1:] | bad[1:, 1:]
    return [(int(i), int(j)) for i, j in np.argwhere(cells)]


# ---------------------------------------------------------------------------
# orthogonality cost
# ---------------------------------------------------------------------------

def _column_rows(kv):
    """The rows of a basis and of its derivative at the sample columns, the
    cell centers of one direction."""
    t = (np.arange(N_CELLS) + 0.5) / N_CELLS
    return basis_matrix(kv, t, der=0), basis_matrix(kv, t, der=1)


def _gauss_newton_tables(kv_mu, kv_nu):
    """The row-wise products of the sample matrices of one control basis
    through which D depends on the control values, A = (Bmu, Bmu_d, Bmu)
    and B = (Bnu, Bnu, Bnu_d), B on the interior eta columns.  For each
    pair (k, l) of ``np.triu_indices(3)``, AA[kl][(i, i'), a] = A_k[a, i]
    A_l[a, i'], (6, n_mu^2, N_CELLS), and BB[kl][b, (j, j')] = B_k[b, j]
    B_l[b, j'], (6, N_CELLS, (n_nu - 2)^2)."""
    (Bmu, Bmu_d), (Bnu, Bnu_d) = (basis_tables(_column_rows, kv)
                                  for kv in (kv_mu, kv_nu))
    A = np.stack([Bmu, Bmu_d, Bmu])
    B = np.stack([Bnu, Bnu, Bnu_d])[:, :, 1:-1]
    k, l = np.triu_indices(3)
    AA = np.einsum("kai,kaj->kija", A[k], A[l]).reshape(len(k), -1, N_CELLS)
    BB = np.einsum("kbi,kbj->kbij", B[k], B[l]).reshape(len(k), N_CELLS, -1)
    return AA, BB


class CostEvaluator:
    """Riemann-sum orthogonality cost, its exact gradient and its
    Gauss-Newton matrix.

    The sample mu-columns are fixed, so each column's eta-splines
    x(mu_a, .) and x_xi(mu_a, .) are fixed piecewise polynomials.  Their
    Taylor coefficients about each knot span's left breakpoint are tabled
    once, and a call reads the slid ordinates (mu_a, sigma_ab) by one
    table lookup and one Horner loop.  With t_mu = x_xi + sigma_mu x_eta and
    t_nu = sigma_nu x_eta, the per-sample dot D = t_mu . t_nu depends on the
    control values through sigma (via x), sigma_mu and sigma_nu, so the
    gradient of 0.5 sum D^2 is three basis contractions of D times the
    partials of D.  The same partials give the Jacobian of D on the
    interior control values, J = sum_k diag(d_k) (A_k kron B_k) with A =
    (Bmu, Bmu_d, Bmu) and B = (Bnu, Bnu, Bnu_d), so the (k, l) block of
    J^T J is AA_kl (d_k d_l) BB_kl on the row-wise products that
    ``_gauss_newton_tables`` tables: six batched pairs of matrix products.

    Each point costs one pass, and the evaluator keeps none: ``cost_of``
    returns the cost with the pass that gave it, a dict of the dots, the
    sizes and the partials, computed together from the derivatives of x it
    reads, and ``gradient`` takes that pass, as ``egg_solve`` hands its
    fields from the residual to the Newton matrix.  The sample rows of
    each knot vector of the control basis and of the map's xi basis depend
    on that knot vector alone and come from ``_column_rows`` through
    ``splines.basis_tables``, shared by every evaluator over equal knot
    vectors; the Gauss-Newton products (``_gauss_newton_tables``, about
    0.5 MB on the default control basis) are fetched by ``gradient`` alone,
    so evaluating the cost never builds them.  The Taylor tables depend on
    the map's net and are built per evaluator.
    """

    def __init__(self, x: SplineMap, basis: TensorBasis):
        if N_CELLS < 2 * max(basis.shape):
            raise DomainError("sample grid must be at least twice the control "
                              "resolution")
        self.x = x
        self.cell_area = 1.0 / (N_CELLS * N_CELLS)
        self.basis = basis
        self.Bmu, self.Bmu_d = basis_tables(_column_rows, basis.xi)
        self.Bnu, self.Bnu_d = basis_tables(_column_rows, basis.eta)
        self.n_free = basis.xi.n * (basis.eta.n - 2)
        # eta-spline coefficients per mu-column, x in components 0-1 and
        # x_xi in 2-3, and their Taylor coefficients (derivative k over k!)
        # about the left breakpoints lo of the knot spans
        cp = x.control_points
        coef = np.concatenate(
            [np.einsum("ai,ijd->ajd", rows, cp)
             for rows in basis_tables(_column_rows, x.basis.xi)], axis=-1)
        kv = x.basis.eta
        p = kv.degree
        self.lo = kv.breakpoints[:-1]
        cols, ders = basis_ders_nonzero(kv, self.lo, p)
        factorials = [math.factorial(k) for k in range(p + 1)]
        ders /= np.array(factorials)[:, None, None]
        self.taylor = np.ascontiguousarray(
            np.einsum("ksj,asjc->kcas", ders, coef[:, cols]).reshape(
                p + 1, 4, N_CELLS * len(self.lo)))
        self._row = (np.arange(N_CELLS) * len(self.lo))[:, None]

    def _terms(self, coeffs):
        """One pass over the samples: per-sample dots D, the products
        |t_mu|^2 |t_nu|^2 that bound D^2, and the partials of D with
        respect to sigma, sigma_mu and sigma_nu, from the derivatives of x
        and x_xi the pass reads.  The Taylor gather is not returned:
        holding it between calls makes the next passes fault in fresh
        pages."""
        sig = self.Bmu @ coeffs @ self.Bnu.T
        sig_mu = self.Bmu_d @ coeffs @ self.Bnu.T
        sig_nu = self.Bmu @ coeffs @ self.Bnu_d.T
        eta = np.clip(sig, 0.0, 1.0)
        s = np.clip(np.searchsorted(self.lo, eta, "right") - 1,
                    0, len(self.lo) - 1)
        u = eta - self.lo[s]
        c = np.take(self.taylor, self._row + s, axis=2)
        # Horner: value and first derivative, and half the second
        # derivative of x from the coefficients k (k - 1) / 2 c_k
        val, d1 = c[-1], np.zeros_like(c[-1])
        for k in range(len(c) - 2, -1, -1):
            d1 = d1 * u + val
            val = val * u + c[k]
        p = len(c) - 1
        half = math.comb(p, 2) * c[p, :2]
        for k in range(p - 1, 1, -1):
            half = half * u + math.comb(k, 2) * c[k, :2]
        x_eta, x_xieta, x_xi = d1[:2], d1[2:], val[2:]
        t_mu = x_xi + sig_mu * x_eta
        t_nu = sig_nu * x_eta
        d_sig = (x_xieta * t_nu
                 + 2.0 * half * (sig_mu * t_nu + sig_nu * t_mu)).sum(axis=0)
        # x is read at the clipped sigma
        d_sig[(sig < 0.0) | (sig > 1.0)] = 0.0
        return {"dots": (t_mu * t_nu).sum(axis=0),
                "sizes": (t_mu * t_mu).sum(axis=0) * (t_nu * t_nu).sum(axis=0),
                "partials": (d_sig, (x_eta * t_nu).sum(axis=0),
                             (t_mu * x_eta).sum(axis=0))}

    def cost_of(self, coeffs: np.ndarray):
        """``(cost, terms)``: the cost at the control values and the sample
        pass that gave it, which ``gradient`` takes."""
        terms = self._terms(coeffs)
        dots = terms["dots"]
        return 0.5 * float(np.sum(dots * dots)) * self.cell_area, terms

    def gradient(self, terms):
        """``(gradient, J^T J * area)`` at the pass ``terms`` that
        ``cost_of`` returned, both exact over the interior eta columns
        (raveled row-major)."""
        dots = terms["dots"]
        d_sig, d_mu, d_nu = terms["partials"]
        g = (self.Bmu.T @ (dots * d_sig) @ self.Bnu
             + self.Bmu_d.T @ (dots * d_mu) @ self.Bnu
             + self.Bmu.T @ (dots * d_nu) @ self.Bnu_d)
        # the (k, l) block of J^T J is sum_ab A_k[a, i] A_l[a, i'] d_k d_l
        # B_k[b, j] B_l[b, j'], and the (l, k) block its transpose; adding
        # the off-diagonal blocks to their transpose before the diagonal
        # ones keeps the matrix exactly symmetric
        d = np.stack(terms["partials"])
        k, l = np.triu_indices(3)
        n_mu, m = self.basis.xi.n, self.basis.eta.n - 2
        AA, BB = basis_tables(_gauss_newton_tables, self.basis.xi,
                              self.basis.eta)
        blocks = ((AA @ (d[k] * d[l])) @ BB).reshape(
            len(k), n_mu, n_mu, m, m)
        off = blocks[k != l].sum(axis=0)
        normal = (off + off.transpose(1, 0, 3, 2)
                  + blocks[k == l].sum(axis=0)).transpose(0, 2, 1, 3).reshape(
            self.n_free, self.n_free)
        return self.cell_area * g[:, 1:-1].ravel(), self.cell_area * normal


def orthogonality_cost(x: SplineMap, s: ControlMap) -> float:
    """0.5 sum over cell centers of (d(x o s)/dmu . d(x o s)/dnu)^2 * area."""
    return CostEvaluator(x, s.basis).cost_of(s.coeffs)[0]


# ---------------------------------------------------------------------------
# constrained optimization
# ---------------------------------------------------------------------------

def _qp_step(g, K, slack, active):
    """The step s minimizing g.s + s.K.s / 2 with every gap kept at or
    above the margin, by a primal active set from s = 0 (Nocedal & Wright,
    Algorithm 16.3).

    ``slack`` holds each gap's excess over the margin and ``active`` the
    start's working set of gaps held at the margin, both (rows, gaps).  The
    gap operator D maps a step on the interior values to the change of
    every gap; a pinned end column contributes nothing.  K is positive
    definite and fixed for the call, so the KKT system of a pass on the
    working rows W of D,

        K p - D_W^T lam = -(g + K s),   D_W p = 0,

    is solved in range-space form (ibid., section 16.2): one solve with K
    per call, Z = K^-1 [D^T, g], gives p = Z_W lam - (K^-1 g + s), and
    each pass solves only the m x m Schur system of its m working gaps,
    (D_W Z_W) lam = D_W (K^-1 g + s).  A ratio test on D p stops the step
    at the first inactive gap it would close past the margin and adds that
    gap; a full step ends the search unless a multiplier is negative, and
    the most negative one's gap then drops.  Returns the step and its
    working set.
    """
    n_mu, n_gaps = active.shape
    # free value k = c[i, j + 1] raises gap (i, j) and lowers gap (i, j + 1)
    D = np.zeros((n_mu * n_gaps, len(g)))
    k = np.arange(len(g))
    D[k + k // (n_gaps - 1), k] = 1.0
    D[k + k // (n_gaps - 1) + 1, k] = -1.0
    Z = np.linalg.solve(K, np.column_stack([D.T, g]))
    Z, Kg = Z[:, :-1], Z[:, -1]
    DZ = D @ Z
    work, slack = active.flatten(), slack.flatten()
    s = np.zeros(len(g))
    for _ in range(2 * work.size):
        # the Schur matrix is singular only if every gap of a row is
        # working, which cannot happen: a step keeps each row's total slack
        # at 1 - n_gaps * margin > 0, so some gap of the row stays above it
        y = Kg + s
        lam = np.linalg.solve(DZ[np.ix_(work, work)], D[work] @ y)
        p = Z[:, work] @ lam - y
        dgap = D @ p
        closing = np.flatnonzero(~work & (dgap < 0.0))
        room = np.maximum(slack[closing], 0.0) / -dgap[closing]
        if room.size and room.min() < 1.0:
            k = int(np.argmin(room))
            s += room[k] * p
            slack += room[k] * dgap
            slack[closing[k]] = 0.0
            work[closing[k]] = True
            continue
        s += p
        slack += dgap
        if not lam.size or lam.min() >= 0.0:
            break
        work[np.flatnonzero(work)[np.argmin(lam)]] = False
    return s, work.reshape(n_mu, n_gaps)


def optimize_control(x: SplineMap, init: ControlMap,
                     max_iter: int = 200) -> ControlMap:
    """Minimize the orthogonality cost over the sliding control values.

    Gauss-Newton damped by Levenberg-Marquardt on the interior eta columns,
    on the cost divided by its start value: a scaled map takes the same
    steps.  Each iteration solves the damped model over the ordering
    constraints by a primal active set (``_qp_step``: one solve with the
    damped matrix, then one small Schur solve per pass) and pays one
    ``CostEvaluator.cost_of`` for the trial.  A trial that lowers the cost
    is taken, and ``CostEvaluator.gradient`` gives the gradient and J^T J
    at the new point from the trial's own pass, which ``cost_of`` returned,
    so a call runs the sample pass iterations + 1 times; the damping
    shrinks as far as the model predicted the decrease.  Otherwise the
    damping grows.  The loop stops once a step lowers the normalized cost
    by less than STOP_DECREASE, or a rejected trial's model predicts less,
    or after ``max_iter`` trials.  A start whose cost is below 1e-14 of its
    scale is already orthogonal to rounding, at any length unit, and is
    returned after 0 iterations.  The scale, read from the start's pass, is
    0.5 sum |t_mu|^2 |t_nu|^2 * area: the cost the same tangents would have
    if each pair were parallel.  It bounds the cost (Cauchy-Schwarz) and
    scales with it, so their ratio is free of the length unit.

    Every trial keeps the active gaps at the margin and the others above
    it, so the returned map is ``feasible()`` by construction, and its
    cost never exceeds the initial one; a result short of the margin
    raises ConstraintError (``min_diff``).
    """
    if not init.feasible():
        raise ConstraintError("initial control map violates the ordering margin")
    basis, margin = init.basis, init.margin
    n_mu = basis.shape[0]
    ev = CostEvaluator(x, basis)
    c = np.array(init.coeffs)
    f0, terms = ev.cost_of(c)
    scale = 0.5 * float(np.sum(terms["sizes"])) * ev.cell_area
    if f0 <= 1e-14 * scale:
        return ControlMap(basis, init.coeffs, margin, iterations=0)
    g, H = ev.gradient(terms)
    f, g, H = 1.0, g / f0, H / f0
    active = np.diff(c, axis=1) <= margin
    damping, growth = DAMPING * float(H.diagonal().max()), 2.0
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        K = H + damping * np.eye(len(g))
        s, work = _qp_step(g, K, np.diff(c, axis=1) - margin, active)
        predicted = -(g @ s + 0.5 * s @ H @ s)
        trial = c.copy()
        trial[:, 1:-1] += s.reshape(n_mu, -1)
        f_trial, terms = ev.cost_of(trial)
        f_trial /= f0
        if f_trial >= f:
            if predicted < STOP_DECREASE:
                break
            damping *= growth
            growth *= 2.0
            continue
        rho = (f - f_trial) / predicted
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        growth = 2.0
        converged = f - f_trial < STOP_DECREASE
        c, f, active = trial, f_trial, work
        if converged:
            break
        g, H = ev.gradient(terms)
        g, H = g / f0, H / f0
    out = ControlMap(basis, c, margin, iterations=iterations)
    if not out.feasible():
        raise ConstraintError("optimizer left the feasible region",
                              min_diff=float(np.diff(out.coeffs, axis=1).min()))
    return out
