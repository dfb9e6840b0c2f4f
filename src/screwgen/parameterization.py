"""Patch parameterization: transfinite interpolation, separator boundary
assembly, the auxiliary-variable elliptic grid generation (EGG) solve with
folding repair, and the one sign certificate behind every fold check.

The certificate proves a spline quantity positive on each knot span by its
Bernstein coefficients, halving by de Casteljau where they are inconclusive.
It checks ruled (C-grid) maps, the separator's west/east boundaries (whose
backtracking admits no fold-free interior map) and the det J of EGG maps.

The EGG solve, ``egg_solve(initial)``, takes the initial map (the
transfinite blend of the boundaries) and builds everything else it uses
itself: the auxiliary space, the one assembly, epsilon and the starting
auxiliary field.  It drives the inner control points of the map so that
the inverse map components become harmonic.  The second xi-derivatives
are eliminated through an auxiliary field u living on a degree-elevated
space with a C0 macro split at xi = 0.5, which admits the kinked separator
boundaries.  The weak system is solved by Newton iteration with an analytic
linearization and a backtracking line search.  The Newton unknowns are
numbered eta-slow, so the Jacobian is banded with half-bandwidths fixed by
the xi width; its sparsity pattern and iterate-independent blocks are laid
out once per space pair, and each step is one LAPACK band solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from .errors import (BasisMismatchError, FoldingUnrepairedError,
                     MatchingError, NonconvergenceError, StructureError,
                     TopologyError)
from .fitting import fit_curve
from .splines import (KNOT_TOL, KnotVector, SplineCurve, SplineMap,
                      TensorBasis, basis_ders_nonzero, greville_abscissae,
                      open_knots, unique_knots)

NEWTON_TOL = 1e-8     # residual reduction target of the EGG Newton solve
MAX_NEWTON_ITER = 50  # Newton steps of one EGG solve
MAX_HALVINGS = 20     # line-search step halvings per Newton step
REPAIR_ROUNDS = 3     # knot-insertion rounds of the folding repair
MAX_DEPTH = 20        # subdivision rounds of the Bernstein sign certificate


@dataclass(frozen=True)
class BoundarySet:
    """Four boundary curves of a patch.

    gamma_s / gamma_n run in xi (west to east) on eta = 0 / 1;
    gamma_w / gamma_e run in eta (south to north) on xi = 0 / 1.
    """

    gamma_w: SplineCurve
    gamma_e: SplineCurve
    gamma_s: SplineCurve
    gamma_n: SplineCurve
    corner_tol: float = 1e-10

    def corners(self):
        """Corner points p00, p10, p01, p11, validated for consistency."""
        w, e, s, n = self.gamma_w, self.gamma_e, self.gamma_s, self.gamma_n
        p00 = s.control_points[0]
        p10 = s.control_points[-1]
        p01 = n.control_points[0]
        p11 = n.control_points[-1]
        scale = max(1.0, np.abs(np.array([p00, p10, p01, p11])).max())
        for got, want, name in ((w.control_points[0], p00, "w(0)=s(0)"),
                                (w.control_points[-1], p01, "w(1)=n(0)"),
                                (e.control_points[0], p10, "e(0)=s(1)"),
                                (e.control_points[-1], p11, "e(1)=n(1)")):
            if np.linalg.norm(got - want) > self.corner_tol * scale:
                raise TopologyError(
                    f"boundary corners disagree at {name}",
                    gap=float(np.linalg.norm(got - want)))
        return p00, p10, p01, p11


@dataclass(frozen=True)
class PatchParameterization:
    map: SplineMap
    iterations: int = 0
    residual_history: tuple = ()


def _same_knots(a: KnotVector, b: KnotVector) -> bool:
    return a.degree == b.degree and len(a.knots) == len(b.knots) \
        and np.abs(a.knots - b.knots).max() <= KNOT_TOL


# ---------------------------------------------------------------------------
# transfinite interpolation
# ---------------------------------------------------------------------------

def transfinite(bounds: BoundarySet, basis: TensorBasis) -> SplineMap:
    """Spline transfinite interpolation of the four boundary curves.

    The blending factors are linear, so collocating them at the Greville
    abscissae yields the exact spline representation of the boundary blend;
    boundary control rows reproduce the input curves verbatim.
    """
    w, e, s, n = bounds.gamma_w, bounds.gamma_e, bounds.gamma_s, bounds.gamma_n
    for curve, kv, name in ((w, basis.eta, "west"), (e, basis.eta, "east"),
                            (s, basis.xi, "south"), (n, basis.xi, "north")):
        if not _same_knots(curve.basis, kv):
            raise BasisMismatchError(
                f"{name} boundary curve does not live in the patch basis")
    gx, ge = basis.greville_grid()
    cp = np.zeros((basis.xi.n, basis.eta.n, 2))
    p00, p10, p01, p11 = bounds.corners()
    cp += (1 - gx)[:, None, None] * w.control_points[None, :, :]
    cp += gx[:, None, None] * e.control_points[None, :, :]
    cp += (1 - ge)[None, :, None] * s.control_points[:, None, :]
    cp += ge[None, :, None] * n.control_points[:, None, :]
    cp -= np.einsum("a,b,d->abd", 1 - gx, 1 - ge, p00)
    cp -= np.einsum("a,b,d->abd", gx, ge, p11)
    cp -= np.einsum("a,b,d->abd", gx, 1 - ge, p10)
    cp -= np.einsum("a,b,d->abd", 1 - gx, ge, p01)
    return SplineMap(basis, cp)


# ---------------------------------------------------------------------------
# Bernstein sign certificate and the checks of ruled maps and boundaries
# ---------------------------------------------------------------------------

def _bezier(kv: KnotVector, cp):
    """Knot spans (lo, hi) and the Bezier control points (spans, p+1, ...)
    of the spline with control points cp along their leading axis: the
    blossoms f(lo^(p-j), hi^j), by de Boor's algorithm on all spans at once."""
    p, t = kv.degree, kv.knots
    vals, counts = unique_knots(t)
    k = np.cumsum(counts)[:-1] - 1          # last knot index of each span
    shape = (-1,) + (1,) * (cp.ndim - 1)
    segs = []
    for j in range(p + 1):
        d = [cp[k - p + i] for i in range(p + 1)]
        for r in range(1, p + 1):
            x = vals[:-1] if r <= p - j else vals[1:]
            for i in range(p, r - 1, -1):
                left, right = t[k - p + i], t[k + i + 1 - r]
                a = ((x - left) / (right - left)).reshape(shape)
                d[i] = (1 - a) * d[i - 1] + a * d[i]
        segs.append(d[p])
    return vals[:-1], vals[1:], np.stack(segs, axis=1)


def _bernstein_cross(a, b):
    """Bernstein coefficients of a x b from those of the planar polynomials
    a (boxes, m_1+1, ..., 2) and b (boxes, n_1+1, ..., 2), contracting one
    parameter at a time with the weights C(m,i) C(n,j) / C(m+n,i+j)."""
    d = a.ndim - 2
    ea, eb = (...,) + (None,) * d, (slice(None),) + (None,) * d + (...,)
    prod = a[ea + (0,)] * b[eb + (1,)] - a[ea + (1,)] * b[eb + (0,)]
    for k in range(d):
        m, n = a.shape[1 + k] - 1, b.shape[1 + k] - 1
        weight = np.zeros(((m + 1) * (n + 1), m + n + 1))
        for i, j in np.ndindex(m + 1, n + 1):
            weight[i * (n + 1) + j, i + j] = comb(m, i) * comb(n, j)
        weight /= [comb(m + n, r) for r in range(m + n + 1)]
        # parameter k's axes of a and b go last and become the product's
        prod = np.moveaxis(prod, (1, 1 + d - k), (-2, -1))
        prod = prod.reshape(prod.shape[:-2] + (-1,)) @ weight
    return prod


def _halve(coeffs):
    """de Casteljau split at the midpoint of axis 1 of each box's Bernstein
    coefficients: (left halves, right halves)."""
    left, right = [coeffs[:, 0]], [coeffs[:, -1]]
    work = coeffs
    for _ in range(coeffs.shape[1] - 1):
        work = 0.5 * (work[:, :-1] + work[:, 1:])
        left.append(work[:, 0])
        right.append(work[:, -1])
    return np.stack(left, axis=1), np.stack(right[::-1], axis=1)


def _certify(box, coeffs):
    """(box, origin, least) of the boxes (boxes, 2, d) on which a
    polynomial with Bernstein coefficients coeffs is not certified
    positive, the input box each lies in and its least corner value.

    A corner value (an exact value) <= 0 or a non-finite coefficient
    rejects a box (least not > 0), positive coefficients certify it, and
    any other box is halved along the d parameters in turn.  Boxes open
    after MAX_DEPTH rounds stay uncertified: the cap bounds the work where
    the polynomial touches zero along a curve.
    """
    d = coeffs.ndim - 1
    origin, failed = np.arange(len(coeffs)), []
    for depth in range(MAX_DEPTH + 1):
        flat = coeffs.reshape(len(coeffs), -1)
        corners = coeffs[(slice(None),) + np.ix_(*[[0, -1]] * d)]
        least = corners.reshape(len(coeffs), -1).min(axis=1)
        least[~np.all(np.isfinite(flat), axis=1)] = np.nan
        positive = np.all(flat > 0, axis=1)
        bad = ~(least > 0) | ((depth == MAX_DEPTH) & ~positive)
        open_ = ~bad & ~positive
        failed.append((box[bad], origin[bad], least[bad]))
        if not np.any(open_):
            return tuple(np.concatenate(part) for part in zip(*failed))
        box, origin, axis = box[open_], origin[open_], depth % d
        halves = _halve(np.moveaxis(coeffs[open_], axis + 1, 1))
        coeffs = np.moveaxis(np.concatenate(halves), 1, axis + 1)
        left, right = box.copy(), box.copy()
        left[:, 1, axis] = right[:, 0, axis] = box[:, :, axis].mean(axis=1)
        box, origin = np.concatenate([left, right]), np.tile(origin, 2)


def _require_one_sign(lo, hi, coeffs, messages, key, **details):
    """Raise MatchingError unless the polynomials with Bernstein
    coefficients (spans, n) on [lo, hi] keep the sign of their joint
    integral: messages[0] if one has a wrong-signed exact value, else
    messages[1]; the failed intervals and the least signed value at their
    ends (``key``) go into the details."""
    coeffs = coeffs * np.sign(np.sum((hi - lo) * coeffs.sum(axis=1)))
    box, _, least = _certify(np.stack([lo, hi], 1)[..., None], coeffs)
    wrong = ~(least > 0)
    box = box[wrong] if np.any(wrong) else box
    spans = []
    for a, b in sorted(box[:, :, 0].tolist()):
        if spans and a <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], b))
        else:
            spans.append((a, b))
    if spans:
        raise MatchingError(
            f"{messages[0] if np.any(wrong) else messages[1]} "
            + ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in spans),
            intervals=spans, **{key: float(least.min())}, **details)


def _cross_derivative(u, v, lo, hi):
    """Bernstein coefficients of u x v' from Bezier nets on [lo, hi]."""
    hodograph = (v.shape[1] - 1) * np.diff(v, axis=1)
    return _bernstein_cross(u, hodograph / (hi - lo)[:, None, None])


def check_ruled_map(south: SplineCurve, north: SplineCurve, **details):
    """Raise MatchingError unless the ruled map x = (1 - eta) s(t) + eta n(t)
    between two curves on one knot vector keeps one Jacobian sign.

    det J = (1 - eta) s' x (n - s) + eta n' x (n - s) is linear in eta, so
    both terms must keep one sign.  ``details`` go into the error, with the
    failed t intervals and the least term value there (``min_det``).
    """
    if not _same_knots(south.basis, north.basis):
        raise BasisMismatchError("ruled map curves must share a knot vector")
    lo, hi, s = _bezier(south.basis, south.control_points)
    n = _bezier(south.basis, north.control_points)[2]
    terms = [_cross_derivative(s - n, c, lo, hi) for c in (s, n)]
    _require_one_sign(np.tile(lo, 2), np.tile(hi, 2), np.concatenate(terms),
                      ("ruled map folds on t", "ruled map not certified on t"),
                      "min_det", **details)


def check_boundary_regular(curve: SplineCurve, center, **details):
    """Raise MatchingError unless the curve never backtracks about center.

    For a curve star-shaped about ``center`` (a rotor arc about its axis)
    backtracking is a sign change of the polar angular speed
    w = (gamma - c) x gamma'; the orientation is the sign of the area the
    radius sweeps.  ``details`` go into the error, with the failed eta
    intervals and the least value of w times that sign (``min_w``).
    """
    lo, hi, segs = _bezier(curve.basis, curve.control_points)
    w = _cross_derivative(segs - np.asarray(center, dtype=float), segs, lo, hi)
    _require_one_sign(lo, hi, w, (
        "boundary backtracks about its center on eta",
        "boundary regularity not certified on eta"), "min_w", **details)


# ---------------------------------------------------------------------------
# separator boundary assembly
# ---------------------------------------------------------------------------

def separator_xi_basis(degree: int, elements_per_half: int) -> KnotVector:
    """Open knot vector on [0, 1] with uniform spans per half and a
    degree-fold repetition at 0.5 (the cusp C0 line)."""
    m = elements_per_half
    grid = np.linspace(0.0, 1.0, 2 * m + 1)[1:-1]
    mult = np.ones(len(grid), dtype=int)
    mult[m - 1] = degree
    return open_knots(degree, grid, mult)


def collocate_kinked_segments(kv: KnotVector, p_start, p_mid, p_end) -> SplineCurve:
    """Exact spline representation of the two-segment polyline
    p_start -> p_mid (xi in [0, 0.5]) -> p_end (xi in [0.5, 1]).

    Requires the degree-fold knot at 0.5; Greville collocation is exact for
    piecewise-linear data with the kink on the C0 line.
    """
    if kv.multiplicity(0.5) != kv.degree:
        raise StructureError("xi basis lacks the degree-fold knot at 0.5")
    g = greville_abscissae(kv)
    p_start, p_mid, p_end = (np.asarray(q, dtype=float)
                             for q in (p_start, p_mid, p_end))
    left = p_start[None, :] + 2 * g[:, None] * (p_mid - p_start)[None, :]
    right = p_mid[None, :] + (2 * g - 1)[:, None] * (p_end - p_mid)[None, :]
    ctrl = np.where(g[:, None] <= 0.5, left, right)
    return SplineCurve(kv, ctrl)


def assemble_separator_boundary(rotor_arcs, cusps, reparams,
                                xi_basis: KnotVector,
                                eta_kv: KnotVector) -> BoundarySet:
    """Boundary description of the separator patch.

    rotor_arcs: grid-coordinate parameterized west/east rotor arc curves
    (south to north); cusps: (upper, lower) cusp points; reparams:
    both-float matching functions for the west/east arcs; xi_basis: knot
    vector with the degree-fold repetition at 0.5; eta_kv: the common knot
    vector of both eta-direction curves.

    The corners are the arcs' end control points, which are the rotor ends
    of the C-grid cut edges.  The north/south boundaries are those straight
    cut edges joined at the cusp, pinned to xi = 0.5 with the C0 knot; the
    west/east boundaries are the rotor arcs refit in eta_kv at the floated
    (matched) parameter values.  The matching functions act on the
    chord-length parameters of the matched clouds but are applied here to
    the arcs' own grid coordinate; the two differ, so the refit arcs are not
    exactly chord-consistent with the matching.
    """
    west_arc, east_arc = rotor_arcs
    f_w, f_e = reparams
    cusp_top, cusp_bot = (np.asarray(q, dtype=float) for q in cusps)
    a_bot_l, a_top_l = west_arc.control_points[[0, -1]]
    a_bot_r, a_top_r = east_arc.control_points[[0, -1]]

    # reparameterize the arcs by the matching functions: sample densely and
    # refit at the floated parameter values
    t = np.linspace(0.0, 1.0, 16 * max(west_arc.basis.n, east_arc.basis.n))
    gamma_w = fit_curve(west_arc(t), f_w(t), eta_kv).curve
    gamma_e = fit_curve(east_arc(t), f_e(t), eta_kv).curve

    gamma_n = collocate_kinked_segments(xi_basis, a_top_l, cusp_top, a_top_r)
    gamma_s = collocate_kinked_segments(xi_basis, a_bot_l, cusp_bot, a_bot_r)
    return BoundarySet(gamma_w=gamma_w, gamma_e=gamma_e,
                       gamma_s=gamma_s, gamma_n=gamma_n, corner_tol=1e-9)


# ---------------------------------------------------------------------------
# auxiliary space
# ---------------------------------------------------------------------------

def build_aux_space(basis: TensorBasis) -> TensorBasis:
    """Degree-elevated auxiliary space over the primal tensor basis.

    The xi knot vector keeps the interior knots, raises the end repetitions
    to p1+2 and the 0.5 repetition to p1+1, with degree p1+1; the eta part
    is copied unchanged.
    """
    kv = basis.xi
    p = kv.degree
    vals, counts = unique_knots(kv.knots)
    i_half = np.where(np.abs(vals - 0.5) <= KNOT_TOL)[0]
    if len(i_half) != 1 or counts[i_half[0]] != p:
        raise StructureError(
            "xi knot vector must carry a degree-fold repetition at 0.5")
    new_counts = counts.copy()
    new_counts[0] += 1
    new_counts[-1] += 1
    new_counts[i_half[0]] += 1
    knots = np.repeat(vals, new_counts)
    aux_xi = KnotVector(p + 1, knots)
    return TensorBasis(aux_xi, basis.eta)


# ---------------------------------------------------------------------------
# quadrature caches
# ---------------------------------------------------------------------------

class _DirCache:
    """Per-direction Gauss data and basis derivative tables on each span."""

    def __init__(self, kv: KnotVector, n_nodes: int, max_der: int):
        self.kv = kv
        breaks = kv.breakpoints
        self.n_elems = len(breaks) - 1
        ref_x, ref_w = np.polynomial.legendre.leggauss(n_nodes)
        nodes = 0.5 * (breaks[:-1, None] + breaks[1:, None]) \
            + 0.5 * np.diff(breaks)[:, None] * ref_x[None, :]
        self.nodes = nodes
        self.weights = 0.5 * np.diff(breaks)[:, None] * ref_w[None, :]
        flat = nodes.ravel()
        spans, ders = basis_ders_nonzero(kv, flat, max_der)
        p = kv.degree
        self.first_dof = (spans.reshape(nodes.shape)[:, 0] - p).astype(int)
        self.vals = [ders[k].reshape(self.n_elems, n_nodes, p + 1)
                     for k in range(max_der + 1)]
        self.n_local = p + 1


class EggAssembly:
    """Precomputed quadrature tables and the banded Newton-matrix layout for
    one primal/auxiliary space pair.

    Residuals and steps are vectors in [d (2*Na); c_inner (2*n_inner)]
    order.  The Newton matrix is kept in LAPACK (kl, ku) band storage of an
    eta-slow numbering of the same unknowns: eta index j holds its
    2*aux.xi.n auxiliary dofs, then its 2*(xi.n - 2) inner primal dofs.
    Basis functions couple only within degree+1 eta indices, so the
    half-bandwidths depend on the xi width alone, not on the eta length.
    """

    def __init__(self, basis: TensorBasis, aux: TensorBasis,
                 quad_scale: int = 1):
        if not _same_knots(aux.eta, basis.eta):
            raise BasisMismatchError("aux eta basis must match the primal")
        if np.abs(aux.xi.breakpoints - basis.xi.breakpoints).max() > KNOT_TOL:
            raise BasisMismatchError("aux xi breakpoints must match the primal")
        self.basis = basis
        self.aux = aux
        n1 = quad_scale * (aux.xi.degree + 1)
        n2 = quad_scale * (basis.eta.degree + 1)
        self.cx = _DirCache(basis.xi, n1, 2)
        self.ce = _DirCache(basis.eta, n2, 2)
        self.ax = _DirCache(aux.xi, n1, 1)
        self.ae = _DirCache(aux.eta, n2, 1)

        E1, E2 = self.cx.n_elems, self.ce.n_elems
        self.E = E1 * E2
        self.Q = n1 * n2
        # quadrature weights (E, Q)
        self.wq = (self.cx.weights[:, None, :, None]
                   * self.ce.weights[None, :, None, :]).reshape(self.E, self.Q)

        # local-to-global dof index tables
        def dof_table(c1, c2, n2_dofs):
            l1, l2 = c1.n_local, c2.n_local
            g1 = c1.first_dof[:, None] + np.arange(l1)[None, :]  # (E1, l1)
            g2 = c2.first_dof[:, None] + np.arange(l2)[None, :]  # (E2, l2)
            glob = (g1[:, None, :, None] * n2_dofs
                    + g2[None, :, None, :])  # (E1, E2, l1, l2)
            return glob.reshape(self.E, l1 * l2)

        self.dof_p = dof_table(self.cx, self.ce, basis.eta.n)   # primal
        self.dof_a = dof_table(self.ax, self.ae, aux.eta.n)
        self.Lp = self.cx.n_local * self.ce.n_local
        self.La = self.ax.n_local * self.ae.n_local
        self.Na = aux.xi.n * aux.eta.n

        def tensorize(c1, c2, k1, k2):
            # (E, Q, L) table of products of per-direction derivatives
            t = np.einsum("aqi,brj->abqrij", c1.vals[k1], c2.vals[k2])
            return t.reshape(self.E, self.Q, c1.n_local * c2.n_local)

        self.Wx = tensorize(self.cx, self.ce, 1, 0)
        self.We = tensorize(self.cx, self.ce, 0, 1)
        self.Wxe = tensorize(self.cx, self.ce, 1, 1)
        self.Wee = tensorize(self.cx, self.ce, 0, 2)
        self.A = tensorize(self.ax, self.ae, 0, 0)
        self.Ax = tensorize(self.ax, self.ae, 1, 0)
        self.Ae = tensorize(self.ax, self.ae, 0, 1)
        # test functions premultiplied by the weights, (E, L, Q): a weak
        # form's element vector or matrix is one batched matmul with them
        self.wAt = np.ascontiguousarray(
            (self.wq[..., None] * self.A).transpose(0, 2, 1))
        self.wWt = np.ascontiguousarray(
            (self.wq[..., None] * tensorize(self.cx, self.ce, 0, 0))
            .transpose(0, 2, 1))

        # inner-dof numbering of the primal space
        n1p, n2p = basis.shape
        inner = -np.ones((n1p, n2p), dtype=int)
        idx = np.arange((n1p - 2) * (n2p - 2)).reshape(n1p - 2, n2p - 2)
        inner[1:-1, 1:-1] = idx
        self.inner_of_dof = inner.ravel()
        self.n_inner = (n1p - 2) * (n2p - 2)

        # aux mass matrix (for the u projection and the R1/d block)
        rows = np.repeat(self.dof_a, self.La, axis=1).ravel()
        cols = np.tile(self.dof_a, (1, self.La)).ravel()
        mloc = self.wAt @ self.A
        self.mass_aux = sp.csr_matrix(
            (mloc.ravel(), (rows, cols)), shape=(self.Na, self.Na))
        self._mass_solve = spla.factorized(self.mass_aux.tocsc())

        # scatter targets of element vectors (E, L, 2): into the 2*Na aux
        # vector, and into the 2*n_inner vector with boundary rows sent to
        # one extra slot that is dropped
        comp = np.arange(2)
        ip = self.inner_of_dof[self.dof_p]                 # (E, Lp)
        self._vec_a = (2 * self.dof_a[..., None] + comp).ravel()
        self._vec_c = np.where(ip[..., None] >= 0, 2 * ip[..., None] + comp,
                               2 * self.n_inner).ravel()
        self._layout_newton(ip)

    def _layout_newton(self, ip):
        """Eta-slow unknown order, half-bandwidths, band scatter index and
        the iterate-independent R1 blocks; the pattern is fixed across
        Newton steps."""
        n1p, n2p = self.basis.shape
        n_d = 2 * self.Na
        n = self.n_unknowns = n_d + 2 * self.n_inner
        n_ax = self.aux.xi.n
        ia, ja, ca = np.indices((n_ax, n2p, 2)).reshape(3, -1)
        ic, jc, cc = np.indices((n1p - 2, n2p - 2, 2)).reshape(3, -1)
        width = 2 * n_ax + 2 * (n1p - 2)
        key = np.concatenate([ja * width + 2 * ia + ca,
                              (jc + 1) * width + 2 * n_ax + 2 * ic + cc])
        self.order = np.argsort(key)          # band index -> [d; c] index
        position = np.empty_like(self.order)
        position[self.order] = np.arange(n)

        # band positions of the element-local unknowns (2, E, L); boundary
        # primal dofs are no unknowns and get -1
        comp = np.arange(2)[:, None, None]
        pd = position[2 * self.dof_a + comp]
        pc = np.where(ip >= 0, position[n_d + 2 * np.maximum(ip, 0) + comp],
                      -1)
        m = self.mass_aux.tocoo()
        # (row, column) band positions of every block entry
        blocks = {
            # R1/d: -mass per component, (2, nnz)
            "r1d": (position[2 * m.row + comp[:, 0]],
                    position[2 * m.col + comp[:, 0]]),
            # R1/c: int a_i (w_j)_xi per component, (2, E, La, Lp)
            "r1c": (pd[..., None], pc[:, :, None, :]),
            # R2/d: (2, E, Lp, La)
            "r2d": (pc[..., None], pd[:, :, None, :]),
            # R2/c: (E, Lp (row), 2 (column comp b), 2 (row comp a),
            # Lp (column))
            "r2c": (pc.transpose(1, 2, 0)[:, :, None, :, None],
                    pc.transpose(1, 0, 2)[:, None, :, None, :]),
        }

        def reach(r, c):
            # largest r - c over the pairs without a boundary dof
            return int((np.where(r >= 0, r, -n)
                        - np.where(c >= 0, c, 2 * n)).max())

        self.kl = max(reach(r, c) for r, c in blocks.values())
        self.ku = max(reach(c, r) for r, c in blocks.values())
        size = (self.kl + self.ku + 1) * n
        big = 4 * n * n

        def flat(name):
            # ab[ku + r - c, c] is entry (ku + r) * n - c * (n - 1) of the
            # raveled (kl+ku+1, n) band; big pushes a pair with a boundary
            # dof past the band, and those pairs share index size
            r, c = blocks[name]
            return np.minimum(np.where(r >= 0, (self.ku + r) * n, big)
                              - np.where(c >= 0, c * (n - 1), -big),
                              size).ravel()

        a1 = self.wAt @ self.Wx                   # (E, La, Lp)
        fixed = np.concatenate([-m.data, -m.data, a1.ravel(), a1.ravel()])
        band = np.bincount(np.concatenate([flat("r1d"), flat("r1c")]),
                           weights=fixed, minlength=size + 1)[:size]
        self._band_fixed = band.reshape(self.kl + self.ku + 1, n)
        self._band_var = np.concatenate([flat("r2d"), flat("r2c")])

    # -- field evaluation ----------------------------------------------------

    @staticmethod
    def _contract(coeffs, dofs, *tables):
        """Gather per-element coefficients (E, L, 2) and contract them with
        each (E, Q, L) table into a field at the quadrature points."""
        local = coeffs.reshape(-1, 2)[dofs]
        return [t @ local for t in tables]

    def _scatter_a(self, loc):
        """Sum element vectors (E, La, 2) into an (Na, 2) aux vector."""
        return np.bincount(self._vec_a, weights=loc.ravel(),
                           minlength=2 * self.Na).reshape(self.Na, 2)

    def fields(self, cp, d):
        f = dict(zip(("xx", "xe", "xxe", "xee"),
                     self._contract(cp, self.dof_p, self.Wx, self.We,
                                    self.Wxe, self.Wee)))
        f.update(zip(("u", "ux", "ue"),
                     self._contract(d, self.dof_a, self.A, self.Ax, self.Ae)))
        f["g11"] = np.einsum("eqd,eqd->eq", f["xx"], f["xx"])
        f["g12"] = np.einsum("eqd,eqd->eq", f["xx"], f["xe"])
        f["g22"] = np.einsum("eqd,eqd->eq", f["xe"], f["xe"])
        return f

    def metric_sum_samples(self, cp):
        xx, xe = self._contract(cp, self.dof_p, self.Wx, self.We)
        return np.einsum("eqd,eqd->eq", xx, xx) + np.einsum("eqd,eqd->eq", xe, xe)

    def project_u(self, cp):
        """L2 projection of x_xi onto the auxiliary space."""
        xx, = self._contract(cp, self.dof_p, self.Wx)
        rhs = self._scatter_a(self.wAt @ xx)
        return np.column_stack([self._mass_solve(rhs[:, 0]),
                                self._mass_solve(rhs[:, 1])]).reshape(
            self.aux.xi.n, self.aux.eta.n, 2)

    # -- residual and Jacobian ----------------------------------------------

    def _upieces(self, f, eps):
        den = f["g11"] + f["g22"] + eps
        P = (f["g22"][..., None] * f["ux"]
             - f["g12"][..., None] * f["ue"]
             - f["g12"][..., None] * f["xxe"]
             + f["g11"][..., None] * f["xee"])
        return den, P, P / den[..., None]

    def residual(self, cp, d, eps):
        """Residual vector [R1 (2*Na); R2 (2*n_inner)]."""
        f = self.fields(cp, d)
        den, P, U = self._upieces(f, eps)
        r1 = self._scatter_a(self.wAt @ (f["xx"] - f["u"]))
        r2 = np.bincount(self._vec_c, weights=(self.wWt @ U).ravel(),
                         minlength=2 * self.n_inner + 1)[:-1]
        return np.concatenate([r1.ravel(), r2])

    def jacobian(self, cp, d, eps):
        """Analytic Newton matrix in (kl, ku) band storage (see ``solve``).

        Only the R2 rows depend on the iterate; the R1 blocks (-mass and
        the int a_i (w_j)_xi coupling) were scattered once in ``__init__``.
        """
        f = self.fields(cp, d)
        den, P, U = self._upieces(f, eps)

        # R2/d: diag over components: int w_i (g22 abar_j_x - g12 abar_j_e)/den
        kern = (f["g22"][..., None] * self.Ax
                - f["g12"][..., None] * self.Ae) / den[..., None]
        b2 = self.wWt @ kern                       # (E, Lp, La)

        # R2/c: full 2x2 component coupling through the metric.  With
        # k = (b, a) for the perturbed and the residual component, the
        # derivative of U_a by the l-th control point's b-component is
        # Wx_l Mx_k + We_l Me_k + delta_ab D_l.
        xx, xe = f["xx"][..., :, None], f["xe"][..., :, None]   # b
        s = (f["ue"] + f["xxe"])[..., None, :]                   # a
        Mx = 2 * xx * (f["xee"] - U)[..., None, :] - xe * s
        Me = 2 * xe * (f["ux"] - U)[..., None, :] - xx * s
        Mx = (Mx / den[..., None, None]).reshape(self.E, self.Q, 4, 1)
        Me = (Me / den[..., None, None]).reshape(self.E, self.Q, 4, 1)
        D = (-f["g12"][..., None] * self.Wxe
             + f["g11"][..., None] * self.Wee) / den[..., None]
        dU = self.Wx[:, :, None, :] * Mx + self.We[:, :, None, :] * Me
        dU[:, :, 0] += D
        dU[:, :, 3] += D

        # element blocks straight into the weights of the band scatter
        n2 = b2.size
        vals = np.empty(2 * n2 + self.E * self.Lp * 4 * self.Lp)
        vals[:2 * n2].reshape(2, n2)[:] = b2.reshape(1, n2)
        np.matmul(self.wWt, dU.reshape(self.E, self.Q, -1),
                  out=vals[2 * n2:].reshape(self.E, self.Lp, -1))
        size = self._band_fixed.size
        band = np.bincount(self._band_var, weights=vals,
                           minlength=size + 1)[:size]
        return band.reshape(self._band_fixed.shape) + self._band_fixed

    def solve(self, band, rhs):
        """Solve the banded Newton system for a right-hand side in [d; c]
        order; raises ``LinAlgError`` for a singular matrix."""
        x = solve_banded((self.kl, self.ku), band, rhs[self.order],
                         overwrite_b=True, check_finite=False)
        out = np.empty_like(x)
        out[self.order] = x
        return out


# ---------------------------------------------------------------------------
# EGG Newton solve
# ---------------------------------------------------------------------------

def egg_solve(initial: SplineMap) -> PatchParameterization:
    """Newton iteration on the coupled (c_inner, d) unknowns from the
    initial map, whose boundary control points are kept bit-identical.

    The one assembly of the map's basis and its auxiliary space is built
    here.  epsilon is 1e-4 times the median metric trace of the initial map,
    and u starts as the L2 projection of x_xi, so the first residual block
    vanishes.  Each step solves the analytic linearization in band storage
    (LAPACK gbsv) and takes a backtracking line search on the residual
    norm.  The auxiliary field is discarded from the returned
    parameterization.
    """
    basis = initial.basis
    asm = EggAssembly(basis, build_aux_space(basis))
    cp = initial.control_points.copy()
    eps = 1e-4 * float(np.median(asm.metric_sum_samples(cp)))
    d = asm.project_u(cp)
    n1, n2 = basis.shape
    n_d = 2 * asm.Na

    res = asm.residual(cp, d, eps)
    norm0 = float(np.linalg.norm(res))
    target = NEWTON_TOL * (norm0 + 1.0)
    history = [norm0]

    def fail(message, **details):
        return NonconvergenceError(message, last_map=SplineMap(basis, cp),
                                   history=history, **details)

    iterations = 0
    while history[-1] > target:
        if iterations >= MAX_NEWTON_ITER:
            raise fail(f"Newton did not converge in {MAX_NEWTON_ITER} "
                       f"iterations (residual {history[-1]:.3e}, "
                       f"target {target:.3e})")
        try:
            step = asm.solve(asm.jacobian(cp, d, eps), -res)
        except np.linalg.LinAlgError as exc:
            raise fail(f"singular Newton matrix at step {iterations}",
                       step=iterations) from exc
        dd = step[:n_d].reshape(asm.aux.xi.n, asm.aux.eta.n, 2)
        dc = step[n_d:].reshape(n1 - 2, n2 - 2, 2)

        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cp_try = cp.copy()
            cp_try[1:-1, 1:-1] += scale * dc
            d_try = d + scale * dd
            res_try = asm.residual(cp_try, d_try, eps)
            norm_try = float(np.linalg.norm(res_try))
            if norm_try < history[-1]:
                break
            scale *= 0.5
        else:
            raise fail("line search failed to reduce the residual")
        cp, d, res = cp_try, d_try, res_try
        history.append(norm_try)
        iterations += 1

    return PatchParameterization(SplineMap(basis, cp), iterations=iterations,
                                 residual_history=tuple(history))


# ---------------------------------------------------------------------------
# folding detection and repair
# ---------------------------------------------------------------------------

def check_folding(m: SplineMap) -> list:
    """Knot-span boxes [[xi_lo, eta_lo], [xi_hi, eta_hi]], xi-major, on
    which det J = x_xi x x_eta > 0 is not certified; empty iff the map is
    certified fold-free."""
    lo_x, hi_x, segs = _bezier(m.basis.xi, m.control_points)
    lo_e, hi_e, segs = _bezier(m.basis.eta, segs.transpose(2, 0, 1, 3))
    segs = segs.transpose(2, 0, 3, 1, 4)              # (Ex, Ee, p+1, q+1, 2)
    # x_xi, x_eta up to the positive factors p / h_xi, q / h_eta per element
    x_xi, x_eta = (np.diff(segs, axis=k) for k in (2, 3))
    box = np.stack([np.stack(np.meshgrid(x, e, indexing="ij"), -1) for x, e
                    in ((lo_x, lo_e), (hi_x, hi_e))], 2).reshape(-1, 2, 2)
    failed = _certify(box, _bernstein_cross(
        x_xi.reshape(-1, *x_xi.shape[2:]), x_eta.reshape(-1, *x_eta.shape[2:])))
    return box[np.unique(failed[1])].tolist()


def repair_folding(patch: PatchParameterization,
                   boxes) -> PatchParameterization:
    """Bisect the knot spans holding the boxes in both directions, re-solve
    from the refined map, and repeat until certified fold-free or the round
    cap."""
    for _ in range(REPAIR_ROUNDS):
        if not boxes:
            return patch
        mids = map(np.unique, np.mean(boxes, axis=1).T)   # xi, eta
        patch = egg_solve(patch.map.refine(*mids))
        boxes = check_folding(patch.map)
    if boxes:
        raise FoldingUnrepairedError(
            f"folding persists after {REPAIR_ROUNDS} repair rounds",
            cells=boxes)
    return patch
