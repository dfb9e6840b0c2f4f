"""Patch parameterization: transfinite interpolation, separator boundary
assembly, the auxiliary-variable elliptic grid generation (EGG) solve with
folding repair, and the one sign certificate behind every fold check.

The certificate proves a spline quantity positive on each knot span by its
Bernstein coefficients, halving by de Casteljau where they are inconclusive.
It checks ruled (C-grid) maps, the separator's west/east boundaries (whose
backtracking admits no fold-free interior map) and the det J of EGG maps.

The EGG solve, ``egg_solve(initial)``, takes the initial map (the
transfinite blend of the boundaries) and builds everything else it uses
itself: the one assembly and epsilon.  It drives the inner control points
of the map so that the inverse map components become harmonic.  The second
xi-derivatives are eliminated through the auxiliary field u of the mixed
form (Hinz, Moller & Vuik, CAGD 2018), the L2 projection of x_xi onto a
degree-elevated space with a C0 macro split at xi = 0.5, which admits the
kinked separator boundaries.  The aux eta basis is the primal one and the
rule is a tensor Gauss rule, so the aux mass is M_xi (x) M_eta and the
projection's coupling G_xi (x) M_eta: u has the coefficients
(proj (x) I) c with the 1-D proj = M_xi^-1 G_xi.  The projection is linear
in c and holds exactly at every iterate, so Newton runs on the inner
control points alone, with an analytic linearization and a backtracking
line search.  The unknowns are numbered eta-slow, so the Jacobian is banded
with half-bandwidths fixed by the xi width; its pattern is laid out once
per basis, and each step is one LAPACK band solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import solve_banded

from .errors import (BasisMismatchError, FoldingUnrepairedError,
                     MatchingError, NonconvergenceError, StructureError,
                     TopologyError)
from .fitting import fit_curve
from .splines import (KNOT_TOL, KnotVector, SplineCurve, SplineMap,
                      TensorBasis, basis_ders_nonzero, blossoms,
                      bounding_box_diagonal, greville_abscissae, insert_knots,
                      open_knots, unique_knots)

NEWTON_TOL = 1e-8     # residual reduction target of the EGG Newton solve
MAX_NEWTON_ITER = 50  # Newton steps of one EGG solve
MAX_HALVINGS = 20     # line-search step halvings per Newton step
REPAIR_ROUNDS = 3     # knot-insertion rounds of the folding repair
MAX_DEPTH = 20        # subdivision rounds of the Bernstein sign certificate


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

def transfinite(west: SplineCurve, east: SplineCurve, south: SplineCurve,
                north: SplineCurve, basis: TensorBasis) -> SplineMap:
    """Spline transfinite interpolation of the four boundary curves.

    south / north run in xi (west to east) on eta = 0 / 1 and live in
    ``basis.xi``; west / east run in eta (south to north) on xi = 0 / 1 and
    live in ``basis.eta``.  The corners are the end control points of south
    and north; the west and east ends must meet them within 1e-10 of the
    boundary control points' bounding-box diagonal, else TopologyError.

    The blending factors are linear, so collocating them at the Greville
    abscissae yields the exact spline representation of the boundary blend;
    boundary control rows reproduce the input curves verbatim.
    """
    w, e, s, n = west, east, south, north
    for curve, kv, name in ((w, basis.eta, "west"), (e, basis.eta, "east"),
                            (s, basis.xi, "south"), (n, basis.xi, "north")):
        if not _same_knots(curve.basis, kv):
            raise BasisMismatchError(
                f"{name} boundary curve does not live in the patch basis")
    p00, p10 = s.control_points[[0, -1]]
    p01, p11 = n.control_points[[0, -1]]
    gap = np.linalg.norm(np.array([w.control_points[[0, -1]],
                                   e.control_points[[0, -1]]])
                         - [[p00, p01], [p10, p11]], axis=-1).ravel()
    extent = bounding_box_diagonal(np.vstack(
        [c.control_points for c in (w, e, s, n)]))
    if gap.max() > 1e-10 * extent:
        name = ("w(0)=s(0)", "w(1)=n(0)", "e(0)=s(1)", "e(1)=n(1)")
        raise TopologyError(f"boundary corners disagree at {name[gap.argmax()]}",
                            gap=float(gap.max()))
    gx, ge = basis.greville_grid()
    cp = np.zeros((basis.xi.n, basis.eta.n, 2))
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
    blossoms f(lo^(p-j), hi^j), all spans and all j in one call."""
    p = kv.degree
    vals, counts = unique_knots(kv.knots)
    k = np.cumsum(counts)[:-1] - 1          # last knot index of each span
    lo, hi = vals[:-1], vals[1:]
    # args[s, j, r] = hi on the last j levels r, else lo
    args = np.where(np.arange(p) >= p - np.arange(p + 1)[:, None],
                    hi[:, None, None], lo[:, None, None])
    segs = blossoms(kv, cp, np.repeat(k, p + 1), args.reshape(-1, p))
    return lo, hi, segs.reshape((len(k), p + 1) + segs.shape[1:])


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
    coefficients, (left halves, right halves): 1/2 inserted n times into
    the degree-n Bezier knot vector."""
    n = coeffs.shape[1] - 1
    _, both = insert_knots(KnotVector(n, np.repeat([0.0, 1.0], n + 1)),
                           np.moveaxis(coeffs, 1, 0), np.full(n, 0.5))
    return np.moveaxis(both[:n + 1], 0, 1), np.moveaxis(both[n:], 0, 1)


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
                                xi_basis: KnotVector, eta_kv: KnotVector):
    """The separator's boundary curves (west, east, south, north), in the
    orientations ``transfinite`` takes.

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
    return (fit_curve(west_arc(t), f_w(t), eta_kv).curve,
            fit_curve(east_arc(t), f_e(t), eta_kv).curve,
            collocate_kinked_segments(xi_basis, a_bot_l, cusp_bot, a_bot_r),
            collocate_kinked_segments(xi_basis, a_top_l, cusp_top, a_top_r))


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
        breaks = kv.breakpoints
        self.n_elems = len(breaks) - 1
        ref_x, ref_w = np.polynomial.legendre.leggauss(n_nodes)
        nodes = 0.5 * (breaks[:-1, None] + breaks[1:, None]) \
            + 0.5 * np.diff(breaks)[:, None] * ref_x[None, :]
        self.weights = 0.5 * np.diff(breaks)[:, None] * ref_w[None, :]
        cols, ders = basis_ders_nonzero(kv, nodes.ravel(), max_der)
        self.n_local = kv.degree + 1
        self.cols = cols[::n_nodes]  # (n_elems, p+1) window of each span
        self.vals = [ders[k].reshape(self.n_elems, n_nodes, self.n_local)
                     for k in range(max_der + 1)]
        self.n = kv.n

    def dense(self, k):
        """(n_elems, n_nodes, n) table of every function's k-th derivative."""
        out = np.zeros(self.vals[k].shape[:2] + (self.n,))
        np.put_along_axis(out, np.broadcast_to(self.cols[:, None],
                                               self.vals[k].shape),
                          self.vals[k], axis=2)
        return out

    def projected(self, proj):
        """The functions phi_i = sum_k proj[k, i] B_k in place of the B_k,
        every one of them nonzero on every span."""
        self.vals = [self.dense(k) @ proj for k in range(len(self.vals))]
        self.n_local = self.n = proj.shape[1]
        self.cols = np.broadcast_to(np.arange(self.n), (self.n_elems, self.n))
        return self


class EggAssembly:
    """Quadrature tables and the banded Newton-matrix layout of one primal
    basis, with the auxiliary space built from it.

    The aux mass is M_xi (x) M_eta and the coupling int a_k (w_i)_xi is
    G_xi (x) M_eta (see the module docstring), so the L2 projection of x_xi
    has the coefficients d = (proj (x) I) c with the 1-D
    ``proj`` = M_xi^-1 G_xi, and u = sum_ij c_ij phi_i(xi) M_j(eta) with the
    projected xi basis phi_i = sum_k proj[k, i] a_k, of which every one is
    nonzero on every span.  Residual and Jacobian are those of the mixed
    form's second equation with u so eliminated.

    Residuals and steps are vectors over the inner control points numbered
    eta-slow: eta index j holds its 2*(xi.n - 2) dofs, component fastest.
    An element couples every xi dof of its degree+1 eta indices, so the
    half-bandwidths stay below degree+1 such blocks whatever the eta length.
    """

    def __init__(self, basis: TensorBasis, quad_scale: int = 1):
        aux_xi = build_aux_space(basis).xi
        self.basis = basis
        n1 = quad_scale * (aux_xi.degree + 1)
        n2 = quad_scale * (basis.eta.degree + 1)
        cx = _DirCache(basis.xi, n1, 2)
        ce = _DirCache(basis.eta, n2, 2)
        ax = _DirCache(aux_xi, n1, 1)
        a = ax.dense(0)
        wa = cx.weights[..., None] * a
        self.proj = np.linalg.solve(
            np.einsum("aqk,aql->kl", wa, a),
            np.einsum("aqk,aqi->ki", wa, cx.dense(1)))
        px = ax.projected(self.proj)

        E1, E2 = cx.n_elems, ce.n_elems
        self.E = E1 * E2
        self.Q = n1 * n2
        # quadrature weights (E, Q)
        wq = (cx.weights[:, None, :, None]
              * ce.weights[None, :, None, :]).reshape(self.E, self.Q)

        def dof_table(c1):
            # (E, L) global dofs of the functions c1 (x) eta on each element
            glob = (c1.cols[:, None, :, None] * basis.eta.n
                    + ce.cols[None, :, None, :])  # (E1, E2, l1, l2)
            return glob.reshape(self.E, c1.n_local * ce.n_local)

        def tensorize(c1, *ders):
            # (E, Q, len(ders), L) table of products of per-direction
            # derivatives (k1, k2)
            t = np.empty((E1, E2, n1, n2, len(ders), c1.n_local,
                           ce.n_local))
            for k, (k1, k2) in enumerate(ders):
                np.multiply(c1.vals[k1][:, None, :, None, :, None],
                            ce.vals[k2][None, :, None, :, None, :],
                            out=t[:, :, :, :, k])
            return t.reshape(self.E, self.Q, len(ders), -1)

        self.dof_p, self.dof_u = dof_table(cx), dof_table(px)
        self.Lp = self.dof_p.shape[1]
        # x_xi, x_eta, x_xi_eta, x_eta_eta and u_xi, u_eta
        self.W = tensorize(cx, (1, 0), (0, 1), (1, 1), (0, 2))
        self.U = tensorize(px, (1, 0), (0, 1))
        # the columns of the inner xi dofs: xi dofs 0 and n-1 lead and
        # close the xi-major window
        self._inner_u = slice(ce.n_local, -ce.n_local)
        # test functions premultiplied by the weights, (E, Lp, Q): a weak
        # form's element vector or matrix is one batched matmul with them
        self.wWt = np.ascontiguousarray(
            (wq[..., None] * tensorize(cx, (0, 0))[:, :, 0])
            .transpose(0, 2, 1))
        self._layout_newton()

    def _layout_newton(self):
        """Eta-slow unknown positions, half-bandwidths and the scatter
        indices of residual and band; the pattern is fixed across steps."""
        n1p, n2p = self.basis.shape
        inner = -np.ones((n1p, n2p), dtype=int)
        inner[1:-1, 1:-1] = np.arange((n1p - 2) * (n2p - 2)).reshape(
            n2p - 2, n1p - 2).T
        n = self.n_unknowns = 2 * (n1p - 2) * (n2p - 2)
        # unknown positions of the element-local dofs (2, E, L); boundary
        # dofs are no unknowns and get -1
        comp = np.arange(2)[:, None, None]
        pc, pu = (np.where(inner.ravel()[dofs] >= 0,
                           2 * inner.ravel()[dofs] + comp, -1)
                  for dofs in (self.dof_p, self.dof_u[:, self._inner_u]))
        # element vectors (E, Lp, 2) scatter into n unknowns plus one slot
        # for the boundary rows, which is dropped
        self._vec = np.where(pc >= 0, pc, n).transpose(1, 2, 0).ravel()
        # (row, column) positions of every block entry
        blocks = {
            # through u: diagonal in the component, (2, E, Lp, inner Lu)
            "u": (pc[..., None], pu[:, :, None, :]),
            # through x: (E, Lp (row), 2 (column comp b), 2 (row comp a),
            # Lp (column))
            "x": (pc.transpose(1, 2, 0)[:, :, None, :, None],
                  pc.transpose(1, 0, 2)[:, None, :, None, :]),
        }

        def extent(p):
            # least and largest unknown position along the last axis
            return np.where(p >= 0, p, n).min(-1), p.max(-1)

        # every row of an element block meets every column of it
        (c_lo, c_hi), (u_lo, u_hi) = extent(pc), extent(pu)
        x_reach = int((c_hi.max(0) - c_lo.min(0)).max())
        self.kl = max(int((c_hi - u_lo).max()), x_reach)
        self.ku = max(int((u_hi - c_lo).max()), x_reach)
        self._band_shape = (self.kl + self.ku + 1, n)
        size = self._band_shape[0] * n
        big = 4 * n * n

        def flat(r, c):
            # ab[ku + r - c, c] is entry (ku + r) * n - c * (n - 1) of the
            # raveled band; big pushes a pair with a boundary dof past the
            # band, and those pairs share index size
            return np.minimum(np.where(r >= 0, (self.ku + r) * n, big)
                              - np.where(c >= 0, c * (n - 1), -big),
                              size).ravel()

        self._band = np.concatenate([flat(*blocks["u"]), flat(*blocks["x"])])

    # -- field evaluation ----------------------------------------------------

    def _contract(self, coeffs, dofs, table):
        """Gather per-element coefficients (E, L, 2) and contract them with
        an (E, Q, k, L) table into k fields at the quadrature points."""
        local = coeffs.reshape(-1, 2)[dofs]
        return (table.reshape(self.E, -1, table.shape[-1]) @ local).reshape(
            table.shape[:-1] + (2,))

    def fields(self, cp):
        """x_xi, x_eta, x_xi_eta, x_eta_eta, u_xi, u_eta (E, Q, 2) and the
        metric (E, Q) at the quadrature points."""
        x = self._contract(cp, self.dof_p, self.W)
        u = self._contract(cp, self.dof_u, self.U)
        f = dict(zip(("xx", "xe", "xxe", "xee", "ux", "ue"),
                     [x[:, :, k] for k in range(4)] + [u[:, :, 0], u[:, :, 1]]))
        f["g11"] = np.einsum("eqd,eqd->eq", f["xx"], f["xx"])
        f["g12"] = np.einsum("eqd,eqd->eq", f["xx"], f["xe"])
        f["g22"] = np.einsum("eqd,eqd->eq", f["xe"], f["xe"])
        return f

    def metric_sum_samples(self, cp):
        f = self.fields(cp)
        return f["g11"] + f["g22"]

    # -- residual and Jacobian ----------------------------------------------

    @staticmethod
    def _upieces(f, eps):
        den = f["g11"] + f["g22"] + eps
        P = (f["g22"][..., None] * f["ux"]
             - f["g12"][..., None] * f["ue"]
             - f["g12"][..., None] * f["xxe"]
             + f["g11"][..., None] * f["xee"])
        return den, P / den[..., None]

    def residual(self, cp, eps):
        """Residual vector int w_i U over the inner dofs, eta-slow."""
        den, U = self._upieces(self.fields(cp), eps)
        return np.bincount(self._vec, weights=(self.wWt @ U).ravel(),
                           minlength=self.n_unknowns + 1)[:-1]

    def jacobian(self, cp, eps):
        """Analytic Newton matrix in (kl, ku) band storage."""
        f = self.fields(cp)
        den, U = self._upieces(f, eps)
        E, Q, Lp = self.E, self.Q, self.Lp
        U_in = self.U[..., self._inner_u]
        n_u = E * Lp * U_in.shape[-1]
        vals = np.empty(2 * n_u + E * Lp * 4 * Lp)

        # through u: U_a depends on c_a by int w_i (g22 phi_j' M - g12 phi_j
        # M') / den, alike for both components
        coef = np.stack([f["g22"], -f["g12"]], axis=-1) / den[..., None]
        np.matmul((self.wWt[..., None] * coef[:, None]).reshape(E, Lp, -1),
                  U_in.reshape(E, 2 * Q, -1), out=vals[:n_u].reshape(E, Lp, -1))
        vals[n_u:2 * n_u] = vals[:n_u]

        # through x: full 2x2 component coupling through the metric.  The
        # derivative of U_a by the b-component of the l-th control point
        # is M[b, a] . (Wx_l, We_l, Wxe_l, Wee_l)
        xx, xe = f["xx"][..., :, None], f["xe"][..., :, None]   # b
        s = (f["ue"] + f["xxe"])[..., None, :]                   # a
        M = np.zeros((E, Q, 2, 2, 4))
        M[..., 0] = 2 * xx * (f["xee"] - U)[..., None, :] - xe * s
        M[..., 1] = 2 * xe * (f["ux"] - U)[..., None, :] - xx * s
        M[:, :, [0, 1], [0, 1], 2] = -f["g12"][..., None]
        M[:, :, [0, 1], [0, 1], 3] = f["g11"][..., None]
        M /= den[..., None, None, None]
        np.matmul(self.wWt, (M.reshape(E, Q, 4, 4) @ self.W).reshape(E, Q, -1),
                  out=vals[2 * n_u:].reshape(E, Lp, -1))

        size = self._band_shape[0] * self.n_unknowns
        return np.bincount(self._band, weights=vals,
                           minlength=size + 1)[:size].reshape(self._band_shape)


# ---------------------------------------------------------------------------
# EGG Newton solve
# ---------------------------------------------------------------------------

def egg_solve(initial: SplineMap) -> PatchParameterization:
    """Newton iteration on the inner control points from the initial map,
    whose boundary control points are kept bit-identical.

    The one assembly of the map's basis is built here.  epsilon is 1e-4
    times the median metric trace of the initial map.  u is the L2
    projection of x_xi at every iterate (see ``EggAssembly``), so the mixed
    form's projection equation holds exactly and only the harmonic one is
    solved.  Each step solves its analytic linearization in band storage
    (LAPACK gbsv) and takes a backtracking line search on the residual norm.
    The residual is a length; the iteration stops once its norm is below
    NEWTON_TOL times the initial norm plus the initial net's bounding-box
    diagonal, so a scaled map takes the same steps.
    """
    basis = initial.basis
    asm = EggAssembly(basis)
    cp = initial.control_points.copy()
    eps = 1e-4 * float(np.median(asm.metric_sum_samples(cp)))
    n1, n2 = basis.shape

    res = asm.residual(cp, eps)
    norm0 = float(np.linalg.norm(res))
    target = NEWTON_TOL * (norm0 + bounding_box_diagonal(cp.reshape(-1, 2)))
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
            step = solve_banded((asm.kl, asm.ku), asm.jacobian(cp, eps), -res,
                                overwrite_ab=True, overwrite_b=True,
                                check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise fail(f"singular Newton matrix at step {iterations}",
                       step=iterations) from exc
        dc = step.reshape(n2 - 2, n1 - 2, 2).transpose(1, 0, 2)

        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cp_try = cp.copy()
            cp_try[1:-1, 1:-1] += scale * dc
            res_try = asm.residual(cp_try, eps)
            norm_try = float(np.linalg.norm(res_try))
            if norm_try < history[-1]:
                break
            scale *= 0.5
        else:
            raise fail("line search failed to reduce the residual")
        cp, res = cp_try, res_try
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
