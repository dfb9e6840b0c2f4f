"""Patch parameterization: transfinite interpolation, the fold check of
ruled (C-grid) maps, separator boundary assembly, the regularity
certificate of star-shaped boundary curves and the auxiliary-variable
elliptic grid generation (EGG) solve with folding detection and repair.

The certificate bounds the polar angular speed of a boundary curve about
its rotor axis by the Bernstein coefficients of its knot-span polynomials,
with de Casteljau subdivision where they are inconclusive: a boundary that
backtracks admits no fold-free interior map, so it is rejected before EGG.

The EGG solve drives the inner control points of a tensor spline map so
that the inverse map components become harmonic.  The second xi-derivatives
are eliminated through an auxiliary field u living on a degree-elevated
space with a C0 macro split at xi = 0.5, which admits the kinked separator
boundaries.  The weak system is solved by Newton iteration with an analytic
linearization and a backtracking line search.  The Newton unknowns are
numbered eta-slow, so the Jacobian is banded with half-bandwidths fixed by
the xi width; its sparsity pattern and iterate-independent blocks are laid
out once per space pair, and each step is one LAPACK band solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
                      insert_knots, open_knots, unique_knots)

MAX_HALVINGS = 20   # line-search step halvings per Newton step
REPAIR_ROUNDS = 3   # knot-insertion rounds of the folding repair


@dataclass(frozen=True)
class BoundarySet:
    """Four boundary curves of a patch; a ruled patch (C-grid) omits one pair.

    gamma_s / gamma_n run in xi (west to east) on eta = 0 / 1;
    gamma_w / gamma_e run in eta (south to north) on xi = 0 / 1.
    """

    gamma_w: SplineCurve | None = None
    gamma_e: SplineCurve | None = None
    gamma_s: SplineCurve | None = None
    gamma_n: SplineCurve | None = None
    corner_tol: float = 1e-10

    def corners(self):
        """Corner points p00, p10, p01, p11, validated for consistency."""
        w, e, s, n = self.gamma_w, self.gamma_e, self.gamma_s, self.gamma_n
        if None in (w, e, s, n):
            raise TopologyError("corners undefined for one-pair boundary sets")
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
    """Spline transfinite interpolation of the boundary curves.

    The blending factors are linear, so collocating them at the Greville
    abscissae yields the exact spline representation of the boundary blend;
    boundary control rows reproduce the input curves verbatim.  If one pair
    of opposite curves is absent (ruled input) the blend degenerates to the
    unidirectional interpolation of the remaining pair.
    """
    w, e, s, n = bounds.gamma_w, bounds.gamma_e, bounds.gamma_s, bounds.gamma_n
    for curve, kv, name in ((w, basis.eta, "west"), (e, basis.eta, "east"),
                            (s, basis.xi, "south"), (n, basis.xi, "north")):
        if curve is not None and not _same_knots(curve.basis, kv):
            raise BasisMismatchError(
                f"{name} boundary curve does not live in the patch basis")
    gx, ge = basis.greville_grid()
    cp = np.zeros((basis.xi.n, basis.eta.n, 2))
    if s is not None and n is not None and (w is None or e is None):
        cp += (1 - ge)[None, :, None] * s.control_points[:, None, :]
        cp += ge[None, :, None] * n.control_points[:, None, :]
        return SplineMap(basis, cp)
    if w is not None and e is not None and (s is None or n is None):
        cp += (1 - gx)[:, None, None] * w.control_points[None, :, :]
        cp += gx[:, None, None] * e.control_points[None, :, :]
        return SplineMap(basis, cp)
    if None in (w, e, s, n):
        raise TopologyError("boundary set must carry four curves or one pair")
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
# fold check of ruled maps
# ---------------------------------------------------------------------------

def check_ruled_map(south: SplineCurve, north: SplineCurve, **details):
    """Raise MatchingError unless the ruled map x = (1 - eta) s(t) + eta n(t)
    between the two curves keeps one Jacobian sign.

    det J = (1 - eta) s' x (n - s) + eta n' x (n - s) is linear in eta, so
    one sign of both terms at the sampled t (4x the control-point count)
    is one sign of det J along every sampled isoline.  ``details`` go into
    the error.
    """
    t = np.linspace(0.0, 1.0, 4 * max(south.basis.n, north.basis.n))
    gap = north(t) - south(t)
    terms = np.array([d[:, 0] * gap[:, 1] - d[:, 1] * gap[:, 0]
                      for d in (south.evaluate(t, 1), north.evaluate(t, 1))])
    bad = np.any(terms * np.sign(terms.sum()) <= 0.0, axis=0)
    if np.any(bad):
        raise MatchingError(
            f"ruled map folds: det J changes sign at {int(bad.sum())} of "
            f"{len(t)} isolines", params=t[bad][:8].tolist(), **details)


# ---------------------------------------------------------------------------
# regularity certificate of star-shaped boundary curves
# ---------------------------------------------------------------------------

def _angular_speed_bernstein(curve: SplineCurve, center):
    """Knot spans (lo, hi) of the curve and the Bernstein coefficients
    (spans, 2p) of w = (gamma - c) x gamma' on each of them.

    Bezier extraction (every interior knot raised to multiplicity p) gives
    the span polynomials exactly; w is their product with the hodograph,
    of degree 2p - 1, whose Bernstein coefficients are sums of pairwise
    products.  The first and last coefficient of a span are the exact values
    of w at its ends.
    """
    kv = curve.basis
    p = kv.degree
    vals, counts = unique_knots(kv.knots)
    _, cp = insert_knots(kv, curve.control_points,
                         np.repeat(vals[1:-1], p - counts[1:-1]))
    lo, hi = vals[:-1], vals[1:]
    segs = cp[p * np.arange(len(lo))[:, None] + np.arange(p + 1)]
    rel = segs - np.asarray(center, dtype=float)
    hodo = p * np.diff(segs, axis=1) / (hi - lo)[:, None, None]
    cross = (rel[:, :, None, 0] * hodo[:, None, :, 1]
             - rel[:, :, None, 1] * hodo[:, None, :, 0])   # (spans, p+1, p)
    weight = np.zeros((p + 1, p, 2 * p))
    for i in range(p + 1):
        for j in range(p):
            weight[i, j, i + j] = comb(p, i) * comb(p - 1, j) \
                / comb(2 * p - 1, i + j)
    return lo, hi, np.einsum("sij,ijl->sl", cross, weight)


def _halve(coeffs):
    """de Casteljau split at the midpoint of each row of Bernstein
    coefficients: (left halves, right halves)."""
    left, right = [coeffs[:, 0]], [coeffs[:, -1]]
    work = coeffs
    for _ in range(coeffs.shape[1] - 1):
        work = 0.5 * (work[:, :-1] + work[:, 1:])
        left.append(work[:, 0])
        right.append(work[:, -1])
    return np.stack(left, axis=1), np.stack(right[::-1], axis=1)


def _merged(lo, hi) -> list:
    """Union of the intervals [lo, hi] as sorted disjoint (lo, hi) pairs."""
    order = np.argsort(lo)
    out = []
    for a, b in zip(lo[order].tolist(), hi[order].tolist()):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def check_boundary_regular(curve: SplineCurve, center, **details):
    """Raise MatchingError unless the curve never backtracks about center.

    For a curve star-shaped about ``center`` (a rotor arc about its axis)
    backtracking is a sign change of the polar angular speed
    w = (gamma - c) x gamma'.  The orientation is the sign of its integral,
    the signed area the radius sweeps.  On each knot span w is a polynomial
    in Bernstein form (``_angular_speed_bernstein``); a span whose
    coefficients all carry the orientation's sign is certified, a span end
    with the wrong sign (or w = 0) is a reversal, and any other span is
    halved by de Casteljau until one or the other holds.  A span narrower
    than KNOT_TOL that is still open cannot be certified.  ``details`` go
    into the error, with the offending eta intervals and the least value of
    w times the orientation sign at their ends.
    """
    lo, hi, coeffs = _angular_speed_bernstein(curve, center)
    # a curve that sweeps no net area gets sign 0 and fails on every span
    coeffs = coeffs * np.sign(np.sum((hi - lo) * coeffs.sum(axis=1)))
    while True:
        ends = np.minimum(coeffs[:, 0], coeffs[:, -1])
        if np.any(ends <= 0.0):
            spans = _merged(lo[ends <= 0.0], hi[ends <= 0.0])
            raise MatchingError(
                f"boundary backtracks about its center on eta "
                f"{', '.join(f'[{a:.6g}, {b:.6g}]' for a, b in spans)}",
                intervals=spans, min_w=float(ends.min()), **details)
        open_ = np.any(coeffs <= 0.0, axis=1)
        if not np.any(open_):
            return
        lo, hi, coeffs = lo[open_], hi[open_], coeffs[open_]
        if np.any(hi - lo < KNOT_TOL):
            narrow = hi - lo < KNOT_TOL
            raise MatchingError(
                "boundary regularity not certified: the angular speed "
                "touches zero", intervals=_merged(lo[narrow], hi[narrow]),
                min_w=float(ends.min()), **details)
        mid = 0.5 * (lo + hi)
        left, right = _halve(coeffs)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        coeffs = np.concatenate([left, right])


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


def assemble_separator_boundary(left_c: PatchParameterization,
                                right_c: PatchParameterization,
                                rotor_arcs, cusps, reparams,
                                xi_basis: KnotVector,
                                eta_kv: KnotVector) -> BoundarySet:
    """Boundary description of the separator patch.

    rotor_arcs: grid-coordinate parameterized west/east rotor arc curves
    (south to north); cusps: (upper, lower) cusp points; reparams:
    both-float matching functions for the west/east arcs; xi_basis: knot
    vector with the degree-fold repetition at 0.5; eta_kv: the common knot
    vector of both eta-direction curves.

    The north/south boundaries are the straight C-grid cut edges joined at
    the cusp, pinned to xi = 0.5 with the C0 knot; the west/east boundaries
    are the rotor arcs refit in eta_kv at the floated (matched) parameter
    values.  The matching functions act on the chord-length parameters of
    the matched clouds but are applied here to the arcs' own grid
    coordinate; the two differ, so the refit arcs are not exactly
    chord-consistent with the matching.
    """
    west_arc, east_arc = rotor_arcs
    f_w, f_e = reparams
    cusp_top, cusp_bot = (np.asarray(q, dtype=float) for q in cusps)

    lm = left_c.map.control_points
    rm = right_c.map.control_points
    a_top_l, a_bot_l = lm[0, 0], lm[-1, 0]
    a_bot_r, a_top_r = rm[0, 0], rm[-1, 0]

    scale = max(np.linalg.norm(cusp_top - cusp_bot), 1e-30)
    for got, want, name in ((west_arc.point(0.0), a_bot_l, "west south end"),
                            (west_arc.point(1.0), a_top_l, "west north end"),
                            (east_arc.point(0.0), a_bot_r, "east south end"),
                            (east_arc.point(1.0), a_top_r, "east north end"),
                            (lm[0, -1], cusp_top, "left c-grid top cusp"),
                            (rm[-1, -1], cusp_top, "right c-grid top cusp"),
                            (lm[-1, -1], cusp_bot, "left c-grid bottom cusp"),
                            (rm[0, -1], cusp_bot, "right c-grid bottom cusp")):
        gap = np.linalg.norm(np.asarray(got) - want)
        if gap > 1e-9 * scale:
            raise TopologyError(f"separator {name} mismatch", gap=float(gap))

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
# EGG problem and Newton solve
# ---------------------------------------------------------------------------

@dataclass
class EggProblem:
    """Root-finding state for one elliptic grid generation solve.

    The quadrature assembly for the map's basis and the auxiliary space is
    built once here; the default epsilon, ``egg_solve`` and ``egg_residual``
    all use it.
    """

    map: SplineMap
    aux: TensorBasis
    d: np.ndarray | None = None
    epsilon: float = 0.0
    newton_tol: float = 1e-8
    max_iter: int = 50
    assembly: EggAssembly = field(init=False, repr=False)

    def __post_init__(self):
        self.assembly = EggAssembly(self.map.basis, self.aux)
        if self.epsilon <= 0.0:
            self.epsilon = default_epsilon(self.map, self.assembly)


def default_epsilon(m: SplineMap, asm: EggAssembly) -> float:
    """1e-4 times the median metric trace of the (initial) map."""
    tr = asm.metric_sum_samples(m.control_points)
    return 1e-4 * float(np.median(tr))


def build_egg_problem(initial: SplineMap, newton_tol: float = 1e-8,
                      max_iter: int = 50) -> EggProblem:
    aux = build_aux_space(initial.basis)
    return EggProblem(map=initial, aux=aux, newton_tol=newton_tol,
                      max_iter=max_iter)


def egg_residual(problem: EggProblem, quad_scale: int = 1) -> np.ndarray:
    """Residual of the discrete system at the problem's current state."""
    asm = problem.assembly if quad_scale == 1 else \
        EggAssembly(problem.map.basis, problem.aux, quad_scale=quad_scale)
    d = problem.d
    if d is None:
        d = asm.project_u(problem.map.control_points)
    return asm.residual(problem.map.control_points, d, problem.epsilon)


def egg_solve(problem: EggProblem) -> PatchParameterization:
    """Newton iteration on the coupled (c_inner, d) unknowns.

    Starts from the problem's map (boundary control points are kept
    bit-identical); u is initialized by L2 projection of x_xi, so the first
    residual block vanishes.  Each step solves the analytic linearization in
    band storage (LAPACK gbsv) and takes a backtracking line search on the
    residual norm.  The auxiliary field is discarded from the returned
    parameterization.
    """
    asm = problem.assembly
    basis = problem.map.basis
    cp = problem.map.control_points.copy()
    d = problem.d if problem.d is not None else asm.project_u(cp)
    eps = problem.epsilon
    n1, n2 = basis.shape
    n_d = 2 * asm.Na

    res = asm.residual(cp, d, eps)
    norm0 = float(np.linalg.norm(res))
    target = problem.newton_tol * (norm0 + 1.0)
    history = [norm0]

    def fail(message, **details):
        problem.map = SplineMap(basis, cp)
        problem.d = d
        return NonconvergenceError(message, last_map=problem.map,
                                   history=history, **details)

    iterations = 0
    while history[-1] > target:
        if iterations >= problem.max_iter:
            raise fail(f"Newton did not converge in {problem.max_iter} "
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

    problem.map = SplineMap(basis, cp)
    problem.d = d
    return PatchParameterization(problem.map, iterations=iterations,
                                 residual_history=tuple(history))


# ---------------------------------------------------------------------------
# folding detection and repair
# ---------------------------------------------------------------------------

def folded_cells(det) -> list:
    """Cells (i, j) of a lattice of (n+1) x (n+1) determinant samples that
    have a corner with det <= 0, in row-major order."""
    bad = np.asarray(det) <= 0.0
    cells = bad[:-1, :-1] | bad[1:, :-1] | bad[:-1, 1:] | bad[1:, 1:]
    return [(int(i), int(j)) for i, j in np.argwhere(cells)]


def check_folding(param: PatchParameterization | SplineMap,
                  n_samples: int = 50):
    """Parametric cells of the n x n sample lattice whose corners carry a
    nonpositive Jacobian determinant; empty iff det J > 0 at all samples."""
    m = param.map if isinstance(param, PatchParameterization) else param
    t = np.linspace(0.0, 1.0, n_samples + 1)
    xu = m.evaluate_grid(t, t, 1, 0)
    xv = m.evaluate_grid(t, t, 0, 1)
    return folded_cells(xu[..., 0] * xv[..., 1] - xu[..., 1] * xv[..., 0])


def _spans_hit(kv: KnotVector, lo: float, hi: float):
    bps = kv.breakpoints
    out = []
    for k, (a, b) in enumerate(zip(bps[:-1], bps[1:])):
        if b > lo + 1e-14 and a < hi - 1e-14:
            out.append(0.5 * (a + b))
    return out


def repair_folding(problem: EggProblem, defects,
                   n_samples: int = 50) -> PatchParameterization:
    """Insert midpoint knots in the spans containing folded cells (both
    directions), re-solve, and repeat until fold-free or the round cap."""
    param = PatchParameterization(problem.map)
    for _ in range(REPAIR_ROUNDS):
        if not defects:
            return param
        xi_new, eta_new = set(), set()
        for ci, cj in defects:
            lo_x, hi_x = ci / n_samples, (ci + 1) / n_samples
            lo_e, hi_e = cj / n_samples, (cj + 1) / n_samples
            xi_new.update(_spans_hit(problem.map.basis.xi, lo_x, hi_x))
            eta_new.update(_spans_hit(problem.map.basis.eta, lo_e, hi_e))
        refined = problem.map.refine(sorted(xi_new), sorted(eta_new))
        problem = build_egg_problem(refined, newton_tol=problem.newton_tol,
                                    max_iter=problem.max_iter)
        param = egg_solve(problem)
        defects = check_folding(param, n_samples)
    if defects:
        raise FoldingUnrepairedError(
            f"folding persists after {REPAIR_ROUNDS} repair rounds",
            cells=defects)
    return param
