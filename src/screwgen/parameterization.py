"""Patch parameterization: transfinite interpolation, O-grid validity,
C-grid cutting, separator boundary assembly and the auxiliary-variable
elliptic grid generation (EGG) solve with folding detection and repair.

The EGG solve drives the inner control points of a tensor spline map so
that the inverse map components become harmonic.  The second xi-derivatives
are eliminated through an auxiliary field u living on a degree-elevated
space with a C0 macro split at xi = 0.5, which admits the kinked separator
boundaries.  The weak system is solved by Newton iteration with an analytic
linearization and a backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BasisMismatchError, DomainError, FoldingUnrepairedError,
                     NonconvergenceError, StructureError, TopologyError)
from .fitting import fit_curve
from .splines import (KNOT_TOL, AuxiliarySpace, KnotVector, SplineCurve,
                      SplineMap, TensorBasis, basis_ders_nonzero,
                      greville_abscissae, open_knots, unique_knots)

MAX_HALVINGS = 20   # line-search step halvings per Newton step
REPAIR_ROUNDS = 3   # knot-insertion rounds of the folding repair


@dataclass(frozen=True)
class BoundarySet:
    """Four boundary curves of a patch; an O-type patch omits one pair.

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
            raise TopologyError("corners undefined for O-type boundary sets")
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
    patch_kind: str  # c_grid_left | c_grid_right | separator
    theta: float = 0.0
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
    of opposite curves is absent (O-type input) the blend degenerates to the
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
# O-grid validity and C-grid cutting
# ---------------------------------------------------------------------------

def _segments_cross(p1, p2, q1, q2):
    """Vectorized proper-intersection test for segment batches."""
    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) \
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def o_grid_validity(rotor: SplineCurve, casing: SplineCurve):
    """Check that the rotor-to-casing connector segments never cross.

    Samples both curves at matched parameters (4x the control-point
    density) and tests all connector pairs for proper intersection.
    Diagnostic: returns (valid, crossings) with the offending parameter
    pairs.
    """
    n_samples = 4 * max(rotor.basis.n, casing.basis.n)
    t = np.linspace(0.0, 1.0, n_samples)
    a = rotor(t)
    b = casing(t)
    i, j = np.triu_indices(n_samples, k=1)
    cross = _segments_cross(a[i], b[i], a[j], b[j])
    crossings = [(float(t[ii]), float(t[jj]))
                 for ii, jj in zip(i[cross], j[cross])]
    return len(crossings) == 0, crossings


def cut_c_grid(o_grid: PatchParameterization, cusp_params) -> PatchParameterization:
    """Restrict an O-grid to the retained xi-arc between the cusp parameters
    and renormalize it to [0, 1] by knot-vector subdivision."""
    t1, t2 = cusp_params
    if t1 >= t2:
        raise DomainError("cusp parameters must be ordered")
    kv = o_grid.map.basis.xi
    if not (0.0 <= t1 and t2 <= 1.0):
        raise DomainError("cusp parameters outside the knot range")
    if t1 <= KNOT_TOL and t2 >= 1.0 - KNOT_TOL:
        return o_grid
    cut = o_grid.map.extract_xi(t1, t2)
    return replace(o_grid, map=cut)


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

def build_aux_space(basis: TensorBasis) -> AuxiliarySpace:
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
    return AuxiliarySpace(TensorBasis(aux_xi, basis.eta))


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
    """Precomputed quadrature tables for one primal/auxiliary space pair."""

    def __init__(self, basis: TensorBasis, aux: AuxiliarySpace,
                 quad_scale: int = 1):
        if not _same_knots(aux.basis.eta, basis.eta):
            raise BasisMismatchError("aux eta basis must match the primal")
        if np.abs(aux.basis.xi.breakpoints - basis.xi.breakpoints).max() > KNOT_TOL:
            raise BasisMismatchError("aux xi breakpoints must match the primal")
        self.basis = basis
        self.aux = aux
        n1 = quad_scale * (aux.basis.xi.degree + 1)
        n2 = quad_scale * (basis.eta.degree + 1)
        self.cx = _DirCache(basis.xi, n1, 2)
        self.ce = _DirCache(basis.eta, n2, 2)
        self.ax = _DirCache(aux.basis.xi, n1, 1)
        self.ae = _DirCache(aux.basis.eta, n2, 1)

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
        self.dof_a = dof_table(self.ax, self.ae, aux.basis.eta.n)
        self.Lp = self.cx.n_local * self.ce.n_local
        self.La = self.ax.n_local * self.ae.n_local
        self.Np = basis.xi.n * basis.eta.n
        self.Na = aux.basis.xi.n * aux.basis.eta.n

        def tensorize(c1, c2, k1, k2):
            # (E, Q, L) table of products of per-direction derivatives
            t = np.einsum("aqi,brj->abqrij", c1.vals[k1], c2.vals[k2])
            return t.reshape(self.E, self.Q, c1.n_local * c2.n_local)

        self.W = tensorize(self.cx, self.ce, 0, 0)
        self.Wx = tensorize(self.cx, self.ce, 1, 0)
        self.We = tensorize(self.cx, self.ce, 0, 1)
        self.Wxe = tensorize(self.cx, self.ce, 1, 1)
        self.Wee = tensorize(self.cx, self.ce, 0, 2)
        self.A = tensorize(self.ax, self.ae, 0, 0)
        self.Ax = tensorize(self.ax, self.ae, 1, 0)
        self.Ae = tensorize(self.ax, self.ae, 0, 1)

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
        mloc = np.einsum("eq,eqi,eqj->eij", self.wq, self.A, self.A)
        self.mass_aux = sp.csr_matrix(
            (mloc.ravel(), (rows, cols)), shape=(self.Na, self.Na))
        self._mass_solve = spla.factorized(self.mass_aux.tocsc())

    # -- field evaluation ----------------------------------------------------

    @staticmethod
    def _contract(coeffs, dofs, *tables):
        """Gather per-element coefficients (E, L, 2) and contract them with
        each (E, Q, L) table into a field at the quadrature points."""
        local = coeffs.reshape(-1, 2)[dofs]
        return [np.einsum("eql,eld->eqd", t, local) for t in tables]

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
        rhs_loc = np.einsum("eq,eqi,eqd->eid", self.wq, self.A, xx)
        rhs = np.zeros((self.Na, 2))
        np.add.at(rhs, self.dof_a.ravel(),
                  rhs_loc.reshape(self.E * self.La, 2))
        return np.column_stack([self._mass_solve(rhs[:, 0]),
                                self._mass_solve(rhs[:, 1])]).reshape(
            self.aux.basis.xi.n, self.aux.basis.eta.n, 2)

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
        mism = f["xx"] - f["u"]
        r1_loc = np.einsum("eq,eqi,eqd->eid", self.wq, self.A, mism)
        r1 = np.zeros((self.Na, 2))
        np.add.at(r1, self.dof_a.ravel(), r1_loc.reshape(-1, 2))
        r2_loc = np.einsum("eq,eqi,eqd->eid", self.wq, self.W, U)
        r2_full = np.zeros((self.Np, 2))
        np.add.at(r2_full, self.dof_p.ravel(), r2_loc.reshape(-1, 2))
        keep = self.inner_of_dof >= 0
        r2 = r2_full[keep]
        return np.concatenate([r1.ravel(), r2.ravel()])

    def jacobian(self, cp, d, eps):
        """Analytic Newton matrix for unknowns [d (2*Na); c_inner (2*n_inner)]."""
        f = self.fields(cp, d)
        den, P, U = self._upieces(f, eps)
        n_d = 2 * self.Na
        n_c = 2 * self.n_inner
        rows, cols, vals = [], [], []

        def add_block(r, c, v):
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(v.ravel())

        # R1/d: -mass (per component)
        m = self.mass_aux.tocoo()
        for comp in range(2):
            add_block(2 * m.row + comp, 2 * m.col + comp, -m.data)

        # R1/c: int a_i (w_j)_xi, inner columns only
        a1 = np.einsum("eq,eqi,eqj->eij", self.wq, self.A, self.Wx)
        r_idx = np.repeat(self.dof_a, self.Lp, axis=1)      # (E, La*Lp)
        c_idx = np.tile(self.dof_p, (1, self.La))
        c_inner = self.inner_of_dof[c_idx]
        ok = c_inner >= 0
        for comp in range(2):
            add_block(2 * r_idx[ok] + comp,
                      n_d + 2 * c_inner[ok] + comp,
                      a1.reshape(self.E, -1)[ok])

        # R2/d: diag over components: int w_i (g22 abar_j_x - g12 abar_j_e)/den
        kern = (f["g22"][..., None] * self.Ax
                - f["g12"][..., None] * self.Ae) / den[..., None]
        b2 = np.einsum("eq,eqi,eqj->eij", self.wq, self.W, kern)
        r_idx = np.repeat(self.dof_p, self.La, axis=1)
        c_idx = np.tile(self.dof_a, (1, self.Lp))
        r_inner = self.inner_of_dof[r_idx]
        ok = r_inner >= 0
        for comp in range(2):
            add_block(n_d + 2 * r_inner[ok] + comp,
                      2 * c_idx[ok] + comp,
                      b2.reshape(self.E, -1)[ok])

        # R2/c: full 2x2 component coupling through the metric
        dg11 = 2 * np.einsum("eqb,eql->eqlb", f["xx"], self.Wx)
        dg22 = 2 * np.einsum("eqb,eql->eqlb", f["xe"], self.We)
        dg12 = np.einsum("eqb,eql->eqlb", f["xx"], self.We) \
            + np.einsum("eqb,eql->eqlb", f["xe"], self.Wx)
        dP = (np.einsum("eqlb,eqa->eqlba", dg22, f["ux"])
              - np.einsum("eqlb,eqa->eqlba", dg12, f["ue"] + f["xxe"])
              + np.einsum("eqlb,eqa->eqlba", dg11, f["xee"]))
        diag = (-f["g12"][..., None] * self.Wxe
                + f["g11"][..., None] * self.Wee)   # (E, Q, L)
        dP += np.einsum("eql,ba->eqlba", diag, np.eye(2))
        dden = dg11 + dg22
        dU = (dP - np.einsum("eqlb,eqa->eqlba", dden, U)) / den[..., None, None, None]
        b3 = np.einsum("eq,eqi,eqlba->eilba", self.wq, self.W, dU)
        r_idx = np.repeat(self.dof_p, self.Lp, axis=1)      # (E, Lp*Lp) i-major
        c_idx = np.tile(self.dof_p, (1, self.Lp))
        r_inner = self.inner_of_dof[r_idx]
        c_inner = self.inner_of_dof[c_idx]
        ok = (r_inner >= 0) & (c_inner >= 0)
        b3 = b3.reshape(self.E, self.Lp * self.Lp, 2, 2)
        for b in range(2):
            for a in range(2):
                add_block(n_d + 2 * r_inner[ok] + a,
                          n_d + 2 * c_inner[ok] + b,
                          b3[..., b, a][ok])

        n_total = n_d + n_c
        J = sp.csr_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n_total, n_total))
        return J


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
    aux: AuxiliarySpace
    d: np.ndarray | None = None
    epsilon: float = 0.0
    newton_tol: float = 1e-8
    max_iter: int = 50
    theta: float = 0.0
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
                      max_iter: int = 50, theta: float = 0.0) -> EggProblem:
    aux = build_aux_space(initial.basis)
    return EggProblem(map=initial, aux=aux, newton_tol=newton_tol,
                      max_iter=max_iter, theta=theta)


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
    residual block vanishes.  Each step uses the analytic linearization and
    a backtracking line search on the residual norm.  The auxiliary field is
    discarded from the returned parameterization.
    """
    asm = problem.assembly
    basis = problem.map.basis
    cp = problem.map.control_points.copy()
    d = problem.d if problem.d is not None else asm.project_u(cp)
    eps = problem.epsilon
    n1, n2 = basis.shape

    res = asm.residual(cp, d, eps)
    norm0 = float(np.linalg.norm(res))
    target = problem.newton_tol * (norm0 + 1.0)
    history = [norm0]

    iterations = 0
    while history[-1] > target:
        if iterations >= problem.max_iter:
            problem.map = SplineMap(basis, cp)
            problem.d = d
            raise NonconvergenceError(
                f"Newton did not converge in {problem.max_iter} iterations "
                f"(residual {history[-1]:.3e}, target {target:.3e})",
                last_map=problem.map, history=history)
        J = asm.jacobian(cp, d, eps)
        lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
        step = lu.solve(-res)
        n_d = 2 * asm.Na
        dd = step[:n_d].reshape(asm.aux.basis.xi.n, asm.aux.basis.eta.n, 2)
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
            problem.map = SplineMap(basis, cp)
            problem.d = d
            raise NonconvergenceError(
                "line search failed to reduce the residual",
                last_map=problem.map, history=history)
        cp, d, res = cp_try, d_try, res_try
        history.append(norm_try)
        iterations += 1

    problem.map = SplineMap(basis, cp)
    problem.d = d
    return PatchParameterization(problem.map, "separator",
                                 problem.theta, iterations=iterations,
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
    param = PatchParameterization(problem.map, "separator", problem.theta)
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
                                    max_iter=problem.max_iter,
                                    theta=problem.theta)
        param = egg_solve(problem)
        defects = check_folding(param, n_samples)
    if defects:
        raise FoldingUnrepairedError(
            f"folding persists after {REPAIR_ROUNDS} repair rounds",
            cells=defects)
    return param
