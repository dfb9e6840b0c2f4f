"""Patch algorithms: transfinite interpolation, the auxiliary-variable
elliptic grid generation (EGG) solve with folding repair, and the one sign
certificate behind every fold check.  The boundary curves come from the
caller (``pipeline`` builds the separator's), and nothing here fits data.

The certificate proves a spline quantity positive on each knot span by its
Bernstein coefficients, halving by de Casteljau where they are inconclusive.
It checks the separator's west/east boundaries (whose backtracking admits
no fold-free interior map) and, in ``check_folding``, det J > 0 of every
patch map: the EGG separator and the two ruled C-grids.

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
line search.  Every integrand is a tensor product of 1-D tables, so the
assembly works by sum factorization (Antolin, Buffa, Calabro, Martinelli
& Sangalli, CMAME 2015): the fields at the Gauss points are two
contractions of the net, one per direction, the residual is the transposed
pair, and the Newton matrix sums over the eta points of each span before
the xi points.  The unknowns are numbered eta-slow and grouped by eta
degree many eta indices, so the Newton matrix is block-tridiagonal over
the groups with blocks of a size fixed by the xi width, and its
component-diagonal part, alike for both components, is placed for one
component and copied onto the other.  The matrix is scattered straight
into an array of each group's three blocks, and each step is one block
LU solve (the block Thomas algorithm) in numpy, which pivots inside each
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (BasisMismatchError, FoldingUnrepairedError,
                     MatchingError, NonconvergenceError, StructureError,
                     TopologyError)
from .splines import (KNOT_TOL, KnotVector, SplineCurve,
                      SplineMap, TensorBasis, basis_ders_nonzero,
                      basis_matrix, basis_tables, blossoms,
                      bounding_box_diagonal, insert_knots)

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


# ---------------------------------------------------------------------------
# transfinite interpolation
# ---------------------------------------------------------------------------

def transfinite(west: SplineCurve, east: SplineCurve, south: SplineCurve,
                north: SplineCurve, basis: TensorBasis) -> SplineMap:
    """Spline transfinite interpolation of the four boundary curves.

    south / north run in xi (west to east) on eta = 0 / 1 and live in
    ``basis.xi``; west / east run in eta (south to north) on xi = 0 / 1 and
    live in ``basis.eta``, each knot vector equal to the basis's, else
    BasisMismatchError.  The corners are the end control points of south
    and north; the west and east ends must meet them within 1e-10 of the
    boundary control points' bounding-box diagonal, else TopologyError.

    The blending factors are linear, so collocating them at the Greville
    abscissae yields the exact spline representation of the boundary blend;
    boundary control rows reproduce the input curves verbatim.
    """
    w, e, s, n = west, east, south, north
    for curve, kv, name in ((w, basis.eta, "west"), (e, basis.eta, "east"),
                            (s, basis.xi, "south"), (n, basis.xi, "north")):
        if curve.basis != kv:
            raise BasisMismatchError(
                f"{name} boundary curve does not live in the patch basis",
                side=name)
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
# Bernstein sign certificate and the boundary regularity check
# ---------------------------------------------------------------------------

def _bezier(kv: KnotVector, cp):
    """Knot spans (lo, hi) and the Bezier control points (spans, p+1, ...)
    of the spline with control points cp along their leading axis: the
    blossoms f(lo^(p-j), hi^j), all spans and all j in one call."""
    p = kv.degree
    lo, hi = kv.breakpoints[:-1], kv.breakpoints[1:]
    # args[s, j, r] = hi on the last j levels r, else lo
    args = np.where(np.arange(p) >= p - np.arange(p + 1)[:, None],
                    hi[:, None, None], lo[:, None, None])
    segs = blossoms(kv, cp, np.repeat(kv.spans, p + 1), args.reshape(-1, p))
    return lo, hi, segs.reshape((len(lo), p + 1) + segs.shape[1:])


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


def check_boundary_regular(curve: SplineCurve, center, **details):
    """Raise MatchingError unless the curve never backtracks about center.

    For a curve star-shaped about ``center`` (a rotor arc about its axis)
    backtracking is a sign change of the polar angular speed
    w = (gamma - c) x gamma'; the orientation is the sign of the area the
    radius sweeps, the sign of the integral of w.  ``details`` go into the
    error, with the failed eta intervals and the least value of w times
    that sign at their ends (``min_w``): the intervals with a wrong-signed
    exact value if there are any, else those left uncertified.
    """
    lo, hi, segs = _bezier(curve.basis, curve.control_points)
    hodograph = curve.basis.degree * np.diff(segs, axis=1)
    w = _bernstein_cross(segs - np.asarray(center, dtype=float),
                         hodograph / (hi - lo)[:, None, None])
    w = w * np.sign(np.sum((hi - lo) * w.sum(axis=1)))
    box, _, least = _certify(np.stack([lo, hi], 1)[..., None], w)
    wrong = ~(least > 0)
    box = box[wrong] if np.any(wrong) else box
    spans = []
    for a, b in sorted(box[:, :, 0].tolist()):
        if spans and a <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], b))
        else:
            spans.append((a, b))
    if spans:
        message = ("boundary backtracks about its center on eta"
                   if np.any(wrong) else
                   "boundary regularity not certified on eta")
        raise MatchingError(
            f"{message} " + ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in spans),
            intervals=spans, min_w=float(least.min()), **details)


# ---------------------------------------------------------------------------
# auxiliary space
# ---------------------------------------------------------------------------

def _aux_xi(kv: KnotVector) -> KnotVector:
    """The xi knot vector of the degree-elevated auxiliary space: degree
    p+1, the interior knots kept, the end repetitions raised to p+2 and the
    degree-fold 0.5 repetition, which it requires, to p+1."""
    if kv.multiplicity(0.5) != kv.degree:
        raise StructureError(
            "xi knot vector must carry a degree-fold repetition at 0.5",
            multiplicity=kv.multiplicity(0.5), degree=kv.degree)
    counts = kv.multiplicities + (np.abs(kv.breakpoints - 0.5) <= KNOT_TOL)
    counts[[0, -1]] += 1
    return KnotVector(kv.degree + 1, np.repeat(kv.breakpoints, counts))


# ---------------------------------------------------------------------------
# per-direction quadrature tables
# ---------------------------------------------------------------------------

def _gauss_windows(kv: KnotVector, rule, max_der: int):
    """The Gauss rule (nodes, weights on [-1, 1]) on every knot span and the
    basis on it: the nodes, span-major, weights (spans, nodes), the first of
    the p+1 functions nonzero on each span (spans,) and their derivatives up
    to max_der, (max_der+1, spans, nodes, p+1)."""
    breaks = kv.breakpoints
    ref_x, ref_w = rule
    half = 0.5 * np.diff(breaks)[:, None]
    nodes = (0.5 * (breaks[:-1, None] + breaks[1:, None]) + half * ref_x
             ).ravel()
    cols, ders = basis_ders_nonzero(kv, nodes, max_der)
    return (nodes, half * ref_w, cols[::len(ref_x), 0],
            ders.reshape((max_der + 1, len(breaks) - 1, len(ref_x), -1)))


def _sum_span_products(A, B, first, n, pairs):
    """Sum over spans e and window positions l of A[e, l] @ B[e], each
    (R, C), into row first[e] + l of (n, R, C); for pairs, whose R = L
    axis is the function first[e] + k, into (n, 2L - 1, C) over the
    offsets k - l + L - 1.  One product per window position keeps the
    temporaries at a span's share."""
    L, R = A.shape[1:3]
    out = np.zeros((n, 2 * L - 1 if pairs else R, B.shape[-1]))
    for l in range(L):
        lo = L - 1 - l if pairs else 0
        out[first + l, lo:lo + R] += A[:, l] @ B   # one row per span
    return out


def _xi_tables(kv: KnotVector):
    """EggAssembly's tables of the xi direction, which depend on its knot
    vector alone: the first function of each span; the 1-D projection
    ``proj``; the xi tables the eta derivatives 0, 1, 2 of the fields meet
    (terms, 1, n1, xi points): x_xi, u_xi | x_eta, x_xi_eta, u_eta |
    x_eta_eta; the weighted test functions (xi points, n1); and the xi
    products w N_i1 tau_j1 of the Newton matrix over (term, xi point) per
    span, with tau = phi', phi + N', N for the component-diagonal terms of
    eta derivative 0, 1, 2 (inner j1 only) and N', N for the 2x2 ones."""
    aux_xi = _aux_xi(kv)
    n1, n1q = kv.n, aux_xi.degree + 1
    rule = np.polynomial.legendre.leggauss(n1q)
    x1, w1, first1, N = _gauss_windows(kv, rule, 1)
    E1, L1 = len(w1), N.shape[-1]
    # the dense tables of all functions at the xi points, (2, points, n)
    Nd, Ad = (np.stack([basis_matrix(b, x1, der) for der in (0, 1)])
              for b in (kv, aux_xi))
    wa = w1.reshape(-1, 1) * Ad[0]
    proj = np.linalg.solve(wa.T @ Ad[0], wa.T @ Nd[1])
    phi = Ad @ proj                               # (2, xi points, n1)
    fields = tuple(np.stack(t).transpose(0, 2, 1)[:, None] for t in
                   ((Nd[1], phi[1]), (Nd[0], Nd[1], phi[0]), (Nd[0],)))
    wN = w1[..., None] * N[0]
    tau = np.stack([phi[1], phi[0] + Nd[1], Nd[0]])[:, :, 1:-1]
    diag = np.einsum("eql,keqj->eljkq", wN, tau.reshape(3, E1, n1q, n1 - 2)
                     ).reshape(E1, L1, n1 - 2, 3 * n1q)
    full = np.einsum("eql,keqj->eljkq", wN, N[::-1]).reshape(
        E1, L1, L1, 2 * n1q)
    return first1, proj, fields, w1.reshape(-1, 1) * Nd[0], diag, full


def _newton_layout(n1, n2, p1, p2):
    """The block layout of the Newton matrix of an n1 x n2 net of degrees
    (p1, p2), which depends on that shape alone: the block array's shape
    (G, 3, s, s) and the raveled positions in it of the component-diagonal
    block's component 0 and of the 2x2 block.

    A group holds p2 consecutive inner eta indices, s = 2 (n1 - 2) p2
    unknowns, and the unknowns past n in the last group are the pad.  Eta
    indices couple at most p2 apart, so a group couples only to its two
    neighbours: [g, 0] is its block with group g - 1, [g, 1] with itself
    and [g, 2] with group g + 1.  A pair with a boundary dof goes to the
    spare slot G 3 s^2 after the array.
    """
    m = n1 - 2
    half = m * p2                         # unknown pairs per group
    s = 2 * half
    groups = -(-(n2 - 2) // p2)
    # unknown pair of each control point, -1 on the boundary and on the
    # pads that out-of-range offsets reach
    pos = -np.ones((n1 + 2 * p1, n2 + 2 * p2), dtype=np.int64)
    pos[p1 + 1:p1 + n1 - 1, p2 + 1:p2 + n2 - 1] = np.arange(
        m * (n2 - 2)).reshape(n2 - 2, m).T
    row = pos[p1:p1 + n1, p2:p2 + n2]
    j2 = np.arange(n2)[:, None] + np.arange(2 * p2 + 1)
    j1 = np.arange(n1)[:, None] + np.arange(2 * p1 + 1)

    def at(r, c, shift=0):
        """Raveled position of entry (2r, 2c), plus shift, of pairs r, c."""
        gr, gc = r // half, c // half
        flat = (((3 * gr + gc - gr + 1) * s + 2 * (r % half)) * s
                + 2 * (c % half))
        return np.where((r >= 0) & (c >= 0), flat + shift,
                        groups * 3 * s * s).ravel()

    # (row, column) pairs of the diagonal block, (i1, inner j1, i2,
    # offset), and of the 2x2 block, (i1, offset, a, b, i2, offset), whose
    # entry (2r + a, 2c + b) lies a rows and b columns on
    a, b = np.arange(2)[:, None, None, None], np.arange(2)[:, None, None]
    diag_at = at(row[:, None, :, None], pos[p1 + 1:p1 + n1 - 1][:, j2])
    x_at = at(row[:, None, None, None, :, None],
              pos[j1[:, :, None, None], j2][:, :, None, None], a * s + b)
    return (groups, 3, s, s), diag_at, x_at


def _block_solve(blocks, rhs):
    """Solve the block-tridiagonal system (G, 3, s, s) of ``jacobian``
    against rhs (n,) by block LU, the block Thomas algorithm (Golub & Van
    Loan, Matrix Computations, 4.5), overwriting the diagonal blocks.

    Group g's Schur complement S_g = D_g - L_g X_(g-1) is solved against
    [rhs | upper block], [y_g | X_g] = S_g^-1 [r_g - L_g y_(g-1) | U_g],
    with partial pivoting inside the group; one matmul of L_g with the
    previous group's [y | X] updates both.  Back substitution then gives
    x_g = y_g - X_g x_(g+1).  The pad is never read: the last group's rows
    and the columns of the upper block before it stop at the last
    unknown.  Returns (step, None), or (None, g) with the group whose Schur
    complement is singular or where the step first turns non-finite.
    """
    groups, _, s, _ = blocks.shape
    n = len(rhs)
    # the unknowns of each group, the pad cut off, and none past the last
    size = [s] * (groups - 1) + [n - (groups - 1) * s, 0]
    work = np.zeros((groups, s, s + 1))
    work[:, :, 1:] = blocks[:, 2]
    work.reshape(-1, s + 1)[:n, 0] = rhs
    # an inf or NaN in the matrix makes more on the way; the check below
    # reports them
    with np.errstate(invalid="ignore", over="ignore"):
        for g in range(groups):
            r = size[g]
            schur, w = blocks[g, 1, :r, :r], work[g, :r, :size[g + 1] + 1]
            if g:
                t = blocks[g, 0, :r] @ work[g - 1, :, :r + 1]
                schur -= t[:, 1:]
                w[:, 0] -= t[:, 0]
            try:
                w[...] = np.linalg.solve(schur, w)
            except np.linalg.LinAlgError:
                return None, g
        step = [work[-1, :size[-2], 0]]
        for g in range(groups - 2, -1, -1):
            step.append(work[g, :, 0] - work[g, :, 1:size[g + 1] + 1]
                        @ step[-1])
    step = np.concatenate(step[::-1])
    if not np.isfinite(step).all():
        # elimination runs forward and back substitution backward
        forward = ~np.isfinite(work).all(axis=(1, 2))
        g = (np.flatnonzero(forward)[0] if forward.any() else
             np.flatnonzero(~np.isfinite(step))[-1] // s)
        return None, int(g)
    return step, None


class EggAssembly:
    """Per-direction quadrature tables and the block-tridiagonal
    Newton-matrix layout of one primal basis, with the auxiliary space
    built from it.

    The aux mass is M_xi (x) M_eta and the coupling int a_k (w_i)_xi is
    G_xi (x) M_eta (see the module docstring), so the L2 projection of x_xi
    has the coefficients d = (proj (x) I) c with the 1-D
    ``proj`` = M_xi^-1 G_xi, and u = sum_ij c_ij phi_i(xi) M_j(eta) with the
    projected xi basis phi_i = sum_k proj[k, i] a_k.  Residual and Jacobian
    are those of the mixed form's second equation with u so eliminated.
    The rule has degree + 1 Gauss points per span in each direction, the
    aux degree in xi.

    Every integrand is a tensor product, so nothing is tabulated per 2-D
    element.  The xi tables are dense over all xi Gauss points (phi is
    nonzero on every span anyway); the eta tables are the p+1 functions of
    each span.  The xi tables (``_xi_tables``: ``proj``, phi and the
    field, test and Newton-matrix tables built from them) depend on the xi
    knot vector alone, which is fixed for a geometry, so they come from
    ``splines.basis_tables``, shared by every assembly over an equal xi knot
    vector within its TABLE_CACHE_SIZE entries; the eta tables follow the
    per-angle eta knots and are built per assembly.  ``fields`` contracts
    the net with the eta windows, then with the xi tables, onto the Gauss
    grid; ``residual`` and ``jacobian`` read its result, so the caller
    decides which nets' fields to evaluate and keep.  ``residual`` is the
    transposed pair.  The Jacobian integrand is a sum of terms
    coefficient(q) * trial xi function * trial eta derivative, with the
    weighted test function N_i1 M_i2; each term is summed over the eta
    points of each span against products M_i2 M^(k)_j2 and folded into
    (row, offset) pairs, then over the xi points of each span against
    products N_i1 tau_j1.

    Residuals and steps are vectors over the inner control points numbered
    eta-slow: eta index j holds its 2*(xi.n - 2) dofs, component fastest.
    A knot span couples every xi dof of its p+1 eta indices, so eta indices
    couple at most p apart, and groups of p consecutive ones, s = 2 (xi.n -
    2) p unknowns each, make the matrix block-tridiagonal whatever the eta
    length.  ``jacobian`` scatters it into a (G, 3, s, s) array of each
    group's blocks with the previous group, itself and the next, at
    positions that depend on the basis's shape and degrees alone
    (``_newton_layout``, which ``basis_tables`` caches by those integers as
    it caches the xi tables by their knot vector); the last group's pad rows
    and columns stay zero.  The component-diagonal block (through u, x_xi_eta
    and x_eta_eta) is the same for both components and is placed once: s
    is even, so the component-1 entry (2r + 1, 2c + 1) lies one row and one
    column on from the component-0 entry (2r, 2c) in the same block.
    """

    def __init__(self, basis: TensorBasis):
        self.basis = basis
        (self._first1, self.proj, self._xi, self._xi_test, self._xi_diag,
         self._xi_x) = basis_tables(_xi_tables, basis.xi)
        n2q = basis.eta.degree + 1
        _, w2, self._first2, M = _gauss_windows(
            basis.eta, np.polynomial.legendre.leggauss(n2q), 2)
        L2 = M.shape[-1]
        # fields: the eta windows of each span (E2, 3 * n2q, L2)
        self._eta = M.transpose(1, 0, 2, 3).reshape(len(w2), -1, L2)
        self._win2 = self._first2[:, None] + np.arange(L2)
        # residual: the weighted test functions
        self._eta_test = (w2[..., None] * M[0]).transpose(0, 2, 1)[:, :, None]
        # Jacobian: eta products w M_i2 M^(k)_j2, (3, E2, L2, L2, n2q)
        self._eta_pairs = np.einsum("eql,keqj->keljq", w2[..., None] * M[0], M)
        self.block_shape, self._diag_at, self._x_at = basis_tables(
            _newton_layout, *basis.shape, basis.xi.degree, basis.eta.degree)

    # -- field evaluation ----------------------------------------------------

    def fields(self, cp):
        """x_xi, x_eta, x_xi_eta, x_eta_eta, u_xi, u_eta (2, eta points, xi
        points) and the metric (eta points, xi points) of the net on the
        Gauss grid, both directions span-major."""
        n1 = len(cp)
        E2, L2 = self._win2.shape
        # the eta derivatives 0, 1, 2 on every eta point, (3, 2, points, n1)
        y = self._eta @ cp[:, self._win2].transpose(1, 2, 3, 0).reshape(
            E2, L2, 2 * n1)
        y = y.reshape(E2, 3, -1, 2, n1).transpose(1, 3, 0, 2, 4).reshape(
            3, 2, -1, n1)
        xx, ux = y[0] @ self._xi[0]
        xe, xxe, ue = y[1] @ self._xi[1]
        f = {"xx": xx, "xe": xe, "xxe": xxe, "xee": (y[2] @ self._xi[2])[0],
             "ux": ux, "ue": ue}
        f["g11"] = np.einsum("d...,d...->...", xx, xx)
        f["g12"] = np.einsum("d...,d...->...", xx, xe)
        f["g22"] = np.einsum("d...,d...->...", xe, xe)
        return f

    # -- residual and Jacobian ----------------------------------------------

    @staticmethod
    def _upieces(f, eps):
        den = f["g11"] + f["g22"] + eps
        P = (f["g22"] * f["ux"] - f["g12"] * f["ue"] - f["g12"] * f["xxe"]
             + f["g11"] * f["xee"])
        return den, P / den

    def residual(self, f, eps):
        """Residual vector int w_i U over the inner dofs, eta-slow, from the
        net's ``fields`` f."""
        den, U = self._upieces(f, eps)
        n1, n2 = self.basis.shape
        E2, _, _, n2q = self._eta_test.shape
        z = (U @ self._xi_test).reshape(2, E2, n2q, n1)
        z = _sum_span_products(
            self._eta_test, z.transpose(1, 2, 3, 0).reshape(E2, n2q, 2 * n1),
            self._first2, n2, pairs=False)
        return z.reshape(n2, n1, 2)[1:-1, 1:-1].ravel()

    def _eta_sums(self, f, eps):
        """The Newton integrand summed over the eta points of each span
        against the eta products and folded into (i2, offset) pairs, laid
        out by xi span for the xi sums: the component-diagonal terms
        (E1, term * xi point, i2 * offset) and the 2x2 ones
        (E1, term * xi point, [a, b] * i2 * offset)."""
        den, U = self._upieces(f, eps)
        n2 = self.basis.shape[1]
        G2, G1 = den.shape
        E1, E2 = len(self._first1), len(self._first2)
        n1q, n2q = G1 // E1, G2 // E2
        offsets = 2 * self.basis.eta.degree + 1
        inv = 1 / den
        # U_a depends on c_jb through u (g22 phi_j1' M_j2 - g12 phi_j1 M_j2')
        # and through x: x_xi_eta and x_eta_eta enter with -g12 and g11
        # alike for both components, the metric with the 2x2 coefficients
        # [a, b] of x_xi (trial N' M) and x_eta (trial N M').  Term k has
        # the trial eta derivative k.
        diag = np.stack([f["g22"], -f["g12"], f["g11"]]) * inv
        x = np.stack([f["xx"], f["xe"]])
        s = f["ue"] + f["xxe"]
        full = (2 * (np.stack([f["xee"], f["ux"]]) - U)[:, :, None]
                * x[:, None] - s[:, None] * x[::-1, None]) * inv
        d_in = np.empty((E1, 3, n1q, n2, offsets))
        x_in = np.empty((E1, 2, n1q, 4, n2, offsets))
        for k, m in enumerate((*full, None)):
            coef = diag[k][:, None] if m is None else np.concatenate(
                [diag[k][:, None], m.reshape(4, G2, G1).transpose(1, 0, 2)],
                axis=1)
            t = _sum_span_products(self._eta_pairs[k],
                                   coef.reshape(E2, n2q, -1), self._first2,
                                   n2, pairs=True).reshape(n2, offsets, -1,
                                                           E1, n1q)
            d_in[:, k] = t[:, :, 0].transpose(2, 3, 0, 1)
            if m is not None:
                x_in[:, k] = t[:, :, 1:].transpose(3, 4, 2, 0, 1)
        return d_in.reshape(E1, 3 * n1q, -1), x_in.reshape(E1, 2 * n1q, -1)

    def jacobian(self, f, eps):
        """Analytic Newton matrix at the net's ``fields`` f as the
        block-tridiagonal array (G, 3, s, s): [g, 0], [g, 1] and [g, 2] are
        group g's blocks with groups g - 1, g and g + 1, zero past the ends
        and on the last group's pad, which ``_block_solve`` never reads."""
        n1 = self.basis.shape[0]
        diag, full = self._eta_sums(f, eps)
        # the xi sums: (i1, inner j1, i2, offset) and (i1, offset, [a, b],
        # i2, offset)
        diag = _sum_span_products(self._xi_diag, diag, self._first1, n1,
                                  pairs=False)
        full = _sum_span_products(self._xi_x, full, self._first1, n1,
                                  pairs=True)
        groups, _, s, _ = self.block_shape
        flat = np.zeros(groups * 3 * s * s + 1)
        flat[self._diag_at] = diag.ravel()
        blocks = flat[:-1].reshape(self.block_shape)
        blocks[..., 1::2, 1::2] = blocks[..., ::2, ::2]   # component 1
        flat[self._x_at] += full.ravel()
        return blocks


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
    solved.  Each step solves its analytic linearization, block-tridiagonal
    over groups of eta indices, by block LU (``_block_solve``) and takes a
    backtracking line search on the residual norm.  A singular group or a
    non-finite step raises NonconvergenceError with the step and group.
    Each net costs one fields pass: the start's gives epsilon and the start
    residual, and a trial's gives its residual and, once the trial is
    accepted, the next Newton matrix.  The residual is a length; the
    iteration stops once its norm is below NEWTON_TOL times the initial
    norm plus the initial net's bounding-box diagonal, so a scaled map takes
    the same steps.  A start whose residual or epsilon is not finite raises
    NonconvergenceError before any step.
    """
    basis = initial.basis
    asm = EggAssembly(basis)
    cp = initial.control_points.copy()
    n1, n2 = basis.shape
    # an inf in the net makes NaNs on the way; the check below reports them
    with np.errstate(invalid="ignore", over="ignore"):
        f = asm.fields(cp)
        eps = 1e-4 * float(np.median(f["g11"] + f["g22"]))
        res = asm.residual(f, eps)
        norm0 = float(np.linalg.norm(res))
        target = NEWTON_TOL * (norm0
                               + bounding_box_diagonal(cp.reshape(-1, 2)))
    history = [norm0]

    def fail(message, **details):
        return NonconvergenceError(message, last_map=SplineMap(basis, cp),
                                   history=history, **details)

    # a NaN residual compares false with the target and would pass as
    # converged
    if not (np.isfinite(norm0) and np.isfinite(eps)):
        raise fail(f"non-finite initial map: residual {norm0}, epsilon {eps}",
                   epsilon=eps)
    iterations = 0
    while history[-1] > target:
        if iterations >= MAX_NEWTON_ITER:
            raise fail(f"Newton did not converge in {MAX_NEWTON_ITER} "
                       f"iterations (residual {history[-1]:.3e}, "
                       f"target {target:.3e})")
        step, group = _block_solve(asm.jacobian(f, eps), -res)
        if step is None:
            raise fail(f"singular Newton matrix at step {iterations}",
                       step=iterations, group=group)
        dc = step.reshape(n2 - 2, n1 - 2, 2).transpose(1, 0, 2)

        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            f = None        # hold one net's fields at a time
            cp_try = cp.copy()
            cp_try[1:-1, 1:-1] += scale * dc
            f = asm.fields(cp_try)
            res_try = asm.residual(f, eps)
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
