"""Univariate and tensor-product B-spline bases, curves and surface maps.

All parameter domains are [0, 1]. Bases are open (clamped): the first and
last knots are repeated degree+1 times. Interior knots may be repeated up
to ``degree`` times, which reduces continuity down to C0 but never allows a
discontinuous basis.

Everything in this module is a pure function of immutable values; instances
never mutate after construction and can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidRefinementError

KNOT_TOL = 1e-12  # absolute tolerance for knot equality


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# knot vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnotVector:
    """Open knot vector of a given degree over [0, 1].

    Attributes
    ----------
    degree : int
        Polynomial degree p >= 1.
    knots : ndarray
        Nondecreasing knot sequence of length n + p + 1 with (p+1)-fold
        repetitions of 0 and 1 at the ends.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knots", _frozen(self.knots))
        p, t = self.degree, self.knots
        if p < 1:
            raise DomainError(f"degree must be >= 1, got {p}")
        if t.ndim != 1 or len(t) < 2 * (p + 1):
            raise DomainError("knot vector too short for degree")
        if np.any(np.diff(t) < -KNOT_TOL):
            raise DomainError("knots must be nondecreasing")
        if abs(t[0]) > KNOT_TOL or abs(t[p] - t[0]) > KNOT_TOL:
            raise DomainError("knot vector must be clamped at 0")
        if abs(t[-1] - 1.0) > KNOT_TOL or abs(t[-p - 1] - t[-1]) > KNOT_TOL:
            raise DomainError("knot vector must be clamped at 1")
        if np.any(unique_knots(t)[1][1:-1] > p):
            raise DomainError("interior knot multiplicity exceeds degree")

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.knots) - self.degree - 1

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (element boundaries)."""
        return unique_knots(self.knots)[0]

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    def multiplicity(self, value: float) -> int:
        return int(np.sum(np.abs(self.knots - value) <= KNOT_TOL))


def uniform_knots(degree: int, n_elements: int) -> KnotVector:
    """Open knot vector with ``n_elements`` uniform spans on [0, 1]."""
    interior = np.linspace(0.0, 1.0, n_elements + 1)[1:-1]
    knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    return KnotVector(degree, knots)


def open_knots(degree: int, interior, multiplicities=None) -> KnotVector:
    """Open knot vector from distinct interior knots and their multiplicities."""
    interior = np.asarray(interior, dtype=float)
    if multiplicities is None:
        multiplicities = np.ones(len(interior), dtype=int)
    rep = np.repeat(interior, multiplicities)
    knots = np.concatenate([np.zeros(degree + 1), rep, np.ones(degree + 1)])
    return KnotVector(degree, knots)


def unique_knots(knots: np.ndarray):
    """Distinct knot values and multiplicities of a sorted knot sequence: a
    new value starts wherever a knot lies more than KNOT_TOL above the one
    before it, and each value is the first knot of its run."""
    knots = np.asarray(knots, dtype=float)
    starts = np.flatnonzero(np.diff(knots) > KNOT_TOL) + 1
    bounds = np.concatenate([[0], starts, [len(knots)]])
    return knots[bounds[:-1]], np.diff(bounds)


# ---------------------------------------------------------------------------
# basis evaluation kernels
# ---------------------------------------------------------------------------

def find_spans(knots, degree, x):
    """Span index i with knots[i] <= x < knots[i+1], clamped to valid spans."""
    n = len(knots) - degree - 1
    s = np.searchsorted(knots, x, side="right") - 1
    return np.clip(s, degree, n - 1).astype(np.intp)


def _nonzero_values(knots, r, spans, x):
    """Values of the r+1 basis functions of degree ``r`` that are nonzero on
    the (degree-level) spans, via the triangular Cox-de-Boor scheme.

    Function j of the window corresponds to global index spans - r + j.
    """
    m = len(x)
    vals = np.zeros((m, r + 1))
    vals[:, 0] = 1.0
    left = np.zeros((m, r + 1))
    right = np.zeros((m, r + 1))
    for j in range(1, r + 1):
        left[:, j] = x - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - x
        saved = np.zeros(m)
        for k in range(j):
            denom = right[:, k + 1] + left[:, j - k]
            temp = vals[:, k] / denom
            vals[:, k] = saved + right[:, k + 1] * temp
            saved = left[:, j - k] * temp
        vals[:, j] = saved
    return vals


def _raise_degree_window(knots, r, spans, vals, p):
    """One derivative step: degree-r nonzero window -> derivative window of
    degree r+1 functions, using N'_{i,r+1} = (r+1) (N_{i,r}/d_i - N_{i+1,r}/d_{i+1}).

    ``vals`` has shape (m, r+1) for functions spans-r+j.  The result has
    shape (m, r+2) for functions spans-(r+1)+j, where the entries are the
    lower-degree combination, not yet scaled by (r+1) (the caller scales).
    ``p`` is the target full degree (decides window alignment only through
    spans, which are degree-level spans; alignment is the same).
    """
    m, w = vals.shape
    out = np.zeros((m, w + 1))
    # function global index of out column j: g = spans - (r+1) + j
    # term +: N_{g,r} / (knots[g+r+1]-knots[g]); term -: N_{g+1,r}/(knots[g+r+2]-knots[g+1])
    for j in range(w + 1):
        g = spans - (r + 1) + j
        if j > 0:
            d = knots[g + r + 1] - knots[g]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(d > 0, vals[:, j - 1] / np.where(d > 0, d, 1.0), 0.0)
            out[:, j] += t
        if j < w:
            d = knots[g + r + 2] - knots[g + 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(d > 0, vals[:, j] / np.where(d > 0, d, 1.0), 0.0)
            out[:, j] -= t
    return out


def basis_ders_nonzero(kv: KnotVector, x, nders: int):
    """Nonzero basis values and derivatives at the points ``x``.

    Returns
    -------
    spans : (m,) span indices
    ders : (nders+1, m, p+1) array; ders[k, i, j] is the k-th derivative of
        basis function spans[i]-p+j at x[i].
    """
    x = np.ascontiguousarray(x, dtype=float)
    p, knots = kv.degree, kv.knots
    spans = find_spans(knots, p, x)
    m = len(x)
    ders = np.zeros((nders + 1, m, p + 1))
    ders[0] = _nonzero_values(knots, p, spans, x)
    for k in range(1, nders + 1):
        r = p - k
        if r < 0:
            break  # higher derivatives of degree < k vanish
        vals = _nonzero_values(knots, r, spans, x)
        scale = 1.0
        for rr in range(r, p):
            vals = _raise_degree_window(knots, rr, spans, vals, p)
            scale *= rr + 1
        ders[k] = scale * vals
    return spans, ders


def basis_matrix(kv: KnotVector, x, der: int = 0):
    """Dense (m, n) matrix of basis values (or ``der``-th derivatives)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    spans, ders = basis_ders_nonzero(kv, x, der)
    m = len(x)
    out = np.zeros((m, kv.n))
    cols = spans[:, None] + np.arange(-kv.degree, 1)[None, :]
    np.put_along_axis(out, cols, ders[der], axis=1)
    return out


def _check_param(x, name="parameter"):
    x = np.asarray(x, dtype=float)
    if np.any(x < -KNOT_TOL) or np.any(x > 1.0 + KNOT_TOL):
        raise DomainError(f"{name} outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Per-basis-function knot averages, clipped into [0, 1]."""
    p = kv.degree
    g = np.convolve(kv.knots[1:-1], np.ones(p) / p, mode="valid")
    return np.clip(g, 0.0, 1.0)


# ---------------------------------------------------------------------------
# knot insertion
# ---------------------------------------------------------------------------

def insert_knots(kv: KnotVector, cp: np.ndarray, new_knots):
    """Refined knot vector and the control points, along the leading axis of
    ``cp``, of the same spline: repeated single-knot (Boehm) insertion."""
    new_knots = np.sort(np.asarray(new_knots, dtype=float))
    if new_knots.size == 0:
        return kv, cp
    if np.any(new_knots <= KNOT_TOL) or np.any(new_knots >= 1.0 - KNOT_TOL):
        raise InvalidRefinementError("new knots must be interior")
    p = kv.degree
    counts = unique_knots(np.sort(np.concatenate([kv.knots, new_knots])))[1]
    if np.any(counts[1:-1] > p):
        raise InvalidRefinementError("insertion would exceed multiplicity bound")

    knots = kv.knots
    shape = (p,) + (1,) * (cp.ndim - 1)
    for u in new_knots:
        # span k with knots[k] <= u < knots[k + 1]; control points
        # k-p+1 .. k become blends of their neighbours
        k = int(np.searchsorted(knots, u, side="right")) - 1
        lo = knots[k - p + 1:k + 1]
        alpha = ((u - lo) / (knots[k + 1:k + p + 1] - lo)).reshape(shape)
        cp = np.concatenate([cp[:k - p + 1],
                             alpha * cp[k - p + 1:k + 1]
                             + (1.0 - alpha) * cp[k - p:k],
                             cp[k:]])
        knots = np.concatenate([knots[:k + 1], [u], knots[k + 1:]])
    return KnotVector(p, knots), cp


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplineCurve:
    """Planar spline curve: basis plus (n, 2) control points."""

    basis: KnotVector
    control_points: np.ndarray

    def __post_init__(self):
        cp = np.ascontiguousarray(self.control_points, dtype=float)
        if cp.ndim != 2 or cp.shape[0] != self.basis.n or cp.shape[1] != 2:
            raise DomainError(
                f"control point grid {cp.shape} does not match basis dimension "
                f"{self.basis.n}")
        object.__setattr__(self, "control_points", _frozen(cp))

    def evaluate(self, x, der: int = 0) -> np.ndarray:
        x = _check_param(np.atleast_1d(np.asarray(x, dtype=float)))
        spans, ders = basis_ders_nonzero(self.basis, x, der)
        idx = spans[:, None] + np.arange(-self.basis.degree, 1)[None, :]
        return np.einsum("mj,mjd->md", ders[der], self.control_points[idx])

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def point(self, x: float) -> np.ndarray:
        return self.evaluate([float(x)])[0]

    def refine(self, new_knots) -> "SplineCurve":
        return SplineCurve(*insert_knots(self.basis, self.control_points,
                                         new_knots))

    def reversed(self) -> "SplineCurve":
        knots = 1.0 - self.basis.knots[::-1]
        return SplineCurve(KnotVector(self.basis.degree, knots),
                           self.control_points[::-1])

    def extract(self, a: float, b: float) -> "SplineCurve":
        """Restriction to [a, b], reparameterized affinely to [0, 1].

        Inserts a and b to multiplicity p, after which the restriction is a
        contiguous control-point slice [lo:hi] on a clamped sub knot vector.
        """
        if not (-KNOT_TOL <= a < b <= 1.0 + KNOT_TOL):
            raise DomainError(f"invalid extraction range ({a}, {b})")
        p = self.basis.degree
        work, cp = self.basis, self.control_points
        for u in (a, b):
            if KNOT_TOL < u < 1.0 - KNOT_TOL:
                work, cp = insert_knots(work, cp,
                                        np.full(p - work.multiplicity(u), u))
        knots = work.knots
        if a <= KNOT_TOL:
            lo = 0
        else:
            lo = int(np.argmax(np.abs(knots - a) <= KNOT_TOL)) - 1
        if b >= 1.0 - KNOT_TOL:
            hi = work.n
        else:
            hi = int(np.argmax(np.abs(knots - b) <= KNOT_TOL))
        mid = knots[(knots > a + KNOT_TOL) & (knots < b - KNOT_TOL)]
        sub = np.concatenate([np.full(p + 1, a), mid, np.full(p + 1, b)])
        sub = np.clip((sub - a) / (b - a), 0.0, 1.0)
        return SplineCurve(KnotVector(p, sub), cp[lo:hi])


# ---------------------------------------------------------------------------
# tensor-product maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorBasis:
    """Tensor-product basis from two univariate knot vectors (xi, eta)."""

    xi: KnotVector
    eta: KnotVector

    @property
    def shape(self):
        return (self.xi.n, self.eta.n)

    def greville_grid(self):
        return greville_abscissae(self.xi), greville_abscissae(self.eta)


@dataclass(frozen=True)
class SplineMap:
    """Tensor-product spline surface with an (n1, n2, 2) control net.

    Boundary control points are those with i in {0, n1-1} or j in {0, n2-1};
    the rest are inner control points.
    """

    basis: TensorBasis
    control_points: np.ndarray

    def __post_init__(self):
        cp = np.ascontiguousarray(self.control_points, dtype=float)
        if cp.shape != (self.basis.xi.n, self.basis.eta.n, 2):
            raise DomainError(
                f"control net {cp.shape} does not match basis "
                f"{self.basis.shape}")
        object.__setattr__(self, "control_points", _frozen(cp))

    # -- evaluation at paired points ---------------------------------------

    def evaluate(self, xi, eta, dxi: int = 0, deta: int = 0) -> np.ndarray:
        """Partial derivative d^(dxi+deta) x / dxi^dxi deta^deta at paired
        points; xi and eta are equal-length arrays."""
        xi = _check_param(np.atleast_1d(np.asarray(xi, dtype=float)), "xi")
        eta = _check_param(np.atleast_1d(np.asarray(eta, dtype=float)), "eta")
        su, du = basis_ders_nonzero(self.basis.xi, xi, dxi)
        sv, dv = basis_ders_nonzero(self.basis.eta, eta, deta)
        p1, p2 = self.basis.xi.degree, self.basis.eta.degree
        iu = su[:, None] + np.arange(-p1, 1)[None, :]
        iv = sv[:, None] + np.arange(-p2, 1)[None, :]
        sub = self.control_points[iu[:, :, None], iv[:, None, :]]
        return np.einsum("mi,mj,mijd->md", du[dxi], dv[deta], sub)

    def point(self, xi: float, eta: float) -> np.ndarray:
        return self.evaluate([xi], [eta])[0]

    def jacobian(self, xi, eta):
        """Jacobian matrices (m, 2, 2) with columns x_xi, x_eta, and dets (m,)."""
        xu = self.evaluate(xi, eta, 1, 0)
        xv = self.evaluate(xi, eta, 0, 1)
        J = np.stack([xu, xv], axis=-1)
        det = xu[:, 0] * xv[:, 1] - xu[:, 1] * xv[:, 0]
        return J, det

    # -- structure ----------------------------------------------------------

    def refine(self, xi_knots=(), eta_knots=()) -> "SplineMap":
        kvx, cp = insert_knots(self.basis.xi, self.control_points, xi_knots)
        kve, cp = insert_knots(self.basis.eta, cp.transpose(1, 0, 2),
                               eta_knots)
        return SplineMap(TensorBasis(kvx, kve), cp.transpose(1, 0, 2))


def join_curves(first: SplineCurve, second: SplineCurve, split: float) -> SplineCurve:
    """C0 join of two clamped curves into one over [0, 1] with the seam at
    ``split``; the first curve occupies [0, split].  End points must agree."""
    if not 0.0 < split < 1.0:
        raise DomainError("split must be interior")
    if first.basis.degree != second.basis.degree:
        raise DomainError("joined curves must share the degree")
    pa = first.control_points[-1]
    pb = second.control_points[0]
    if np.linalg.norm(pa - pb) > 1e-9 * max(1.0, np.abs(pa).max()):
        raise DomainError("curves do not meet at the seam")
    p = first.basis.degree
    ka = first.basis.knots * split
    kb = split + second.basis.knots * (1.0 - split)
    knots = np.concatenate([ka[:-1], kb[p + 1:]])
    ctrl = np.vstack([first.control_points, second.control_points[1:]])
    return SplineCurve(KnotVector(p, knots), ctrl)


def extract_wrapped(curve: SplineCurve, a: float, b: float) -> SplineCurve:
    """Restriction of a closed-seam curve to the wrapped range [a, 1] + [0, b]
    (or plainly [a, b] when a < b), renormalized to [0, 1].

    The curve's 0/1 endpoints must coincide (closed loop with a C0 seam);
    the wrapped result keeps that seam as an interior degree-fold knot.  A
    range that starts or ends on the seam is a plain extraction.
    """
    if a >= 1.0 - KNOT_TOL:
        a = 0.0
    if b <= KNOT_TOL:
        b = 1.0
    if a < b:
        return curve.extract(a, b)
    first = curve.extract(a, 1.0)
    second = curve.extract(0.0, b)
    split = (1.0 - a) / ((1.0 - a) + b)
    return join_curves(first, second, split)
