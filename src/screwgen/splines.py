"""Univariate and tensor-product B-spline bases, curves and surface maps.

All parameter domains are [0, 1]. Bases are open (clamped): the first and
last knots are repeated degree+1 times. Interior knots may be repeated up
to ``degree`` times, which reduces continuity down to C0 but never allows a
discontinuous basis.

A ``KnotVector`` clusters its knots once, when it is built: knots within
KNOT_TOL of the one before them join its value.  The distinct values
(breakpoints), their multiplicities and each element's span index are part
of the value, and every consumer reads them there.  A merge of two knot
vectors (``merge_knot_vectors``, ``promote_curve``) clusters the union of
their breakpoints by the same rule, ``unique_knots``.

The module has two kernels.  Every change of basis is ``blossoms``: the
control points of a spline in a knot sequence that refines its own are its
blossoms (polar forms) at that sequence's consecutive degree-tuples.  Knot
insertion (all knots at once, the Oslo algorithm), sub-range extraction,
Bezier nets and the halving of Bernstein coefficients all run through it.
It runs de Boor's algorithm one level at a time, over all remaining indices
and all requested blossoms at once.
Every basis evaluation is ``basis_ders_nonzero``: one Cox-de Boor triangle
gives the values and all derivatives of the p+1 functions nonzero at each
point, returned with ``cols``, the (m, p+1) global indices of that window.
Consumers index coefficients by ``cols`` and never rebuild the window from
span indices.

``SplineMap.evaluate`` and ``SplineMap.jacobian`` share one evaluation
kernel at paired points (xi[i], eta[i]), which works on blocks of at most
EVAL_BLOCK points.  Per block it makes one basis pass per direction,
for the highest derivative order asked for, and contracts one xi offset at
a time: the (block, q+1, 2) control rows of that offset are gathered,
contracted in eta and accumulated with the offset's xi weights.  Every
temporary is O(block (q+1)), so the memory beyond the output is fixed, and
``jacobian`` takes x_xi and x_eta from the same tables and gathers.

Everything in this module is a pure function of immutable values; instances
never mutate after construction and can be shared freely between threads.
A knot vector compares and hashes by its degree and knot values, and so
does a ``TensorBasis`` through its two knot vectors; curves and maps
compare by identity.  ``basis_tables`` is then a plain ``lru_cache`` of
functions of knot vectors or of a net's shape, bounded by TABLE_CACHE_SIZE
entries whose arrays are read-only; it is the package's one table cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidRefinementError, TopologyError

KNOT_TOL = 1e-12  # absolute tolerance for knot equality
EVAL_BLOCK = 4096  # points per block of SplineMap evaluation
TABLE_CACHE_SIZE = 16  # entries of the fixed-basis table cache (basis_tables)


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def bounding_box_diagonal(points) -> float:
    """Extent of a point set: its bounding box's diagonal, the length scale
    that relative tolerances refer to."""
    points = np.asarray(points, dtype=float)
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


# ---------------------------------------------------------------------------
# knot vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KnotVector:
    """Open knot vector of a given degree over [0, 1].

    The knots are clustered once, on construction, by ``unique_knots``, and
    the clustering is part of the value: every consumer reads it here and
    none clusters the knots again.  Every check of the knots runs on
    construction, the interior multiplicities on that clustering.  Two knot
    vectors are equal, and hash alike, when their degrees and knot values
    are.

    Attributes
    ----------
    degree : int
        Polynomial degree p >= 1.
    knots : ndarray
        Nondecreasing knot sequence of length n + p + 1 with exactly
        (p+1)-fold repetitions of 0 and 1 at the ends, so that every span
        a point can fall in is nonempty.
    breakpoints : ndarray
        Distinct knot values (element boundaries), each the first knot of
        its cluster.
    multiplicities : ndarray
        Number of knots in each cluster.
    spans : ndarray
        For each element, the index of the last knot of its left cluster:
        the span index k with knots[k] <= x < knots[k+1] inside it.
    """

    degree: int
    knots: np.ndarray
    breakpoints: np.ndarray = field(init=False, repr=False)
    multiplicities: np.ndarray = field(init=False, repr=False)
    spans: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0, whose bytes the comparison reads
        object.__setattr__(self, "knots",
                           _frozen(np.asarray(self.knots, dtype=float) + 0.0))
        p, t = self.degree, self.knots
        if p < 1:
            raise DomainError(f"degree must be >= 1, got {p}", degree=p)
        if t.ndim != 1 or len(t) < 2 * (p + 1):
            raise DomainError("knot vector too short for degree",
                              shape=t.shape, degree=p)
        if not np.isfinite(t).all():
            raise DomainError("knots must be finite",
                              index=int(np.argmin(np.isfinite(t))))
        step = t[1:] - t[:-1]
        if step.min() < -KNOT_TOL:
            raise DomainError("knots must be nondecreasing",
                              index=int(np.argmax(step < -KNOT_TOL)) + 1)
        if abs(t[0]) > KNOT_TOL or abs(t[p] - t[0]) > KNOT_TOL:
            raise DomainError("knot vector must be clamped at 0",
                              clamp=(float(t[0]), float(t[p])))
        if abs(t[-1] - 1.0) > KNOT_TOL or abs(t[-p - 1] - t[-1]) > KNOT_TOL:
            raise DomainError("knot vector must be clamped at 1",
                              clamp=(float(t[-p - 1]), float(t[-1])))
        if t[p + 1] <= t[0] + KNOT_TOL or t[-p - 2] >= t[-1] - KNOT_TOL:
            raise DomainError("end knots repeated more than degree+1 times",
                              degree=p)
        vals, counts = unique_knots(t)
        if counts[1:-1].max(initial=0) > p:
            raise DomainError("interior knot multiplicity exceeds degree",
                              multiplicity=int(counts[1:-1].max()), degree=p)
        spans = counts[:-1].cumsum() - 1
        for name, value in (("breakpoints", vals), ("multiplicities", counts),
                            ("spans", spans)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return (self.degree == other.degree
                and self.knots.tobytes() == other.knots.tobytes())

    def __hash__(self):
        return hash((self.degree, self.knots.tobytes()))

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return len(self.knots) - self.degree - 1

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    def multiplicity(self, value: float) -> int:
        """Number of knots in the clusters whose value lies within KNOT_TOL
        of ``value``."""
        near = np.abs(self.breakpoints - value) <= KNOT_TOL
        return int(self.multiplicities[near].sum())


def uniform_knots(degree: int, n_elements: int) -> KnotVector:
    """Open knot vector with ``n_elements`` uniform spans on [0, 1]; fewer
    than one span raises DomainError."""
    if n_elements < 1:
        raise DomainError(f"need at least one span, got {n_elements}",
                          n_elements=n_elements)
    return open_knots(degree, np.linspace(0.0, 1.0, n_elements + 1)[1:-1])


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
    # bounds of the runs: 0, every start and the end
    split = np.ones(len(knots) + 1, dtype=bool)
    np.greater(knots[1:] - knots[:-1], KNOT_TOL, out=split[1:-1])
    bounds = np.flatnonzero(split)
    return knots[bounds[:-1]], bounds[1:] - bounds[:-1]


# ---------------------------------------------------------------------------
# basis evaluation kernels
# ---------------------------------------------------------------------------

def find_spans(knots, degree, x):
    """Span index i with knots[i] <= x < knots[i+1], clamped to valid spans."""
    n = len(knots) - degree - 1
    s = np.searchsorted(knots, x, side="right") - 1
    return np.maximum(np.minimum(s, n - 1), degree)


def basis_ders_nonzero(kv: KnotVector, x, nders: int):
    """Nonzero basis values and derivatives at the points ``x``, from one
    Cox-de Boor triangle.

    The A2.2 pass of Piegl and Tiller builds the triangle's row of each
    degree r <= p with the divisors t[s+1+k] - t[s+1+k-r] on span s, and
    keeps the rows of degree p - nders and up.  The k-th derivative is the
    degree-(p-k) row differenced k times by
    N'_{g,r} = r (N_{g,r-1} / (t[g+r] - t[g]) - N_{g+1,r-1} / (t[g+r+1] - t[g+1])),
    whose divisors are those of the degree-r row.  Every span s is
    nonempty (a knot vector repeats its end knots exactly p+1 times), so
    no divisor is zero.  A row of degree r is one (r+1, m) array, so each
    step of the triangle is one operation over the whole row and all
    points.

    Returns
    -------
    cols : (m, p+1) global indices of the functions nonzero at x[i]; every
        consumer indexes coefficients by it.
    ders : (nders+1, m, p+1) array; ders[k, i, j] is the k-th derivative of
        basis function cols[i, j] at x[i].
    """
    x = np.ascontiguousarray(x, dtype=float)
    p, t = kv.degree, kv.knots
    spans = find_spans(t, p, x)
    low = p - min(nders, p)  # lowest degree a derivative reads
    # left[j-1] = x - t[s+1-j] and right[j-1] = t[s+j] - x for j = 1..p
    j = np.arange(1, p + 1)[:, None]
    left, right = x - t[spans + 1 - j], t[spans + j] - x
    row = np.ones((1, len(x)))
    rows, divisors = {0: row}, {}
    for r in range(1, p + 1):
        # N_k of degree r: the kth row entry over div[k], times right[k],
        # plus the (k-1)th over div[k-1], times left[r-k]
        div = right[:r] + left[r - 1::-1]
        temp = row / div
        row = np.zeros((r + 1, len(x)))
        row[:r] = right[:r] * temp
        row[1:] += left[r - 1::-1] * temp
        if r >= low:
            rows[r], divisors[r] = row, div
    ders = np.zeros((nders + 1, len(x), p + 1))
    for k in range(p - low + 1):
        row = rows[p - k]
        for r in range(p - k + 1, p + 1):
            q = row / divisors[r]
            row = np.empty((r + 1, len(x)))
            row[0] = -r * q[0]
            row[1:-1] = r * (q[:-1] - q[1:])
            row[-1] = r * q[-1]
        ders[k] = row.T
    return (spans - p)[:, None] + np.arange(p + 1), ders


def basis_matrix(kv: KnotVector, x, der: int = 0):
    """Dense (m, n) matrix of basis values (or ``der``-th derivatives)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cols, ders = basis_ders_nonzero(kv, x, der)
    out = np.zeros((len(x), kv.n))
    np.put_along_axis(out, cols, ders[der], axis=1)
    return out


def _freeze_tables(tables):
    if isinstance(tables, np.ndarray):
        tables.flags.writeable = False
    elif isinstance(tables, tuple):
        for t in tables:
            _freeze_tables(t)
    return tables


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def basis_tables(build, *keys):
    """``build(*keys)``, a tuple of tables that depend only on the keys,
    shared by every caller that passes the same builder and equal keys:
    knot vectors (equal when their degrees and knot values are) or the
    integers of a net's shape and degrees.

    The cache keeps the TABLE_CACHE_SIZE most recently used results, and
    their arrays are read-only.  It serves what is fixed for a geometry
    (the control basis, the separator's xi basis, the Newton-matrix layout
    of a net's shape), not the per-angle eta knots.
    """
    return _freeze_tables(build(*keys))


def _check_param(x, name="parameter"):
    x = np.asarray(x, dtype=float)
    # NaN fails every comparison, so test that x lies inside the range
    if not ((x >= -KNOT_TOL) & (x <= 1.0 + KNOT_TOL)).all():
        raise DomainError(f"{name} outside [0, 1] or not finite", name=name)
    return np.minimum(np.maximum(0.0, x), 1.0)


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Per-basis-function knot averages, clipped into [0, 1]."""
    p = kv.degree
    g = np.convolve(kv.knots[1:-1], np.ones(p) / p, mode="valid")
    return np.minimum(np.maximum(0.0, g), 1.0)


# ---------------------------------------------------------------------------
# change of basis: blossoms
# ---------------------------------------------------------------------------

def blossoms(kv: KnotVector, cp: np.ndarray, spans, args) -> np.ndarray:
    """Blossoms of the polynomial pieces on the given knot spans of the
    spline with control points cp along their leading axis, at the
    arguments args (m, p): de Boor's algorithm on all m at once, one level
    at a time, level r updating the points r..p together from args[:, r-1].
    Each update is (1 - a) d[i-1] + a d[i], so the order in which the
    points of a level are updated does not change a bit of the result."""
    p, t = kv.degree, kv.knots
    j = np.arange(p + 1)[:, None]
    # level r updates point i from the knots t[s + i - p] and t[s + i + 1 - r]
    lower, upper = t[spans + j - p], t[spans + j[:-1] + 1]
    # cp's trailing axes lead, so that every product runs along the m points
    d = np.take(np.moveaxis(np.asarray(cp, dtype=float), 0, -1),
                spans + j - p, axis=-1)                  # (..., p+1, m)
    for r in range(1, p + 1):
        left, right = lower[r:], upper[:p + 1 - r]
        a = (args[:, r - 1] - left) / (right - left)    # (p+1-r, m)
        d[..., r:, :] = (1 - a) * d[..., r - 1:-1, :] + a * d[..., r:, :]
    return np.ascontiguousarray(np.moveaxis(d[..., p, :], -1, 0))


def _rebase(kv: KnotVector, cp: np.ndarray, tau, x) -> np.ndarray:
    """Control points in the knot sequence tau: control point j is the
    blossom at tau[j+1..j+p] of the piece on the span holding x[j].

    Level 1, the widest, takes the largest argument tau[j+p] and level p
    takes tau[j+1], as in Lyche and Morken's R_1(tau[j+1]) ... R_p(tau[j+p]);
    ascending order gives the same spline in exact arithmetic but
    extrapolates and loses digits next to short spans."""
    p = kv.degree
    j = np.arange(len(tau) - p - 1)
    return blossoms(kv, cp, find_spans(kv.knots, p, x),
                    tau[j[:, None] + np.arange(p, 0, -1)])


def insert_knots(kv: KnotVector, cp: np.ndarray, new_knots):
    """Refined knot vector and the control points, along the leading axis of
    ``cp``, of the same spline: all knots at once (Oslo algorithm), with
    tau the merged knots, new control point j on the old span holding
    tau[j].  The multiplicity bound is the refined knot vector's own check
    on its clustering: finite interior knots can fail no other."""
    new_knots = np.sort(np.asarray(new_knots, dtype=float))
    if new_knots.size == 0:
        return kv, cp
    outside = (new_knots <= KNOT_TOL) | (new_knots >= 1.0 - KNOT_TOL)
    if outside.any():
        raise InvalidRefinementError("new knots must be interior",
                                     value=float(new_knots[outside][0]))
    if not np.isfinite(new_knots).all():
        raise DomainError("knots must be finite",
                          count=int(np.count_nonzero(~np.isfinite(new_knots))))
    p = kv.degree
    tau = np.sort(np.concatenate([kv.knots, new_knots]))
    try:
        refined = KnotVector(p, tau)
    except DomainError as exc:
        raise InvalidRefinementError(
            "insertion would exceed multiplicity bound", **exc.details) from exc
    return refined, _rebase(kv, cp, tau, tau[:len(tau) - p - 1])


def _common_clusters(a: KnotVector, b: KnotVector):
    """The breakpoints of a and b clustered together by ``unique_knots``,
    and the multiplicities of a and of b in each cluster, ends included."""
    vals = unique_knots(np.sort(np.concatenate([a.breakpoints,
                                                b.breakpoints])))[0]
    return vals, *(np.bincount(
        np.searchsorted(vals, kv.breakpoints, "right") - 1,
        kv.multiplicities, minlength=len(vals)).astype(int) for kv in (a, b))


def merge_knot_vectors(a: KnotVector, b: KnotVector) -> KnotVector:
    """Union spline space: same degree, interior knots at max multiplicity."""
    if a.degree != b.degree:
        raise TopologyError("cannot merge knot vectors of different degree",
                            degrees=(a.degree, b.degree))
    vals, ca, cb = _common_clusters(a, b)
    return open_knots(a.degree, vals[1:-1], np.maximum(ca, cb)[1:-1])


def promote_curve(curve: SplineCurve, target: KnotVector) -> SplineCurve:
    """The curve in the target knot vector, which must refine its own: the
    result's basis is the target, and a target that is no refinement
    raises DomainError."""
    vals, have, want = _common_clusters(curve.basis, target)
    refined = curve.refine(np.repeat(vals[1:-1],
                                     np.maximum(want - have, 0)[1:-1]))
    return SplineCurve(target, refined.control_points)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SplineCurve:
    """Planar spline curve: basis plus (n, 2) control points."""

    basis: KnotVector
    control_points: np.ndarray

    def __post_init__(self):
        cp = np.ascontiguousarray(self.control_points, dtype=float)
        if cp.ndim != 2 or cp.shape[0] != self.basis.n or cp.shape[1] != 2:
            raise DomainError(
                f"control point grid {cp.shape} does not match basis dimension "
                f"{self.basis.n}", shape=cp.shape, n=self.basis.n)
        object.__setattr__(self, "control_points", _frozen(cp))

    def __call__(self, x) -> np.ndarray:
        """The curve's points (m, 2) at the parameters x."""
        x = _check_param(np.atleast_1d(np.asarray(x, dtype=float)))
        cols, ders = basis_ders_nonzero(self.basis, x, 0)
        return np.einsum("mj,mjd->md", ders[0], self.control_points[cols])

    def refine(self, new_knots) -> "SplineCurve":
        return SplineCurve(*insert_knots(self.basis, self.control_points,
                                         new_knots))

    def reversed(self) -> "SplineCurve":
        knots = 1.0 - self.basis.knots[::-1]
        return SplineCurve(KnotVector(self.basis.degree, knots),
                           self.control_points[::-1])

    def extract(self, a: float, b: float) -> "SplineCurve":
        """Restriction to [a, b], reparameterized affinely to [0, 1].

        The control points are the blossoms at the p-tuples of
        a^(p+1), the knots inside (a, b), b^(p+1); knots within KNOT_TOL of
        an end count as that end, and the leading a-tuples read the piece
        that starts within KNOT_TOL of a.
        """
        if not (-KNOT_TOL <= a < b <= 1.0 + KNOT_TOL):
            raise DomainError(f"invalid extraction range ({a}, {b})",
                              a=float(a), b=float(b))
        p, t = self.basis.degree, self.basis.knots
        mid = t[(t > a + KNOT_TOL) & (t < b - KNOT_TOL)]
        tau = np.concatenate([np.full(p + 1, a), mid, np.full(p + 1, b)])
        cp = _rebase(self.basis, self.control_points, tau,
                     np.maximum(tau[:len(tau) - p - 1], a + KNOT_TOL))
        sub = np.clip((tau - a) / (b - a), 0.0, 1.0)
        return SplineCurve(KnotVector(p, sub), cp)


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


@dataclass(frozen=True, eq=False)
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
                f"{self.basis.shape}", shape=cp.shape,
                basis_shape=self.basis.shape)
        object.__setattr__(self, "control_points", _frozen(cp))

    # -- evaluation at paired points ---------------------------------------

    def _derivatives(self, xi, eta, orders) -> np.ndarray:
        """The partial derivatives of the (dxi, deta) ``orders`` at paired
        points, (m, 2, len(orders)), block by block (module docstring)."""
        xi = _check_param(np.atleast_1d(np.asarray(xi, dtype=float)), "xi")
        eta = _check_param(np.atleast_1d(np.asarray(eta, dtype=float)), "eta")
        if xi.ndim != 1 or xi.shape != eta.shape:
            raise DomainError(f"xi {xi.shape} and eta {eta.shape} are not "
                              "paired 1-D arrays", xi_shape=xi.shape,
                              eta_shape=eta.shape)
        kx, ke = np.max(orders, axis=0)
        net = self.control_points.reshape(-1, 2)
        n2 = self.basis.eta.n
        out = np.zeros((len(xi), 2, len(orders)))
        for lo in range(0, len(xi), EVAL_BLOCK):
            block = slice(lo, lo + EVAL_BLOCK)
            iu, du = basis_ders_nonzero(self.basis.xi, xi[block], kx)
            iv, dv = basis_ders_nonzero(self.basis.eta, eta[block], ke)
            dv = dv.transpose(1, 0, 2)                   # (b, ke + 1, q + 1)
            acc = out[block]
            for a in range(iu.shape[1]):
                # the eta contractions of one xi offset's control rows
                rows = np.take(net, iu[:, a, None] * n2 + iv, axis=0)
                y = dv @ rows                            # (b, ke + 1, 2)
                for k, (i, j) in enumerate(orders):
                    acc[..., k] += du[i, :, a, None] * y[:, j]
        return out

    def evaluate(self, xi, eta, dxi: int = 0, deta: int = 0) -> np.ndarray:
        """Partial derivative d^(dxi+deta) x / dxi^dxi deta^deta at paired
        points; xi and eta are equal-length arrays, else DomainError."""
        return self._derivatives(xi, eta, [(dxi, deta)])[..., 0]

    def jacobian(self, xi, eta):
        """Jacobian matrices (m, 2, 2) with columns x_xi, x_eta, and dets (m,)."""
        J = self._derivatives(xi, eta, [(1, 0), (0, 1)])
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1]
        return J, det

    # -- structure ----------------------------------------------------------

    def refine(self, xi_knots=(), eta_knots=()) -> "SplineMap":
        kvx, cp = insert_knots(self.basis.xi, self.control_points, xi_knots)
        kve, cp = insert_knots(self.basis.eta, cp.transpose(1, 0, 2),
                               eta_knots)
        return SplineMap(TensorBasis(kvx, kve), cp.transpose(1, 0, 2))
