import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from screwgen.errors import DomainError, InvalidRefinementError, TopologyError
from screwgen import splines
from screwgen.splines import (
    EVAL_BLOCK,
    KNOT_TOL,
    TABLE_CACHE_SIZE,
    KnotVector,
    SplineCurve,
    SplineMap,
    TensorBasis,
    _check_param,
    basis_matrix,
    basis_tables,
    greville_abscissae,
    insert_knots,
    merge_knot_vectors,
    open_knots,
    promote_curve,
    uniform_knots,
    unique_knots,
)

FIG2_KV = open_knots(3, np.arange(1, 7) / 7.0)  # cubic, interior knots k/7


def random_knot_vector(rng, degree):
    n_int = rng.integers(0, 8)
    interior = np.sort(rng.uniform(0.05, 0.95, n_int))
    # occasional repeated interior knot, multiplicity <= degree
    mult = rng.integers(1, degree + 1, n_int) if n_int else np.array([], dtype=int)
    return open_knots(degree, interior, mult)


def identity_map(tb: TensorBasis) -> SplineMap:
    gx, ge = tb.greville_grid()
    cp = np.zeros((tb.xi.n, tb.eta.n, 2))
    cp[:, :, 0] = gx[:, None]
    cp[:, :, 1] = ge[None, :]
    return SplineMap(tb, cp)


def eval_basis(kv: KnotVector, xi: float) -> np.ndarray:
    """All n basis values at a single parameter, domain-checked as curve
    evaluation is."""
    return basis_matrix(kv, [float(_check_param(xi))])[0]


def eval_basis_derivatives(kv: KnotVector, xi: float, order: int) -> np.ndarray:
    """All n basis derivative values of the given order at ``xi``; orders
    above the degree give zeros."""
    return basis_matrix(kv, [float(_check_param(xi))], der=order)[0]


# ---------------------------------------------------------------------------
# eval_basis
# ---------------------------------------------------------------------------

def test_degree_zero_spans_rejected():
    with pytest.raises(DomainError):
        KnotVector(0, [0, 0.5, 1])


def test_interior_multiplicity_is_counted_like_unique_knots():
    # four knots within 4e-14 of each other straddle a rounding boundary of
    # KNOT_TOL, but unique_knots (and so Bezier extraction) counts one knot
    # of multiplicity 4 > p
    near = 0.5 + 0.5e-12 + np.array([-2e-14, -1e-14, 1e-14, 2e-14])
    knots = np.concatenate([np.zeros(4), near, np.ones(4)])
    assert unique_knots(knots)[1].tolist() == [4, 4, 4]
    with pytest.raises(DomainError):
        KnotVector(3, knots)


def test_p1_indicator_like_values():
    # lowest supported degree: hat functions on {0, 0.5, 1}
    kv = KnotVector(1, [0, 0, 0.5, 1, 1])
    vals = eval_basis(kv, 0.25)
    assert np.allclose(vals, [0.5, 0.5, 0.0])


def test_fig2_knot_vector_endpoint_interpolation():
    vals = eval_basis(FIG2_KV, 0.0)
    assert vals[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(vals[1:] == 0.0)


def test_uniform_cubic_interior_knot_values():
    # at an interior knot with full support the three supporting functions
    # carry (1/6, 4/6, 1/6), from unrolling the recursion by hand
    kv = uniform_knots(3, 7)
    vals = eval_basis(kv, 3.0 / 7.0)
    nz = vals[vals > 0]
    assert np.allclose(nz, [1 / 6, 4 / 6, 1 / 6])


def test_partition_of_unity_and_support():
    rng = np.random.default_rng(0)
    for degree in (1, 2, 3, 4):
        kv = random_knot_vector(rng, degree)
        x = rng.uniform(0, 1, 200)
        B = basis_matrix(kv, x)
        assert np.all(B >= 0)
        assert np.abs(B.sum(axis=1) - 1).max() <= 1e-12
        # support locality: N_i(x) = 0 outside [t_i, t_{i+p+1}]
        for i in range(kv.n):
            lo, hi = kv.knots[i], kv.knots[i + degree + 1]
            outside = (x < lo - 1e-12) | (x > hi + 1e-12)
            assert np.all(B[outside, i] == 0.0)


def recursive_rows(kv: KnotVector, xi: float) -> list:
    """Values of every degree 0..p straight from the two-term recursion
    with the 0/0 = 0 convention; an oracle independent of the vectorized
    kernels."""
    t = kv.knots
    nfun = len(t) - 1
    vals = np.zeros(nfun)
    for i in range(nfun):
        inside = t[i] <= xi < t[i + 1]
        # right-closed at the final nonempty interval so that xi=1 is covered
        if t[i + 1] == t[-1] and t[i] < t[i + 1] and xi == t[i + 1]:
            inside = True
        vals[i] = 1.0 if inside else 0.0
    rows = [vals]
    for s in range(1, kv.degree + 1):
        new = np.zeros(nfun - s)
        for i in range(nfun - s):
            a = 0.0
            if t[i + s] != t[i]:
                a = (xi - t[i]) / (t[i + s] - t[i]) * vals[i]
            b = 0.0
            if t[i + s + 1] != t[i + 1]:
                b = (t[i + s + 1] - xi) / (t[i + s + 1] - t[i + 1]) * vals[i + 1]
            new[i] = a + b
        vals = new
        rows.append(vals)
    return rows


def derivatives_recursive(kv: KnotVector, rows: list, order: int) -> np.ndarray:
    """order-th derivatives of all n functions: the two-term derivative
    formula N'_{i,s} = s (N_{i,s-1} / (t[i+s] - t[i])
    - N_{i+1,s-1} / (t[i+s+1] - t[i+1])), 0/0 = 0, applied ``order`` times
    to the recursive values of degree p - order."""
    t, p = kv.knots, kv.degree
    if order > p:
        return np.zeros(kv.n)
    vals = rows[p - order]
    for s in range(p - order + 1, p + 1):
        new = np.zeros(len(vals) - 1)
        for i in range(len(new)):
            a = s * vals[i] / (t[i + s] - t[i]) if t[i + s] != t[i] else 0.0
            b = (s * vals[i + 1] / (t[i + s + 1] - t[i + 1])
                 if t[i + s + 1] != t[i + 1] else 0.0)
            new[i] = a - b
        vals = new
    return vals


def test_matches_recursive_definition():
    rng = np.random.default_rng(1)
    for degree in (1, 2, 3, 4):
        kv = random_knot_vector(rng, degree)
        for xi in np.concatenate([rng.uniform(0, 1, 20), [0.0, 1.0], kv.breakpoints]):
            assert np.allclose(eval_basis(kv, xi),
                               recursive_rows(kv, xi)[-1], atol=1e-13)


def test_derivatives_match_recursive_definition():
    # every order up to p+1, interior knots up to multiplicity p (where the
    # derivatives above the continuity jump), at random points, every
    # breakpoint, 0 and 1; at an interior breakpoint both read the span to
    # its right
    rng = np.random.default_rng(7)
    for degree in (1, 2, 3, 4):
        kvs = [open_knots(degree, [0.3, 0.6], [degree, 1])] \
            + [random_knot_vector(rng, degree) for _ in range(3)]
        for kv in kvs:
            xs = np.concatenate([rng.uniform(0, 1, 15), kv.breakpoints])
            for xi in xs:
                rows = recursive_rows(kv, xi)
                for order in range(degree + 2):
                    want = derivatives_recursive(kv, rows, order)
                    got = basis_matrix(kv, [xi], der=order)[0]
                    assert np.allclose(got, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max()), \
                        (degree, kv.knots, xi, order)


def test_end_knots_repeated_more_than_degree_plus_one_rejected():
    # the first gives a NaN row at 1; the second an identically zero first
    # function, so a curve would miss its first control point
    for degree, knots in ((3, [0, 0, 0, 0, 0.5, 1, 1, 1, 1, 1]),
                          (2, [0, 0, 0, 0, 0.5, 1, 1, 1])):
        with pytest.raises(DomainError):
            KnotVector(degree, knots)


def test_non_finite_knot_rejected():
    with pytest.raises(DomainError, match="knots must be finite"):
        KnotVector(3, [0, 0, 0, 0, np.nan, 1, 1, 1, 1])


def test_out_of_domain_raises():
    with pytest.raises(DomainError):
        eval_basis(FIG2_KV, 1.2)
    with pytest.raises(DomainError):
        eval_basis(FIG2_KV, -0.1)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_partition_of_unity_property(xi):
    vals = eval_basis(FIG2_KV, xi)
    assert abs(vals.sum() - 1.0) <= 1e-12
    assert np.all(vals >= 0)


# ---------------------------------------------------------------------------
# eval_basis_derivatives
# ---------------------------------------------------------------------------

def test_linear_hat_derivatives():
    kv = KnotVector(1, [0, 0, 1, 1])
    for xi in (0.0, 0.3, 0.9):
        assert np.allclose(eval_basis_derivatives(kv, xi, 1), [-1.0, 1.0])


def test_derivative_sum_vanishes():
    d1 = eval_basis_derivatives(FIG2_KV, 0.37, 1)
    assert abs(d1.sum()) <= 1e-12


def test_second_derivatives_against_finite_differences():
    h = 1e-5
    for xi in (0.21, 0.5, 0.83):
        fd = (eval_basis(FIG2_KV, xi + h) - 2 * eval_basis(FIG2_KV, xi)
              + eval_basis(FIG2_KV, xi - h)) / h**2
        d2 = eval_basis_derivatives(FIG2_KV, xi, 2)
        scale = np.abs(d2).max()
        assert np.abs(fd - d2).max() <= 1e-5 * scale


def test_order_above_degree_returns_zeros():
    kv = KnotVector(1, [0, 0, 0.5, 1, 1])
    assert np.all(eval_basis_derivatives(kv, 0.3, 2) == 0.0)


def test_continuity_across_knot_multiplicity():
    # across a knot of multiplicity m, derivatives up to order p - m are
    # continuous while order p - m + 1 may jump
    kv = open_knots(3, [0.5], [2])  # C1 at 0.5
    h = 1e-7
    for order, should_match in ((1, True), (2, False)):
        left = basis_matrix(kv, [0.5 - h], der=order)[0]
        right = basis_matrix(kv, [0.5 + h], der=order)[0]
        gap = np.abs(left - right).max()
        if should_match:
            assert gap < 1e-4 * max(1.0, np.abs(left).max())
        else:
            assert gap > 1.0


# ---------------------------------------------------------------------------
# greville_abscissae
# ---------------------------------------------------------------------------

def test_greville_simple_average():
    kv = KnotVector(1, [0, 0, 0.5, 1, 1])
    assert np.allclose(greville_abscissae(kv), [0.0, 0.5, 1.0])


def test_greville_fig2_first_values():
    g = greville_abscissae(FIG2_KV)
    assert np.allclose(g[:3], [0.0, 1.0 / 21.0, 3.0 / 21.0])


def test_greville_endpoints_any_open_vector():
    rng = np.random.default_rng(2)
    for degree in (1, 2, 3, 4):
        kv = random_knot_vector(rng, degree)
        g = greville_abscissae(kv)
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) >= -1e-15)


# ---------------------------------------------------------------------------
# unique_knots
# ---------------------------------------------------------------------------

def unique_knots_loop(knots):
    """Reference clustering: a knot joins the current value while it lies
    within KNOT_TOL of that value's first knot."""
    vals, counts = [], []
    for t in knots:
        if vals and abs(t - vals[-1]) <= KNOT_TOL:
            counts[-1] += 1
        else:
            vals.append(float(t))
            counts.append(1)
    return np.array(vals), np.array(counts, dtype=int)


def assert_same_clusters(knots):
    vals, counts = unique_knots(knots)
    want_vals, want_counts = unique_knots_loop(knots)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(counts, want_counts)
    assert counts.dtype.kind == "i"


def test_unique_knots_repeated_and_clustered():
    assert_same_clusters(open_knots(3, [0.25, 0.5, 0.75], [1, 3, 2]).knots)
    assert_same_clusters(np.array([0.0, 0.0, 0.3, 0.3 + 0.4 * KNOT_TOL,
                                   0.3 + 0.99 * KNOT_TOL,
                                   0.3 + 2.01 * KNOT_TOL, 1.0, 1.0]))
    vals, counts = unique_knots(np.array([0.0, 0.5, 0.5 + 1e-13, 1.0]))
    assert vals.tolist() == [0.0, 0.5, 1.0] and counts.tolist() == [1, 2, 1]


@given(st.lists(st.tuples(st.one_of(st.floats(1.01, 2.0),
                                    st.floats(1e6, 1e10)),
                          st.lists(st.floats(0.0, 0.99), min_size=1,
                                   max_size=4)),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_unique_knots_matches_loop(clusters):
    # clusters spread at most 0.99 KNOT_TOL and lie more than KNOT_TOL apart
    knots, last = [], 0.0
    for gap, offsets in clusters:
        first = last + gap * KNOT_TOL
        knots += [first + KNOT_TOL * o for o in sorted(offsets)]
        last = knots[-1]
    assert_same_clusters(np.array(knots))


# ---------------------------------------------------------------------------
# the clustering a KnotVector stores
# ---------------------------------------------------------------------------

@st.composite
def jittered_knots(draw, p, bases):
    """Open knot vector of degree p with 0 to p interior knots at each base,
    spread less than KNOT_TOL / 2 above it."""
    interior = []
    for base in bases:
        interior += sorted(base + KNOT_TOL * draw(st.floats(0.0, 0.45))
                           for _ in range(draw(st.integers(0, p))))
    return KnotVector(p, np.concatenate([np.zeros(p + 1), interior,
                                         np.ones(p + 1)]))


@st.composite
def jittered_pairs(draw):
    """A degree and two jittered knot vectors of it over one pool of bases
    at least 1e-3 apart."""
    p = draw(st.integers(1, 4))
    bases = np.unique(np.round(draw(st.lists(st.floats(0.01, 0.99),
                                             max_size=8)), 3))
    return p, draw(jittered_knots(p, bases)), draw(jittered_knots(p, bases))


@given(jittered_pairs())
@settings(max_examples=200, deadline=None)
def test_knot_vectors_store_the_clustering_of_their_knots(case):
    for kv in case[1:]:
        vals, counts = unique_knots(kv.knots)
        assert np.array_equal(kv.breakpoints, vals)
        assert np.array_equal(kv.multiplicities, counts)
        assert kv.n_elements == len(vals) - 1
        # each element's span index is the last knot of its left cluster
        assert np.array_equal(kv.spans, np.cumsum(counts)[:-1] - 1)
        assert np.array_equal(splines.find_spans(kv.knots, kv.degree,
                                                 0.5 * (vals[:-1] + vals[1:])),
                              kv.spans)
        for value, count in zip(vals, counts):
            assert kv.multiplicity(value) == count
        for a in (kv.breakpoints, kv.multiplicities, kv.spans):
            assert not a.flags.writeable


def blossoms_by_index(kv: KnotVector, cp: np.ndarray, spans, args):
    """Reference de Boor: one update per (level, index) pair, index p down
    to r at level r, on the leading axis of cp."""
    p, t = kv.degree, kv.knots
    shape = (-1,) + (1,) * (cp.ndim - 1)
    d = [cp[spans - p + i] for i in range(p + 1)]
    for r in range(1, p + 1):
        x = args[:, r - 1]
        for i in range(p, r - 1, -1):
            left, right = t[spans - p + i], t[spans + i + 1 - r]
            a = ((x - left) / (right - left)).reshape(shape)
            d[i] = (1 - a) * d[i - 1] + a * d[i]
    return d[p]


# ---------------------------------------------------------------------------
# SplineMap.evaluate / SplineMap.jacobian
# ---------------------------------------------------------------------------

def test_constant_control_points_constant_map():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    q = np.array([2.5, -1.0])
    cp = np.tile(q, (tb.xi.n, tb.eta.n, 1))
    m = SplineMap(tb, cp)
    out = m.evaluate([0, 0.3, 1], [0, 0.7, 1])
    assert np.allclose(out, q, atol=1e-14)


def test_greville_control_points_give_identity():
    tb = TensorBasis(FIG2_KV, uniform_knots(2, 5))
    m = identity_map(tb)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (50, 2))
    out = m.evaluate(pts[:, 0], pts[:, 1])
    assert np.abs(out - pts).max() <= 1e-12


def test_corner_evaluates_to_corner_control_point():
    tb = TensorBasis(uniform_knots(3, 2), uniform_knots(3, 2))
    rng = np.random.default_rng(4)
    cp = rng.uniform(-1, 1, (tb.xi.n, tb.eta.n, 2))
    m = SplineMap(tb, cp)
    out = m.evaluate([0, 1], [0, 1])
    assert np.allclose(out, cp[[0, -1], [0, -1]], atol=1e-15)


def test_map_domain_error():
    tb = TensorBasis(uniform_knots(2, 2), uniform_knots(2, 2))
    m = identity_map(tb)
    with pytest.raises(DomainError):
        m.evaluate([1.5], [0.2])


def test_non_finite_parameters_are_rejected_by_name():
    kv = uniform_knots(2, 3)
    curve = SplineCurve(kv, np.zeros((kv.n, 2)))
    with pytest.raises(DomainError, match="parameter") as err:
        curve([0.2, np.nan])
    assert err.value.details["name"] == "parameter"
    m = identity_map(TensorBasis(uniform_knots(2, 2), uniform_knots(2, 2)))
    for xi, eta, name in ((np.nan, 0.5, "xi"), (0.5, np.inf, "eta")):
        with pytest.raises(DomainError, match=name) as err:
            m.evaluate([xi], [eta])
        assert err.value.details["name"] == name


def test_identity_jacobian():
    tb = TensorBasis(uniform_knots(3, 3), uniform_knots(3, 3))
    m = identity_map(tb)
    J, det = m.jacobian([0.4], [0.6])
    assert np.allclose(J[0], np.eye(2), atol=1e-12)
    assert det[0] == pytest.approx(1.0, abs=1e-12)


def test_scaled_map_jacobian_determinant():
    tb = TensorBasis(uniform_knots(3, 3), uniform_knots(3, 3))
    m = identity_map(tb)
    cp = m.control_points.copy()
    cp[:, :, 0] *= 2.0
    m2 = SplineMap(tb, cp)
    for xi, eta in [(0.1, 0.9), (0.5, 0.5)]:
        _, det = m2.jacobian([xi], [eta])
        assert det[0] == pytest.approx(2.0, abs=1e-12)


def test_jacobian_against_finite_differences():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(3, 4))
    rng = np.random.default_rng(5)
    cp = identity_map(tb).control_points + rng.normal(0, 0.05, (tb.xi.n, tb.eta.n, 2))
    m = SplineMap(tb, cp)
    h = 1e-6
    pts = rng.uniform(0.05, 0.95, (20, 2))
    for xi, eta in pts:
        J = m.jacobian([xi], [eta])[0][0]
        plus = m.evaluate([xi + h, xi], [eta, eta + h])
        minus = m.evaluate([xi - h, xi], [eta, eta - h])
        fd_x, fd_e = (plus - minus) / (2 * h)
        fd = np.stack([fd_x, fd_e], axis=-1)
        assert np.abs(J - fd).max() / np.abs(J).max() < 1e-5


# a uniform basis, and a graded one whose xi knot 0.5 is doubled (C1 there)
ORACLE_BASES = {
    "uniform": TensorBasis(uniform_knots(3, 5), uniform_knots(2, 4)),
    "graded": TensorBasis(open_knots(3, [0.1, 0.25, 0.5, 0.8], [1, 1, 2, 1]),
                          open_knots(2, [0.05, 0.3, 0.45, 0.9])),
}


def paired_points(rng):
    """2 blocks + 7 random paired points, so the last block is partial,
    plus the four corners."""
    pts = rng.uniform(0, 1, (2 * EVAL_BLOCK + 7, 2))
    corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    return np.vstack([pts, corners]).T


def dense_oracle(m, xi, eta, dxi, deta):
    """sum_kl N_k^(dxi)(xi) M_l^(deta)(eta) P_kl on dense basis matrices."""
    return np.einsum("mk,ml,kld->md", basis_matrix(m.basis.xi, xi, dxi),
                     basis_matrix(m.basis.eta, eta, deta), m.control_points)


def assert_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("name", sorted(ORACLE_BASES))
def test_evaluate_and_jacobian_match_the_dense_tensor_oracle(name):
    tb = ORACLE_BASES[name]
    rng = np.random.default_rng(11)
    m = SplineMap(tb, rng.uniform(-1, 1, (tb.xi.n, tb.eta.n, 2)))
    xi, eta = paired_points(rng)
    for dxi, deta in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert_close(m.evaluate(xi, eta, dxi, deta),
                     dense_oracle(m, xi, eta, dxi, deta))
    J, det = m.jacobian(xi, eta)
    x_xi, x_eta = (dense_oracle(m, xi, eta, *d) for d in ((1, 0), (0, 1)))
    assert_close(J, np.stack([x_xi, x_eta], axis=-1))
    assert_close(det, x_xi[:, 0] * x_eta[:, 1] - x_xi[:, 1] * x_eta[:, 0])


def test_unpaired_points_raise_domain_error():
    m = identity_map(ORACLE_BASES["uniform"])
    for xi, eta in (([0.1, 0.2], [0.3, 0.4, 0.5]), ([0.1], [0.3, 0.4, 0.5])):
        with pytest.raises(DomainError, match="paired"):
            m.evaluate(xi, eta)
        with pytest.raises(DomainError, match="paired"):
            m.jacobian(xi, eta)


def test_jacobian_memory_is_a_small_multiple_of_its_output():
    # the paper's coarse-mesh lattice: 201 x 201 paired points
    m = identity_map(ORACLE_BASES["graded"])
    t = np.linspace(0, 1, 201)
    xi, eta = np.repeat(t, len(t)), np.tile(t, len(t))
    tracemalloc.start()
    try:
        J, _ = m.jacobian(xi, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a gather of the (m, p+1, q+1, 2) control sub-net alone is 3 J.nbytes
    assert peak <= 5 * J.nbytes


# ---------------------------------------------------------------------------
# insert_knots / extract
# ---------------------------------------------------------------------------

def insert_knots_boehm(kv: KnotVector, cp: np.ndarray, new_knots):
    """Reference refinement: one knot at a time (Boehm), each insertion
    blending the p control points around the new knot's span."""
    p, knots = kv.degree, kv.knots
    shape = (p,) + (1,) * (cp.ndim - 1)
    for u in np.sort(new_knots):
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


@st.composite
def refinements(draw):
    """A random open knot vector of degree 1-5 with interior multiplicities
    up to p, control points on it, and knots to insert within the
    multiplicity bound, existing values among them."""
    p = draw(st.integers(1, 5))
    vals = np.unique(draw(st.lists(st.floats(1e-3, 1 - 1e-3), max_size=8)))
    vals = vals[np.diff(vals, prepend=0.0) > 1e-3]
    old = [draw(st.integers(0, p)) for _ in vals]
    new = [draw(st.integers(0, p - m)) for m in old]
    kv = open_knots(p, vals, old)
    seed = draw(st.integers(0, 2**32 - 1))
    cp = np.random.default_rng(seed).normal(size=(kv.n, 2))
    return kv, cp, np.repeat(vals, new)


@given(refinements())
@settings(max_examples=300, deadline=None)
def test_insert_knots_matches_boehm(case):
    kv, cp, new = case
    got_kv, got = insert_knots(kv, cp, new)
    want_kv, want = insert_knots_boehm(kv, cp, new)
    assert np.array_equal(got_kv.knots, want_kv.knots)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@given(refinements(), st.sampled_from([(2,), (3, 2)]))
@settings(max_examples=100, deadline=None)
def test_insertion_equals_the_per_index_blossoms_bit_for_bit(case, trailing):
    kv, cp, new = case
    cp = np.random.default_rng(len(new)).normal(size=(kv.n,) + trailing)
    got_kv, got = insert_knots(kv, cp, new)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splines, "blossoms", blossoms_by_index)
        want_kv, want = insert_knots(kv, cp, new)
    assert np.array_equal(got_kv.knots, want_kv.knots)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_insertion_next_to_a_short_span_keeps_full_precision():
    # degree 5 with a 1e-3 end span: the blossom arguments must run from
    # the largest (widest de Boor level) down; ascending order extrapolates
    # and is off by about 3e-6 here
    kv = open_knots(5, [0.001])
    cp = np.random.default_rng(9).normal(size=(kv.n, 2))
    new = [0.3, 0.6, 0.9]
    want = insert_knots_boehm(kv, cp, new)[1]
    got = insert_knots(kv, cp, new)[1]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def hodograph_bound(curve: SplineCurve) -> float:
    """Upper bound of |curve'| from the control polygon."""
    p, t = curve.basis.degree, curve.basis.knots
    steps = np.linalg.norm(np.diff(curve.control_points, axis=0), axis=1)
    return float(np.max(p * steps / (t[p + 1:-1] - t[1:-p - 1])))


@st.composite
def extractions(draw):
    """A random curve and a range whose ends lie on knots, at 0 or 1, within
    KNOT_TOL of a knot, or anywhere."""
    kv, cp, _ = draw(refinements())
    knots = st.sampled_from(kv.breakpoints.tolist())
    end = st.one_of(knots, st.floats(0.0, 1.0),
                    st.tuples(knots, st.floats(-KNOT_TOL, KNOT_TOL)).map(
                        lambda k: min(max(k[0] + k[1], 0.0), 1.0)))
    a, b = sorted([draw(end), draw(end)])
    assume(b - a > 1e-3)
    return SplineCurve(kv, cp), a, b


@given(extractions())
@settings(max_examples=300, deadline=None)
def test_extract_is_the_curve_on_its_range(case):
    # an end within KNOT_TOL of a knot counts as that knot, which moves the
    # curve by at most KNOT_TOL times its speed
    curve, a, b = case
    sub = curve.extract(a, b)
    x = np.concatenate([np.linspace(0.0, 1.0, 101), sub.basis.knots])
    tol = 1e-14 * np.abs(curve.control_points).max() \
        + 2 * KNOT_TOL * hodograph_bound(curve)
    assert np.abs(sub(x) - curve(a + (b - a) * x)).max() <= tol
    assert sub.basis.n == len(sub.control_points)

@given(extractions())
@settings(max_examples=100, deadline=None)
def test_extraction_equals_the_per_index_blossoms_bit_for_bit(case):
    curve, a, b = case
    got = curve.extract(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splines, "blossoms", blossoms_by_index)
        want = curve.extract(a, b)
    assert np.array_equal(got.basis.knots, want.basis.knots)
    assert got.control_points.tobytes() == want.control_points.tobytes()


def test_p1_segment_midpoint_insertion():
    kv = KnotVector(1, [0, 0, 1, 1])
    seg = SplineCurve(kv, np.array([[0.0, 0.0], [2.0, 4.0]]))
    ref = seg.refine([0.5])
    assert np.allclose(ref.control_points[1], [1.0, 2.0])


def test_empty_insertion_is_identity():
    cp = np.random.default_rng(5).uniform(-1, 1, (FIG2_KV.n, 2))
    kv2, cp2 = insert_knots(FIG2_KV, cp, [])
    assert kv2 is FIG2_KV
    assert cp2 is cp


def test_insertion_preserves_geometry():
    rng = np.random.default_rng(6)
    cur = SplineCurve(FIG2_KV, rng.uniform(-1, 1, (FIG2_KV.n, 2)))
    ref = cur.refine([0.3])
    x = rng.uniform(0, 1, 100)
    assert np.abs(cur(x) - ref(x)).max() < 1e-12


def test_insertion_multiplicity_overflow():
    kv = open_knots(2, [0.5], [2])
    cp = np.zeros((kv.n, 2))
    with pytest.raises(InvalidRefinementError):
        insert_knots(kv, cp, [0.5])
    with pytest.raises(InvalidRefinementError):
        insert_knots(kv, cp, [0.0])


def test_map_refinement_preserves_geometry():
    tb = TensorBasis(uniform_knots(3, 3), uniform_knots(2, 4))
    rng = np.random.default_rng(7)
    m = SplineMap(tb, rng.uniform(-1, 1, (tb.xi.n, tb.eta.n, 2)))
    m2 = m.refine(xi_knots=[0.1, 0.62], eta_knots=[0.44])
    pts = rng.uniform(0, 1, (100, 2))
    err = np.abs(m.evaluate(pts[:, 0], pts[:, 1])
                 - m2.evaluate(pts[:, 0], pts[:, 1])).max()
    assert err < 1e-12


def test_extraction_preserves_geometry():
    rng = np.random.default_rng(8)
    cur = SplineCurve(FIG2_KV, rng.uniform(-1, 1, (FIG2_KV.n, 2)))
    sub = cur.extract(0.25, 0.8)
    x = np.linspace(0, 1, 100)
    assert np.abs(sub(x) - cur(0.25 + 0.55 * x)).max() < 1e-12


# ---------------------------------------------------------------------------
# merge_knot_vectors / promote_curve
# ---------------------------------------------------------------------------

def test_merge_knot_vectors_keeps_max_multiplicity():
    a = open_knots(3, [0.25, 0.5], [1, 2])
    b = open_knots(3, [0.5, 0.6, 0.75], [3, 1, 2])
    vals, counts = unique_knots(merge_knot_vectors(a, b).knots)
    assert vals.tolist() == [0.0, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert counts.tolist() == [4, 1, 3, 1, 2, 4]
    with pytest.raises(TopologyError) as info:
        merge_knot_vectors(a, open_knots(2, [0.5]))
    assert info.value.details == {"degrees": (3, 2)}


def interior_counts(a, b):
    """Reference clustering of a pair of knot vectors: the distinct interior
    values of a and b together, and the number of knots of a and of b
    within KNOT_TOL of each, by comparing every pair."""
    vals = unique_knots(np.sort(np.concatenate([a.knots, b.knots])))[0][1:-1]

    def count(kv):
        return np.sum(np.abs(kv.knots[None, :] - vals[:, None]) <= KNOT_TOL,
                      axis=1)
    return vals, count(a), count(b)


@given(jittered_pairs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_merge_and_promote_match_the_pairwise_reference(case, seed):
    # knots closer together than KNOT_TOL count as one value, the least
    p, a, b = case
    vals, ca, cb = interior_counts(a, b)
    merged = merge_knot_vectors(a, b)
    assert np.array_equal(merged.knots,
                          open_knots(p, vals, np.maximum(ca, cb)).knots)
    curve = SplineCurve(a, np.random.default_rng(seed).normal(size=(a.n, 2)))
    for target in (merged, b):
        vals, have, want = interior_counts(a, target)
        if np.any(have > want):
            # b need not refine a, and then it is no target to promote onto
            with pytest.raises(DomainError):
                promote_curve(curve, target)
            continue
        want_curve = curve.refine(np.repeat(vals, want - have))
        got = promote_curve(curve, target)
        assert got.basis == target
        assert np.array_equal(got.control_points, want_curve.control_points)


def test_promote_curve_lands_in_target_and_keeps_geometry():
    kv = open_knots(3, [0.25, 0.5], [1, 2])
    rng = np.random.default_rng(3)
    curve = SplineCurve(kv, rng.normal(size=(kv.n, 2)))
    target = merge_knot_vectors(kv, open_knots(3, [0.5, 0.6, 0.75], [3, 1, 2]))
    promoted = promote_curve(curve, target)
    assert promoted.basis.degree == 3
    assert np.array_equal(promoted.basis.knots, target.knots)
    t = np.linspace(0.0, 1.0, 301)
    assert np.abs(promoted(t) - curve(t)).max() < 1e-12


# ---------------------------------------------------------------------------
# values and the table cache
# ---------------------------------------------------------------------------

def test_knot_vectors_compare_and_hash_by_degree_and_knot_values():
    a, b = uniform_knots(3, 4), uniform_knots(3, 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != uniform_knots(2, 4)
    moved = a.knots.copy()
    moved[4] += 1e-15
    assert KnotVector(3, moved) != a
    signed = KnotVector(1, [-0.0, -0.0, 0.5, 1.0, 1.0])
    unsigned = KnotVector(1, [0.0, 0.0, 0.5, 1.0, 1.0])
    assert signed == unsigned and hash(signed) == hash(unsigned)
    # a tensor basis compares and hashes through its knot vectors
    table = {TensorBasis(a, uniform_knots(2, 5)): 1}
    table[TensorBasis(b, uniform_knots(2, 5))] = 2
    assert list(table.values()) == [2]


def test_curves_and_maps_compare_by_identity():
    kv = uniform_knots(3, 4)
    cp = np.zeros((kv.n, 2))
    c1, c2 = SplineCurve(kv, cp), SplineCurve(kv, cp)
    assert (c1 == c1) is True and (c1 == c2) is False
    tb = TensorBasis(kv, kv)
    m1, m2 = (SplineMap(tb, np.zeros((kv.n, kv.n, 2))) for _ in range(2))
    assert (m1 == m1) is True and (m1 == m2) is False
    assert len({c1, c2, m1, m2}) == 4


def test_basis_tables_are_keyed_by_degree_and_knot_values():
    built = []

    def build(kv):
        built.append(kv)
        return np.array(kv.knots) * 2.0, (kv.n, np.ones(kv.n))

    kv = uniform_knots(3, 5)
    first = basis_tables(build, kv)
    # an equal knot vector built apart shares the tables, read-only
    assert basis_tables(build, KnotVector(3, kv.knots.copy())) is first
    assert not first[0].flags.writeable and not first[1][1].flags.writeable
    assert basis_tables(build, uniform_knots(2, 5)) is not first
    assert basis_tables(build, uniform_knots(3, 6)) is not first
    assert len(built) == 3


def test_basis_tables_cache_stays_within_its_bound():
    def build(kv):
        return (np.array(kv.knots),)

    kvs = [uniform_knots(2, k) for k in range(1, TABLE_CACHE_SIZE + 6)]
    first = basis_tables(build, kvs[0])
    for kv in kvs[1:]:
        basis_tables(build, kv)
        assert basis_tables.cache_info().currsize <= TABLE_CACHE_SIZE
    # the least recently used entry went and is built anew
    assert basis_tables(build, kvs[0]) is not first
