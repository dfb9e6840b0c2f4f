import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwgen.errors import DomainError, InvalidRefinementError
from screwgen.splines import (
    KNOT_TOL,
    KnotVector,
    SplineCurve,
    SplineMap,
    TensorBasis,
    _check_param,
    basis_matrix,
    greville_abscissae,
    insert_knots,
    open_knots,
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


def eval_basis_recursive(kv: KnotVector, xi: float) -> np.ndarray:
    """Reference evaluation straight from the two-term recursion with the
    0/0 = 0 convention; an oracle independent of the vectorized kernels."""
    t = kv.knots
    nfun = len(t) - 1
    vals = np.zeros(nfun)
    for i in range(nfun):
        inside = t[i] <= xi < t[i + 1]
        # right-closed at the final nonempty interval so that xi=1 is covered
        if t[i + 1] == t[-1] and t[i] < t[i + 1] and xi == t[i + 1]:
            inside = True
        vals[i] = 1.0 if inside else 0.0
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
    return vals


def test_matches_recursive_definition():
    rng = np.random.default_rng(1)
    for degree in (1, 2, 3, 4):
        kv = random_knot_vector(rng, degree)
        for xi in np.concatenate([rng.uniform(0, 1, 20), [0.0, 1.0], kv.breakpoints]):
            assert np.allclose(eval_basis(kv, xi),
                               eval_basis_recursive(kv, xi), atol=1e-13)


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
# SplineMap.point / SplineMap.jacobian
# ---------------------------------------------------------------------------

def test_constant_control_points_constant_map():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    q = np.array([2.5, -1.0])
    cp = np.tile(q, (tb.xi.n, tb.eta.n, 1))
    m = SplineMap(tb, cp)
    for xi, eta in [(0, 0), (0.3, 0.7), (1, 1)]:
        assert np.allclose(m.point(xi, eta), q, atol=1e-14)


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
    assert np.allclose(m.point(0, 0), cp[0, 0], atol=1e-15)
    assert np.allclose(m.point(1, 1), cp[-1, -1], atol=1e-15)


def test_map_domain_error():
    tb = TensorBasis(uniform_knots(2, 2), uniform_knots(2, 2))
    m = identity_map(tb)
    with pytest.raises(DomainError):
        m.point(1.5, 0.2)


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
        fd_x = (m.point(xi + h, eta) - m.point(xi - h, eta)) / (2 * h)
        fd_e = (m.point(xi, eta + h) - m.point(xi, eta - h)) / (2 * h)
        fd = np.stack([fd_x, fd_e], axis=-1)
        assert np.abs(J - fd).max() / np.abs(J).max() < 1e-5


# ---------------------------------------------------------------------------
# insert_knots
# ---------------------------------------------------------------------------

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
