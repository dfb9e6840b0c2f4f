import math

import numpy as np
import pytest

from screwgen import parameterization
from screwgen.control_map import check_composite_folding
from screwgen.errors import (BasisMismatchError, MatchingError,
                             NonconvergenceError, StructureError)
from screwgen.fitting import ReparamFunction, fit_curve
from screwgen.parameterization import (
    BoundarySet,
    EggAssembly,
    build_aux_space,
    check_boundary_regular,
    check_folding,
    check_ruled_map,
    collocate_kinked_segments,
    egg_solve,
    repair_folding,
    separator_xi_basis,
    transfinite,
)
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from screwgen.splines import (SplineCurve, SplineMap, TensorBasis,
                              basis_matrix, blossoms, greville_abscissae,
                              open_knots, uniform_knots, unique_knots)
from test_splines import insert_knots_boehm


def line_curve(kv, p0, p1):
    g = greville_abscissae(kv)
    ctrl = np.asarray(p0)[None, :] + g[:, None] * (np.asarray(p1) - np.asarray(p0))[None, :]
    return SplineCurve(kv, ctrl)


def unit_square_bounds(tb):
    s = line_curve(tb.xi, [0, 0], [1, 0])
    n = line_curve(tb.xi, [0, 1], [1, 1])
    w = line_curve(tb.eta, [0, 0], [0, 1])
    e = line_curve(tb.eta, [1, 0], [1, 1])
    return BoundarySet(gamma_w=w, gamma_e=e, gamma_s=s, gamma_n=n)


QUARTER_TB = TensorBasis(separator_xi_basis(3, 4), uniform_knots(3, 8))


def quarter_annulus_bounds(tb=QUARTER_TB, r_in=1.0, r_out=2.0):
    """Quarter annulus with the exponential radial abscissa r = r_in
    (r_out/r_in)^eta, matching the inverse-harmonic solution; xi runs
    clockwise from phi = pi/2 so that (xi, eta) is right-handed."""
    t = np.linspace(0, 1, 400)
    phi = (1 - t) * np.pi / 2
    arc = np.column_stack([np.cos(phi), np.sin(phi)])
    south = fit_curve(r_in * arc, t, tb.xi, lam_reg=1e-14).curve
    north = fit_curve(r_out * arc, t, tb.xi, lam_reg=1e-14).curve
    r = r_in * (r_out / r_in) ** t
    west = fit_curve(np.column_stack([np.zeros_like(t), r]), t, tb.eta,
                     lam_reg=1e-14).curve
    east = fit_curve(np.column_stack([r, np.zeros_like(t)]), t, tb.eta,
                     lam_reg=1e-14).curve
    return BoundarySet(gamma_w=west, gamma_e=east, gamma_s=south,
                       gamma_n=north, corner_tol=1e-8)


# ---------------------------------------------------------------------------
# transfinite
# ---------------------------------------------------------------------------

def test_transfinite_unit_square_identity():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    m = transfinite(unit_square_bounds(tb), tb)
    gx, ge = tb.greville_grid()
    assert np.abs(m.control_points[:, :, 0] - gx[:, None]).max() < 1e-14
    assert np.abs(m.control_points[:, :, 1] - ge[None, :]).max() < 1e-14
    pts = np.random.default_rng(0).uniform(0, 1, (30, 2))
    assert np.abs(m.evaluate(pts[:, 0], pts[:, 1]) - pts).max() < 1e-13


def test_transfinite_reproduces_affine():
    rng = np.random.default_rng(1)
    tb = TensorBasis(uniform_knots(3, 3), uniform_knots(3, 5))
    for _ in range(20):
        A = rng.uniform(-2, 2, (2, 2))
        b = rng.uniform(-1, 1, 2)
        corners = {k: A @ np.array(v) + b for k, v in
                   dict(p00=(0, 0), p10=(1, 0), p01=(0, 1), p11=(1, 1)).items()}
        bounds = BoundarySet(
            gamma_w=line_curve(tb.eta, corners["p00"], corners["p01"]),
            gamma_e=line_curve(tb.eta, corners["p10"], corners["p11"]),
            gamma_s=line_curve(tb.xi, corners["p00"], corners["p10"]),
            gamma_n=line_curve(tb.xi, corners["p01"], corners["p11"]))
        m = transfinite(bounds, tb)
        pts = rng.uniform(0, 1, (20, 2))
        J, det = m.jacobian(pts[:, 0], pts[:, 1])
        assert np.abs(J - A[None]).max() < 1e-12
        assert np.abs(det - np.linalg.det(A)).max() < 1e-12


def test_transfinite_basis_mismatch():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    bad = unit_square_bounds(TensorBasis(uniform_knots(3, 5), tb.eta))
    with pytest.raises(BasisMismatchError):
        transfinite(bad, tb)


# ---------------------------------------------------------------------------
# check_ruled_map
# ---------------------------------------------------------------------------

def concentric_pair(twist=0.0):
    kv = uniform_knots(3, 16)
    t = np.linspace(0, 1, 600)
    rotor = fit_curve(np.column_stack([np.cos(2 * np.pi * t),
                                       np.sin(2 * np.pi * t)]),
                      t, kv, lam_reg=1e-12).curve
    phi = 2 * np.pi * (t + twist * np.sin(np.pi * t) ** 2)
    casing = fit_curve(2 * np.column_stack([np.cos(phi), np.sin(phi)]),
                       t, kv, lam_reg=1e-12).curve
    return rotor, casing


def ruled_map_folds(rotor, casing):
    try:
        check_ruled_map(rotor, casing)
    except MatchingError as exc:
        return exc.details["intervals"]
    return []


def test_o_grid_valid_concentric():
    rotor, casing = concentric_pair()
    assert ruled_map_folds(rotor, casing) == []


def test_o_grid_twisted_invalid():
    rotor, casing = concentric_pair(twist=0.3)
    with pytest.raises(MatchingError) as info:
        check_ruled_map(rotor, casing, side="left")
    assert info.value.details["side"] == "left"
    assert len(info.value.details["intervals"]) > 0


def test_o_grid_validity_rotation_invariant():
    c, s = math.cos(1.1), math.sin(1.1)
    R = np.array([[c, -s], [s, c]])
    outcomes = []
    for twist in (0.02, 0.3):
        rotor, casing = concentric_pair(twist)
        rot_r = SplineCurve(rotor.basis, rotor.control_points @ R.T)
        rot_c = SplineCurve(casing.basis, casing.control_points @ R.T)
        folded = bool(ruled_map_folds(rotor, casing))
        assert folded == bool(ruled_map_folds(rot_r, rot_c))
        outcomes.append(folded)
    assert outcomes == [False, True]


def test_ruled_map_fold_between_isoline_samples_is_rejected():
    # straight rotor and casing; one casing control point pulled back so
    # that its basis function, supported on [0.5, 0.508], makes the casing
    # retreat there, between two of 4n uniform isoline samples
    kv = open_knots(3, np.sort(np.r_[np.arange(1, 8) / 8,
                                     0.5 + 0.002 * np.arange(1, 5)]))
    rotor = line_curve(kv, [0, 0], [1, 0])
    casing = line_curve(kv, [0, 1], [1, 1])
    cp = casing.control_points.copy()
    cp[7, 0] -= 0.02
    casing = SplineCurve(kv, cp)
    t = np.linspace(0.0, 1.0, 4 * kv.n)
    assert not np.any((t > 0.5) & (t < 0.508))
    intervals = ruled_map_folds(rotor, casing)
    assert intervals and all(0.5 <= a < b <= 0.508 for a, b in intervals)


# ---------------------------------------------------------------------------
# check_boundary_regular
# ---------------------------------------------------------------------------

def circular_arc(n_spans=6, half_angle=0.6):
    t = np.linspace(0.0, 1.0, 400)
    ang = half_angle * (2 * t - 1)
    return fit_curve(np.column_stack([np.cos(ang), np.sin(ang)]), t,
                     uniform_knots(3, n_spans)).curve


def angular_speed_samples(curve, center, n=20001):
    t = np.linspace(0.0, 1.0, n)
    rel, d = curve(t) - center, curve.evaluate(t, 1)
    return t, rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]


def regular_by_samples(curve, center):
    _, w = angular_speed_samples(curve, center)
    return bool(np.all(w > 0) or np.all(w < 0))


def certified(curve, center):
    try:
        check_boundary_regular(curve, center)
    except MatchingError:
        return False
    return True


def test_bezier_nets_match_knot_insertion():
    # the blossoms are the control points that Bezier extraction by knot
    # insertion (every interior knot raised to multiplicity p) yields
    kv = open_knots(3, [0.2, 0.5, 0.7], [1, 3, 2])
    cp = np.random.default_rng(4).normal(size=(kv.n, 2))
    vals, counts = unique_knots(kv.knots)
    _, ref = insert_knots_boehm(kv, cp,
                                np.repeat(vals[1:-1], 3 - counts[1:-1]))
    lo, hi, segs = parameterization._bezier(kv, cp)
    assert lo.tolist() == [0.0, 0.2, 0.5, 0.7] and hi[-1] == 1.0
    ref = ref[3 * np.arange(len(lo))[:, None] + np.arange(4)]
    assert np.abs(segs - ref).max() < 1e-14


def bezier_by_levels(kv, cp):
    """Reference Bezier nets: one blossoms call per Bernstein index j."""
    p = kv.degree
    vals, counts = unique_knots(kv.knots)
    k = np.cumsum(counts)[:-1] - 1
    lo, hi = vals[:-1], vals[1:]
    segs = [blossoms(kv, cp, k, np.column_stack([lo] * (p - j) + [hi] * j))
            for j in range(p + 1)]
    return lo, hi, np.stack(segs, axis=1)


@given(st.integers(1, 5), st.lists(st.floats(0.001, 0.999), max_size=8),
       st.lists(st.integers(1, 5), min_size=8, max_size=8),
       st.sampled_from([(2,), (3, 2), (2, 4, 2)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_bezier_nets_equal_the_per_index_blossoms_bit_for_bit(
        p, cuts, mults, trailing, seed):
    # random knot vectors with interior multiplicities up to p, and control
    # points with the trailing axes the curve, ruled-map and folding checks
    # pass
    vals = np.unique(np.round(cuts, 3))
    kv = open_knots(p, vals, [min(m, p) for m in mults[:len(vals)]])
    cp = np.random.default_rng(seed).normal(size=(kv.n,) + trailing)
    got = parameterization._bezier(kv, cp)
    want = bezier_by_levels(kv, cp)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def de_casteljau_halves(coeffs):
    """Reference midpoint split along axis 1: repeated averaging of
    neighbours, the first and last of each round kept."""
    left, right = [coeffs[:, 0]], [coeffs[:, -1]]
    work = coeffs
    for _ in range(coeffs.shape[1] - 1):
        work = 0.5 * (work[:, :-1] + work[:, 1:])
        left.append(work[:, 0])
        right.append(work[:, -1])
    return np.stack(left, axis=1), np.stack(right[::-1], axis=1)


@pytest.mark.parametrize("shape", [(40, 6), (40, 6, 6), (5, 2), (5, 4, 3)])
def test_halving_is_the_de_casteljau_split_bit_for_bit(shape):
    coeffs = np.random.default_rng(11).normal(size=shape)
    got = parameterization._halve(coeffs)
    want = de_casteljau_halves(coeffs)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.fixture
def halvings(monkeypatch):
    """Counts the de Casteljau subdivision rounds of the certificate."""
    calls = []
    original = parameterization._halve

    def counted(coeffs):
        calls.append(len(coeffs))
        return original(coeffs)

    monkeypatch.setattr(parameterization, "_halve", counted)
    return calls


def test_circular_arc_is_certified_without_subdivision(halvings):
    arc = circular_arc()
    check_boundary_regular(arc, [0.0, 0.0])
    check_boundary_regular(arc.reversed(), [0.0, 0.0])
    assert halvings == []


def test_small_reversal_raises_naming_its_span():
    # the straight line x = 1 runs north about the origin; pulling one
    # control point back makes it retreat inside the knot span [3/8, 1/2]
    kv = uniform_knots(3, 8)
    g = greville_abscissae(kv)
    cp = np.column_stack([np.ones_like(g), 2 * g - 1])
    cp[5, 1] -= 0.42
    curve = SplineCurve(kv, cp)
    t, w = angular_speed_samples(curve, [0.0, 0.0])
    assert w.min() < 0
    with pytest.raises(MatchingError) as info:
        check_boundary_regular(curve, [0.0, 0.0], side="west", theta=0.5)
    details = info.value.details
    assert details["intervals"] == [(0.375, 0.5)]
    assert 0.375 < t[w < 0].min() and t[w < 0].max() < 0.5
    assert details["min_w"] < 0
    assert details["side"] == "west" and details["theta"] == 0.5


def test_positive_speed_with_negative_bernstein_coefficient_is_certified(
        halvings):
    # y' = 3 (1.9 B0 - 5.4 B1 + 1.9 B2) has its minimum 0.15 at 1/2, but
    # its degree-5 Bernstein coefficients are not all positive, so the
    # certificate must halve before it certifies
    curve = SplineCurve(uniform_knots(3, 1),
                        [[1.0, -1.0], [1.0, 0.9], [1.0, -0.9], [1.0, 1.0]])
    assert regular_by_samples(curve, [0.0, 0.0])
    check_boundary_regular(curve, [0.0, 0.0])
    assert halvings


def test_non_finite_coefficient_is_never_certified():
    # nan <= 0 is False and inf > 0 is True, so only the guard rejects them
    box = np.array([[[0.0], [1.0]]])
    for bad in (np.nan, np.inf):
        _, origin, least = parameterization._certify(
            box, np.array([[1.0, bad, 1.0]]))
        assert origin.tolist() == [0] and not least[0] > 0


def test_certificate_agrees_with_dense_samples():
    arc = circular_arc()
    verdicts = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        curve = SplineCurve(arc.basis, arc.control_points
                            + 0.05 * rng.normal(size=arc.control_points.shape))
        center = 0.05 * rng.normal(size=2)
        verdict = certified(curve, center)
        assert verdict == regular_by_samples(curve, center), seed
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# build_aux_space
# ---------------------------------------------------------------------------

def test_aux_space_bicubic_degree():
    tb = TensorBasis(separator_xi_basis(3, 4), uniform_knots(3, 6))
    aux = build_aux_space(tb)
    assert aux.xi.degree == 4
    assert aux.eta is tb.eta


def test_aux_space_knot_structure():
    tb = TensorBasis(separator_xi_basis(3, 4), uniform_knots(3, 6))
    aux = build_aux_space(tb)
    vals, counts = unique_knots(aux.xi.knots)
    pvals, pcounts = unique_knots(tb.xi.knots)
    assert np.allclose(vals, pvals)  # interior knots preserved verbatim
    assert counts[0] == 5 and counts[-1] == 5  # p1 + 2
    i_half = np.argmin(np.abs(vals - 0.5))
    assert counts[i_half] == 4  # p1 + 1
    # dimension from the knot count: n = len(knots) - degree - 1
    assert aux.xi.n == len(aux.xi.knots) - 4 - 1


def test_aux_space_requires_macro_split():
    tb = TensorBasis(uniform_knots(3, 8), uniform_knots(3, 6))
    with pytest.raises(StructureError):
        build_aux_space(tb)


# ---------------------------------------------------------------------------
# EGG residual
# ---------------------------------------------------------------------------

def identity_map(tb):
    gx, ge = tb.greville_grid()
    cp = np.zeros((tb.xi.n, tb.eta.n, 2))
    cp[:, :, 0] = gx[:, None]
    cp[:, :, 1] = ge[None, :]
    return SplineMap(tb, cp)


EGG_TB = TensorBasis(separator_xi_basis(3, 4), uniform_knots(3, 6))


def egg_assembly(m, quad_scale=1):
    """The EGG assembly of the map's basis, and the epsilon ``egg_solve``
    takes for the map: 1e-4 times its median metric trace."""
    asm = EggAssembly(m.basis, quad_scale)
    return asm, 1e-4 * float(np.median(asm.metric_sum_samples(m.control_points)))


def residual_at(m, eps=None, quad_scale=1):
    """The EGG residual at the map, with u the L2 projection of x_xi."""
    asm, own_eps = egg_assembly(m, quad_scale)
    return asm.residual(m.control_points, own_eps if eps is None else eps)


def test_residual_zero_on_identity():
    assert np.abs(residual_at(identity_map(EGG_TB))).max() < 1e-14


def test_residual_zero_on_affine():
    m = identity_map(EGG_TB)
    A = np.array([[1.4, 0.3], [-0.2, 0.8]])
    cp = m.control_points @ A.T + np.array([0.5, 1.0])
    assert np.abs(residual_at(SplineMap(EGG_TB, cp))).max() < 1e-14


def test_residual_matches_dense_quadrature():
    m0 = identity_map(EGG_TB)
    eps = egg_assembly(m0)[1]
    rng = np.random.default_rng(2)
    cp = m0.control_points.copy()
    cp[1:-1, 1:-1] += 3e-5 * rng.normal(0, 1, (EGG_TB.xi.n - 2, EGG_TB.eta.n - 2, 2))
    m = SplineMap(EGG_TB, cp)
    r1 = residual_at(m, eps, quad_scale=1)
    r2 = residual_at(m, eps, quad_scale=2)
    assert np.linalg.norm(r2) > 1e-5  # genuinely nonzero
    assert np.abs(r1 - r2).max() < 1e-10


# ---------------------------------------------------------------------------
# egg_solve
# ---------------------------------------------------------------------------

def test_unit_square_converges_immediately(monkeypatch):
    monkeypatch.setattr(parameterization, "NEWTON_TOL", 1e-10)
    tb = EGG_TB
    patch = egg_solve(transfinite(unit_square_bounds(tb), tb))
    assert patch.iterations <= 2
    gx, ge = tb.greville_grid()
    assert np.abs(patch.map.control_points[:, :, 0] - gx[:, None]).max() < 1e-9
    assert np.abs(patch.map.control_points[:, :, 1] - ge[None, :]).max() < 1e-9


def test_quarter_annulus_oracle():
    bounds = quarter_annulus_bounds()
    patch = egg_solve(transfinite(bounds, QUARTER_TB))
    assert patch.iterations <= 15
    samp = np.linspace(0, 1, 11)
    for eta in samp:
        pts = patch.map.evaluate(samp, np.full_like(samp, eta))
        r = np.linalg.norm(pts, axis=1)
        assert np.abs(r - 2.0 ** eta).max() / 2.0 ** eta < 2e-2
        assert r.std() < 1e-2 * 1.0  # isolines are circles


def test_egg_preserves_boundary_bits():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    patch = egg_solve(init)
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        assert np.array_equal(patch.map.control_points[sl],
                              init.control_points[sl])


def test_egg_monotone_residual_history():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    patch = egg_solve(init)
    h = patch.residual_history
    assert all(b < a for a, b in zip(h, h[1:]))
    assert h[-1] <= 1e-8 * (h[0] + 1.0)


def l_shape_bounds(tb):
    """Bent tube around the corner at (1, 1): outer boundary through (0, 0),
    inner through (1, 1), kinks pinned at xi = 0.5."""
    outer = collocate_kinked_segments(tb.xi, [0, 2], [0, 0], [2, 0])
    inner = collocate_kinked_segments(tb.xi, [1, 2], [1, 1], [2, 1])
    west = line_curve(tb.eta, [0, 2], [1, 2])
    east = line_curve(tb.eta, [2, 0], [2, 1])
    return BoundarySet(gamma_w=west, gamma_e=east, gamma_s=outer, gamma_n=inner)


def test_egg_l_shape_fold_free_after_repair():
    # the reentrant inner corner degenerates the exact solution; the solve
    # plus the local-refinement repair round must end fold-free
    tb = TensorBasis(separator_xi_basis(3, 6), uniform_knots(3, 4))
    bounds = l_shape_bounds(tb)
    patch = egg_solve(transfinite(bounds, tb))
    boxes = check_folding(patch.map)
    # the two elements beside the reentrant corner at xi = 0.5, eta = 1
    assert len(boxes) == 2 and all(0.5 in (lo[0], hi[0]) and hi[1] == 1.0
                                   for lo, hi in boxes)
    patch = repair_folding(patch, boxes)
    assert check_folding(patch.map) == []
    xi, eta = np.meshgrid(np.linspace(0, 1, 401), np.linspace(0, 1, 401))
    assert patch.map.jacobian(xi.ravel(), eta.ravel())[1].min() > 0


def dense_newton_matrix(asm, band):
    """The Newton matrix over the eta-slow inner unknowns, expanded from
    its band storage."""
    n = asm.n_unknowns
    dense = np.zeros((n, n))
    for k in range(-asm.kl, asm.ku + 1):   # k = column - row
        dense += np.diag(band[asm.ku - k, max(k, 0):n + min(k, 0)], k)
    return dense


def inner_net(tb, v):
    """An eta-slow vector over the inner unknowns as an inner net
    (xi.n - 2, eta.n - 2, 2)."""
    return v.reshape(tb.eta.n - 2, tb.xi.n - 2, 2).transpose(1, 0, 2)


def perturbed_state(asm, rng):
    """A perturbed inner net on the assembly's basis."""
    tb = asm.basis
    cp = identity_map(tb).control_points.copy()
    cp[1:-1, 1:-1] += rng.normal(0, 0.02, (tb.xi.n - 2, tb.eta.n - 2, 2))
    return cp


def test_egg_gradient_check():
    rng = np.random.default_rng(3)
    asm, eps = egg_assembly(identity_map(EGG_TB))
    cp = perturbed_state(asm, rng)
    J = dense_newton_matrix(asm, asm.jacobian(cp, eps))
    h = 1e-6
    for _ in range(20):
        v = rng.normal(0, 1, J.shape[0])
        v /= np.linalg.norm(v)
        dc = inner_net(EGG_TB, v)

        def res_at(s):
            cp2 = cp.copy()
            cp2[1:-1, 1:-1] += s * dc
            return asm.residual(cp2, eps)

        fd = (res_at(h) - res_at(-h)) / (2 * h)
        an = J @ v
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-4


# the refined basis carries the midpoint knots repair_folding inserts
REFINED_TB = identity_map(EGG_TB).refine([0.0625, 0.6875], [1 / 12, 0.75]).basis


@pytest.mark.parametrize("refine", [False, True])
def test_band_step_matches_dense_solve(refine):
    tb = REFINED_TB if refine else EGG_TB
    asm, eps = egg_assembly(identity_map(tb))
    cp = perturbed_state(asm, np.random.default_rng(5))
    band = asm.jacobian(cp, eps)
    rhs = -asm.residual(cp, eps)
    want = np.linalg.solve(dense_newton_matrix(asm, band), rhs)
    got = solve_banded((asm.kl, asm.ku), band, rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_half_bandwidths_do_not_grow_with_eta_resolution():
    widths = set()
    for eta_elems in (3, 6, 24):
        tb = TensorBasis(EGG_TB.xi, uniform_knots(3, eta_elems))
        asm = EggAssembly(tb)
        # an element couples every inner xi dof of its four eta indices
        assert max(asm.kl, asm.ku) <= 4 * 2 * (tb.xi.n - 2) - 1
        widths.add((asm.kl, asm.ku))
    assert len(widths) == 1


def test_assembly_requires_macro_split():
    tb = TensorBasis(uniform_knots(3, 8), uniform_knots(3, 6))
    with pytest.raises(StructureError):
        EggAssembly(tb)


def test_singular_newton_matrix_raises_nonconvergence(monkeypatch):
    def zero_band(self, cp, eps):
        return np.zeros((self.kl + self.ku + 1, self.n_unknowns))

    monkeypatch.setattr(EggAssembly, "jacobian", zero_band)
    with pytest.raises(NonconvergenceError) as err:
        egg_solve(transfinite(quarter_annulus_bounds(), QUARTER_TB))
    assert err.value.last_map is not None
    assert len(err.value.history) == 1
    assert err.value.details["step"] == 0


def gauss_rule(kv, n):
    """Nodes and weights of the n-point Gauss rule on every knot span."""
    lo, hi = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
    x, w = np.polynomial.legendre.leggauss(n)
    return (0.5 * (lo + hi + (hi - lo) * x)).ravel(), (0.5 * (hi - lo) * w).ravel()


class MixedForm:
    """The mixed EGG system (Hinz, Moller & Vuik) with the auxiliary
    coefficients d as free unknowns, u = sum_kj d_kj a_k(xi) M_j(eta), on
    dense global basis matrices at the tensor Gauss points of the
    assembly's rule (aux xi degree + 1 by eta degree + 1 nodes per span).

    R1 = int a_k M_j (x_xi - u) on the aux dofs and R2 = int w_i U on the
    primal dofs, with U = (g22 u_xi - g12 u_eta - g12 x_xi_eta
    + g11 x_eta_eta) / (g11 + g22 + eps)."""

    def __init__(self, basis):
        aux = build_aux_space(basis).xi
        xq, self.wx = gauss_rule(basis.xi, aux.degree + 1)
        eq, self.we = gauss_rule(basis.eta, basis.eta.degree + 1)
        self.N = [basis_matrix(basis.xi, xq, k) for k in range(3)]
        self.M = [basis_matrix(basis.eta, eq, k) for k in range(3)]
        self.A = [basis_matrix(aux, xq, k) for k in range(2)]

    def x(self, cp, i, j):
        return np.einsum("ai,bj,ijd->abd", self.N[i], self.M[j], cp)

    def u(self, d, i, j):
        return np.einsum("ak,bj,kjd->abd", self.A[i], self.M[j], d)

    def integrate(self, B, f):
        """int B_k(xi) M_j(eta) f over the rule, (n_B, eta.n, 2)."""
        return np.einsum("a,b,ak,bj,abd->kjd", self.wx, self.we, B,
                         self.M[0], f)

    def projection(self, cp):
        """d of the 2-D L2 projection of x_xi, solved with the dense
        Kronecker aux mass M_xi (x) M_eta."""
        mass = np.kron(self.A[0].T @ (self.wx[:, None] * self.A[0]),
                       self.M[0].T @ (self.we[:, None] * self.M[0]))
        rhs = self.integrate(self.A[0], self.x(cp, 1, 0))
        return np.linalg.solve(mass, rhs.reshape(-1, 2)).reshape(rhs.shape)

    def residual(self, cp, d, eps):
        """(R1, R2) with R2 on every primal dof, boundary ones too."""
        xx, xe = self.x(cp, 1, 0), self.x(cp, 0, 1)
        g11, g12, g22 = ((a * b).sum(-1) for a, b in
                         ((xx, xx), (xx, xe), (xe, xe)))
        P = (g22[..., None] * self.u(d, 1, 0) - g12[..., None] * self.u(d, 0, 1)
             - g12[..., None] * self.x(cp, 1, 1)
             + g11[..., None] * self.x(cp, 0, 2))
        return (self.integrate(self.A[0], xx - self.u(d, 0, 0)),
                self.integrate(self.N[0], P / (g11 + g22 + eps)[..., None]))


AUX_BASES = {"separator": EGG_TB, "refined": REFINED_TB,
             "quarter": QUARTER_TB}


@pytest.mark.parametrize("name", sorted(AUX_BASES))
def test_aux_field_is_the_xi_projection(name):
    tb = AUX_BASES[name]
    asm, eps = egg_assembly(identity_map(tb))
    cp = perturbed_state(asm, np.random.default_rng(7))
    oracle = MixedForm(tb)
    d = oracle.projection(cp)
    # the solver's coefficients (proj (x) I) c are the 2-D projection's
    got = np.einsum("ki,ijd->kjd", asm.proj, cp)
    assert np.abs(got - d).max() <= 1e-12 * np.abs(d).max()
    # and so are its u_xi, u_eta at the quadrature points
    f = asm.fields(cp)
    E1, E2 = tb.xi.n_elements, tb.eta.n_elements
    for key, ders in (("ux", (1, 0)), ("ue", (0, 1))):
        want = oracle.u(d, *ders)
        have = f[key].reshape(E1, E2, -1, want.shape[1] // E2, 2).transpose(
            0, 2, 1, 3, 4).reshape(want.shape)
        assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()
    # the mixed system at that d: R1 vanishes and R2 is the residual
    r1, r2 = oracle.residual(cp, d, eps)
    assert np.abs(r1).max() <= 1e-14
    want = r2[1:-1, 1:-1].transpose(1, 0, 2).ravel()
    have = asm.residual(cp, eps)
    assert np.abs(want).max() > 1e-3
    assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()


def test_egg_nonconvergence_error(monkeypatch):
    monkeypatch.setattr(parameterization, "MAX_NEWTON_ITER", 1)
    monkeypatch.setattr(parameterization, "NEWTON_TOL", 1e-14)
    bounds = quarter_annulus_bounds()
    with pytest.raises(NonconvergenceError) as err:
        egg_solve(transfinite(bounds, QUARTER_TB))
    assert err.value.last_map is not None
    assert len(err.value.history) >= 1


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_check_folding_identity_empty(halvings):
    assert check_folding(identity_map(EGG_TB)) == []
    assert halvings == []


def _folded_map():
    # drag one inner control point across its neighbors: a definite fold
    m = identity_map(EGG_TB)
    cp = m.control_points.copy()
    cp[4, 3] += np.array([0.35, 0.3])
    return SplineMap(EGG_TB, cp)


def test_check_folding_displaced_control():
    boxes = check_folding(_folded_map())
    gx, ge = EGG_TB.greville_grid()
    assert any(lo[0] <= gx[4] <= hi[0] and lo[1] <= ge[3] <= hi[1]
               for lo, hi in boxes)


def test_check_folding_agrees_with_dense_lattice():
    verdicts = []
    for seed in range(16):
        rng = np.random.default_rng(seed)
        cp = identity_map(EGG_TB).control_points.copy()
        cp[1:-1, 1:-1] += 0.035 * rng.normal(size=cp[1:-1, 1:-1].shape)
        m = SplineMap(EGG_TB, cp)
        verdict = check_folding(m) == []
        assert verdict == (check_composite_folding(m, None, 200) == []), seed
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_positive_det_with_negative_bernstein_coefficient_is_certified(
        halvings):
    # x = (g(xi), eta) with g' > 0, but the degree-5 Bernstein coefficients
    # of det J = g' are not all positive (the curve of the boundary test),
    # so the certificate must halve before it certifies
    tb = TensorBasis(uniform_knots(3, 1), uniform_knots(3, 1))
    cp = identity_map(tb).control_points.copy()
    cp[:, :, 0] = np.array([-1.0, 0.9, -0.9, 1.0])[:, None]
    m = SplineMap(tb, cp)
    assert check_composite_folding(m, None, 200) == []
    assert check_folding(m) == []
    assert halvings


def test_collapsed_edge_is_not_certified_within_the_depth_cap(halvings):
    # the north edge collapses to a point, so det J = 0 along eta = 1
    cp = identity_map(EGG_TB).control_points.copy()
    cp[:, -1] = [0.5, 1.0]
    boxes = check_folding(SplineMap(EGG_TB, cp))
    top = 1.0 - 1.0 / EGG_TB.eta.n_elements
    assert len(boxes) == EGG_TB.xi.n_elements
    assert all(lo[1] >= top - 1e-12 for lo, hi in boxes)
    assert len(halvings) <= parameterization.MAX_DEPTH


def test_det_touching_zero_along_a_line_stops_at_the_depth_cap(halvings):
    # x = (f(xi), eta) with f' = 3 (xi - 0.3)^2: det J >= 0 vanishes on the
    # line xi = 0.3, so the boxes along it never certify and the cap ends
    # the subdivision
    tb = TensorBasis(uniform_knots(3, 1), uniform_knots(3, 1))
    cp = identity_map(tb).control_points.copy()
    # Bernstein coefficients of (xi - 0.3)^3: its blossom at 0^(3-j) 1^j
    j = np.arange(4)
    cp[:, :, 0] = ((-0.3) ** (3 - j) * 0.7 ** j)[:, None]
    assert check_folding(SplineMap(tb, cp)) == [[[0.0, 0.0], [1.0, 1.0]]]
    assert len(halvings) == parameterization.MAX_DEPTH


def test_repair_folding_noop_when_clean():
    bounds = quarter_annulus_bounds()
    patch = egg_solve(transfinite(bounds, QUARTER_TB))
    assert repair_folding(patch, []) is patch


# ---------------------------------------------------------------------------
# separator boundary assembly
# ---------------------------------------------------------------------------

def test_collocate_kinked_segments_exact():
    kv = separator_xi_basis(3, 4)
    cur = collocate_kinked_segments(kv, [0, 0], [1, 0.5], [2, 0])
    t = np.linspace(0, 1, 101)
    pts = cur(t)
    left = t <= 0.5
    expected = np.where(left[:, None],
                        np.array([0, 0]) + 2 * t[:, None] * np.array([1, 0.5]),
                        np.array([1, 0.5]) + (2 * t - 1)[:, None] * np.array([1, -0.5]))
    assert np.abs(pts - expected).max() < 1e-13
    assert np.allclose(cur.point(0.5), [1, 0.5], atol=1e-14)


def test_collocate_kinked_requires_c0_knot():
    with pytest.raises(StructureError):
        collocate_kinked_segments(uniform_knots(3, 4), [0, 0], [1, 1], [2, 0])


def test_one_assembly_per_solve(monkeypatch):
    import screwgen.parameterization as par

    builds = []
    original = par.EggAssembly.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(par.EggAssembly, "__init__", counting)
    patch = egg_solve(transfinite(quarter_annulus_bounds(), QUARTER_TB))
    assert patch.iterations > 0
    assert len(builds) == 1
