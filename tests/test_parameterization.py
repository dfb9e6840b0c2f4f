import math

import numpy as np
import pytest

from screwgen import parameterization
from screwgen.errors import (BasisMismatchError, MatchingError,
                             NonconvergenceError, StructureError)
from screwgen.fitting import ReparamFunction, fit_curve
from screwgen.parameterization import (
    BoundarySet,
    EggAssembly,
    EggProblem,
    build_aux_space,
    build_egg_problem,
    check_boundary_regular,
    check_folding,
    check_ruled_map,
    collocate_kinked_segments,
    egg_residual,
    egg_solve,
    folded_cells,
    repair_folding,
    separator_xi_basis,
    transfinite,
)
from screwgen.splines import (KnotVector, SplineCurve, SplineMap, TensorBasis,
                              greville_abscissae, uniform_knots, unique_knots)


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


def test_transfinite_o_type_radial_blend():
    tb = TensorBasis(uniform_knots(3, 16), uniform_knots(3, 4))
    t = np.linspace(0, 1, 600)
    circ = np.column_stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])
    inner = fit_curve(1.0 * circ, t, tb.xi, lam_reg=1e-14).curve
    outer = fit_curve(2.0 * circ, t, tb.xi, lam_reg=1e-14).curve
    m = transfinite(BoundarySet(gamma_s=inner, gamma_n=outer), tb)
    mid = m.evaluate_grid(np.linspace(0.05, 0.95, 17), [0.5])[:, 0, :]
    r = np.linalg.norm(mid, axis=1)
    assert np.abs(r - 1.5).max() < 1e-3  # mean of the radii, up to fit error


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
        return exc.details["params"]
    return []


def test_o_grid_valid_concentric():
    rotor, casing = concentric_pair()
    assert ruled_map_folds(rotor, casing) == []


def test_o_grid_twisted_invalid():
    rotor, casing = concentric_pair(twist=0.3)
    with pytest.raises(MatchingError) as info:
        check_ruled_map(rotor, casing, side="left")
    assert info.value.details["side"] == "left"
    assert len(info.value.details["params"]) > 0


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
    # its degree-5 Bernstein coefficients are not all positive
    curve = SplineCurve(uniform_knots(3, 1),
                        [[1.0, -1.0], [1.0, 0.9], [1.0, -0.9], [1.0, 1.0]])
    lo, hi, coeffs = parameterization._angular_speed_bernstein(curve,
                                                               [0.0, 0.0])
    assert coeffs.min() < 0
    assert regular_by_samples(curve, [0.0, 0.0])
    check_boundary_regular(curve, [0.0, 0.0])
    assert halvings


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
# egg_residual
# ---------------------------------------------------------------------------

def identity_map(tb):
    gx, ge = tb.greville_grid()
    cp = np.zeros((tb.xi.n, tb.eta.n, 2))
    cp[:, :, 0] = gx[:, None]
    cp[:, :, 1] = ge[None, :]
    return SplineMap(tb, cp)


EGG_TB = TensorBasis(separator_xi_basis(3, 4), uniform_knots(3, 6))


def test_residual_zero_on_identity():
    m = identity_map(EGG_TB)
    prob = build_egg_problem(m)
    assert np.abs(egg_residual(prob)).max() < 1e-14


def test_residual_zero_on_affine():
    m = identity_map(EGG_TB)
    A = np.array([[1.4, 0.3], [-0.2, 0.8]])
    cp = m.control_points @ A.T + np.array([0.5, 1.0])
    prob = build_egg_problem(SplineMap(EGG_TB, cp))
    assert np.abs(egg_residual(prob)).max() < 1e-14


def test_residual_matches_dense_quadrature():
    m0 = identity_map(EGG_TB)
    prob0 = build_egg_problem(m0)
    rng = np.random.default_rng(2)
    cp = m0.control_points.copy()
    cp[1:-1, 1:-1] += 3e-5 * rng.normal(0, 1, (EGG_TB.xi.n - 2, EGG_TB.eta.n - 2, 2))
    prob = EggProblem(map=SplineMap(EGG_TB, cp), aux=prob0.aux,
                      epsilon=prob0.epsilon)
    r1 = egg_residual(prob, quad_scale=1)
    r2 = egg_residual(prob, quad_scale=2)
    assert np.linalg.norm(r2) > 1e-5  # genuinely nonzero
    assert np.abs(r1 - r2).max() < 1e-10


# ---------------------------------------------------------------------------
# egg_solve
# ---------------------------------------------------------------------------

def test_unit_square_converges_immediately():
    tb = EGG_TB
    init = transfinite(unit_square_bounds(tb), tb)
    prob = build_egg_problem(init, newton_tol=1e-10)
    patch = egg_solve(prob)
    assert patch.iterations <= 2
    gx, ge = tb.greville_grid()
    assert np.abs(patch.map.control_points[:, :, 0] - gx[:, None]).max() < 1e-9
    assert np.abs(patch.map.control_points[:, :, 1] - ge[None, :]).max() < 1e-9


def test_quarter_annulus_oracle():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    prob = build_egg_problem(init)
    patch = egg_solve(prob)
    assert patch.iterations <= 15
    samp = np.linspace(0, 1, 11)
    for eta in samp:
        pts = patch.map.evaluate_grid(samp, [eta])[:, 0, :]
        r = np.linalg.norm(pts, axis=1)
        assert np.abs(r - 2.0 ** eta).max() / 2.0 ** eta < 2e-2
        assert r.std() < 1e-2 * 1.0  # isolines are circles


def test_egg_preserves_boundary_bits():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    patch = egg_solve(build_egg_problem(init))
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        assert np.array_equal(patch.map.control_points[sl],
                              init.control_points[sl])


def test_egg_monotone_residual_history():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    patch = egg_solve(build_egg_problem(init))
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
    init = transfinite(bounds, tb)
    prob = build_egg_problem(init)
    patch = egg_solve(prob)
    patch = repair_folding(prob, check_folding(patch, 50), n_samples=50)
    t = np.linspace(0, 1, 51)
    xu = patch.map.evaluate_grid(t, t, 1, 0)
    xv = patch.map.evaluate_grid(t, t, 0, 1)
    det = xu[..., 0] * xv[..., 1] - xu[..., 1] * xv[..., 0]
    assert det.min() > 0


def dense_newton_matrix(asm, band):
    """The Newton matrix in [d; c_inner] order, expanded from the band
    storage of the assembly's eta-slow numbering."""
    n = asm.n_unknowns
    banded = np.zeros((n, n))
    for k in range(-asm.kl, asm.ku + 1):   # k = column - row
        banded += np.diag(band[asm.ku - k, max(k, 0):n + min(k, 0)], k)
    dense = np.empty_like(banded)
    dense[np.ix_(asm.order, asm.order)] = banded
    return dense


def perturbed_state(asm, rng):
    """A perturbed inner net and auxiliary field on the assembly's spaces."""
    tb, aux = asm.basis, asm.aux
    cp = identity_map(tb).control_points.copy()
    cp[1:-1, 1:-1] += rng.normal(0, 0.02, (tb.xi.n - 2, tb.eta.n - 2, 2))
    d = asm.project_u(cp) + rng.normal(0, 0.01, (aux.xi.n, aux.eta.n, 2))
    return cp, d


def test_egg_gradient_check():
    rng = np.random.default_rng(3)
    m0 = identity_map(EGG_TB)
    prob = build_egg_problem(m0)
    asm = EggAssembly(EGG_TB, prob.aux)
    cp, d = perturbed_state(asm, rng)
    J = dense_newton_matrix(asm, asm.jacobian(cp, d, prob.epsilon))
    n_d = 2 * asm.Na
    h = 1e-6
    for _ in range(20):
        v = rng.normal(0, 1, J.shape[0])
        v /= np.linalg.norm(v)
        dd = v[:n_d].reshape(prob.aux.xi.n, prob.aux.eta.n, 2)
        dc = v[n_d:].reshape(EGG_TB.xi.n - 2, EGG_TB.eta.n - 2, 2)

        def res_at(s):
            cp2 = cp.copy()
            cp2[1:-1, 1:-1] += s * dc
            return asm.residual(cp2, d + s * dd, prob.epsilon)

        fd = (res_at(h) - res_at(-h)) / (2 * h)
        an = J @ v
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-4


@pytest.mark.parametrize("refine", [False, True])
def test_band_step_matches_dense_solve(refine):
    # the refined basis carries the midpoint knots repair_folding inserts
    tb = EGG_TB
    if refine:
        tb = identity_map(tb).refine([0.0625, 0.6875], [1 / 12, 0.75]).basis
    prob = build_egg_problem(identity_map(tb))
    asm = prob.assembly
    cp, d = perturbed_state(asm, np.random.default_rng(5))
    band = asm.jacobian(cp, d, prob.epsilon)
    rhs = -asm.residual(cp, d, prob.epsilon)
    want = np.linalg.solve(dense_newton_matrix(asm, band), rhs)
    got = asm.solve(band, rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_half_bandwidths_do_not_grow_with_eta_resolution():
    widths = set()
    for eta_elems in (3, 6, 24):
        tb = TensorBasis(EGG_TB.xi, uniform_knots(3, eta_elems))
        asm = EggAssembly(tb, build_aux_space(tb))
        widths.add((asm.kl, asm.ku))
    assert len(widths) == 1


def test_singular_newton_matrix_raises_nonconvergence(monkeypatch):
    def zero_band(self, cp, d, eps):
        return np.zeros((self.kl + self.ku + 1, self.n_unknowns))

    monkeypatch.setattr(EggAssembly, "jacobian", zero_band)
    prob = build_egg_problem(transfinite(quarter_annulus_bounds(), QUARTER_TB))
    with pytest.raises(NonconvergenceError) as err:
        egg_solve(prob)
    assert err.value.last_map is not None
    assert len(err.value.history) == 1
    assert err.value.details["step"] == 0


def test_egg_nonconvergence_error():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    prob = build_egg_problem(init, max_iter=1, newton_tol=1e-14)
    with pytest.raises(NonconvergenceError) as err:
        egg_solve(prob)
    assert err.value.last_map is not None
    assert len(err.value.history) >= 1


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_check_folding_identity_empty():
    m = identity_map(EGG_TB)
    assert check_folding(m, 30) == []


def _folded_map():
    # drag one inner control point across its neighbors: a definite fold
    m = identity_map(EGG_TB)
    cp = m.control_points.copy()
    cp[4, 3] += np.array([0.35, 0.3])
    return SplineMap(EGG_TB, cp)


def test_check_folding_displaced_control():
    bad = check_folding(_folded_map(), 40)
    assert len(bad) > 0


def test_check_folding_refinement_superset():
    folded = _folded_map()

    def bbox(cells, n):
        arr = np.array(cells, dtype=float)
        return (arr[:, 0].min() / n, (arr[:, 0].max() + 1) / n,
                arr[:, 1].min() / n, (arr[:, 1].max() + 1) / n)

    b1 = bbox(check_folding(folded, 25), 25)
    b2 = bbox(check_folding(folded, 50), 50)
    # the refined sample lattice contains the coarse one, so the defect
    # region can only grow, up to the one-cell marking margin of the
    # coarse grid
    margin = 1.0 / 25
    assert b2[0] <= b1[0] + margin and b2[1] >= b1[1] - margin
    assert b2[2] <= b1[2] + margin and b2[3] >= b1[3] - margin


def test_folded_cells_matches_per_node_marking():
    # reference: every node with det <= 0 marks the up-to-four cells it
    # is a corner of
    rng = np.random.default_rng(7)
    for shape in ((2, 2), (9, 9), (13, 7)):
        det = rng.normal(0.6, 1.0, shape)
        det[0, -1] = 0.0
        cells = set()
        for i, j in np.argwhere(det <= 0.0):
            for ci in (i - 1, i):
                for cj in (j - 1, j):
                    if 0 <= ci < shape[0] - 1 and 0 <= cj < shape[1] - 1:
                        cells.add((int(ci), int(cj)))
        assert folded_cells(det) == sorted(cells)


def test_repair_folding_noop_when_clean():
    bounds = quarter_annulus_bounds()
    init = transfinite(bounds, QUARTER_TB)
    prob = build_egg_problem(init)
    patch = egg_solve(prob)
    repaired = repair_folding(prob, [])
    assert repaired.map is patch.map or np.array_equal(
        repaired.map.control_points, patch.map.control_points)


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
    init = transfinite(quarter_annulus_bounds(), QUARTER_TB)
    prob = build_egg_problem(init)
    patch = egg_solve(prob)
    assert patch.iterations > 0
    assert egg_residual(prob).shape == (2 * prob.assembly.Na
                                        + 2 * prob.assembly.n_inner,)
    assert len(builds) == 1
