import math

import numpy as np
import pytest

from screwgen import parameterization
from screwgen.control_map import (check_composite_folding,
                                  default_control_basis, identity_control)
from screwgen.errors import (BasisMismatchError, DomainError, MatchingError,
                             NonconvergenceError, StructureError,
                             TopologyError)
from screwgen.fitting import fit_curve
from screwgen.parameterization import (
    EggAssembly,
    _aux_xi,
    _block_solve,
    check_boundary_regular,
    check_folding,
    egg_solve,
    repair_folding,
    transfinite,
)
from hypothesis import given, settings, strategies as st
from screwgen.splines import (KnotVector, SplineCurve, SplineMap, TensorBasis,
                              basis_matrix, bounding_box_diagonal,
                              greville_abscissae, open_knots, uniform_knots,
                              unique_knots)
from test_splines import blossoms_by_index, insert_knots_boehm


def line_curve(kv, p0, p1):
    g = greville_abscissae(kv)
    ctrl = np.asarray(p0)[None, :] + g[:, None] * (np.asarray(p1) - np.asarray(p0))[None, :]
    return SplineCurve(kv, ctrl)


def unit_square_bounds(tb):
    """Boundary curves (west, east, south, north) of the unit square."""
    s = line_curve(tb.xi, [0, 0], [1, 0])
    n = line_curve(tb.xi, [0, 1], [1, 1])
    w = line_curve(tb.eta, [0, 0], [0, 1])
    e = line_curve(tb.eta, [1, 0], [1, 1])
    return w, e, s, n


def c0_split(spans_per_half):
    """Cubic open knot vector on [0, 1], uniform spans on each half and a
    triple knot at 0.5: the C0 macro split the EGG aux space needs."""
    grid = np.linspace(0.0, 1.0, 2 * spans_per_half + 1)[1:-1]
    return open_knots(3, grid, np.where(grid == 0.5, 3, 1))


def kinked_curve(kv, start, kink, end):
    """The polyline start -> kink -> end, kinked at 0.5, at the Greville
    abscissae of kv: exact when kv has its C0 knot at 0.5."""
    g = greville_abscissae(kv)
    pts = np.array([start, kink, end], dtype=float)
    return SplineCurve(kv, np.column_stack(
        [np.interp(g, [0.0, 0.5, 1.0], pts[:, d]) for d in (0, 1)]))


QUARTER_TB = TensorBasis(c0_split(4), uniform_knots(3, 8))


def quarter_annulus_bounds(tb=QUARTER_TB, r_in=1.0, r_out=2.0):
    """Boundary curves (west, east, south, north) of the quarter annulus
    with the exponential radial abscissa r = r_in (r_out/r_in)^eta, matching the inverse-harmonic solution; xi runs
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
    return west, east, south, north


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spans", [0, -1])
def test_bases_of_fewer_than_one_span_raise_domain_error(spans):
    with pytest.raises(DomainError):
        uniform_knots(3, spans)
    assert uniform_knots(3, 1).n_elements == 1


# ---------------------------------------------------------------------------
# transfinite
# ---------------------------------------------------------------------------

def test_transfinite_unit_square_identity():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    m = transfinite(*unit_square_bounds(tb), tb)
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
        bounds = (line_curve(tb.eta, corners["p00"], corners["p01"]),
                  line_curve(tb.eta, corners["p10"], corners["p11"]),
                  line_curve(tb.xi, corners["p00"], corners["p10"]),
                  line_curve(tb.xi, corners["p01"], corners["p11"]))
        m = transfinite(*bounds, tb)
        pts = rng.uniform(0, 1, (20, 2))
        J, det = m.jacobian(pts[:, 0], pts[:, 1])
        assert np.abs(J - A[None]).max() < 1e-12
        assert np.abs(det - np.linalg.det(A)).max() < 1e-12


def test_transfinite_basis_mismatch():
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    bad = unit_square_bounds(TensorBasis(uniform_knots(3, 5), tb.eta))
    with pytest.raises(BasisMismatchError):
        transfinite(*bad, tb)


def test_knots_within_knot_tol_are_another_basis():
    # bases compare by their knot values: a knot 1e-13 off, which KNOT_TOL
    # would cluster with the basis's own, is a mismatch
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    w, e, s, n = unit_square_bounds(tb)
    knots = tb.eta.knots.copy()
    knots[3] += 1e-13
    moved = SplineCurve(KnotVector(2, knots), w.control_points)
    with pytest.raises(BasisMismatchError):
        transfinite(moved, e, s, n, tb)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_transfinite_corner_tolerance_is_relative(scale):
    # a west end 1e-12 of the patch size off its corner is the corner; one
    # 1e-4 off is a TopologyError that names the corner, at any scale
    tb = TensorBasis(uniform_knots(3, 4), uniform_knots(2, 3))
    w, e, s, n = (SplineCurve(c.basis, scale * c.control_points)
                  for c in unit_square_bounds(tb))
    for offset, ok in ((1e-12, True), (1e-4, False)):
        cp = w.control_points.copy()
        cp[-1, 0] += offset * scale
        moved = SplineCurve(w.basis, cp)
        if ok:
            transfinite(moved, e, s, n, tb)
        else:
            with pytest.raises(TopologyError, match=r"w\(1\)=n\(0\)"):
                transfinite(moved, e, s, n, tb)


# ---------------------------------------------------------------------------
# check_folding on ruled (C-grid) maps
# ---------------------------------------------------------------------------

def concentric_pair(twist=0.0):
    """Unit and radius-2 circles, both clockwise from (1, 0), the outer one
    twisted ahead by twist sin^2(pi t) turns."""
    kv = uniform_knots(3, 16)
    t = np.linspace(0, 1, 600)
    rotor = fit_curve(np.column_stack([np.cos(2 * np.pi * t),
                                       -np.sin(2 * np.pi * t)]),
                      t, kv, lam_reg=1e-12).curve
    phi = 2 * np.pi * (t + twist * np.sin(np.pi * t) ** 2)
    casing = fit_curve(2 * np.column_stack([np.cos(phi), -np.sin(phi)]),
                       t, kv, lam_reg=1e-12).curve
    return rotor, casing


def ruled_map(rotor, casing):
    """The ruled map from rotor (eta = 0) to casing (eta = 1), the two
    curves on one knot vector; a clockwise pair, like a C-grid's, has
    det J > 0."""
    basis = TensorBasis(rotor.basis, KnotVector(1, [0.0, 0.0, 1.0, 1.0]))
    return SplineMap(basis, np.stack(
        [rotor.control_points, casing.control_points], axis=1))


def ruled_map_folds(rotor, casing):
    return check_folding(ruled_map(rotor, casing))


def test_o_grid_valid_concentric():
    rotor, casing = concentric_pair()
    assert ruled_map_folds(rotor, casing) == []


def test_o_grid_twisted_invalid():
    rotor, casing = concentric_pair(twist=0.3)
    assert len(ruled_map_folds(rotor, casing)) > 0


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
    assert ruled_map_folds(rotor, line_curve(kv, [0, 1], [1, 1])) == []
    boxes = ruled_map_folds(rotor, casing)
    assert boxes and all(0.5 <= lo[0] < hi[0] <= 0.508 for lo, hi in boxes)


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
    rel = curve(t) - center
    d = basis_matrix(curve.basis, t, der=1) @ curve.control_points
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
    """Reference Bezier nets: per Bernstein index j, de Boor one (level,
    index) pair at a time on the spans of a fresh clustering."""
    p = kv.degree
    vals, counts = unique_knots(kv.knots)
    k = np.cumsum(counts)[:-1] - 1
    lo, hi = vals[:-1], vals[1:]
    segs = [blossoms_by_index(kv, cp, k,
                              np.column_stack([lo] * (p - j) + [hi] * j))
            for j in range(p + 1)]
    return lo, hi, np.stack(segs, axis=1)


@given(st.integers(1, 5), st.lists(st.floats(0.001, 0.999), max_size=8),
       st.lists(st.integers(1, 5), min_size=8, max_size=8),
       st.sampled_from([(2,), (3, 2), (2, 4, 2)]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_bezier_nets_equal_the_per_index_blossoms_bit_for_bit(
        p, cuts, mults, trailing, seed):
    # random knot vectors with interior multiplicities up to p, and control
    # points with the trailing axes the boundary and folding checks pass
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
# auxiliary space
# ---------------------------------------------------------------------------

def test_aux_space_bicubic_degree():
    assert _aux_xi(c0_split(4)).degree == 4


def test_aux_space_knot_structure():
    xi = c0_split(4)
    aux = _aux_xi(xi)
    vals, counts = unique_knots(aux.knots)
    pvals, pcounts = unique_knots(xi.knots)
    assert np.allclose(vals, pvals)  # interior knots preserved verbatim
    assert counts[0] == 5 and counts[-1] == 5  # p1 + 2
    i_half = np.argmin(np.abs(vals - 0.5))
    assert counts[i_half] == 4  # p1 + 1
    # dimension from the knot count: n = len(knots) - degree - 1
    assert aux.n == len(aux.knots) - 4 - 1


def test_aux_space_requires_macro_split():
    with pytest.raises(StructureError):
        _aux_xi(uniform_knots(3, 8))


# ---------------------------------------------------------------------------
# EGG residual
# ---------------------------------------------------------------------------

def identity_map(tb):
    gx, ge = tb.greville_grid()
    cp = np.zeros((tb.xi.n, tb.eta.n, 2))
    cp[:, :, 0] = gx[:, None]
    cp[:, :, 1] = ge[None, :]
    return SplineMap(tb, cp)


EGG_TB = TensorBasis(c0_split(4), uniform_knots(3, 6))


def egg_assembly(m):
    """The EGG assembly of the map's basis, and the epsilon ``egg_solve``
    takes for the map: 1e-4 times its median metric trace."""
    asm = EggAssembly(m.basis)
    f = asm.fields(m.control_points)
    return asm, 1e-4 * float(np.median(f["g11"] + f["g22"]))


def residual_at(m, eps=None):
    """The EGG residual at the map, with u the L2 projection of x_xi."""
    asm, own_eps = egg_assembly(m)
    return asm.residual(asm.fields(m.control_points),
                        own_eps if eps is None else eps)


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
    r1 = residual_at(m, eps)
    # the mixed form on twice the Gauss points per span and direction
    dense = MixedForm(EGG_TB, refine=2)
    r2 = dense.residual(cp, dense.projection(cp), eps)[1]
    r2 = r2[1:-1, 1:-1].transpose(1, 0, 2).ravel()
    assert np.linalg.norm(r2) > 1e-5  # genuinely nonzero
    assert np.abs(r1 - r2).max() < 1e-10


# ---------------------------------------------------------------------------
# egg_solve
# ---------------------------------------------------------------------------

def test_unit_square_converges_immediately(monkeypatch):
    monkeypatch.setattr(parameterization, "NEWTON_TOL", 1e-10)
    tb = EGG_TB
    patch = egg_solve(transfinite(*unit_square_bounds(tb), tb))
    assert patch.iterations <= 2
    gx, ge = tb.greville_grid()
    assert np.abs(patch.map.control_points[:, :, 0] - gx[:, None]).max() < 1e-9
    assert np.abs(patch.map.control_points[:, :, 1] - ge[None, :]).max() < 1e-9


def test_quarter_annulus_oracle():
    bounds = quarter_annulus_bounds()
    patch = egg_solve(transfinite(*bounds, QUARTER_TB))
    assert patch.iterations <= 15
    samp = np.linspace(0, 1, 11)
    for eta in samp:
        pts = patch.map.evaluate(samp, np.full_like(samp, eta))
        r = np.linalg.norm(pts, axis=1)
        assert np.abs(r - 2.0 ** eta).max() / 2.0 ** eta < 2e-2
        assert r.std() < 1e-2 * 1.0  # isolines are circles


def test_egg_preserves_boundary_bits():
    bounds = quarter_annulus_bounds()
    init = transfinite(*bounds, QUARTER_TB)
    patch = egg_solve(init)
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        assert np.array_equal(patch.map.control_points[sl],
                              init.control_points[sl])


def test_egg_monotone_residual_history():
    bounds = quarter_annulus_bounds()
    init = transfinite(*bounds, QUARTER_TB)
    patch = egg_solve(init)
    h = patch.residual_history
    assert all(b < a for a, b in zip(h, h[1:]))
    extent = bounding_box_diagonal(init.control_points.reshape(-1, 2))
    assert h[-1] <= parameterization.NEWTON_TOL * (h[0] + extent)


def test_egg_newton_stop_is_scale_free():
    # the residual is a length and the stop is relative to the initial
    # net's extent, so a scaled quarter annulus takes the same steps to the
    # scaled map
    init = transfinite(*quarter_annulus_bounds(), QUARTER_TB)
    ref = egg_solve(init)
    extent = bounding_box_diagonal(init.control_points.reshape(-1, 2))
    for scale in (1e-6, 1e3):
        patch = egg_solve(SplineMap(init.basis, scale * init.control_points))
        assert patch.iterations == ref.iterations
        assert np.abs(patch.map.control_points / scale
                      - ref.map.control_points).max() <= 1e-12 * extent


def test_egg_solve_evaluates_the_fields_once_per_net(monkeypatch):
    # the start's epsilon and residual share one fields pass, and each
    # Newton matrix reads the fields of the trial its line search accepted
    calls = {"fields": 0, "residual": 0, "jacobian": 0}
    for name in calls:
        def counted(self, *args, _real=getattr(EggAssembly, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(EggAssembly, name, counted)
    tb = TensorBasis(c0_split(6), uniform_knots(3, 4))
    halved = False
    for init in (transfinite(*quarter_annulus_bounds(), QUARTER_TB),
                 transfinite(*l_shape_bounds(tb), tb)):
        for name in calls:
            calls[name] = 0
        patch = egg_solve(init)
        trials = calls["residual"] - 1          # the start's residual
        assert calls["jacobian"] == patch.iterations > 0
        assert trials >= patch.iterations
        assert calls["fields"] == 1 + trials
        halved |= trials > patch.iterations
    assert halved                     # a rejected trial costs its own pass


def l_shape_bounds(tb):
    """Boundary curves (west, east, south, north) of a bent tube around the
    corner at (1, 1): outer (south) boundary through (0, 0), inner (north)
    through (1, 1), kinks pinned at xi = 0.5."""
    outer = kinked_curve(tb.xi, [0, 2], [0, 0], [2, 0])
    inner = kinked_curve(tb.xi, [1, 2], [1, 1], [2, 1])
    west = line_curve(tb.eta, [0, 2], [1, 2])
    east = line_curve(tb.eta, [2, 0], [2, 1])
    return west, east, outer, inner


def test_egg_l_shape_fold_free_after_repair():
    # the reentrant inner corner degenerates the exact solution; the solve
    # plus the local-refinement repair round must end fold-free
    tb = TensorBasis(c0_split(6), uniform_knots(3, 4))
    bounds = l_shape_bounds(tb)
    patch = egg_solve(transfinite(*bounds, tb))
    boxes = check_folding(patch.map)
    # the two elements beside the reentrant corner at xi = 0.5, eta = 1
    assert len(boxes) == 2 and all(0.5 in (lo[0], hi[0]) and hi[1] == 1.0
                                   for lo, hi in boxes)
    patch = repair_folding(patch, boxes)
    assert check_folding(patch.map) == []
    xi, eta = np.meshgrid(np.linspace(0, 1, 401), np.linspace(0, 1, 401))
    assert patch.map.jacobian(xi.ravel(), eta.ravel())[1].min() > 0


def dense_newton_matrix(asm, blocks):
    """The Newton matrix over the eta-slow inner unknowns, expanded from
    the block-tridiagonal array: block [g, k] sits at group row g and group
    column g + k - 1, and the pad past the unknowns is cut off."""
    groups, _, s, _ = blocks.shape
    dense = np.zeros((groups * s, groups * s))
    for g, k in np.ndindex(groups, 3):
        if 0 <= g + k - 1 < groups:
            dense[g * s:(g + 1) * s,
                  (g + k - 1) * s:(g + k) * s] = blocks[g, k]
    n = 2 * (asm.basis.xi.n - 2) * (asm.basis.eta.n - 2)
    return dense[:n, :n]


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


# the refined basis carries the midpoint knots repair_folding inserts
REFINED_TB = identity_map(EGG_TB).refine([0.0625, 0.6875], [1 / 12, 0.75]).basis
# 48 eta spans graded by bisection, as the separator's adaptive eta fits
# produce them
GRADED_ETA = np.concatenate([np.arange(1, 16) / 64, np.arange(8, 24) / 32,
                             np.arange(48, 64) / 64])
GRADED_TB = TensorBasis(EGG_TB.xi, open_knots(3, GRADED_ETA,
                                               np.ones(len(GRADED_ETA), int)))
NEWTON_BASES = {"separator": EGG_TB, "refined": REFINED_TB,
                "graded": GRADED_TB}


@pytest.mark.parametrize("name", sorted(NEWTON_BASES))
def test_egg_gradient_check(name):
    tb = NEWTON_BASES[name]
    rng = np.random.default_rng(3)
    asm, eps = egg_assembly(identity_map(tb))
    cp = perturbed_state(asm, rng)
    J = dense_newton_matrix(asm, asm.jacobian(asm.fields(cp), eps))
    h = 1e-6
    for _ in range(20):
        v = rng.normal(0, 1, J.shape[0])
        v /= np.linalg.norm(v)
        dc = inner_net(tb, v)

        def res_at(s):
            cp2 = cp.copy()
            cp2[1:-1, 1:-1] += s * dc
            return asm.residual(asm.fields(cp2), eps)

        fd = (res_at(h) - res_at(-h)) / (2 * h)
        an = J @ v
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-4


@pytest.mark.parametrize("name", sorted(NEWTON_BASES))
def test_band_step_matches_dense_solve(name):
    tb = NEWTON_BASES[name]
    asm, eps = egg_assembly(identity_map(tb))
    cp = perturbed_state(asm, np.random.default_rng(5))
    f = asm.fields(cp)
    blocks = asm.jacobian(f, eps)
    # groups of p_eta = 3 inner eta indices, the last one padded
    p = tb.eta.degree
    groups = -(-(tb.eta.n - 2) // p)
    s = 2 * (tb.xi.n - 2) * p
    assert blocks.shape == (groups, 3, s, s) == asm.block_shape
    assert name != "graded" or groups == 17
    # no block past the ends, and the pad rows and columns are zero
    last = 2 * (tb.xi.n - 2) * (tb.eta.n - 2) - (groups - 1) * s
    assert not blocks[0, 0].any() and not blocks[-1, 2].any()
    assert not blocks[-1, 0, last:].any()
    assert not blocks[-1, 1, last:].any()
    assert not blocks[-1, 1, :, last:].any()
    rhs = -asm.residual(f, eps)
    want = np.linalg.solve(dense_newton_matrix(asm, blocks), rhs)
    got, group = _block_solve(blocks, rhs)
    assert group is None
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def half_bandwidths(dense):
    rows, cols = np.nonzero(dense)
    return int((rows - cols).max()), int((cols - rows).max())


def test_half_bandwidths_do_not_grow_with_eta_resolution():
    shapes, widths = set(), set()
    for eta_elems in (3, 6, 24):
        tb = TensorBasis(EGG_TB.xi, uniform_knots(3, eta_elems))
        asm, eps = egg_assembly(identity_map(tb))
        shapes.add(asm.block_shape[1:])
        dense = dense_newton_matrix(
            asm, asm.jacobian(asm.fields(identity_map(tb).control_points),
                              eps))
        # an element couples every inner xi dof of its four eta indices
        kl, ku = half_bandwidths(dense)
        assert max(kl, ku) <= 4 * 2 * (tb.xi.n - 2) - 1
        widths.add((kl, ku))
    # the group's blocks, (3, s, s), and the bandwidths within them
    assert shapes == {(3, 66, 66)} and len(widths) == 1


def test_assemblies_over_one_xi_basis_share_its_tables():
    a = EggAssembly(EGG_TB)
    b = EggAssembly(TensorBasis(KnotVector(3, EGG_TB.xi.knots.copy()),
                                uniform_knots(3, 24)))
    for name in ("_first1", "proj", "_xi", "_xi_test", "_xi_diag", "_xi_x"):
        assert getattr(a, name) is getattr(b, name)
    assert not a.proj.flags.writeable and not a._xi[0].flags.writeable
    assert a._eta_pairs is not b._eta_pairs    # the eta tables are per basis
    other = EggAssembly(TensorBasis(c0_split(5), EGG_TB.eta))
    assert other.proj is not a.proj


def test_assembly_requires_macro_split():
    tb = TensorBasis(uniform_knots(3, 8), uniform_knots(3, 6))
    with pytest.raises(StructureError):
        EggAssembly(tb)


def test_singular_newton_matrix_raises_nonconvergence(monkeypatch):
    def zero_blocks(self, cp, eps):
        return np.zeros(self.block_shape)

    monkeypatch.setattr(EggAssembly, "jacobian", zero_blocks)
    with pytest.raises(NonconvergenceError) as err:
        egg_solve(transfinite(*quarter_annulus_bounds(), QUARTER_TB))
    assert err.value.last_map is not None
    assert len(err.value.history) == 1
    assert err.value.details["step"] == 0
    assert err.value.details["group"] == 0


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_a_singular_or_non_finite_group_names_its_group(monkeypatch, fill):
    # a zero group row makes that group's Schur complement singular; a NaN
    # in it makes the step non-finite, which must not reach the line search
    real = EggAssembly.jacobian

    def broken(self, cp, eps):
        blocks = real(self, cp, eps)
        blocks[1] = fill
        return blocks

    monkeypatch.setattr(EggAssembly, "jacobian", broken)
    initial = transfinite(*quarter_annulus_bounds(), QUARTER_TB)
    assert EggAssembly(QUARTER_TB).block_shape[0] == 3
    with pytest.raises(NonconvergenceError, match="singular Newton matrix "
                       "at step 0") as err:
        egg_solve(initial)
    assert err.value.details["step"] == 0
    assert err.value.details["group"] == 1
    assert len(err.value.history) == 1


def test_assemblies_of_one_shape_share_the_newton_layout():
    a = EggAssembly(EGG_TB)
    graded = open_knots(3, np.array([0.1, 0.15, 0.3, 0.5, 0.8]),
                        np.ones(5, int))
    b = EggAssembly(TensorBasis(EGG_TB.xi, graded))
    assert b.basis.shape == a.basis.shape and b.basis.eta != a.basis.eta
    for name in ("_diag_at", "_x_at"):
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable
    assert EggAssembly(TensorBasis(EGG_TB.xi, uniform_knots(3, 5)))._x_at \
        is not a._x_at


def gauss_rule(kv, n):
    """Nodes and weights of the n-point Gauss rule on every knot span."""
    lo, hi = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
    x, w = np.polynomial.legendre.leggauss(n)
    return (0.5 * (lo + hi + (hi - lo) * x)).ravel(), (0.5 * (hi - lo) * w).ravel()


class MixedForm:
    """The mixed EGG system (Hinz, Moller & Vuik) with the auxiliary
    coefficients d as free unknowns, u = sum_kj d_kj a_k(xi) M_j(eta), on
    dense global basis matrices at the tensor Gauss points of the
    assembly's rule (aux xi degree + 1 by eta degree + 1 nodes per span),
    or of ``refine`` times as many per direction.

    R1 = int a_k M_j (x_xi - u) on the aux dofs and R2 = int w_i U on the
    primal dofs, with U = (g22 u_xi - g12 u_eta - g12 x_xi_eta
    + g11 x_eta_eta) / (g11 + g22 + eps)."""

    def __init__(self, basis, refine=1):
        aux = _aux_xi(basis.xi)
        xq, self.wx = gauss_rule(basis.xi, refine * (aux.degree + 1))
        eq, self.we = gauss_rule(basis.eta, refine * (basis.eta.degree + 1))
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
             "quarter": QUARTER_TB,
             "double_eta": TensorBasis(EGG_TB.xi, open_knots(
                 3, [0.25, 0.5, 0.75], [1, 2, 1]))}


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
    # the fields on the (2, eta, xi) Gauss grid are the dense ones on the
    # oracle's (xi, eta, 2) grid: x's derivatives, the metric and u_xi,
    # u_eta of that projection
    f = asm.fields(cp)
    xx, xe = oracle.x(cp, 1, 0), oracle.x(cp, 0, 1)
    want = {"xx": xx, "xe": xe, "xxe": oracle.x(cp, 1, 1),
            "xee": oracle.x(cp, 0, 2), "ux": oracle.u(d, 1, 0),
            "ue": oracle.u(d, 0, 1), "g11": (xx * xx).sum(-1),
            "g12": (xx * xe).sum(-1), "g22": (xe * xe).sum(-1)}
    for key, w in want.items():
        have = f[key].T
        assert have.shape == w.shape, key
        assert np.abs(have - w).max() <= 1e-12 * np.abs(w).max(), key
    # the mixed system at that d: R1 vanishes and R2 is the residual
    r1, r2 = oracle.residual(cp, d, eps)
    assert np.abs(r1).max() <= 1e-14
    want = r2[1:-1, 1:-1].transpose(1, 0, 2).ravel()
    have = asm.residual(f, eps)
    assert np.abs(want).max() > 1e-3
    assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("where", ["inner_nan", "boundary_inf"])
def test_egg_rejects_a_non_finite_start(where):
    # a NaN residual never compares above the target, so without the check
    # the start would come back as converged after no step
    cp = transfinite(*quarter_annulus_bounds(), QUARTER_TB).control_points.copy()
    if where == "inner_nan":
        cp[3, 4, 0] = np.nan
    else:
        cp[0, 4, 1] = np.inf
    with pytest.raises(NonconvergenceError, match="non-finite") as err:
        egg_solve(SplineMap(QUARTER_TB, cp))
    assert err.value.last_map is not None
    assert len(err.value.history) == 1
    assert not np.isfinite(err.value.history[0])


def test_egg_nonconvergence_error(monkeypatch):
    monkeypatch.setattr(parameterization, "MAX_NEWTON_ITER", 1)
    monkeypatch.setattr(parameterization, "NEWTON_TOL", 1e-14)
    bounds = quarter_annulus_bounds()
    with pytest.raises(NonconvergenceError) as err:
        egg_solve(transfinite(*bounds, QUARTER_TB))
    assert err.value.last_map is not None
    assert len(err.value.history) >= 1


def test_a_line_search_that_never_lowers_the_residual_raises(monkeypatch):
    # the negated Newton matrix steps uphill: to first order the residual
    # at scale t of its step is (1 + t) times the current one, so no
    # halving lowers it
    real = EggAssembly.jacobian
    monkeypatch.setattr(EggAssembly, "jacobian",
                        lambda self, f, eps: -real(self, f, eps))
    initial = transfinite(*quarter_annulus_bounds(), QUARTER_TB)
    with pytest.raises(NonconvergenceError,
                       match="line search failed") as err:
        egg_solve(initial)
    assert len(err.value.history) == 1
    assert np.array_equal(err.value.last_map.control_points,
                          initial.control_points)


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


IDENTITY = identity_control(default_control_basis())


def test_check_folding_agrees_with_dense_lattice():
    verdicts = []
    for seed in range(16):
        rng = np.random.default_rng(seed)
        cp = identity_map(EGG_TB).control_points.copy()
        cp[1:-1, 1:-1] += 0.035 * rng.normal(size=cp[1:-1, 1:-1].shape)
        m = SplineMap(EGG_TB, cp)
        verdict = check_folding(m) == []
        assert verdict == (check_composite_folding(m, IDENTITY, 200)
                           == []), seed
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
    assert check_composite_folding(m, IDENTITY, 200) == []
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
    patch = egg_solve(transfinite(*bounds, QUARTER_TB))
    assert repair_folding(patch, []) is patch


def test_one_assembly_per_solve(monkeypatch):
    import screwgen.parameterization as par

    builds = []
    original = par.EggAssembly.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(par.EggAssembly, "__init__", counting)
    patch = egg_solve(transfinite(*quarter_annulus_bounds(), QUARTER_TB))
    assert patch.iterations > 0
    assert len(builds) == 1
