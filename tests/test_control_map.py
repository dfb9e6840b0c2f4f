import itertools

import numpy as np
import pytest

from screwgen import control_map
from screwgen.control_map import (N_CELLS, ControlMap, CostEvaluator,
                                  check_composite_folding,
                                  default_control_basis,
                                  identity_control, optimize_control,
                                  orthogonality_cost)
from screwgen.errors import ConstraintError, DomainError
from screwgen.fitting import ReparamFunction
from screwgen.parameterization import check_folding
from screwgen.splines import (SplineMap, TensorBasis, basis_ders_nonzero,
                              basis_matrix, basis_tables, open_knots,
                              uniform_knots)


def curved_map():
    """Sheared quarter annulus: nowhere orthogonal, fold-free."""
    tb = TensorBasis(uniform_knots(3, 5), uniform_knots(3, 6))
    gx, ge = tb.greville_grid()
    xi, eta = np.meshgrid(gx, ge, indexing="ij")
    r = 1.0 + xi
    phi = 0.5 * np.pi * eta + 0.4 * xi * xi
    return SplineMap(tb, np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1))


def kinked_map(p):
    """Curved map whose eta knot vector has degree p and one interior knot
    of multiplicity p, where x_eta jumps."""
    tb = TensorBasis(uniform_knots(3, 5),
                     open_knots(p, [0.25, 0.5, 0.75], [1, p, 1]))
    gx, ge = tb.greville_grid()
    xi, eta = np.meshgrid(gx, ge, indexing="ij")
    r = 1.0 + xi + 0.1 * np.sin(7.0 * eta)
    phi = 0.5 * np.pi * eta + 0.4 * xi * xi
    return SplineMap(tb, np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1))


def basis_pieces(ev, coeffs, partials=True):
    """sigma, sigma_mu, sigma_nu and the derivatives of x at the slid
    ordinates, by Cox-de Boor on every ordinate, a window gather and
    einsum contractions: the per-call path the Taylor tables replace."""
    x = ev.x
    t = (np.arange(N_CELLS) + 0.5) / N_CELLS
    coef_x = np.einsum("ai,ijd->ajd", basis_matrix(x.basis.xi, t),
                       x.control_points)
    coef_xxi = np.einsum("ai,ijd->ajd", basis_matrix(x.basis.xi, t, der=1),
                         x.control_points)
    sig = ev.Bmu @ coeffs @ ev.Bnu.T
    sig_mu = ev.Bmu_d @ coeffs @ ev.Bnu.T
    sig_nu = ev.Bmu @ coeffs @ ev.Bnu_d.T
    eta = np.clip(sig.ravel(), 0.0, 1.0)
    cols, ders = basis_ders_nonzero(x.basis.eta, eta, 2 if partials else 1)
    mu = np.repeat(np.arange(N_CELLS), N_CELLS)[:, None]
    cx, ce = coef_xxi[mu, cols], coef_x[mu, cols]

    def eta_der(k, c):
        return np.einsum("mj,mjd->md", ders[k], c).reshape(sig.shape + (2,))

    pieces = (sig, sig_mu, sig_nu, eta_der(0, cx), eta_der(1, ce))
    if partials:
        pieces += (eta_der(1, cx), eta_der(2, ce))
    return pieces


def combine(sig, sig_mu, sig_nu, x_xi, x_eta, x_xieta=None, x_etaeta=None):
    """Dots, sizes and partials from the pieces, as CostEvaluator._terms
    gives them."""
    def dot(a, b):
        return np.einsum("abd,abd->ab", a, b)

    t_mu = x_xi + sig_mu[..., None] * x_eta
    t_nu = sig_nu[..., None] * x_eta
    dots, sizes = dot(t_mu, t_nu), dot(t_mu, t_mu) * dot(t_nu, t_nu)
    if x_etaeta is None:
        return dots, sizes, None
    d_sig = (dot(x_xieta + sig_mu[..., None] * x_etaeta, t_nu)
             + dot(t_mu, sig_nu[..., None] * x_etaeta))
    d_sig[(sig < 0.0) | (sig > 1.0)] = 0.0
    return dots, sizes, (d_sig, dot(x_eta, t_nu), dot(t_mu, x_eta))


def terms_by_basis(ev, coeffs):
    """Reference for CostEvaluator._terms."""
    dots, sizes, parts = combine(*basis_pieces(ev, coeffs))
    return {"dots": dots, "sizes": sizes, "partials": parts}


def assert_terms_match_oracle(ev, coeffs):
    """Every quantity agrees with the oracle to 1e-13 of the largest sum of
    its products' magnitudes: the scale of the rounding either path makes.
    Both read second derivatives of x to about 2e-14 of their size, and
    d_sig cancels."""
    pieces = basis_pieces(ev, coeffs)
    dots, sizes, parts = combine(*pieces)
    m_dots, m_sizes, m_parts = combine(pieces[0], *map(np.abs, pieces[1:]))
    terms = ev._terms(coeffs)
    for a, b, m in zip((terms["dots"], terms["sizes"]) + terms["partials"],
                       (dots, sizes) + parts, (m_dots, m_sizes) + m_parts):
        assert np.abs(a - b).max() <= 1e-13 * m.max()


def perturbed_control(seed=0):
    basis = default_control_basis()
    coeffs = np.array(identity_control(basis).coeffs)
    rng = np.random.default_rng(seed)
    coeffs[:, 1:-1] += 0.02 * rng.uniform(-1.0, 1.0, coeffs[:, 1:-1].shape)
    return ControlMap(basis, coeffs)


def folded_map():
    tb = TensorBasis(uniform_knots(3, 5), uniform_knots(3, 6))
    gx, ge = tb.greville_grid()
    cp = np.stack(np.meshgrid(gx, ge, indexing="ij"), axis=-1)
    cp[4, 3] += np.array([0.35, 0.3])
    return SplineMap(tb, cp)


def central_difference_gradient(ev, coeffs, h=1e-6):
    n_mu, n_nu = coeffs.shape
    fd = np.zeros((n_mu, n_nu - 2))
    for i in range(n_mu):
        for j in range(1, n_nu - 1):
            up, dn = coeffs.copy(), coeffs.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd[i, j - 1] = (ev.cost_of(up)[0] - ev.cost_of(dn)[0]) / (2 * h)
    return fd.ravel()


def test_control_maps_and_reparam_functions_compare_by_identity():
    basis = default_control_basis()
    t = np.linspace(0.0, 1.0, 5)
    for a, b in ((identity_control(basis), identity_control(basis)),
                 (ReparamFunction(t, t), ReparamFunction(t, t))):
        assert (a == a) is True and (a == b) is False
        assert len({a, b}) == 2


def test_gradient_matches_central_differences():
    s = perturbed_control()
    assert s.feasible()
    ev = CostEvaluator(curved_map(), s.basis)
    coeffs = np.array(s.coeffs)
    g, _ = ev.gradient(ev.cost_of(coeffs)[1])
    fd = central_difference_gradient(ev, coeffs)
    assert np.linalg.norm(fd) > 1e-3  # the cost is genuinely sloped here
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


MAPS = [curved_map] + [lambda p=p: kinked_map(p) for p in (2, 3, 4)]
MAP_IDS = ["curved", "eta_p2", "eta_p3", "eta_p4"]


@pytest.mark.parametrize("make", MAPS, ids=MAP_IDS)
def test_terms_match_the_basis_oracle(make):
    s = perturbed_control()
    ev = CostEvaluator(make(), s.basis)
    coeffs = np.array(s.coeffs)
    assert_terms_match_oracle(ev, coeffs)
    # cost_of returns the pass that gave its cost
    cost, terms = ev.cost_of(coeffs)
    want = ev._terms(coeffs)
    for a, b in zip((terms["dots"], terms["sizes"]) + terms["partials"],
                    (want["dots"], want["sizes"]) + want["partials"]):
        assert np.array_equal(a, b)
    assert cost == 0.5 * float(np.sum(want["dots"] ** 2)) * ev.cell_area


def dense_normal_matrix(ev, coeffs):
    """J^T J * area over the interior eta columns, from the oracle's
    partials and the dense Kronecker products of the sample matrices."""
    d_sig, d_mu, d_nu = terms_by_basis(ev, coeffs)["partials"]
    jac = (d_sig.reshape(-1, 1) * np.kron(ev.Bmu, ev.Bnu)
           + d_mu.reshape(-1, 1) * np.kron(ev.Bmu_d, ev.Bnu)
           + d_nu.reshape(-1, 1) * np.kron(ev.Bmu, ev.Bnu_d))
    n_mu, n_nu = coeffs.shape
    jac = jac.reshape(-1, n_mu, n_nu)[:, :, 1:-1].reshape(len(jac), -1)
    return ev.cell_area * jac.T @ jac


# a graded control basis: its spans hold 3 to 20 of the 64 samples per
# direction, so its sample matrices are unevenly filled
GRADED = TensorBasis(open_knots(2, [0.05, 0.2, 0.5, 0.55, 0.8]),
                     open_knots(3, [0.1, 0.4, 0.45, 0.7, 0.9]))


@pytest.mark.parametrize("make", MAPS, ids=MAP_IDS)
@pytest.mark.parametrize("basis", [default_control_basis(), GRADED],
                         ids=["uniform", "graded"])
def test_normal_matrix_matches_the_dense_oracle(make, basis):
    coeffs = np.array(identity_control(basis).coeffs)
    coeffs[:, 1:-1] += 0.01 * np.random.default_rng(2).uniform(
        -1.0, 1.0, coeffs[:, 1:-1].shape)
    ev = CostEvaluator(make(), basis)
    want = dense_normal_matrix(ev, coeffs)
    _, got = ev.gradient(ev.cost_of(coeffs)[1])
    assert got.shape == (ev.n_free, ev.n_free)
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("make", MAPS, ids=MAP_IDS)
def test_terms_match_the_basis_oracle_at_breakpoints_and_the_clip(make):
    # identity sample matrices make sigma the coefficient lattice itself,
    # so sigma lands exactly on every breakpoint, on 0 and 1 and just
    # outside [0, 1]
    x = make()
    ev = CostEvaluator(x, default_control_basis())
    rng = np.random.default_rng(3)
    ev.Bmu = ev.Bnu = np.eye(N_CELLS)
    ev.Bmu_d, ev.Bnu_d = rng.normal(0.0, 1.0, (2, N_CELLS, N_CELLS))
    sigma = rng.uniform(0.0, 1.0, (N_CELLS, N_CELLS))
    special = np.concatenate([np.unique(x.basis.eta.knots),
                              [-1e-9, 1.0 + 1e-9, -0.01, 1.01]])
    sigma.ravel()[::7][:len(special)] = special
    assert np.isin(special, sigma).all()
    assert_terms_match_oracle(ev, sigma)
    d_sig = ev._terms(sigma)["partials"][0]
    assert np.all(d_sig[(sigma < 0.0) | (sigma > 1.0)] == 0.0)


def test_optimize_control_on_the_basis_oracle_takes_the_same_steps(monkeypatch):
    # 4 Gauss-Newton iterations carry the paths' rounding apart by 6e-14;
    # the cost agrees to 2e-14
    x, init = curved_map(), identity_control(default_control_basis())
    got = optimize_control(x, init)
    monkeypatch.setattr(CostEvaluator, "_terms", terms_by_basis)
    want = optimize_control(x, init)
    assert got.iterations == want.iterations > 0
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12
    assert orthogonality_cost(x, got) == pytest.approx(
        orthogonality_cost(x, want), rel=1e-12)


def test_optimize_control_early_exit_is_scale_free():
    # the start's cost is 2.3e-16 at this scale; only an orthogonal start
    # may skip the optimizer
    x, init = curved_map(), identity_control(default_control_basis())
    small = SplineMap(x.basis, 1e-4 * x.control_points)
    out = optimize_control(small, init)
    assert out.iterations >= 1
    assert orthogonality_cost(small, out) <= orthogonality_cost(small, init)
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    gx, ge = x.basis.greville_grid()
    grid = np.stack(np.meshgrid(2.0 * gx, 3.0 * ge, indexing="ij"), axis=-1)
    affine = SplineMap(x.basis, grid @ rot.T)
    assert optimize_control(affine, init).iterations == 0


def test_feasible_controls_keep_sigma_nu_above_the_ordering_bound():
    # sigma_nu = sum of q (c[j+1] - c[j]) / (t[j+q+1] - t[j+1]) times
    # nonnegative weights summing to 1, so the margin bounds it below
    basis = default_control_basis()
    kv, (n_mu, n_nu) = basis.eta, basis.shape
    q, knots = kv.degree, kv.knots
    margin = identity_control(basis).margin
    bound = q * (margin - 1e-9) / np.max(knots[q + 1:n_nu + q] - knots[1:n_nu])
    t = np.linspace(0.0, 1.0, 201)
    rng = np.random.default_rng(11)
    for _ in range(20):
        # columns of zero weight sit exactly at the margin
        gaps = rng.exponential(1.0, (n_mu, n_nu - 1)) ** 3
        tight = rng.permutation(n_nu - 1)[:rng.integers(0, n_nu - 1)]
        gaps[:, tight] = 0.0
        gaps = margin + (1.0 - (n_nu - 1) * margin) * gaps / gaps.sum(
            axis=1, keepdims=True)
        coeffs = np.concatenate([np.zeros((n_mu, 1)),
                                 np.cumsum(gaps, axis=1)], axis=1)
        coeffs[:, -1] = 1.0
        s = ControlMap(basis, coeffs, margin)
        assert s.feasible()
        assert s.sigma_grid(t, t, 0, 1).min() >= bound


def test_optimize_control_feasible_and_not_worse():
    x = curved_map()
    init = identity_control(default_control_basis())
    out = optimize_control(x, init)
    assert out.feasible()
    assert out.iterations > 0
    assert orthogonality_cost(x, out) <= orthogonality_cost(x, init)


def test_optimize_control_rejects_infeasible_start():
    s = perturbed_control()
    coeffs = np.array(s.coeffs)
    coeffs[:, 1] = 0.1 * s.margin
    with pytest.raises(ConstraintError):
        optimize_control(curved_map(), ControlMap(s.basis, coeffs, s.margin))


def test_control_map_rejects_a_non_finite_value():
    coeffs = np.array(identity_control(default_control_basis()).coeffs)
    coeffs[3, 4] = np.nan
    with pytest.raises(DomainError, match="control values must be finite"):
        ControlMap(default_control_basis(), coeffs)


@pytest.mark.parametrize("margin", [0.0, -0.05, np.nan, np.inf])
def test_control_map_rejects_a_margin_that_is_not_positive_and_finite(margin):
    with pytest.raises(ConstraintError) as info:
        identity_control(default_control_basis(), margin)
    got = info.value.details["margin"]
    assert got == margin or (np.isnan(got) and np.isnan(margin))


def gap_rows(n_mu, n_gaps):
    """The change of every gap c[i, j+1] - c[i, j] under a step on the
    interior values c[i, 1:-1], raveled row-major, entry by entry."""
    D = np.zeros((n_mu * n_gaps, n_mu * (n_gaps - 1)))
    for i in range(n_mu):
        for j in range(n_gaps):
            if j < n_gaps - 1:
                D[i * n_gaps + j, i * (n_gaps - 1) + j] = 1.0
            if j > 0:
                D[i * n_gaps + j, i * (n_gaps - 1) + j - 1] = -1.0
    return D


def test_qp_step_returns_the_kkt_point():
    rng = np.random.default_rng(11)
    dropped = pinned = 0
    for _ in range(300):
        n_mu, n_gaps = rng.integers(2, 6), rng.integers(3, 10)
        n = n_mu * (n_gaps - 1)
        B = rng.normal(size=(n, n))
        K, g = B @ B.T + 0.1 * np.eye(n), 3.0 * rng.normal(size=n)
        # gaps at the margin, the first and last of each row among them as
        # at pi/4, and a stale working set; every row keeps a gap above it
        slack = rng.uniform(0.01, 0.2, (n_mu, n_gaps))
        slack[rng.random((n_mu, n_gaps)) < 0.3] = 0.0
        slack[:, [0, -1]] = 0.0
        slack[:, n_gaps // 2] = 0.1
        active = (slack == 0.0) & (rng.random((n_mu, n_gaps)) < 0.6)
        s, work = control_map._qp_step(g, K, slack, active)
        assert s.shape == (n,) and work.shape == (n_mu, n_gaps)
        D = gap_rows(n_mu, n_gaps)
        after = slack.ravel() + D @ s
        assert after.min() >= -1e-12                              # feasible
        A = D[work.ravel()]
        grad = K @ s + g
        lam = np.linalg.lstsq(A.T, grad, rcond=None)[0]
        scale = np.abs(g).max() + np.abs(K @ s).max()
        assert np.abs(A.T @ lam - grad).max() <= 1e-10 * scale   # stationary
        assert lam.min() >= -1e-10 * scale
        # lam lives on the working gaps, and each of them is at the margin
        assert np.abs(after[work.ravel()]).max(initial=0.0) <= 1e-12
        dropped += np.sum(active & ~work)
        pinned += np.sum(work[:, [0, -1]])
    assert dropped > 0 and pinned > 0


def brute_force_qp(g, K, slack):
    """The minimizer of g.s + s.K.s / 2 over slack + D s >= 0, by trying
    every set W of gaps held at the margin: the equality-constrained
    minimizer that is feasible and has multipliers >= 0 is the KKT point,
    which is unique because K is positive definite."""
    D = gap_rows(*slack.shape)
    slack, n = slack.ravel(), len(g)
    found = []
    for bits in itertools.product((False, True), repeat=len(slack)):
        A = D[list(bits)]
        if len(A) and np.linalg.matrix_rank(A) < len(A):
            continue
        kkt = np.block([[K, -A.T], [A, np.zeros((len(A), len(A)))]])
        sol = np.linalg.solve(kkt, np.concatenate([-g, -slack[list(bits)]]))
        s, lam = sol[:n], sol[n:]
        if (slack + D @ s).min() >= -1e-12 and lam.min(initial=0.0) >= -1e-12:
            found.append(s)
    assert found
    return found[0]


def test_qp_step_matches_the_brute_force_working_set():
    # one solve with K per call, and no bordered KKT system
    rng = np.random.default_rng(5)
    solves, bound = [], 0
    real_solve = np.linalg.solve

    def counted(a, b):
        solves.append(a)
        return real_solve(a, b)

    for n_mu, n_gaps in [(2, 3), (2, 4), (2, 5), (3, 3)] * 6:
        n = n_mu * (n_gaps - 1)
        B = rng.normal(size=(n, n))
        K, g = B @ B.T + 0.1 * np.eye(n), 3.0 * rng.normal(size=n)
        slack = rng.uniform(0.01, 0.2, (n_mu, n_gaps))
        slack[rng.random((n_mu, n_gaps)) < 0.4] = 0.0
        slack[:, rng.integers(n_gaps)] = 0.1     # every row keeps one above
        active = (slack == 0.0) & (rng.random((n_mu, n_gaps)) < 0.5)
        want = brute_force_qp(g, K, slack)
        solves.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", counted)
            mp.setattr(np, "block", None)
            s, _ = control_map._qp_step(g, K, slack, active)
        assert sum(a is K for a in solves) == 1
        assert np.abs(s - want).max() <= 1e-10
        bound += np.sum(np.abs(slack.ravel() + gap_rows(n_mu, n_gaps) @ s)
                        <= 1e-12)
    assert bound > 24                       # the margin binds, not only s = 0


def test_optimize_control_runs_one_cost_pass_per_point(monkeypatch):
    x = curved_map()
    passes = []
    real = CostEvaluator._terms

    def counted(self, coeffs):
        passes.append(coeffs)
        return real(self, coeffs)

    monkeypatch.setattr(CostEvaluator, "_terms", counted)
    for init in (identity_control(default_control_basis()),
                 perturbed_control(4)):
        passes.clear()
        out = optimize_control(x, init)
        assert out.iterations > 0
        assert len(passes) == out.iterations + 1
    # the early exit pays its one pass
    gx, ge = x.basis.greville_grid()
    affine = SplineMap(x.basis, np.stack(np.meshgrid(2.0 * gx, 3.0 * ge,
                                                     indexing="ij"), -1))
    passes.clear()
    assert optimize_control(
        affine, identity_control(default_control_basis())).iterations == 0
    assert len(passes) == 1


def test_gradient_reads_the_pass_it_is_handed(monkeypatch):
    s = perturbed_control()
    ev = CostEvaluator(curved_map(), s.basis)
    coeffs = np.array(s.coeffs)
    cost, terms = ev.cost_of(coeffs)
    coeffs[3, 4] += 1e-3                      # the caller's array changes
    changed = ev.cost_of(coeffs)[0]
    assert changed != cost
    assert CostEvaluator(curved_map(), s.basis).cost_of(coeffs)[0] == changed
    # the gradient runs no sample pass: it reads the first pass, which the
    # change to the array does not reach
    fresh = CostEvaluator(curved_map(), s.basis)
    want = fresh.gradient(fresh.cost_of(s.coeffs)[1])
    passes = []
    monkeypatch.setattr(CostEvaluator, "_terms",
                        lambda self, c: passes.append(c))
    got = ev.gradient(terms)
    assert passes == []
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_evaluators_over_one_basis_share_their_tables():
    x = curved_map()
    a, b = (CostEvaluator(x, default_control_basis()) for _ in range(2))
    for name in ("Bmu", "Bmu_d", "Bnu", "Bnu_d"):
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable
    # both directions of the default basis have equal knot vectors, and
    # read one entry of sample rows
    basis = default_control_basis()
    assert basis.xi is not basis.eta and basis.xi == basis.eta
    assert a.Bmu is a.Bnu and a.Bmu_d is a.Bnu_d
    assert basis_tables(control_map._column_rows, basis.xi) \
        is basis_tables(control_map._column_rows, basis.eta)
    # the Gauss-Newton tables come with the first gradient
    coeffs = identity_control(basis).coeffs
    a.gradient(a.cost_of(coeffs)[1])
    b.gradient(b.cost_of(coeffs)[1])
    tables = [basis_tables(control_map._gauss_newton_tables, ev.basis.xi,
                           ev.basis.eta) for ev in (a, b)]
    assert tables[0] is tables[1]
    assert not any(t.flags.writeable for t in tables[0])
    assert a.taylor is not b.taylor           # the map's own tables
    other = CostEvaluator(x, GRADED)
    assert other.Bmu is not a.Bmu


def test_cost_evaluation_never_builds_the_gauss_newton_tables(monkeypatch):
    built = []
    real = control_map._gauss_newton_tables

    def counted(*kvs):
        built.append(kvs)
        return real(*kvs)

    monkeypatch.setattr(control_map, "_gauss_newton_tables", counted)
    x, s = curved_map(), identity_control(default_control_basis())
    orthogonality_cost(x, s)
    evaluator = CostEvaluator(x, s.basis)
    _, terms = evaluator.cost_of(s.coeffs)
    assert built == []
    evaluator.gradient(terms)
    evaluator.gradient(evaluator.cost_of(s.coeffs + 0.0)[1])
    assert len(built) == 1


def test_optimize_control_rejects_a_result_short_of_the_margin(monkeypatch):
    # a step that leaves a working gap 5e-8 short of the margin must raise,
    # not come back as a map feasible() rejects
    x, init = curved_map(), identity_control(default_control_basis())
    real = control_map._qp_step
    shortened = []

    def short(g, K, slack, active):
        s, work = real(g, K, slack, active)
        held = np.argwhere(work[:, :-1])   # upper value c[i, j + 1] interior
        if len(held):
            i, j = held[0]
            m = work.shape[1] - 1
            k = i * m + j                   # free index of c[i, j + 1]
            change = s[k] - (s[k - 1] if j > 0 else 0.0)
            s = s.copy()
            s[k] -= slack[i, j] + change + 5e-8
            shortened.append((i, j))
        return s, work

    monkeypatch.setattr(control_map, "_qp_step", short)
    with pytest.raises(ConstraintError) as info:
        optimize_control(x, init)
    assert shortened
    assert info.value.details["min_diff"] == pytest.approx(init.margin - 5e-8)


def rejecting(monkeypatch, reject):
    """Stand-ins that report the trials ``reject`` picks (by 0-based trial
    number) as costlier than any point, and record each QP step's damped
    matrix and slack."""
    trials, steps, calls = [], [], []
    real_cost, real_step = CostEvaluator.cost_of, control_map._qp_step

    def cost_of(self, coeffs):
        # the first call prices the start, every later one a trial
        calls.append(None)
        if len(calls) > 1:
            trials.append(np.array(coeffs))
            if reject(len(trials) - 1):
                return np.inf, None
        return real_cost(self, coeffs)

    def qp_step(g, K, slack, active):
        steps.append((K, slack))
        return real_step(g, K, slack, active)

    monkeypatch.setattr(CostEvaluator, "cost_of", cost_of)
    monkeypatch.setattr(control_map, "_qp_step", qp_step)
    return trials, steps


def test_a_rejected_trial_grows_the_damping_and_keeps_the_point(
        monkeypatch):
    x, init = curved_map(), identity_control(default_control_basis())
    trials, steps = rejecting(monkeypatch, lambda k: k == 0)
    out = optimize_control(x, init)
    assert out.iterations == len(trials) >= 3
    # the second step starts from the same point with more damping alone
    (K0, slack0), (K1, slack1) = steps[:2]
    assert np.array_equal(slack0, slack1)
    grown = np.diag(K1 - K0)
    assert grown.min() > 0 and np.allclose(K1 - K0, np.diag(grown))
    assert np.allclose(grown, grown[0])
    assert out.feasible()
    monkeypatch.undo()
    assert orthogonality_cost(x, out) < orthogonality_cost(x, init)


def test_rejected_trials_stop_once_the_model_predicts_too_little(
        monkeypatch):
    # every trial rejected: the damping grows until the predicted decrease
    # falls below STOP_DECREASE, and the start comes back unchanged
    x, init = curved_map(), identity_control(default_control_basis())
    trials, _ = rejecting(monkeypatch, lambda k: True)
    out = optimize_control(x, init)
    assert 1 < out.iterations == len(trials) < 200
    assert np.array_equal(out.coeffs, init.coeffs) and out.feasible()


def marked_cells(det):
    """Reference marking: every node with det <= 0 marks the up-to-four
    cells it is a corner of, returned in row-major order."""
    cells = set()
    for i, j in np.argwhere(det <= 0.0):
        for ci in (i - 1, i):
            for cj in (j - 1, j):
                if 0 <= ci < det.shape[0] - 1 and 0 <= cj < det.shape[1] - 1:
                    cells.add((int(ci), int(cj)))
    return sorted(cells)


@pytest.mark.parametrize("make", [curved_map, folded_map])
def test_identity_composite_check_is_the_map_check(make):
    m = make()
    identity = identity_control(default_control_basis())
    for n in (25, 40):
        t = np.linspace(0.0, 1.0, n + 1)
        det = m.jacobian(np.repeat(t, t.size), np.tile(t, t.size))[1]
        assert check_composite_folding(m, identity, n) \
            == marked_cells(det.reshape(t.size, t.size))
    assert bool(check_folding(m)) == bool(check_composite_folding(m, identity,
                                                                  40))


def test_composite_check_sees_folds_and_clean_maps():
    control = perturbed_control()
    assert check_folding(curved_map()) == []
    assert check_composite_folding(curved_map(), control, 60) == []
    assert check_folding(folded_map())
    assert check_composite_folding(folded_map(), control, 60)


def test_composite_check_refinement_superset():
    folded = folded_map()

    def bbox(cells, n):
        arr = np.array(cells, dtype=float)
        return (arr[:, 0].min() / n, (arr[:, 0].max() + 1) / n,
                arr[:, 1].min() / n, (arr[:, 1].max() + 1) / n)

    identity = identity_control(default_control_basis())
    b1 = bbox(check_composite_folding(folded, identity, 25), 25)
    b2 = bbox(check_composite_folding(folded, identity, 50), 50)
    # the refined sample lattice contains the coarse one, so the defect
    # region can only grow, up to the one-cell marking margin of the
    # coarse grid
    margin = 1.0 / 25
    assert b2[0] <= b1[0] + margin and b2[1] >= b1[1] - margin
    assert b2[2] <= b1[2] + margin and b2[3] >= b1[3] - margin


class DetLattice:
    """A stand-in map whose Jacobian determinants on the check's lattice
    are the given (n + 1, n + 1) array."""

    def __init__(self, det):
        self.det = det

    def jacobian(self, xi, eta):
        return None, self.det.ravel()


def test_composite_check_marks_every_cell_of_a_nonpositive_node():
    # the identity control map keeps each node's sign (sigma_nu > 0)
    identity = identity_control(default_control_basis())
    rng = np.random.default_rng(7)
    for n in (1, 8, 12):
        det = rng.normal(0.6, 1.0, (n + 1, n + 1))
        det[0, -1] = 0.0
        assert check_composite_folding(DetLattice(det), identity, n) \
            == marked_cells(det)
