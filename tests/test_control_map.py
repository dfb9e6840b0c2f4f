import numpy as np
import pytest

from screwgen import control_map
from screwgen.control_map import (ControlMap, CostEvaluator,
                                  check_composite_folding,
                                  default_control_basis, folded_cells,
                                  identity_control, optimize_control,
                                  orthogonality_cost)
from screwgen.errors import ConstraintError
from screwgen.parameterization import check_folding
from screwgen.splines import SplineMap, TensorBasis, uniform_knots


def curved_map():
    """Sheared quarter annulus: nowhere orthogonal, fold-free."""
    tb = TensorBasis(uniform_knots(3, 5), uniform_knots(3, 6))
    gx, ge = tb.greville_grid()
    xi, eta = np.meshgrid(gx, ge, indexing="ij")
    r = 1.0 + xi
    phi = 0.5 * np.pi * eta + 0.4 * xi * xi
    return SplineMap(tb, np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1))


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
            fd[i, j - 1] = (ev.cost_of(up) - ev.cost_of(dn)) / (2 * h)
    return fd.ravel()


def test_gradient_matches_central_differences():
    s = perturbed_control()
    assert s.feasible()
    ev = CostEvaluator(curved_map(), s.basis)
    coeffs = np.array(s.coeffs)
    g = ev.gradient(coeffs)
    fd = central_difference_gradient(ev, coeffs)
    assert np.linalg.norm(fd) > 1e-3  # the cost is genuinely sloped here
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


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


def test_optimize_control_rejects_a_result_short_of_the_margin(monkeypatch):
    # SLSQP's own feasibility slack: a cheaper point with one gap 5e-8 short
    # of the margin must raise, not come back as a map feasible() rejects
    x, init = curved_map(), identity_control(default_control_basis())
    real = control_map.minimize

    def slack(fun, z0, **kwargs):
        res = real(fun, z0, **kwargs)
        res.x = res.x.copy()
        res.x[1] = res.x[0] + init.margin - 5e-8
        assert fun(res.x) < fun(z0)
        return res

    monkeypatch.setattr(control_map, "minimize", slack)
    with pytest.raises(ConstraintError) as info:
        optimize_control(x, init)
    assert info.value.details["min_diff"] == pytest.approx(init.margin - 5e-8)


@pytest.mark.parametrize("make", [curved_map, folded_map])
def test_identity_composite_check_is_the_map_check(make):
    m = make()
    identity = identity_control(default_control_basis())
    for n in (25, 40):
        assert check_composite_folding(m, identity, n) \
            == check_composite_folding(m, None, n)
    assert bool(check_folding(m)) == bool(check_composite_folding(m, None, 40))


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

    b1 = bbox(check_composite_folding(folded, None, 25), 25)
    b2 = bbox(check_composite_folding(folded, None, 50), 50)
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
