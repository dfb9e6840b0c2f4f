import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwgen.errors import (DomainError, FitConvergenceError, FitError,
                             MatchingError)
from screwgen.fitting import (
    FitResult,
    _hierarchical_pairs,
    _second_differences,
    adapt_knots,
    chord_length_params,
    fit_curve,
    fit_curve_adaptive,
    match_points,
)
from screwgen.splines import (SplineCurve, greville_abscissae, open_knots,
                              uniform_knots)


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
    assert np.allclose(fit.curve([0.0, 1.0]), pts[[0, -1]], atol=1e-12)


def test_fit_residuals_are_the_curve_distances_bit_for_bit():
    # the residuals come from the basis window of the fit, not from a second
    # evaluation of the curve; they must be the same bits
    rng = np.random.default_rng(5)
    for kv in (uniform_knots(3, 7), open_knots(3, [0.2, 0.5, 0.7], [1, 3, 2]),
               uniform_knots(2, 1)):
        t = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 150),
                                    kv.breakpoints]))
        pts = np.column_stack([np.cos(3 * t), np.sin(5 * t)]) \
            + rng.normal(0, 1e-3, (len(t), 2))
        fit = fit_curve(pts, t, kv)
        want = np.linalg.norm(fit.curve(t) - pts, axis=1)
        assert fit.residuals.tobytes() == want.tobytes()


def test_fit_rejects_params_outside_the_domain():
    t = np.linspace(0, 1, 20)
    pts = np.column_stack([t, t * t])
    t[0] = -1e-3
    with pytest.raises(DomainError):
        fit_curve(pts, t, uniform_knots(3, 4))


def test_fit_clips_params_within_the_tolerance():
    t = np.linspace(0, 1, 20)
    pts = np.column_stack([t, t * t])
    nudged = t.copy()
    nudged[0], nudged[-1] = -1e-13, 1.0 + 1e-13
    got, want = (fit_curve(pts, u, uniform_knots(3, 4)) for u in (nudged, t))
    assert got.curve.control_points.tobytes() \
        == want.curve.control_points.tobytes()
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert got.params.tobytes() == t.tobytes()


@pytest.mark.parametrize("n_points", [0, 1])
@pytest.mark.parametrize("fit", [
    lambda pts, t: fit_curve(pts, t, uniform_knots(3, 4)),
    lambda pts, t: fit_curve_adaptive(pts, t, uniform_knots(3, 4), 1e-3)],
    ids=["fit_curve", "fit_curve_adaptive"])
def test_fit_rejects_a_cloud_of_fewer_than_two_points(fit, n_points):
    with pytest.raises(FitError) as info:
        fit(np.zeros((n_points, 2)), np.zeros(n_points))
    assert info.value.details == {"n_points": n_points}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    lambda pts, t: chord_length_params(pts),
    lambda pts, t: fit_curve(pts, t, uniform_knots(3, 4)),
    lambda pts, t: fit_curve_adaptive(pts, t, uniform_knots(3, 4), 1e-3)],
    ids=["chord_length_params", "fit_curve", "fit_curve_adaptive"])
def test_a_non_finite_cloud_point_raises_fit_error_naming_its_row(entry,
                                                                 value):
    pts = circle_cloud(40, t1=np.pi)
    pts[[17, 30], 1] = value
    with pytest.raises(FitError) as info:
        entry(pts, np.linspace(0.0, 1.0, 40))
    assert info.value.details == {"row": 17}


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


def second_differences_by_rows(g):
    """Reference second-difference matrix, one row at a time."""
    n = len(g)
    D = np.zeros((max(n - 2, 0), n))
    for i in range(n - 2):
        h0 = g[i + 1] - g[i]
        h1 = g[i + 2] - g[i + 1]
        hbar = 0.5 * (h0 + h1)
        D[i, i:i + 3] = (hbar / h0, -(hbar / h0 + hbar / h1), hbar / h1)
    return D


def bisected_by_spans(kv, offenders):
    """Reference span marking: every span [a, b] with an offender in it,
    both neighbours for an offender on a breakpoint."""
    bps = kv.breakpoints
    new = [0.5 * (a + b) for a, b in zip(bps[:-1], bps[1:])
           if np.any((offenders >= a) & (offenders <= b))]
    return np.sort(np.concatenate([kv.knots, new])) if new else kv.knots


knot_vectors = st.builds(
    lambda p, cuts, mult: open_knots(
        p, np.unique(np.round(cuts, 3)),
        [min(mult, p)] * len(np.unique(np.round(cuts, 3)))),
    st.integers(1, 4),
    st.lists(st.floats(0.001, 0.999), max_size=12),
    st.integers(1, 4))


@given(knot_vectors)
@settings(max_examples=60, deadline=None)
def test_second_differences_match_the_row_loop(kv):
    g = greville_abscissae(kv)
    assert _second_differences(g).tobytes() \
        == second_differences_by_rows(g).tobytes()


@given(knot_vectors, st.lists(st.integers(0, 40), max_size=20),
       st.lists(st.floats(-0.5, 1.5), max_size=20))
@settings(max_examples=100, deadline=None)
def test_adapt_knots_marks_the_spans_of_the_row_loop(kv, on_breaks, free):
    # offenders on breakpoints (0, 1 and inner ones), inside spans and
    # outside [0, 1]
    bps = kv.breakpoints
    params = np.concatenate([bps[np.array(on_breaks, dtype=int) % len(bps)],
                             free])
    residuals = np.where(np.arange(len(params)) % 3 == 0, 0.0, 1.0)
    fit = FitResult(SplineCurve(kv, np.zeros((kv.n, 2))), params, residuals)
    refined = adapt_knots(fit, 0.5)
    want = bisected_by_spans(kv, params[residuals > 0.5])
    assert refined.knots.tobytes() == want.tobytes()


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

def match_by_chord(a, b):
    """Matching of two clouds on their chord-length parameters, as the
    pipeline calls it."""
    return match_points(a, b, chord_length_params(a), chord_length_params(b))


def b_to_a(fa, fb):
    """b-chord -> a-chord map of a both-float matching: fb, then fa's
    breakpoints read backwards."""
    return lambda t: np.interp(fb(t), fa.y, fa.x)


def test_match_identity():
    pts = circle_cloud(80, t1=np.pi)
    fa, fb = match_by_chord(pts, pts)
    t = np.linspace(0, 1, 100)
    assert np.abs(b_to_a(fa, fb)(t) - t).max() < 1e-12


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
    f = b_to_a(*match_by_chord(a, b))
    tb_half = 2.0 / 3.0  # chord parameter of x=1 in cloud b
    slope_first = f(tb_half) / tb_half
    slope_second = (1 - f(tb_half)) / (1 - tb_half)
    assert abs(slope_second / slope_first - 2.0) < 0.2


def test_match_parallel_segments_is_arclength():
    t = np.linspace(0, 1, 50)
    a = np.column_stack([t, np.zeros_like(t)])
    b = np.column_stack([t, np.full_like(t, 0.1)])
    f = b_to_a(*match_by_chord(a, b))
    x = np.linspace(0, 1, 100)
    assert np.abs(f(x) - x).max() < 1e-12


def test_match_both_float_average():
    t = np.linspace(0, 1, 30)
    a = np.column_stack([t, np.zeros_like(t)])
    b = np.column_stack([t ** 2, np.full_like(t, 0.05)])
    fa, fb = match_by_chord(a, b)
    # each breakpoint pairs a cloud point's chord parameter with the common
    # value; a matched pair shares that value, the average of its two chord
    # parameters
    ta = chord_length_params(a)
    tb = chord_length_params(b)
    common, ia, ib = np.intersect1d(fa.y, fb.y, return_indices=True)
    assert len(common) > 2
    assert np.abs(ta[:, None] - fa.x[None, ia]).min(axis=0).max() < 1e-15
    assert np.abs(tb[:, None] - fb.x[None, ib]).min(axis=0).max() < 1e-15
    assert np.abs(0.5 * (fa.x[ia] + fb.x[ib]) - common).max() < 1e-15
    # the pairs' chord parameters differ, so the average is neither of them
    assert np.abs(fa.x[ia] - fb.x[ib]).max() > 1e-3
    assert fa(0.0) == 0.0 and fb(1.0) == 1.0
    x = np.linspace(0, 1, 50)
    assert np.all(np.diff(fa(x)) > -1e-12)
    assert np.all(np.diff(fb(x)) > -1e-12)


def test_match_rejects_a_repeated_point_matched_twice():
    # the repeated point's chord parameter repeats, and both copies pair
    # with the other cloud's copies
    pts = circle_cloud(40, t1=np.pi)
    pts = np.insert(pts, 17, pts[17], axis=0)
    with pytest.raises(MatchingError, match="strictly increasing"):
        match_by_chord(pts, 1.1 * pts)


@pytest.mark.parametrize("where", ["point", "params"])
def test_match_rejects_a_non_finite_point_or_parameter(where):
    # a NaN point, or the parameters a chord-length pass over such a cloud
    # used to return: NaN everywhere but the pinned end
    pts = circle_cloud(40, t1=np.pi)
    t = np.linspace(0.0, 1.0, 40)
    ta = t.copy()
    if where == "point":
        pts[17] = np.nan
    else:
        ta[:-1] = np.nan
    with pytest.raises(MatchingError):
        match_points(pts, 1.1 * circle_cloud(40, t1=np.pi), ta, t)


def test_match_orientation_mismatch_raises():
    pts = circle_cloud(60, t1=np.pi)
    with pytest.raises(MatchingError):
        match_by_chord(pts, pts[::-1])


@given(st.integers(min_value=10, max_value=60))
@settings(max_examples=20, deadline=None)
def test_match_is_monotone(n):
    rng = np.random.default_rng(n)
    base = np.cumsum(rng.uniform(0.05, 1.0, (n, 2)), axis=0)
    other = base + rng.normal(0, 0.01, base.shape)
    for f in match_by_chord(base, other):
        assert np.all(np.diff(f.x) > 0)
        assert np.all(np.diff(f.y) > 0)


def hierarchical_pairs_by_unravel(dist):
    """Reference pairing: the closest-pair bisection with the 2-D argmin
    index taken by np.unravel_index."""
    na, nb = dist.shape
    pairs = [(0, 0), (na - 1, nb - 1)]
    stack = [(0, na - 1, 0, nb - 1)]
    while stack:
        a0, a1, b0, b1 = stack.pop()
        if a1 - a0 < 2 or b1 - b0 < 2:
            continue
        sub = dist[a0 + 1:a1, b0 + 1:b1]
        i, j = np.unravel_index(np.argmin(sub), sub.shape)
        ia, jb = a0 + 1 + i, b0 + 1 + j
        pairs.append((ia, jb))
        stack.append((a0, ia, b0, jb))
        stack.append((ia, a1, jb, b1))
    return sorted(pairs)


@given(st.integers(2, 40), st.integers(2, 40), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_hierarchical_pairs_match_the_unravel_loop(na, nb, ties, seed):
    # small-integer matrices carry many exact ties, which the first minimum
    # in row-major order must break the same way
    rng = np.random.default_rng(seed)
    dist = rng.integers(0, 3, (na, nb)).astype(float) if ties \
        else rng.uniform(0, 1, (na, nb))
    got = [(int(i), int(j)) for i, j in _hierarchical_pairs(dist)]
    want = [(int(i), int(j)) for i, j in hierarchical_pairs_by_unravel(dist)]
    assert got == want


def match_by_norm(a, b):
    """Reference matching: the distance matrix from np.linalg.norm of the
    difference vectors and the unravel pairing loop."""
    ta, tb = chord_length_params(a), chord_length_params(b)
    pairs = hierarchical_pairs_by_unravel(
        np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
    ia = np.array([p[0] for p in pairs])
    jb = np.array([p[1] for p in pairs])
    avg = 0.5 * (ta[ia] + tb[jb])
    return (ta[ia], avg), (tb[jb], avg)


@pytest.mark.parametrize("seed", range(6))
def test_match_points_equals_the_norm_distance_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 30 + 40 * seed
    a = np.cumsum(rng.uniform(0.01, 1.0, (n, 2)), axis=0) * 10.0 ** (seed - 3)
    b = a[::2] + rng.normal(0, 0.05, a[::2].shape) * 10.0 ** (seed - 3)
    for f, (x, y) in zip(match_by_chord(a, b), match_by_norm(a, b)):
        assert f.x.tobytes() == x.tobytes() and f.y.tobytes() == y.tobytes()
