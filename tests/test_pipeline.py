import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwgen import control_map, fitting, parameterization, pipeline, splines
from screwgen.control_map import (CostEvaluator, check_composite_folding,
                                  identity_control, optimize_control,
                                  orthogonality_cost)
from screwgen.errors import (ConstraintError, DomainError,
                             FitConvergenceError, FitError, FoldingError,
                             InvalidGeometryError, MatchingError,
                             NonconvergenceError, ScrewgenError,
                             TopologyError)
from screwgen.fitting import bounding_box_diagonal, chord_length_params
from screwgen.pipeline import (BooySource, PipelineContext,
                               merge_knot_vectors, promote_curve)
from screwgen.profiles import (PointCloud, ScrewParams, booy_profile,
                               cusp_points, load_profile, rotation,
                               save_profile)
from screwgen.splines import (KNOT_TOL, KnotVector, SplineCurve, SplineMap,
                              open_knots, unique_knots)
from test_control_map import gap_rows, terms_by_basis
from test_splines import jittered_pairs

TABLE2 = ScrewParams(screw_radius=15.275e-3, centerline_distance=26.2e-3,
                     screw_screw_clearance=0.2e-3, screw_barrel_clearance=0.15e-3)
TABLE8 = ScrewParams(screw_radius=0.156, centerline_distance=0.262,
                     screw_screw_clearance=0.004, screw_barrel_clearance=0.004,
                     pitch_length=0.28)
N_POINTS = 1024


def fit_threshold(factor, params=TABLE2, n_points=N_POINTS):
    sec0 = booy_profile(params, 0.0, n_points)
    return factor * bounding_box_diagonal(
        np.vstack([sec0.left_rotor.points, sec0.right_rotor.points]))


@pytest.fixture(scope="module")
def booy_context():
    return PipelineContext(BooySource(TABLE2, N_POINTS),
                           fit_threshold=fit_threshold(1e-3))


class Stop(Exception):
    """Raised by a stand-in to end a build at the stage it replaces."""


def stop(*args, **kwargs):
    raise Stop


def certified_angles(ctx, thetas, monkeypatch):
    """The angles whose separator boundaries pass the regularity
    certificate; every other angle must raise the certificate's
    MatchingError, checked here."""
    monkeypatch.setattr(pipeline, "egg_solve", stop)
    passed = []
    for theta in thetas:
        try:
            ctx.build_patches(theta)
        except Stop:
            passed.append(theta)
        except MatchingError as exc:
            details = exc.details
            assert details["theta"] == theta
            assert details["side"] in ("west", "east")
            assert details["intervals"] and details["min_w"] <= 0.0
    return passed


@pytest.fixture(scope="module")
def quarter_turn(booy_context):
    return booy_context.build_patches(math.pi / 4)


def test_quarter_turn_patch_set_is_fold_free(quarter_turn):
    patches = quarter_turn
    assert check_composite_folding(patches.separator.map, patches.control,
                                   200) == []
    assert patches.control.feasible()
    assert patches.control_iterations == patches.control.iterations > 0


def test_quarter_turn_control_map_on_the_basis_oracle_takes_the_same_steps(
        quarter_turn, monkeypatch):
    x = quarter_turn.separator.map
    identity = identity_control(quarter_turn.control.basis)
    monkeypatch.setattr(CostEvaluator, "_terms", terms_by_basis)
    want = optimize_control(x, identity)
    assert quarter_turn.control.iterations == want.iterations > 0
    assert np.abs(quarter_turn.control.coeffs - want.coeffs).max() <= 1e-12


def test_quarter_turn_control_steps_are_kkt_points(quarter_turn, monkeypatch):
    # every constrained step of the pi/4 optimization is stationary on its
    # working gaps, with nonnegative multipliers, and keeps every gap at or
    # above the margin
    x = quarter_turn.separator.map
    steps = []
    real = control_map._qp_step

    def recorded(g, K, slack, active):
        s, work = real(g, K, slack, active)
        steps.append((g, K, slack, s, work))
        return s, work

    monkeypatch.setattr(control_map, "_qp_step", recorded)
    out = optimize_control(x, identity_control(quarter_turn.control.basis))
    assert len(steps) == out.iterations > 0
    assert np.array_equal(out.coeffs, quarter_turn.control.coeffs)
    for g, K, slack, s, work in steps:
        D = gap_rows(*slack.shape)
        A, grad = D[work.ravel()], K @ s + g
        lam = np.linalg.lstsq(A.T, grad, rcond=None)[0]
        assert np.abs(A.T @ lam - grad).max() <= 1e-10 * np.abs(g).max()
        assert lam.min(initial=0.0) >= -1e-12
        assert (slack.ravel() + D @ s).min() >= -1e-12


@pytest.mark.parametrize("saved_angle", [0.0, math.pi / 8], ids=["0", "pi_8"])
def test_file_source_reproduces_booy_c_grids(booy_context, tmp_path,
                                             saved_angle):
    # a profile saved at a non-zero angle is turned back by its section()
    path = tmp_path / "table2.txt"
    save_profile(path, booy_profile(TABLE2, saved_angle, N_POINTS))
    ctx = PipelineContext(load_profile(path, TABLE2),
                          fit_threshold=booy_context.fit_threshold)
    scale = TABLE2.barrel_radius
    for theta in (0.0, math.pi / 4):
        for side in ("left", "right"):
            want = booy_context.build_c_grid(side, theta).map
            got = ctx.build_c_grid(side, theta).map
            assert got.basis.shape == want.basis.shape
            assert np.abs(got.basis.xi.knots - want.basis.xi.knots).max() < 1e-12
            assert np.abs(got.control_points
                          - want.control_points).max() < 1e-12 * scale


@pytest.mark.parametrize("theta", [0.0, 3 * math.pi / 8])
def test_c_grid_is_the_ruled_map_between_rotor_and_casing_arcs(booy_context,
                                                               theta):
    # xi runs clockwise about the rotor axis: the arcs, which run
    # counter-clockwise, are read at u = 1 - xi
    ctx = booy_context
    q, s = ctx.cut_frac, theta / (2 * math.pi)
    xi = np.linspace(0.0, 1.0, 501)
    u = 1.0 - xi
    scale = TABLE2.barrel_radius
    for side, (cusp0, cusp1) in (("left", ctx.cusps[::-1]),
                                 ("right", ctx.cusps)):
        c_grid = ctx.build_c_grid(side, theta).map
        center = TABLE2.left_center if side == "left" else TABLE2.right_center
        g = (q + u * (1 - 2 * q) - s) % 1.0
        rotor = ctx._two_period_rotor[side](g / 2)
        rotor = (rotor - center) @ rotation(theta).T + center
        casing = ctx.casing_arc[side](u)
        for eta in (0.0, 0.5, 1.0):
            got = c_grid.evaluate(xi, np.full_like(xi, eta))
            want = (1 - eta) * rotor + eta * casing
            assert np.abs(got - want).max() < 1e-12 * scale
        ends = c_grid.evaluate([0.0, 1.0], [1.0, 1.0])
        assert np.abs(ends - [cusp0, cusp1]).max() < 1e-12 * scale


def test_rotor_arc_starting_just_before_the_seam(booy_context):
    # a range that starts within KNOT_TOL before the base fit's seam is the
    # range that starts on it, not the piece before the seam extrapolated
    ctx = booy_context
    t = np.linspace(0.0, 1.0, 201)
    for side in ("left", "right"):
        on = ctx._rotor_arc(side, 0.0, 0.0, 0.3)(t)
        before = ctx._rotor_arc(side, 0.0, 1.0 - 0.4 * KNOT_TOL, 0.3)(t)
        assert np.abs(before - on).max() < 1e-11 * TABLE2.barrel_radius


def separator_corners(ctx, theta):
    """Corners p00, p10, p01, p11 of the boundary curves that
    ``build_separator`` assembles at theta: the ends of south and north."""
    west, east, south, north, _ = ctx._separator_boundary(
        ctx.separator_reparams(theta))
    p00, p10 = south.control_points[[0, -1]]
    p01, p11 = north.control_points[[0, -1]]
    # the west and east ends are those corners too
    ends = np.vstack([west.control_points[[0, -1]], east.control_points[[0, -1]]])
    assert np.abs(ends - [p00, p01, p10, p11]).max() \
        < 1e-12 * TABLE2.barrel_radius
    return p00, p10, p01, p11


def test_arcs_ending_on_the_rotor_seam(booy_context):
    """The separator's corners are the rotor ends of the C-grid cut edges at
    every angle, also at 2 pi q, where the gap arcs end on the base rotor's
    seam, and at 2 pi (1 - q), where the C-grid rotor arcs do."""
    ctx = booy_context
    scale = TABLE2.barrel_radius
    thetas = [k * math.pi / 16 for k in range(16)] + [
        2 * math.pi * ctx.cut_frac, 2 * math.pi * (1 - ctx.cut_frac)]
    for theta in thetas:
        p00, p10, p01, p11 = separator_corners(ctx, theta)
        left = ctx.build_c_grid("left", theta).map.control_points
        right = ctx.build_c_grid("right", theta).map.control_points
        for got, want in ((left[0, 0], p00), (right[-1, 0], p10),
                          (left[-1, 0], p01), (right[0, 0], p11)):
            assert np.abs(got - want).max() < 1e-12 * scale, theta


def test_separator_cut_edges_run_straight_through_the_cusps(booy_context):
    # south and north, on the built separator, are the cut edges rotor end
    # -> cusp -> rotor end, each half linear in xi
    ctx = booy_context
    upper, lower = ctx.cusps
    xi = np.linspace(0.0, 1.0, 101)
    t = xi[:, None]
    for theta in (math.pi / 4, 3 * math.pi / 4):
        separator = ctx.build_separator(theta).map
        west = ctx.rotor_arc_gap("left", theta).control_points[[0, -1]]
        east = ctx.rotor_arc_gap("right", theta).control_points[[0, -1]]
        for eta, cusp in ((0, lower), (1, upper)):
            start, end = west[eta], east[eta]
            want = np.where(t <= 0.5, start + 2 * t * (cusp - start),
                            cusp + (2 * t - 1) * (end - cusp))
            got = separator.evaluate(xi, np.full_like(xi, eta))
            assert np.abs(got - want).max() < 1e-12 * TABLE2.barrel_radius, \
                (theta, eta)


ONE_FLIGHT = dataclasses.replace(TABLE2, flight_count=1)


@pytest.mark.parametrize("params", [TABLE2, TABLE8, ONE_FLIGHT],
                         ids=["table2", "table8", "one_flight"])
def test_casing_arcs_end_on_the_cusps_and_reflect_into_each_other(params):
    ctx = PipelineContext(BooySource(params, N_POINTS),
                          fit_threshold=fit_threshold(1e-3, params))
    upper, lower = cusp_points(params)
    left, right = ctx.casing_arc["left"], ctx.casing_arc["right"]
    # the point reflection through the axes' midpoint swaps the bores and
    # the cusps, so the right arc is the negated left one, end for end
    assert np.array_equal(-params.left_center, params.right_center)
    assert np.array_equal(-upper, lower)
    assert np.array_equal(right.basis.knots, left.basis.knots)
    assert np.array_equal(right.control_points, -left.control_points)
    assert np.array_equal(left.control_points[[0, -1]], [upper, lower])
    assert np.array_equal(right.control_points[[0, -1]], [lower, upper])
    t = np.linspace(0.0, 1.0, 1001)
    for arc, center in ((left, params.left_center),
                        (right, params.right_center)):
        radius = np.linalg.norm(arc(t) - center, axis=1)
        assert np.abs(radius - params.barrel_radius).max() \
            <= ctx.casing_threshold


CASING_GEOMETRIES = {
    "table2": TABLE2,
    "table8": TABLE8,
    "one_flight": ScrewParams(screw_radius=0.05, centerline_distance=0.06,
                              screw_screw_clearance=0.1e-3,
                              screw_barrel_clearance=0.1e-3, flight_count=1),
    "two_flight": ScrewParams(screw_radius=0.05, centerline_distance=0.0995,
                              screw_screw_clearance=0.1e-3,
                              screw_barrel_clearance=0.1e-3),
    "three_flight": ScrewParams(screw_radius=0.05, centerline_distance=0.095,
                                screw_screw_clearance=0.5e-3,
                                screw_barrel_clearance=0.5e-3,
                                flight_count=3),
}


@pytest.mark.parametrize("params", CASING_GEOMETRIES.values(),
                         ids=CASING_GEOMETRIES.keys())
def test_casing_spans_meet_the_threshold_and_half_of_them_do_not(
        params, monkeypatch):
    # the casing error scales with the barrel radius as its threshold does,
    # so one span count serves every geometry: CASING_SPANS meets the
    # threshold and half of it does not (1008 points: every flight count
    # here divides it)
    ctx = PipelineContext(BooySource(params, 1008),
                          fit_threshold=fit_threshold(1e-3, params, 1008))
    assert np.array_equal(ctx._fit_casing().control_points,
                          ctx.casing_arc["left"].control_points)
    monkeypatch.setattr(pipeline, "CASING_SPANS", pipeline.CASING_SPANS // 2)
    with pytest.raises(InvalidGeometryError) as info:
        ctx._fit_casing()
    assert info.value.details["max_residual"] > ctx.casing_threshold


@pytest.mark.parametrize("threshold", [0.0, -1e-5, math.nan, math.inf])
def test_context_rejects_a_fit_threshold_that_is_not_a_positive_length(
        threshold, monkeypatch):
    for name in ("fit_curve", "fit_curve_adaptive"):
        monkeypatch.setattr(pipeline, name, stop)
    with pytest.raises(FitError) as info:
        PipelineContext(BooySource(TABLE2, N_POINTS), fit_threshold=threshold)
    got = info.value.details["fit_threshold"]
    assert got == threshold or (math.isnan(got) and math.isnan(threshold))


@pytest.mark.parametrize("name", ["screw_screw_clearance",
                                  "screw_barrel_clearance"])
def test_context_rejects_a_closed_clearance_by_name(name, monkeypatch):
    # a zero gap fails late at every angle, with a fold error
    monkeypatch.setattr(BooySource, "section", stop)
    params = dataclasses.replace(TABLE2, **{name: 0.0})
    with pytest.raises(InvalidGeometryError) as info:
        PipelineContext(BooySource(params, N_POINTS))
    assert info.value.details == {"field": name, "value": 0.0}


@pytest.mark.parametrize("stage, error", [
    ("egg_solve", NonconvergenceError("line search failed")),
    ("optimize_control", ConstraintError("start map infeasible")),
    ("fit_curve_adaptive", FitConvergenceError("span cap reached")),
], ids=["egg", "control", "eta_fit"])
def test_build_patches_errors_carry_theta(booy_context, monkeypatch, stage,
                                          error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline, stage, fail)
    with pytest.raises(type(error)) as info:
        booy_context.build_patches(math.pi / 4)
    assert info.value is error
    assert info.value.details == {"theta": math.pi / 4}


@pytest.mark.xfail(strict=True, reason=(
    "the matching functions act on the clouds' chord parameters but the "
    "west/east boundary fits apply them to the arcs' grid coordinate, which "
    "differs by up to 0.069 at pi/4; matched points then lie up to 16.5 "
    "fit thresholds off the boundary"))
def test_matched_gap_points_lie_on_the_separator_boundary(booy_context,
                                                          quarter_turn):
    gap = booy_context.separator_reparams(math.pi / 4)
    sep = quarter_turn.separator.map
    for xi, cloud, f in ((0.0, gap.west_cloud, gap.f_w),
                         (1.0, gap.east_cloud, gap.f_e)):
        eta = f(chord_length_params(cloud))
        on_boundary = sep.evaluate(np.full_like(eta, xi), eta)
        gaps = np.linalg.norm(on_boundary - cloud, axis=1)
        assert gaps.max() <= booy_context.fit_threshold


def test_separator_extracts_each_gap_arc_once(booy_context, monkeypatch):
    calls = []
    original = PipelineContext.rotor_arc_gap

    def counted(self, side, theta):
        calls.append(side)
        return original(self, side, theta)

    monkeypatch.setattr(PipelineContext, "rotor_arc_gap", counted)
    booy_context.build_separator(math.pi / 4)
    assert sorted(calls) == ["left", "right"]


@pytest.mark.parametrize("factor, expected", [
    (1e-3, [math.pi / 4, 3 * math.pi / 4]),
    (3e-4, [0.0, math.pi / 4, 3 * math.pi / 4])], ids=["fit_1e-3", "fit_3e-4"])
def test_period_sweep_certifies_exactly_the_symmetric_quarter_turns(
        monkeypatch, factor, expected):
    # the finer fit is the benchmark's t2-egg-fine geometry, whose angle 0
    # a resampled or re-knotted boundary loses
    ctx = PipelineContext(BooySource(TABLE2, N_POINTS),
                          fit_threshold=fit_threshold(factor))
    thetas = [k * math.pi / 16 for k in range(16)]
    assert certified_angles(ctx, thetas, monkeypatch) == expected


def test_table8_asymmetric_angles_are_rejected(monkeypatch):
    ctx = PipelineContext(BooySource(TABLE8, N_POINTS),
                          fit_threshold=fit_threshold(1e-3, TABLE8))
    thetas = [k * math.pi / 8 for k in (1, 3, 5, 7)]
    assert certified_angles(ctx, thetas, monkeypatch) == []


THREE_FLIGHT = ScrewParams(screw_radius=0.05, centerline_distance=0.095,
                           screw_screw_clearance=0.5e-3,
                           screw_barrel_clearance=0.5e-3, flight_count=3)


@pytest.mark.parametrize("params, n_points", [
    (ONE_FLIGHT, N_POINTS), (TABLE2, N_POINTS), (THREE_FLIGHT, 1008)],
    ids=["one_flight", "two_flight", "three_flight"])
def test_every_flight_count_certifies_or_rejects_each_angle_by_name(
        params, n_points):
    # 16 angles over one period 2 pi / z; the three-flight outline needs a
    # point count that z divides.  Until the separator boundaries are
    # regular at every angle, the one- and two-flight geometries certify
    # only some of them
    ctx = PipelineContext(BooySource(params, n_points),
                          fit_threshold=fit_threshold(1e-3, params, n_points))
    certified = []
    for k in range(16):
        theta = k * 2.0 * math.pi / (16 * params.flight_count)
        try:
            patches = ctx.build_patches(theta)
        except ScrewgenError as exc:
            assert exc.details["theta"] == theta
            continue
        assert parameterization.check_folding(patches.separator.map) == []
        certified.append(k)
    if params.flight_count == 3:
        assert certified == list(range(16))


ORIENTED_CASES = {
    "table2": (TABLE2, 1e-3, N_POINTS),
    "table2_fine": (TABLE2, 3e-4, N_POINTS),
    "table8": (TABLE8, 1e-3, N_POINTS),
    "one_flight": (ONE_FLIGHT, 1e-3, N_POINTS),
    "three_flight": (THREE_FLIGHT, 1e-3, 1008),
}


@pytest.mark.parametrize("params, factor, n_points", ORIENTED_CASES.values(),
                         ids=ORIENTED_CASES.keys())
def test_all_three_patches_are_positively_oriented_and_certified(
        params, factor, n_points):
    # 16 angles over one period 2 pi / z: both C-grids at every angle, and
    # the three patches of every set that builds, have det J > 0 certified
    ctx = PipelineContext(BooySource(params, n_points),
                          fit_threshold=fit_threshold(factor, params,
                                                      n_points))
    t = np.linspace(0.0, 1.0, 50)
    xi, eta = np.repeat(t, t.size), np.tile(t, t.size)
    for k in range(16):
        theta = k * 2.0 * math.pi / (16 * params.flight_count)
        for side in ("left", "right"):
            c_grid = ctx.build_c_grid(side, theta).map
            assert parameterization.check_folding(c_grid) == [], (side, k)
            assert c_grid.jacobian(xi, eta)[1].min() > 0, (side, k)
        try:
            patches = ctx.build_patches(theta)
        except ScrewgenError:
            continue
        for patch in (patches.left_c, patches.right_c, patches.separator):
            assert parameterization.check_folding(patch.map) == [], k


def test_an_uncertified_c_grid_raises_folding_error(booy_context,
                                                    monkeypatch):
    # a stand-in certificate that rejects every ruled (eta degree 1) map
    # and passes the separator on to the real one
    real = parameterization.check_folding
    box = [[0.0, 0.0], [1.0, 1.0]]
    monkeypatch.setattr(pipeline, "check_folding", lambda m: [box]
                        if m.basis.eta.degree == 1 else real(m))
    with pytest.raises(FoldingError) as info:
        booy_context.build_patches(math.pi / 4)
    assert info.value.cells == [box]
    assert info.value.details == {"side": "left", "theta": math.pi / 4}


def test_an_uncertified_separator_goes_to_the_repair(booy_context,
                                                    monkeypatch):
    # a stand-in certificate that rejects the separator on one knot-span
    # box: the real repair bisects that box's spans and re-solves, and the
    # real certificate passes the refined map
    real_check, real_repair = (parameterization.check_folding,
                               parameterization.repair_folding)
    plain = booy_context.build_separator(math.pi / 4).map.basis
    xi, eta = plain.xi.breakpoints, plain.eta.breakpoints
    k = len(eta) // 2
    box = [[xi[2], eta[k]], [xi[3], eta[k + 1]]]
    repaired = []

    def counted(patch, boxes):
        repaired.append(boxes)
        return real_repair(patch, boxes)

    monkeypatch.setattr(pipeline, "check_folding", lambda m: [box])
    monkeypatch.setattr(pipeline, "repair_folding", counted)
    patch = booy_context.build_separator(math.pi / 4)
    assert repaired == [[box]]
    basis = patch.map.basis
    assert (basis.xi.n, basis.eta.n) == (plain.xi.n + 1, plain.eta.n + 1)
    assert basis.xi.multiplicity((xi[2] + xi[3]) / 2) == 1
    assert basis.eta.multiplicity((eta[k] + eta[k + 1]) / 2) == 1
    assert real_check(patch.map) == []


def test_a_rotor_cloud_with_two_points_on_one_ray_is_rejected():
    # two points on the left rotor's ray at angle 0 from its axis share
    # one grid fraction, so the radial assignment cannot order them
    sec = booy_profile(TABLE2, 0.0, N_POINTS)
    pts = sec.left_rotor.points.copy()
    rel = pts - TABLE2.left_center
    k = int(np.argmin(np.abs(np.arctan2(rel[:, 1], rel[:, 0]))))
    pts[k:k + 2] = TABLE2.left_center + [[0.9 * TABLE2.screw_radius, 0.0],
                                         [0.5 * TABLE2.screw_radius, 0.0]]
    section = dataclasses.replace(sec, left_rotor=PointCloud(pts))
    with pytest.raises(MatchingError, match="left rotor cloud is not "
                       "star-shaped"):
        PipelineContext(section, fit_threshold=fit_threshold(1e-3))


def z_folded_left_rotor():
    """A TABLE2 section whose left rotor runs forward, back and forward
    again between polar angles 0.2 and 0.4 about its axis, on three strands
    0.3 mm apart radially, and the cloud index of the first point that
    runs back."""
    sec = booy_profile(TABLE2, 0.0, N_POINTS)
    pts = sec.left_rotor.points
    rel = pts - TABLE2.left_center
    ang, r = np.arctan2(rel[:, 1], rel[:, 0]), np.hypot(rel[:, 0], rel[:, 1])
    seg = np.flatnonzero((ang > 0.2) & (ang < 0.4))   # counterclockwise
    phi = ang[seg]
    # each strand a third of a step ahead of the last: no two points share
    # a polar angle
    shift = (phi[-1] - phi[0]) / (3 * (len(seg) - 1))
    strands = []
    for j, step in enumerate((1, -1, 1)):
        a = (phi + j * shift)[::step]
        radius = np.interp(a, phi, r[seg]) - j * 0.3e-3
        strands.append(TABLE2.left_center
                       + radius[:, None] * np.column_stack([np.cos(a),
                                                            np.sin(a)]))
    folded = np.vstack([pts[:seg[0]], *strands, pts[seg[-1] + 1:]])
    return (dataclasses.replace(sec, left_rotor=PointCloud(folded)),
            int(seg[0]) + len(seg) + 1)


def test_a_rotor_cloud_whose_polar_angle_backtracks_is_rejected():
    # sorted by polar angle, the three strands would be one zig-zag
    section, first_back = z_folded_left_rotor()
    with pytest.raises(MatchingError, match="left rotor cloud is not "
                       "star-shaped") as info:
        PipelineContext(section, fit_threshold=fit_threshold(1e-3))
    assert info.value.details == {"side": "left", "index": first_back}


def test_rotor_clouds_may_run_either_way_round_from_any_point():
    sec = booy_profile(TABLE2, 0.0, N_POINTS)
    turned = dataclasses.replace(
        sec,
        left_rotor=PointCloud(np.roll(sec.left_rotor.points[::-1], 300, 0)),
        right_rotor=PointCloud(np.roll(sec.right_rotor.points[::-1], -77, 0)))
    a, b = (PipelineContext(s, fit_threshold=fit_threshold(1e-3))
            for s in (sec, turned))
    for side in ("left", "right"):
        want, got = a._two_period_rotor[side], b._two_period_rotor[side]
        assert np.array_equal(got.basis.knots, want.basis.knots)
        assert np.array_equal(got.control_points, want.control_points)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_two_period_rotor_is_the_base_fit_twice(scale):
    # the doubling is exact at any size of screw: the fit's two ends are
    # the same seam point, so no seam tolerance is involved
    params = dataclasses.replace(TABLE2, **{
        name: scale * getattr(TABLE2, name)
        for name in ("screw_radius", "centerline_distance",
                     "screw_screw_clearance", "screw_barrel_clearance")})
    ctx = PipelineContext(BooySource(params, N_POINTS),
                          fit_threshold=fit_threshold(1e-3, params))
    sec0 = booy_profile(params, 0.0, N_POINTS)
    s = np.linspace(0.0, 1.0, 201)
    first, second = s[s <= 0.5], s[s >= 0.5]
    for side in ("left", "right"):
        fit = ctx._fit_rotor(side, sec0)
        two = ctx._two_period_rotor[side]
        for half in (two.extract(0.0, 0.5), two.extract(0.5, 1.0)):
            assert np.array_equal(half.basis.knots, fit.basis.knots)
            assert np.array_equal(half.control_points, fit.control_points)
        # an arc across the seam is the end of one period, then the start
        # of the next
        arc = two.extract(0.4, 0.6)
        err = max(np.abs(arc(first) - fit(0.8 + 0.4 * first)).max(),
                  np.abs(arc(second) - fit(0.4 * second - 0.2)).max())
        assert err < 1e-12 * params.barrel_radius


def test_rejected_angle_builds_no_egg_assembly(booy_context, monkeypatch):
    calls = []
    for cls, name in ((parameterization.EggAssembly, "__init__"),
                      (PipelineContext, "build_c_grid")):
        def counted(*args, _original=getattr(cls, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    real = PipelineContext._separator_boundary

    def backtracking(self, gap):
        # the east boundary with its middle control point pulled back by
        # twice the step between its neighbours, so that it retreats
        west, east, south, north, eta_kv = real(self, gap)
        cp, k = east.control_points.copy(), east.basis.n // 2
        cp[k] -= 2.0 * (cp[k + 1] - cp[k - 1])
        return west, SplineCurve(east.basis, cp), south, north, eta_kv

    monkeypatch.setattr(PipelineContext, "_separator_boundary", backtracking)
    with pytest.raises(MatchingError) as info:
        booy_context.build_patches(math.pi / 4)
    assert info.value.details["side"] == "east"
    assert info.value.details["min_w"] < 0
    assert calls == []
    monkeypatch.setattr(PipelineContext, "_separator_boundary", real)
    booy_context.build_separator(math.pi / 4)
    assert calls == ["__init__"]


def test_merge_knot_vectors_keeps_max_multiplicity():
    a = open_knots(3, [0.25, 0.5], [1, 2])
    b = open_knots(3, [0.5, 0.6, 0.75], [3, 1, 2])
    vals, counts = unique_knots(merge_knot_vectors(a, b).knots)
    assert vals.tolist() == [0.0, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert counts.tolist() == [4, 1, 3, 1, 2, 4]
    with pytest.raises(TopologyError):
        merge_knot_vectors(a, open_knots(2, [0.5]))


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


def test_build_patches_clusters_each_knot_vector_once(booy_context,
                                                      monkeypatch):
    # every consumer reads the clustering a KnotVector stores; the only
    # clustering is the one each KnotVector makes when it is built
    calls = {"built": 0, "in_build": 0, "elsewhere": 0}
    building = []
    real_post_init, real_unique = KnotVector.__post_init__, unique_knots

    def post_init(self):
        calls["built"] += 1
        building.append(self)
        try:
            real_post_init(self)
        finally:
            building.pop()

    def unique(knots):
        calls["in_build" if building else "elsewhere"] += 1
        return real_unique(knots)

    monkeypatch.setattr(KnotVector, "__post_init__", post_init)
    for module in (splines, fitting, parameterization, pipeline, control_map):
        if hasattr(module, "unique_knots"):
            monkeypatch.setattr(module, "unique_knots", unique)
    booy_context.build_patches(math.pi / 4)
    assert calls["built"] > 0
    assert calls["in_build"] == calls["built"]
    assert calls["elsewhere"] == 0


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


def test_control_map_is_scale_invariant(quarter_turn):
    x = quarter_turn.separator.map
    identity = identity_control(quarter_turn.control.basis)

    def ratio(m, control):
        return orthogonality_cost(m, control) / orthogonality_cost(m, identity)

    scaled = SplineMap(x.basis, 0.1 * x.control_points)
    assert abs(ratio(x, quarter_turn.control)
               - ratio(scaled, optimize_control(scaled, identity))) <= 1e-3


def cost_ratio(x, control):
    identity = identity_control(control.basis, control.margin)
    return orthogonality_cost(x, control) / orthogonality_cost(x, identity)


def test_table8_control_maps_converge_alike_at_congruent_angles():
    ctx = PipelineContext(BooySource(TABLE8, N_POINTS),
                          fit_threshold=fit_threshold(1e-3, TABLE8))
    cap = inspect.signature(optimize_control).parameters["max_iter"].default
    ratios = []
    for theta in (math.pi / 4, 3 * math.pi / 4):
        patches = ctx.build_patches(theta)
        assert 0 < patches.control.iterations < cap
        ratios.append(cost_ratio(patches.separator.map, patches.control))
    assert max(ratios) < 0.15
    assert abs(ratios[0] - ratios[1]) <= 5e-3


def run_with_src(code):
    """Standard output of ``code`` run in a fresh interpreter that imports
    screwgen from this checkout."""
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.interpolate",
                                    "scipy.sparse", "scipy.linalg"])
def test_importing_the_pipeline_leaves_scipy_module_unloaded(module):
    # each adds megabytes of resident memory to a process that imports it
    # (scipy.optimize about 20 MB, scipy.interpolate and scipy.linalg about
    # 22 MB)
    assert run_with_src("import sys, screwgen.pipeline; "
                        f"print({module!r} in sys.modules)") == "False"


def test_the_pipeline_builds_without_scipy():
    # a None entry makes every import of scipy or a submodule fail
    code = ("import sys, math; sys.modules['scipy'] = None\n"
            "from screwgen.pipeline import BooySource, PipelineContext\n"
            "from screwgen.profiles import ScrewParams\n"
            f"params = ScrewParams(**{dataclasses.asdict(TABLE2)!r})\n"
            f"ctx = PipelineContext(BooySource(params, {N_POINTS}), "
            f"fit_threshold={fit_threshold(1e-3)!r})\n"
            "patches = ctx.build_patches(math.pi / 4)\n"
            "print(patches.newton_iterations > 0)")
    assert run_with_src(code) == "True"


def test_readme_example_builds_a_feasible_patch_set():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 2
    # the evaluation example continues the build example, as a reader runs
    # them
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["patches"].control.feasible()
    assert namespace["nodes"].shape == (201 * 201, 2)
    assert namespace["det"].min() > 0
