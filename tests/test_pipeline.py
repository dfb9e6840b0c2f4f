import math

import numpy as np
import pytest

from screwgen.control_map import check_composite_folding
from screwgen.errors import TopologyError
from screwgen.fitting import bounding_box_diagonal, chord_length_params
from screwgen.pipeline import (BooySource, FileSource, PipelineContext,
                               merge_knot_vectors, promote_curve)
from screwgen.profiles import ScrewParams, booy_profile, load_profile, save_profile
from screwgen.splines import SplineCurve, open_knots, unique_knots

TABLE2 = ScrewParams(screw_radius=15.275e-3, centerline_distance=26.2e-3,
                     screw_screw_clearance=0.2e-3, screw_barrel_clearance=0.15e-3)
N_POINTS = 1024


def fit_threshold(factor):
    sec0 = booy_profile(TABLE2, 0.0, N_POINTS)
    return factor * bounding_box_diagonal(
        np.vstack([sec0.left_rotor.points, sec0.right_rotor.points]))


@pytest.fixture(scope="module")
def booy_context():
    return PipelineContext(BooySource(TABLE2, N_POINTS),
                           fit_threshold=fit_threshold(1e-3))


@pytest.fixture(scope="module")
def quarter_turn(booy_context):
    return booy_context.build_patches(math.pi / 4)


def test_quarter_turn_patch_set_is_fold_free(quarter_turn):
    patches = quarter_turn
    assert check_composite_folding(patches.separator.map, patches.control,
                                   200) == []
    assert patches.control.feasible()
    assert patches.control_iterations == patches.control.iterations > 0


def test_file_source_reproduces_booy_c_grids(booy_context, tmp_path):
    path = tmp_path / "table2.txt"
    save_profile(path, booy_profile(TABLE2, 0.0, N_POINTS))
    ctx = PipelineContext(FileSource(load_profile(path, TABLE2), TABLE2),
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


def test_separator_extracts_each_gap_arc_once(booy_context, quarter_turn,
                                              monkeypatch):
    calls = []
    original = PipelineContext.rotor_arc_gap

    def counted(self, side, theta):
        calls.append(side)
        return original(self, side, theta)

    monkeypatch.setattr(PipelineContext, "rotor_arc_gap", counted)
    booy_context.build_separator(math.pi / 4, quarter_turn.left_c,
                                 quarter_turn.right_c)
    assert sorted(calls) == ["left", "right"]


def test_merge_knot_vectors_keeps_max_multiplicity():
    a = open_knots(3, [0.25, 0.5], [1, 2])
    b = open_knots(3, [0.5, 0.6, 0.75], [3, 1, 2])
    vals, counts = unique_knots(merge_knot_vectors(a, b).knots)
    assert vals.tolist() == [0.0, 0.25, 0.5, 0.6, 0.75, 1.0]
    assert counts.tolist() == [4, 1, 3, 1, 2, 4]
    with pytest.raises(TopologyError):
        merge_knot_vectors(a, open_knots(2, [0.5]))


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
