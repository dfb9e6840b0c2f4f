import math

import numpy as np
import pytest

from screwgen.control_map import check_composite_folding
from screwgen.fitting import bounding_box_diagonal
from screwgen.pipeline import BooySource, FileSource, PipelineContext
from screwgen.profiles import ScrewParams, booy_profile, load_profile, save_profile

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


def test_quarter_turn_patch_set_is_fold_free(booy_context):
    patches = booy_context.build_patches(math.pi / 4)
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
