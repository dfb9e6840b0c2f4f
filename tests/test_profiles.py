import math

import numpy as np
import pytest

from screwgen.errors import InvalidGeometryError, ProfileParseError
from screwgen.profiles import (
    ScrewParams,
    booy_profile,
    cusp_points,
    load_profile,
    save_profile,
)

TABLE2 = ScrewParams(screw_radius=15.275e-3, centerline_distance=26.2e-3,
                     screw_screw_clearance=0.2e-3, screw_barrel_clearance=0.15e-3)


# ---------------------------------------------------------------------------
# booy_profile
# ---------------------------------------------------------------------------

def test_tip_radius_equals_screw_radius():
    sec = booy_profile(TABLE2, 0.0, 256)
    r = np.linalg.norm(sec.left_rotor.points - TABLE2.left_center, axis=1)
    assert r.max() <= TABLE2.screw_radius + 1e-9
    assert r.max() == pytest.approx(TABLE2.screw_radius, abs=1e-12)


def test_rotational_symmetry_full_flight():
    period = 2 * math.pi / TABLE2.flight_count
    a = booy_profile(TABLE2, 0.0, 256).left_rotor.points
    b = booy_profile(TABLE2, period, 256).left_rotor.points
    # same point set: every point of a has a partner in b within tolerance
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    assert d.min(axis=1).max() <= 1e-9 * TABLE2.screw_radius


def test_flank_clearance_oracle():
    # brute-force nearest-neighbor distance between the rotor clouds stays
    # at or above the screw-screw clearance at every angle
    tol = 0.05 * TABLE2.screw_screw_clearance
    for theta in np.linspace(0.0, math.pi, 8):
        sec = booy_profile(TABLE2, theta, 512)
        d = np.linalg.norm(sec.left_rotor.points[:, None, :]
                           - sec.right_rotor.points[None, :, :], axis=2)
        assert d.min() >= TABLE2.screw_screw_clearance - tol


def test_right_rotor_is_phase_shifted_left():
    sec = booy_profile(TABLE2, 0.3, 256)
    phase = math.pi / TABLE2.flight_count
    c, s = math.cos(phase), math.sin(phase)
    rot = np.array([[c, -s], [s, c]])
    expected = (sec.left_rotor.points - TABLE2.left_center) @ rot.T \
        + TABLE2.right_center
    assert np.abs(expected - sec.right_rotor.points).max() < 1e-12


def test_rotor_inside_casing():
    for theta in np.linspace(0, math.pi, 5):
        sec = booy_profile(TABLE2, theta, 256)
        for cloud in (sec.left_rotor, sec.right_rotor):
            dl = np.linalg.norm(cloud.points - TABLE2.left_center, axis=1)
            dr = np.linalg.norm(cloud.points - TABLE2.right_center, axis=1)
            assert np.all(np.minimum(dl, dr) <= TABLE2.barrel_radius)


def test_min_casing_gap_attained_at_tips():
    sec = booy_profile(TABLE2, 0.0, 512)
    pts = sec.left_rotor.points - TABLE2.left_center
    gap = TABLE2.barrel_radius - np.linalg.norm(pts, axis=1)
    assert gap.min() >= 0.0
    assert gap.min() <= TABLE2.screw_barrel_clearance + 1e-9
    tip = pts[np.argmin(gap)]
    assert np.linalg.norm(tip) == pytest.approx(TABLE2.screw_radius, abs=1e-12)


def test_impossible_geometry_raises():
    with pytest.raises(InvalidGeometryError):
        ScrewParams(screw_radius=10e-3, centerline_distance=25e-3)
    with pytest.raises(InvalidGeometryError):
        booy_profile(TABLE2, 0.0, 32)  # too few points


def test_point_count_and_no_repeats():
    sec = booy_profile(TABLE2, 0.7, 256)
    for cloud in (sec.left_rotor, sec.right_rotor):
        assert len(cloud.points) == 256
        d = np.linalg.norm(np.diff(cloud.points, axis=0), axis=1)
        assert d.min() > 0


# ---------------------------------------------------------------------------
# cusp_points
# ---------------------------------------------------------------------------

def test_cusp_table2_value():
    c = cusp_points(TABLE2)
    assert c[0, 0] == 0.0 and c[1, 0] == 0.0
    assert c[0, 1] == pytest.approx(8.144e-3, abs=1e-6)
    assert c[1, 1] == pytest.approx(-8.144e-3, abs=1e-6)


def test_cusp_special_case_cl_equal_rb():
    # C_l = R_b gives y = +-(sqrt(3)/2) R_b
    p = ScrewParams(screw_radius=10e-3, centerline_distance=10.5e-3,
                    screw_barrel_clearance=0.5e-3)
    assert p.barrel_radius == pytest.approx(10.5e-3)
    c = cusp_points(p)
    assert c[0, 1] == pytest.approx(math.sqrt(3) / 2 * p.barrel_radius, rel=1e-12)


def test_cusps_on_casing_circles():
    c = cusp_points(TABLE2)
    for cusp in c:
        for center in (TABLE2.left_center, TABLE2.right_center):
            assert np.linalg.norm(cusp - center) == pytest.approx(
                TABLE2.barrel_radius, rel=1e-12)


def test_non_intersecting_casing_raises():
    # valid ScrewParams always intersect (R_b >= R_s > C_l/2); exercise the
    # guard directly with an inconsistent parameter bag
    from types import SimpleNamespace
    fake = SimpleNamespace(barrel_radius=9e-3, centerline_distance=19.99e-3)
    with pytest.raises(InvalidGeometryError):
        cusp_points(fake)


# ---------------------------------------------------------------------------
# profile files
# ---------------------------------------------------------------------------

def test_profile_roundtrip(tmp_path):
    sec = booy_profile(TABLE2, 0.45, 256)
    path = tmp_path / "profile.txt"
    save_profile(path, sec)
    loaded = load_profile(path, TABLE2)
    assert loaded.angle == pytest.approx(0.45)
    assert np.abs(loaded.left_rotor.points - sec.left_rotor.points).max() == 0.0
    assert np.abs(loaded.right_rotor.points - sec.right_rotor.points).max() == 0.0


def test_multi_section_file_loads_its_first_section(tmp_path):
    path = tmp_path / "two.txt"
    save_profile(path, booy_profile(TABLE2, 0.45, 256))
    second = tmp_path / "second.txt"
    save_profile(second, booy_profile(TABLE2, 0.9, 256))
    body = second.read_text().splitlines()[1:]
    path.write_text(path.read_text() + "\n".join(body) + "\n")
    assert load_profile(path, TABLE2).angle == pytest.approx(0.45)
    # a later section is still parsed and validated
    path.write_text(path.read_text() + "section θ=1.0\nL 0 0\n")
    with pytest.raises(ProfileParseError):
        load_profile(path, TABLE2)


def test_profile_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    with pytest.raises(ProfileParseError):
        load_profile(bad, TABLE2)
    bad.write_text("screwgen-profile v1\nL 0 0\n")
    with pytest.raises(ProfileParseError):
        load_profile(bad, TABLE2)
    bad.write_text("screwgen-profile v1\nsection θ=0\nL 0 zero\n")
    with pytest.raises(ProfileParseError):
        load_profile(bad, TABLE2)


def test_profile_invariant_violation(tmp_path):
    # rotor points far outside the casing bore
    lines = ["screwgen-profile v1", "section θ=0"]
    t = np.linspace(0, 2 * np.pi, 33)[:-1]
    for x, y in zip(0.2 * np.cos(t), 0.2 * np.sin(t)):
        lines.append(f"L {x} {y}")
    for x, y in zip(0.2 * np.cos(t) + 0.0262, 0.2 * np.sin(t)):
        lines.append(f"R {x} {y}")
    bad = tmp_path / "big.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidGeometryError):
        load_profile(bad, TABLE2)
