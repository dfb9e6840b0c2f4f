import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screwgen.errors import InvalidGeometryError, ProfileParseError
from screwgen.profiles import (
    CrossSection,
    PointCloud,
    ScrewParams,
    booy_profile,
    cusp_points,
    load_profile,
    rotation,
    rotor_arcs,
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


def three_or_four_flights(z, centerline_distance):
    return ScrewParams(screw_radius=0.05,
                       centerline_distance=centerline_distance,
                       screw_screw_clearance=0.5e-3,
                       screw_barrel_clearance=0.5e-3, flight_count=z)


FLIGHTS = [dataclasses.replace(TABLE2, flight_count=1), TABLE2,
           three_or_four_flights(3, 0.095), three_or_four_flights(4, 0.098)]


@pytest.mark.parametrize("params", FLIGHTS,
                         ids=[f"z{p.flight_count}" for p in FLIGHTS])
def test_flank_clearance_oracle(params):
    # brute-force nearest-neighbor distance between the rotor clouds stays
    # at or above the screw-screw clearance at 33 angles of one period;
    # sampling can only overestimate the least distance of the outlines
    tol = 0.05 * params.screw_screw_clearance
    for theta in np.linspace(0.0, 2 * math.pi / params.flight_count, 33):
        sec = booy_profile(params, theta, 504)    # divisible by 1, 2, 3, 4
        d = np.linalg.norm(sec.left_rotor.points[:, None, :]
                           - sec.right_rotor.points[None, :, :], axis=2)
        assert d.min() >= params.screw_screw_clearance - tol, theta


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


def arc_ends(arc):
    return [arc.center + arc.radius * np.array([math.cos(a), math.sin(a)])
            for a in (arc.a0, arc.a1)]


def test_zero_tip_fillet_keeps_the_sharp_wiping_corner():
    sharp = dataclasses.replace(TABLE2, tip_fillet_radius=0.0)
    arcs = rotor_arcs(sharp)
    # tip, flank, root, flank: no fillet arcs
    assert len(arcs) == 4 and len(rotor_arcs(TABLE2)) == 6
    ends = [arc_ends(arc) for arc in arcs]
    tol = 1e-12 * TABLE2.screw_radius
    for (_, end), (start, _) in zip(ends, ends[1:]):
        assert np.linalg.norm(end - start) < tol
    # the flight ends where the next one's tip starts
    period = rotation(2 * math.pi / TABLE2.flight_count)
    assert np.linalg.norm(ends[-1][1] - period @ ends[0][0]) < tol
    # the corner lies on the tip circle and on the flank circle
    corner = ends[0][1]
    assert np.linalg.norm(corner) == pytest.approx(TABLE2.screw_radius,
                                                   rel=1e-12)
    assert np.linalg.norm(corner - arcs[1].center) == pytest.approx(
        arcs[1].radius, rel=1e-12)
    for theta in np.linspace(0.0, math.pi, 9):
        sec = booy_profile(sharp, theta, 512)
        d = np.linalg.norm(sec.left_rotor.points[:, None, :]
                           - sec.right_rotor.points[None, :, :], axis=2)
        assert d.min() >= 0.95 * TABLE2.screw_screw_clearance, theta


def test_one_flight_profile_without_a_root_raises_naming_its_radius():
    # one flight keeps the tip angle positive however close the axes are,
    # so the root radius C_l - R - delta_s is what fails
    p = ScrewParams(screw_radius=1.0, centerline_distance=1.0,
                    screw_screw_clearance=0.1, screw_barrel_clearance=0.1,
                    flight_count=1)
    with pytest.raises(InvalidGeometryError, match="root radius") as info:
        rotor_arcs(p)
    assert info.value.details == {"r_root": pytest.approx(-0.1)}


def test_impossible_geometry_raises():
    with pytest.raises(InvalidGeometryError):
        ScrewParams(screw_radius=10e-3, centerline_distance=25e-3,
                    screw_screw_clearance=0.0, screw_barrel_clearance=0.0)
    with pytest.raises(InvalidGeometryError):
        booy_profile(TABLE2, 0.0, 32)  # too few points


@pytest.mark.parametrize("field", [
    "screw_radius", "centerline_distance", "screw_screw_clearance",
    "screw_barrel_clearance", "pitch_length", "tip_fillet_radius"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_screw_params_are_rejected_by_name(field, bad):
    with pytest.raises(InvalidGeometryError, match=field) as info:
        dataclasses.replace(TABLE2, **{field: bad})
    assert info.value.details["field"] == field


@pytest.mark.parametrize("field, bad", [
    ("flight_count", 0), ("flight_count", 2.0), ("flight_count", 2.5),
    ("flight_count", "2"), ("pitch_length", -1.0), ("screw_radius", 0.0),
    ("centerline_distance", -26.2e-3), ("screw_screw_clearance", -1e-5),
    ("screw_barrel_clearance", -1e-5),
    ("centerline_distance", 31e-3),       # >= 2 R: no intermeshing
    ("tip_fillet_radius", -1e-4)])
def test_unmeshable_screw_params_are_rejected_by_name(field, bad):
    with pytest.raises(InvalidGeometryError, match=field) as info:
        dataclasses.replace(TABLE2, **{field: bad})
    assert info.value.details == {"field": field, "value": bad}


def test_clearances_have_no_default_and_zero_builds_a_profile():
    with pytest.raises(TypeError, match="clearance"):
        ScrewParams(screw_radius=TABLE2.screw_radius,
                    centerline_distance=TABLE2.centerline_distance)
    closed = dataclasses.replace(TABLE2, screw_screw_clearance=0.0,
                                 screw_barrel_clearance=0.0)
    assert len(booy_profile(closed, 0.3, 256).left_rotor.points) == 256


def test_hand_built_section_with_a_rotor_point_outside_the_bore_raises():
    sec = booy_profile(TABLE2, 0.3, 256)
    pts = sec.left_rotor.points.copy()
    # the outermost point of the left bore, pushed just past it
    pts[5] = TABLE2.left_center + [-1.001 * TABLE2.barrel_radius, 0.0]
    outside = PointCloud(pts)
    with pytest.raises(InvalidGeometryError) as info:
        CrossSection(sec.angle, TABLE2, outside, sec.right_rotor)
    assert info.value.details["max_excess"] == pytest.approx(
        1e-3 * TABLE2.barrel_radius)
    with pytest.raises(InvalidGeometryError):
        dataclasses.replace(sec, right_rotor=outside)


def test_point_cloud_rejects_non_finite_points():
    pts = booy_profile(TABLE2, 0.0, 256).left_rotor.points.copy()
    for bad in (math.nan, math.inf, -math.inf):
        broken = pts.copy()
        broken[7, 1] = bad
        with pytest.raises(InvalidGeometryError):
            PointCloud(broken)


def test_closed_loop_check_is_relative_to_the_cloud():
    # a micro-scale cloud whose ends are 1e-9 of its size apart is open; the
    # same cloud closed by a repeated point is not
    pts = 1e-6 * booy_profile(TABLE2, 0.0, 256).left_rotor.points / \
        TABLE2.barrel_radius
    open_ = pts.copy()
    open_[-1] = pts[0] + [1e-15, 0.0]
    assert PointCloud(open_).points.shape == pts.shape
    with pytest.raises(InvalidGeometryError, match="repeat"):
        PointCloud(np.vstack([pts, pts[:1]]))


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
                    screw_screw_clearance=0.0, screw_barrel_clearance=0.5e-3)
    assert p.barrel_radius == pytest.approx(10.5e-3)
    c = cusp_points(p)
    assert c[0, 1] == pytest.approx(math.sqrt(3) / 2 * p.barrel_radius, rel=1e-12)


def test_cusps_on_casing_circles():
    c = cusp_points(TABLE2)
    for cusp in c:
        for center in (TABLE2.left_center, TABLE2.right_center):
            assert np.linalg.norm(cusp - center) == pytest.approx(
                TABLE2.barrel_radius, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(ratio=st.floats(0.05, 0.999), gap_s=st.floats(0.0, 0.2),
       gap_b=st.floats(0.0, 0.2), z=st.integers(1, 4))
def test_admissible_params_always_have_cusps_and_flank_contact(ratio, gap_s,
                                                               gap_b, z):
    # R_b >= R > C_l / 2, so the bores meet, and C_l < 2 R <= 2 (R +
    # delta_s / 2), so the flanks touch: an admissible geometry is either
    # built or rejected by a named profile check, never by a math error
    p = ScrewParams(screw_radius=1.0, centerline_distance=2.0 * ratio,
                    screw_screw_clearance=gap_s, screw_barrel_clearance=gap_b,
                    flight_count=z)
    upper, lower = cusp_points(p)
    assert upper[1] > 0.0 and np.array_equal(lower, upper * [1.0, -1.0])
    try:
        rotor_arcs(p)
    except InvalidGeometryError as exc:
        assert set(exc.details) in ({"alpha", "flight_count"}, {"r_root"})


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


def test_second_section_line_raises_naming_its_line(tmp_path):
    path = tmp_path / "two.txt"
    save_profile(path, booy_profile(TABLE2, 0.45, 256))
    second = tmp_path / "second.txt"
    save_profile(second, booy_profile(TABLE2, 0.9, 256))
    lines = path.read_text().splitlines() + second.read_text().splitlines()[1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileParseError) as info:
        load_profile(path, TABLE2)
    # the header, the first section line and 2 x 256 point lines come first
    assert info.value.details == {"path": str(path), "line": 515}


def test_profile_parse_errors(tmp_path):
    # each malformed file with the 1-based line its error names
    bad = tmp_path / "bad.txt"
    for text, line in [
            ("not a header\n", 1),
            ("# comment\n\nscrewgen-profile v1\nL 0 0\n", 4),
            ("screwgen-profile v1\nsection θ=0\nL 0 zero\n", 3),
            ("screwgen-profile v1\nsection phi=0\n", 2),
            ("screwgen-profile v1\n# no section\n", 1),
            ("screwgen-profile v1\nsection θ=0\n" + "L 0 0\n" * 8
             + "R 0 0\n", 2)]:
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ProfileParseError) as info:
            load_profile(bad, TABLE2)
        assert info.value.details == {"path": str(bad), "line": line}, text


def test_profile_that_is_not_utf8_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"screwgen-profile v1\n\xff\n")
    with pytest.raises(ProfileParseError) as info:
        load_profile(bad, TABLE2)
    assert info.value.details == {"path": str(bad), "line": 2}


@pytest.mark.parametrize("line", [
    "section θ=nan", "section theta=inf", "L nan nan", "R 0.001 -inf",
    "L inf 0.0"])
def test_profile_with_non_finite_numbers_is_rejected(tmp_path, line):
    # a valid file with one angle or point line replaced by a non-finite one
    path = tmp_path / "profile.txt"
    save_profile(path, booy_profile(TABLE2, 0.45, 256))
    lines = path.read_text().splitlines()
    index = 1 if line.startswith("section") \
        else next(i for i, ln in enumerate(lines) if ln[0] == line[0]) + 3
    lines[index] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileParseError, match="non-finite"):
        load_profile(path, TABLE2)


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
    with pytest.raises(InvalidGeometryError, match="bore") as info:
        load_profile(bad, TABLE2)
    assert set(info.value.details) == {"max_excess", "path"}
    assert info.value.details["path"] == str(bad)
    # a repeated closing point fails in PointCloud and names the file too
    closed = tmp_path / "closed.txt"
    save_profile(closed, booy_profile(TABLE2, 0.0, 256))
    text = closed.read_text().splitlines()
    first_r = next(ln for ln in text if ln.startswith("R "))
    closed.write_text("\n".join(text + [first_r]) + "\n")
    with pytest.raises(InvalidGeometryError, match="repeat") as info:
        load_profile(closed, TABLE2)
    assert info.value.details == {"gap": 0.0, "path": str(closed)}
