"""Twin-screw cross-section geometry.

Generates the co-rotating twin-screw cross section at any rotation angle:
the classical self-wiping double-flighted rotor profile built from circular
tip arcs, root arcs and kinematic flank arcs, with the clearances applied as
an inward normal offset; the casing bore circles with their cusp
intersections.  A 3D conveying element's section at axial position z is
the one at rotation angle theta + 2 pi z / pitch_length.  Arbitrary (e.g.
mixing element) profiles enter through plain-text point-cloud files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, ProfileParseError

TWO_PI = 2.0 * math.pi


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class ScrewParams:
    """Screw geometry parameters (SI units).

    barrel radius = screw_radius + screw_barrel_clearance; pitch_length 0
    means a pure 2D cross-section geometry.
    """

    screw_radius: float
    centerline_distance: float
    screw_screw_clearance: float = 0.0
    screw_barrel_clearance: float = 0.0
    pitch_length: float = 0.0
    flight_count: int = 2
    rotation_speed: float = 0.0  # rev/s, metadata only
    tip_fillet_radius: float | None = None  # None: 2% of the screw radius

    def __post_init__(self):
        if self.screw_radius <= 0 or self.centerline_distance <= 0:
            raise InvalidGeometryError("radius and centerline distance must be > 0")
        if self.screw_screw_clearance < 0 or self.screw_barrel_clearance < 0:
            raise InvalidGeometryError("clearances must be >= 0")
        if self.centerline_distance >= 2 * self.screw_radius:
            raise InvalidGeometryError(
                "screws do not intermesh: centerline distance must be below "
                "twice the screw radius")
        if self.flight_count < 1:
            raise InvalidGeometryError("flight_count must be >= 1")
        if self.tip_fillet_radius is not None and self.tip_fillet_radius < 0:
            raise InvalidGeometryError("tip fillet radius must be >= 0")

    @property
    def fillet_radius(self) -> float:
        if self.tip_fillet_radius is not None:
            return self.tip_fillet_radius
        return 0.02 * self.screw_radius

    @property
    def barrel_radius(self) -> float:
        return self.screw_radius + self.screw_barrel_clearance

    @property
    def left_center(self) -> np.ndarray:
        return np.array([-0.5 * self.centerline_distance, 0.0])

    @property
    def right_center(self) -> np.ndarray:
        return np.array([0.5 * self.centerline_distance, 0.0])


@dataclass(frozen=True)
class PointCloud:
    """Ordered planar point sequence."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
            raise InvalidGeometryError("point cloud needs at least 8 planar points")
        if np.linalg.norm(pts[0] - pts[-1]) < 1e-14 * max(1.0, np.abs(pts).max()):
            raise InvalidGeometryError("closed loops must not repeat a point")
        object.__setattr__(self, "points", pts)

    def rotated(self, theta: float, about=None) -> "PointCloud":
        about = np.zeros(2) if about is None else np.asarray(about, dtype=float)
        pts = (self.points - about) @ rotation(theta).T + about
        return PointCloud(pts)


@dataclass(frozen=True)
class CasingArc:
    """Retained barrel arc: CCW from start_angle to end_angle about center."""

    center: np.ndarray
    radius: float
    start_angle: float
    end_angle: float

    def point(self, angle: float) -> np.ndarray:
        return self.center + self.radius * np.array([math.cos(angle), math.sin(angle)])


@dataclass(frozen=True)
class CrossSection:
    """One planar cut: both rotor clouds, the casing arcs and cusp points."""

    angle: float
    params: ScrewParams
    left_rotor: PointCloud
    right_rotor: PointCloud
    casing_left: CasingArc
    casing_right: CasingArc
    cusp_points: np.ndarray  # (2, 2): upper, lower

    def validate(self):
        p = self.params
        rb = p.barrel_radius * (1 + 1e-9)
        for cloud in (self.left_rotor, self.right_rotor):
            dl = np.linalg.norm(cloud.points - p.left_center, axis=1)
            dr = np.linalg.norm(cloud.points - p.right_center, axis=1)
            if np.any(np.minimum(dl, dr) > rb):
                raise InvalidGeometryError(
                    "rotor points leave the casing bore",
                    max_excess=float(np.minimum(dl, dr).max() - p.barrel_radius))
        for cusp in self.cusp_points:
            for center in (p.left_center, p.right_center):
                r = np.linalg.norm(cusp - center)
                if abs(r - p.barrel_radius) > 1e-9 * p.barrel_radius:
                    raise InvalidGeometryError("cusp point off the casing circles")
        return self


# ---------------------------------------------------------------------------
# rotor arc construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Arc:
    center: np.ndarray
    radius: float
    a0: float
    a1: float  # sweep a0 -> a1, CCW along the rotor boundary

    @property
    def length(self) -> float:
        return abs(self.a1 - self.a0) * self.radius

    def sample(self, n: int, endpoint: bool = False) -> np.ndarray:
        t = np.linspace(self.a0, self.a1, n, endpoint=endpoint)
        return self.center + self.radius * np.column_stack([np.cos(t), np.sin(t)])


def _wrap_pi(a: float) -> float:
    return (a + math.pi) % TWO_PI - math.pi


def _circle_circle(c1, r1, c2, r2, near):
    """Intersection of two circles closest to ``near``."""
    c1, c2 = np.asarray(c1, float), np.asarray(c2, float)
    d = np.linalg.norm(c2 - c1)
    if d <= 1e-15 or d > r1 + r2 or d < abs(r1 - r2):
        raise InvalidGeometryError("clearance circles do not intersect")
    u = (c2 - c1) / d
    v = np.array([-u[1], u[0]])
    x = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    y2 = r1 * r1 - x * x
    y = math.sqrt(max(y2, 0.0))
    p_plus = c1 + x * u + y * v
    p_minus = c1 + x * u - y * v
    near = np.asarray(near, float)
    return p_plus if np.linalg.norm(p_plus - near) <= np.linalg.norm(p_minus - near) \
        else p_minus


def _arc_between(center, radius, p_from, p_to) -> _Arc:
    a0 = math.atan2(*(p_from - center)[::-1])
    a1 = math.atan2(*(p_to - center)[::-1])
    return _Arc(center, radius, a0, a0 + _wrap_pi(a1 - a0))


def rotor_arcs(params: ScrewParams) -> list[_Arc]:
    """Arcs of one rotor profile about its own axis at orientation 0, CCW.

    The zero-clearance self-wiping profile is built with tip radius
    R0 = R_s + delta_s/2 on the given centerline distance, then offset
    inward by delta_s/2.  Tips end up at exactly R_s (barrel gap delta_b),
    flank-flank and tip-root gaps equal delta_s.  Root/flank joints stay
    tangent under the uniform offset; the tip corners are radiused with a
    small fillet so the outline is tangent-continuous with bounded
    curvature (a zero fillet radius keeps the sharp wiping corners).
    """
    z = params.flight_count
    d = 0.5 * params.screw_screw_clearance
    r0 = params.screw_radius + d          # base (wiping) tip radius
    cl = params.centerline_distance
    ratio = cl / (2 * r0)
    if ratio >= 1.0:
        raise InvalidGeometryError("no flank contact: centerline too large")
    kappa = math.acos(ratio)
    alpha = math.pi / z - 2 * kappa
    if alpha <= 1e-9:
        raise InvalidGeometryError(
            f"tip angle nonpositive (alpha={alpha:.3e}); profile infeasible "
            f"for flight_count={z}")

    r_tip = params.screw_radius           # r0 - d
    r_root = cl - r0 - d
    if r_root <= 0:
        raise InvalidGeometryError("root radius nonpositive after clearances")
    rho_f = cl - d                        # offset flank radius
    r_f = params.fillet_radius
    origin = np.zeros(2)

    arcs = []
    for f in range(z):
        phi = TWO_PI * f / z
        # flank centers sit on the base tip circle, diametrally opposite the
        # root corners they wipe toward
        ca = r0 * np.array([math.cos(phi + math.pi / z - alpha / 2 - math.pi),
                            math.sin(phi + math.pi / z - alpha / 2 - math.pi)])
        cb = r0 * np.array([math.cos(phi + math.pi / z + alpha / 2 + math.pi),
                            math.sin(phi + math.pi / z + alpha / 2 + math.pi)])
        root_c0 = phi + math.pi / z - alpha / 2
        root_c1 = phi + math.pi / z + alpha / 2
        r1 = r_root * np.array([math.cos(root_c0), math.sin(root_c0)])
        r2 = r_root * np.array([math.cos(root_c1), math.sin(root_c1)])
        # trimmed tip corner where the offset flank meets the tip circle
        t_end = _circle_circle(origin, r_tip, ca, rho_f,
                               r_tip * np.array([math.cos(phi + alpha / 2),
                                                 math.sin(phi + alpha / 2)]))
        next_corner = _circle_circle(
            origin, r_tip, cb, rho_f,
            r_tip * np.array([math.cos(phi + TWO_PI / z - alpha / 2),
                              math.sin(phi + TWO_PI / z - alpha / 2)]))
        if r_f > 0:
            # fillet circle tangent to the tip circle and the offset flank
            # from inside the material (both tangencies internal)
            o_end = _circle_circle(origin, r_tip - r_f, ca, rho_f - r_f, t_end)
            tip_touch = o_end * (r_tip / (r_tip - r_f))
            flank_touch = ca + (o_end - ca) * (rho_f / (rho_f - r_f))
            o_nxt = _circle_circle(origin, r_tip - r_f, cb, rho_f - r_f,
                                   next_corner)
            nxt_tip_touch = o_nxt * (r_tip / (r_tip - r_f))
            nxt_flank_touch = cb + (o_nxt - cb) * (rho_f / (rho_f - r_f))
        else:
            o_end = o_nxt = None
            tip_touch, flank_touch = t_end, t_end
            nxt_tip_touch, nxt_flank_touch = next_corner, next_corner

        tip_end_ang = phi + _wrap_pi(math.atan2(tip_touch[1], tip_touch[0]) - phi)
        arcs.append(_Arc(origin, r_tip, 2 * phi - tip_end_ang, tip_end_ang))
        if o_end is not None:
            arcs.append(_arc_between(o_end, r_f, tip_touch, flank_touch))
        arcs.append(_arc_between(ca, rho_f, flank_touch, r1))
        arcs.append(_Arc(origin, r_root, root_c0, root_c1))
        arcs.append(_arc_between(cb, rho_f, r2, nxt_flank_touch))
        if o_nxt is not None:
            arcs.append(_arc_between(o_nxt, r_f, nxt_flank_touch, nxt_tip_touch))
    return arcs


def sample_rotor(params: ScrewParams, n_points: int) -> np.ndarray:
    """Closed CCW rotor outline at orientation 0 with ~equal arc-length
    spacing per arc and exact corner points, n_points total.

    Counts are assigned per flight identically so the sampled cloud keeps
    the 2 pi / flight_count rotational symmetry exactly.
    """
    z = params.flight_count
    if n_points % z:
        raise InvalidGeometryError(
            f"n_points must be divisible by flight_count={z} to keep the "
            "sampled outline rotationally symmetric")
    arcs = rotor_arcs(params)
    per_flight = n_points // z
    arcs_per_flight = len(arcs) // z
    lengths = np.array([a.length for a in arcs[:arcs_per_flight]])
    counts = np.maximum(2, np.round(per_flight * lengths / lengths.sum()).astype(int))
    counts[np.argmax(counts)] += per_flight - counts.sum()
    if counts.min() < 2:
        raise InvalidGeometryError("n_points too small for the arc layout")
    counts = np.tile(counts, z)
    return np.vstack([a.sample(c, endpoint=False) for a, c in zip(arcs, counts)])


@functools.lru_cache(maxsize=8)
def _rotor_outline(params: ScrewParams, n_points: int) -> np.ndarray:
    """Read-only ``sample_rotor`` outline, cached for the few geometries a
    session sweeps."""
    base = sample_rotor(params, n_points)
    base.flags.writeable = False
    return base


def cusp_points(params: ScrewParams) -> np.ndarray:
    """Intersections of the two casing circles: (upper, lower), x = 0."""
    rb = params.barrel_radius
    half = 0.5 * params.centerline_distance
    if rb <= half:
        raise InvalidGeometryError("casing circles do not intersect")
    y = math.sqrt(rb * rb - half * half)
    return np.array([[0.0, y], [0.0, -y]])


def casing_arcs(params: ScrewParams):
    """Retained (outside the intermeshing lens) barrel arcs, CCW."""
    cusps = cusp_points(params)
    beta = math.atan2(cusps[0, 1], 0.5 * params.centerline_distance)
    left = CasingArc(params.left_center, params.barrel_radius,
                     beta, TWO_PI - beta)
    right = CasingArc(params.right_center, params.barrel_radius,
                      math.pi + beta, 3 * math.pi - beta)
    return left, right


def booy_profile(params: ScrewParams, theta: float, n_points: int = 256) -> CrossSection:
    """Cross section at rotation angle theta.

    Both rotors are sampled with ``n_points``; point k of the cloud is the
    same material point at every angle (the base outline rotated), so chord
    parameters are angle-invariant.  The right rotor leads the left one by
    pi/flight_count about its own axis (co-rotating kinematics).
    """
    if n_points < 64:
        raise InvalidGeometryError("n_points must be >= 64")
    base = _rotor_outline(params, n_points)
    phase = math.pi / params.flight_count
    left = PointCloud(base @ rotation(theta).T + params.left_center)
    right = PointCloud(base @ rotation(theta + phase).T + params.right_center)
    cl_arc, cr_arc = casing_arcs(params)
    section = CrossSection(theta, params, left, right, cl_arc, cr_arc,
                           cusp_points(params))
    return section.validate()


# ---------------------------------------------------------------------------
# point-cloud files
# ---------------------------------------------------------------------------

PROFILE_HEADER = "screwgen-profile v1"


def load_profile(path, params: ScrewParams) -> CrossSection:
    """First section of a profile point-cloud file; every section is parsed
    and validated.

    Format: header line ``screwgen-profile v1``; ``section θ=<radians>``
    blocks; ``L x y`` / ``R x y`` point lines (meters) in boundary order;
    ``#`` comments.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [ln.strip() for ln in lines]
    body = [ln for ln in body if ln and not ln.startswith("#")]
    if not body or body[0] != PROFILE_HEADER:
        raise ProfileParseError(f"missing '{PROFILE_HEADER}' header in {path}")

    sections = []
    current = None

    def close(cur):
        if cur is None:
            return
        theta, left, right = cur
        if len(left) < 8 or len(right) < 8:
            raise ProfileParseError("each rotor needs at least 8 points")
        cl_arc, cr_arc = casing_arcs(params)
        section = CrossSection(theta, params, PointCloud(np.array(left)),
                               PointCloud(np.array(right)), cl_arc, cr_arc,
                               cusp_points(params))
        sections.append(section.validate())

    for ln in body[1:]:
        if ln.startswith("section"):
            close(current)
            rest = ln[len("section"):].strip()
            for prefix in ("θ=", "theta="):
                if rest.startswith(prefix):
                    try:
                        theta = float(rest[len(prefix):])
                    except ValueError as exc:
                        raise ProfileParseError(f"bad section angle: {ln!r}") from exc
                    break
            else:
                raise ProfileParseError(f"bad section line: {ln!r}")
            current = (theta, [], [])
            continue
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("L", "R"):
            raise ProfileParseError(f"bad point line: {ln!r}")
        if current is None:
            raise ProfileParseError("point line before any section")
        try:
            xy = [float(parts[1]), float(parts[2])]
        except ValueError as exc:
            raise ProfileParseError(f"bad coordinates: {ln!r}") from exc
        current[1 if parts[0] == "L" else 2].append(xy)
    close(current)
    if not sections:
        raise ProfileParseError(f"no sections in {path}")
    return sections[0]


def save_profile(path, section: CrossSection):
    """Write a cross section in the documented point-cloud format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PROFILE_HEADER + "\n")
        fh.write(f"section θ={float(section.angle)!r}\n")
        for tag, cloud in (("L", section.left_rotor), ("R", section.right_rotor)):
            for x, y in cloud.points:
                fh.write(f"{tag} {float(x)!r} {float(y)!r}\n")
