"""Twin-screw cross-section geometry.

``ScrewParams`` fixes the whole barrel: the two bore circles of radius
``barrel_radius`` about the rotor axes, which meet at ``cusp_points``.  A
``CrossSection`` carries only what varies with the rotation angle, the two
rotor point clouds, and checks on construction that they lie inside the
bore, and ``section(theta)`` turns them to any other angle.  Sections
come from two places: ``booy_profile`` generates the classical
self-wiping rotor profile, one flight of circular tip, root and kinematic
flank arcs with the clearances applied as an inward normal offset, turned
into the others, at any angle; ``load_profile`` reads arbitrary (e.g.
mixing element) rotor clouds from a plain-text point-cloud file.
``pitch_length`` is carried for a 3D sweep of stacked sections, in which
the section at axial position z would be the one at rotation angle
theta + 2 pi z / pitch_length; no code reads it yet.  Non-finite
parameters, coordinates and angles are rejected where they enter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError, ProfileParseError
from .splines import bounding_box_diagonal

TWO_PI = 2.0 * math.pi


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def turned(points, theta: float, about) -> np.ndarray:
    """The (m, 2) points turned by theta about the point ``about``."""
    about = np.asarray(about, dtype=float)
    return (points - about) @ rotation(theta).T + about


@dataclass(frozen=True)
class ScrewParams:
    """Screw geometry parameters (SI units).

    barrel radius = screw_radius + screw_barrel_clearance.  The
    clearances have no default: 0.0 builds a profile, but
    ``PipelineContext`` meshes only positive ones.  flight_count is an
    integer >= 1.  pitch_length >= 0 (0 for a pure 2D geometry) is carried
    for a 3D sweep of stacked sections; no code reads it yet.  A value out
    of range raises InvalidGeometryError with its ``field`` and ``value``.
    """

    screw_radius: float
    centerline_distance: float
    screw_screw_clearance: float
    screw_barrel_clearance: float
    pitch_length: float = 0.0
    flight_count: int = 2
    tip_fillet_radius: float | None = None  # None: 2% of the screw radius

    def __post_init__(self):
        for name in ("screw_radius", "centerline_distance",
                     "screw_screw_clearance", "screw_barrel_clearance",
                     "pitch_length", "tip_fillet_radius"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidGeometryError(f"{name} must be finite",
                                           field=name, value=value)
        r, cl = self.screw_radius, self.centerline_distance
        z, fillet = self.flight_count, self.tip_fillet_radius
        for name, ok, rule in (
                ("screw_radius", r > 0, "> 0"),
                ("centerline_distance", cl > 0, "> 0"),
                ("screw_screw_clearance", self.screw_screw_clearance >= 0, ">= 0"),
                ("screw_barrel_clearance", self.screw_barrel_clearance >= 0, ">= 0"),
                ("centerline_distance", cl < 2 * r,
                 "below 2 screw_radius to intermesh"),
                ("flight_count", isinstance(z, numbers.Integral) and z >= 1,
                 "an integer >= 1"),
                ("pitch_length", self.pitch_length >= 0, ">= 0"),
                ("tip_fillet_radius", fillet is None or fillet >= 0, ">= 0")):
            if not ok:
                raise InvalidGeometryError(f"{name} must be {rule}", field=name,
                                           value=getattr(self, name))

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


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered planar point sequence."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
            raise InvalidGeometryError("point cloud needs at least 8 planar points",
                                       shape=pts.shape)
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise InvalidGeometryError("point cloud has non-finite coordinates",
                                       index=int(np.argmin(finite)))
        gap = np.linalg.norm(pts[0] - pts[-1])
        if gap <= 1e-14 * bounding_box_diagonal(pts):
            raise InvalidGeometryError("closed loops must not repeat a point",
                                       gap=float(gap))
        object.__setattr__(self, "points", pts)

    def rotated(self, theta: float, about) -> "PointCloud":
        return PointCloud(turned(self.points, theta, about))


@dataclass(frozen=True)
class CrossSection:
    """One planar cut: both rotor clouds at rotation angle ``angle``.  The
    barrel is the two bore circles of ``params`` (``cusp_points`` gives
    their intersections); every rotor point must lie inside it."""

    angle: float
    params: ScrewParams
    left_rotor: PointCloud
    right_rotor: PointCloud

    def __post_init__(self):
        p = self.params
        for cloud in (self.left_rotor, self.right_rotor):
            dist = np.minimum(
                np.linalg.norm(cloud.points - p.left_center, axis=1),
                np.linalg.norm(cloud.points - p.right_center, axis=1))
            if np.any(dist > p.barrel_radius * (1 + 1e-9)):
                raise InvalidGeometryError(
                    "rotor points leave the casing bore",
                    max_excess=float(dist.max() - p.barrel_radius))

    def section(self, theta: float) -> "CrossSection":
        """This section at rotation angle theta: both clouds turned about
        their own axes by theta - angle (co-rotating kinematics)."""
        delta, p = theta - self.angle, self.params
        return CrossSection(theta, p,
                            self.left_rotor.rotated(delta, p.left_center),
                            self.right_rotor.rotated(delta, p.right_center))


# ---------------------------------------------------------------------------
# rotor arc construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Arc:
    center: np.ndarray
    radius: float
    a0: float
    a1: float  # sweep a0 -> a1, CCW along the rotor boundary

    @property
    def length(self) -> float:
        return abs(self.a1 - self.a0) * self.radius

    def sample(self, n: int) -> np.ndarray:
        """n points from a0 on, the end point left to the next arc."""
        t = np.linspace(self.a0, self.a1, n, endpoint=False)
        return self.center + self.radius * np.column_stack([np.cos(t), np.sin(t)])

    def mirrored(self, beta: float) -> "_Arc":
        """The arc reflected in the line through the origin at angle beta,
        run from the image of a1 to that of a0 so that the rotor boundary
        stays CCW."""
        c, s = math.cos(2 * beta), math.sin(2 * beta)
        center = np.array([[c, s], [s, -c]]) @ self.center
        return _Arc(center, self.radius, 2 * beta - self.a1, 2 * beta - self.a0)


def _wrap_pi(a: float) -> float:
    return (a + math.pi) % TWO_PI - math.pi


def _circle_circle(c1, r1, c2, r2, near):
    """Intersection of two circles closest to ``near``."""
    c1, c2 = np.asarray(c1, float), np.asarray(c2, float)
    d = np.linalg.norm(c2 - c1)
    if d <= 1e-15 or d > r1 + r2 or d < abs(r1 - r2):
        raise InvalidGeometryError("clearance circles do not intersect",
                                   center_distance=float(d), r1=r1, r2=r2)
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
    """Arcs of one flight of the rotor profile about its own axis at
    orientation 0, CCW: the tip arc about angle 0, the fillet and flank
    down to the root arc about pi/z, then the flank and fillet up to the
    next tip.  The flight is symmetric about its root's center line, so the
    second flank and fillet are the first ones mirrored in it; the other
    z - 1 flights are this one turned by 2 pi k / z (Booy).

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
    # cl < 2 R <= 2 r0 (ScrewParams), so the flanks always touch
    kappa = math.acos(cl / (2 * r0))
    alpha = math.pi / z - 2 * kappa
    if alpha <= 1e-9:
        raise InvalidGeometryError(
            f"tip angle nonpositive (alpha={alpha:.3e}); profile infeasible "
            f"for flight_count={z}", alpha=alpha, flight_count=z)

    r_tip = params.screw_radius           # r0 - d
    r_root = cl - r0 - d
    if r_root <= 0:
        raise InvalidGeometryError("root radius nonpositive after clearances",
                                   r_root=r_root)
    rho_f = cl - d                        # offset flank radius
    r_f = params.fillet_radius
    origin = np.zeros(2)
    beta = math.pi / z                    # the root's center line

    # the flank center sits on the base tip circle, diametrally opposite
    # the root corner it wipes toward
    ca = r0 * np.array([math.cos(beta - alpha / 2 - math.pi),
                        math.sin(beta - alpha / 2 - math.pi)])
    r1 = r_root * np.array([math.cos(beta - alpha / 2),
                            math.sin(beta - alpha / 2)])
    # trimmed tip corner where the offset flank meets the tip circle
    t_end = _circle_circle(origin, r_tip, ca, rho_f,
                           r_tip * np.array([math.cos(alpha / 2),
                                             math.sin(alpha / 2)]))
    down = []
    if r_f > 0:
        # fillet circle tangent to the tip circle and the offset flank
        # from inside the material (both tangencies internal)
        o_end = _circle_circle(origin, r_tip - r_f, ca, rho_f - r_f, t_end)
        tip_touch = o_end * (r_tip / (r_tip - r_f))
        flank_touch = ca + (o_end - ca) * (rho_f / (rho_f - r_f))
        down.append(_arc_between(o_end, r_f, tip_touch, flank_touch))
    else:
        tip_touch = flank_touch = t_end
    down.append(_arc_between(ca, rho_f, flank_touch, r1))

    tip_end_ang = math.atan2(tip_touch[1], tip_touch[0])
    return [_Arc(origin, r_tip, -tip_end_ang, tip_end_ang), *down,
            _Arc(origin, r_root, beta - alpha / 2, beta + alpha / 2),
            *(arc.mirrored(beta) for arc in reversed(down))]


def sample_rotor(params: ScrewParams, n_points: int) -> np.ndarray:
    """Closed CCW rotor outline at orientation 0, n_points total: one
    flight sampled with ~equal arc-length spacing per arc and exact corner
    points, then turned by 2 pi k / flight_count into each of the others, so
    the cloud keeps the rotational symmetry exactly.
    """
    z = params.flight_count
    if n_points % z:
        raise InvalidGeometryError(
            f"n_points must be divisible by flight_count={z} to keep the "
            "sampled outline rotationally symmetric",
            n_points=n_points, flight_count=z)
    arcs = rotor_arcs(params)
    per_flight = n_points // z
    lengths = np.array([a.length for a in arcs])
    counts = np.maximum(2, np.round(per_flight * lengths / lengths.sum()).astype(int))
    counts[np.argmax(counts)] += per_flight - counts.sum()
    if counts.min() < 2:
        raise InvalidGeometryError("n_points too small for the arc layout",
                                   n_points=n_points, flight_count=z)
    flight = np.vstack([a.sample(c) for a, c in zip(arcs, counts)])
    return np.vstack([flight @ rotation(TWO_PI * k / z).T for k in range(z)])


def cusp_points(params: ScrewParams) -> np.ndarray:
    """Intersections of the two casing circles: (upper, lower), x = 0.
    They always meet: barrel_radius >= R > centerline_distance / 2."""
    rb = params.barrel_radius
    half = 0.5 * params.centerline_distance
    y = math.sqrt(rb * rb - half * half)
    return np.array([[0.0, y], [0.0, -y]])


def booy_profile(params: ScrewParams, theta: float, n_points: int) -> CrossSection:
    """Cross section at rotation angle theta.

    Both rotors are the ``sample_rotor`` outline of ``n_points``, sampled
    on every call and rotated into place; point k of the cloud is the same
    material point at every angle, so chord parameters are
    angle-invariant.  The right rotor is turned by
    (pi + pi/z) mod (2 pi/z) about its own axis against the left one, for
    z = flight_count (co-rotating kinematics): a root, at pi/z from a tip,
    then faces the left rotor's tip, which faces the right rotor at
    theta = 0.  The phase is pi/z for even z and 0 for odd z.
    """
    if n_points < 64:
        raise InvalidGeometryError("n_points must be >= 64", n_points=n_points)
    base = sample_rotor(params, n_points)
    z = params.flight_count
    phase = math.pi / z if z % 2 == 0 else 0.0
    left = PointCloud(base @ rotation(theta).T + params.left_center)
    right = PointCloud(base @ rotation(theta + phase).T + params.right_center)
    return CrossSection(theta, params, left, right)


# ---------------------------------------------------------------------------
# point-cloud files
# ---------------------------------------------------------------------------

PROFILE_HEADER = "screwgen-profile v1"


def load_profile(path, params: ScrewParams) -> CrossSection:
    """The section of a profile point-cloud file.

    Format: header line ``screwgen-profile v1``; one ``section θ=<radians>``
    line; ``L x y`` / ``R x y`` point lines (meters) in boundary order;
    ``#`` comments.  Angles and coordinates must be finite numbers, and a
    second ``section`` line raises.  Every ProfileParseError carries the
    ``path`` and the 1-based ``line`` at fault, and an InvalidGeometryError
    of the rotor clouds (``PointCloud``, ``CrossSection``) the ``path``.
    The barrel is not part of the file: it is the one of ``params``.
    """
    def fail(message: str, line: int) -> ProfileParseError:
        return ProfileParseError(f"{path}:{line}: {message}",
                                 path=str(path), line=line)

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise fail("not UTF-8 text", raw.count(b"\n", 0, exc.start) + 1) from exc
    body = [(n, ln.strip()) for n, ln in enumerate(lines, 1)]
    body = [(n, ln) for n, ln in body if ln and not ln.startswith("#")]
    if not body or body[0][1] != PROFILE_HEADER:
        raise fail(f"missing '{PROFILE_HEADER}' header",
                   body[0][0] if body else 1)

    theta, start, points = None, None, {"L": [], "R": []}
    for n, ln in body[1:]:
        if ln.startswith("section"):
            if theta is not None:
                raise fail(f"a second section (the first is on line {start})",
                           n)
            rest = ln[len("section"):].strip()
            prefix = next((pre for pre in ("θ=", "theta=")
                           if rest.startswith(pre)), None)
            if prefix is None:
                raise fail(f"bad section line: {ln!r}", n)
            try:
                theta = float(rest[len(prefix):])
            except ValueError as exc:
                raise fail(f"bad section angle: {ln!r}", n) from exc
            if not math.isfinite(theta):
                raise fail(f"non-finite section angle: {ln!r}", n)
            start = n
            continue
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in points:
            raise fail(f"bad point line: {ln!r}", n)
        if theta is None:
            raise fail("point line before the section line", n)
        try:
            xy = [float(parts[1]), float(parts[2])]
        except ValueError as exc:
            raise fail(f"bad coordinates: {ln!r}", n) from exc
        if not all(map(math.isfinite, xy)):
            raise fail(f"non-finite coordinates: {ln!r}", n)
        points[parts[0]].append(xy)
    if theta is None:
        raise fail("no section line after the header", body[0][0])
    if min(map(len, points.values())) < 8:
        raise fail("each rotor needs at least 8 points", start)
    try:
        return CrossSection(theta, params, PointCloud(np.array(points["L"])),
                            PointCloud(np.array(points["R"])))
    except InvalidGeometryError as exc:
        exc.details.setdefault("path", str(path))
        raise


def save_profile(path, section: CrossSection):
    """Write a cross section in the documented point-cloud format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PROFILE_HEADER + "\n")
        fh.write(f"section θ={float(section.angle)!r}\n")
        for tag, cloud in (("L", section.left_rotor), ("R", section.right_rotor)):
            for x, y in cloud.points:
                fh.write(f"{tag} {float(x)!r} {float(y)!r}\n")
