"""Independent checks and quality figures for a returned ``PatchSet``.

The pipeline checks its separator for folds on a 40 x 40 lattice; the
benchmark re-checks every returned set on a finer lattice, together with
the control map and the patch interfaces, before counting it as verified.
"""

from __future__ import annotations

import numpy as np

from screwgen.control_map import (check_composite_folding, identity_control,
                                  orthogonality_cost)
from screwgen.profiles import cusp_points

FOLD_LATTICE = 200
QUALITY_LATTICE = 200
EDGE_SAMPLES = 201
# interface tolerance relative to the separator control net's bbox diagonal
INTERFACE_RTOL = 1e-7


def _segment_distance(points, a, b):
    """Distance from each point to the nearest of the segments a[k]-b[k]."""
    d = b - a
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("psd,sd->ps", rel, d)
                / np.maximum(np.einsum("sd,sd->s", d, d), 1e-300), 0.0, 1.0)
    foot = a[None, :, :] + t[..., None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - foot, axis=2).min(axis=1)


def interfaces_ok(patch_set, params) -> bool:
    """The separator's corners and cut edges coincide with the C-grid cut
    edges, and the cusps lie on both.

    The C-grid cut edges are the xi = 0 and xi = 1 sides of both C-grids,
    each running from a rotor point (eta = 0) to a cusp (eta = 1).  The
    separator's south and north sides (eta = 0, 1) must lie on those edges,
    its four corners must be the edges' rotor ends, and each cusp must be
    an edge's casing end and lie on the separator's boundary.
    """
    sep = patch_set.separator.map
    t = np.linspace(0.0, 1.0, EDGE_SAMPLES)
    edges = []
    for c_grid in (patch_set.left_c.map, patch_set.right_c.map):
        for xi in (0.0, 1.0):
            edges.append(c_grid.evaluate(np.full_like(t, xi), t))
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    sep_sides = [sep.evaluate(t, np.full_like(t, eta)) for eta in (0.0, 1.0)]
    tol = INTERFACE_RTOL * np.linalg.norm(
        np.ptp(sep.control_points.reshape(-1, 2), axis=0))

    on_edges = max(_segment_distance(side, a, b).max() for side in sep_sides)
    rotor_ends = np.array([e[0] for e in edges])
    casing_ends = np.array([e[-1] for e in edges])
    corners = np.array([sep_sides[0][0], sep_sides[0][-1],
                        sep_sides[1][0], sep_sides[1][-1]])
    corner_gap = np.linalg.norm(corners[:, None] - rotor_ends[None], axis=2)
    corners_matched = (corner_gap.min(axis=1).max() <= tol
                       and len(set(corner_gap.argmin(axis=1))) == 4)
    cusps = cusp_points(params)
    cusp_on_cgrid = np.linalg.norm(cusps[:, None] - casing_ends[None],
                                   axis=2).min(axis=1).max()
    sep_a = np.concatenate([s[:-1] for s in sep_sides])
    sep_b = np.concatenate([s[1:] for s in sep_sides])
    cusp_on_sep = _segment_distance(cusps, sep_a, sep_b).max()
    return bool(on_edges <= tol and corners_matched
                and cusp_on_cgrid <= tol and cusp_on_sep <= tol)


def verify(patch_set, params) -> str | None:
    """Name of the first failed check, or None when the set is verified."""
    if check_composite_folding(patch_set.separator.map, patch_set.control,
                               FOLD_LATTICE):
        return "fold"
    if not patch_set.control.feasible():
        return "control"
    if not interfaces_ok(patch_set, params):
        return "interface"
    return None


def ortho_ratio(patch_set) -> float:
    """Orthogonality cost with the returned control map over the cost with
    the identity control map (1.0 when control maps are off)."""
    x, control = patch_set.separator.map, patch_set.control
    base = orthogonality_cost(x, identity_control(control.basis, control.margin))
    return orthogonality_cost(x, control) / base


def min_scaled_jacobian(patch_set, n: int = QUALITY_LATTICE) -> float:
    """Minimum scaled Jacobian of x o s over the centres of an n x n lattice.

    With s(mu, nu) = (mu, sigma): d/dmu = x_xi + sigma_mu x_eta and
    d/dnu = sigma_nu x_eta, so det = det(J_x) sigma_nu.
    """
    x, control = patch_set.separator.map, patch_set.control
    c = (np.arange(n) + 0.5) / n
    sig = np.clip(control.sigma_grid(c, c), 0.0, 1.0).ravel()
    sig_mu = control.sigma_grid(c, c, 1, 0).ravel()
    sig_nu = control.sigma_grid(c, c, 0, 1).ravel()
    mu = np.repeat(c, n)
    x_xi = x.evaluate(mu, sig, 1, 0)
    x_eta = x.evaluate(mu, sig, 0, 1)
    t_mu = x_xi + sig_mu[:, None] * x_eta
    t_nu = sig_nu[:, None] * x_eta
    det = (x_xi[:, 0] * x_eta[:, 1] - x_xi[:, 1] * x_eta[:, 0]) * sig_nu
    norms = np.linalg.norm(t_mu, axis=1) * np.linalg.norm(t_nu, axis=1)
    return float((det / norms).min())
