"""Bright-eigenvalue secular equation, mode spectrum, scaling laws.

Because the removal projector is rank one, the non-unimodular spectrum
of F is fixed by very little data: the distinct eigenphase angles
theta_l of U(tau) and the removal weights p_l they carry.  The bright
eigenvalues solve

    sum_l p_l / (exp(-i theta_l) - zeta) = 0,

which has w - 1 roots for w charged phases.  They are the eigenvalues
of diag(z) compressed onto the complement of rho = sqrt(p), a
(w-1) x (w-1) matrix.  Read as 2D electrostatics, charges p_l sit on
the unit circle and the bright eigenvalues are the force-equilibrium
points, which places them inside the convex hull of the charge
positions.

The one record of that data is filtration.PhaseGroups: its charge view
lists every group by charge angle with its weight, and the charges are
the groups the removal reaches; every other group is fully dark.  So
the dark phases, the w - 1 roots and the removal's one zero number dim
by construction.  The dominant bright modulus sets the filtration time;
the closed-form asymptotics of the two targets are here.
"""

from __future__ import annotations

import math

import numpy as np

from darkfilter.errors import NumericsError, ValidationError
from darkfilter.filtration import degeneracy_groups

# A secular root zeta is accepted when its first-order error |f / f'|,
# f the force sum_l p_l / (z_l - zeta), is at most ROOT_RESIDUAL_TOL and
# it lies within HULL_SLACK of the charge hull.  |f| alone cannot
# certify a root next to a pole, where f' is large.
ROOT_RESIDUAL_TOL = 1e-8
HULL_SLACK = 1e-10

# Bright moduli closer than this are ordered by angle.
TIE_MODULUS = 1e-12


def mode_spectrum(setup):
    """Every eigenvalue of F, from one grouping of the phases of U(tau).

    The dark phases, the w - 1 secular roots and the one zero of the
    rank-one removal number dim by construction: the w charges are the
    reached groups, each hosting g - 1 dark phases, and every other
    group hosts g.  Returns the dark phases, the PhaseGroups and the
    roots of bright_secular_roots.
    """
    groups = degeneracy_groups(setup)
    dark = np.repeat(groups.phases, groups.dark_counts)
    on = groups.charge_reached
    return dark, groups, bright_secular_roots(groups.charge_angles[on],
                                              groups.charge_weights[on])


def convex_hull_violation(points, vertices, slack=0.0):
    """How far complex points sit outside the hull of complex vertices.

    Returns 0.0 for containment (within slack), one value per point.
    Vertices on the unit circle are hull vertices in angular order, so
    the polygon test is an edge-by-edge cross product; one and two
    vertices degenerate to a point and a segment.
    """
    points = np.asarray(points, dtype=complex)
    verts = np.asarray(vertices, dtype=complex)
    if verts.size == 0:
        raise ValidationError("hull needs at least one vertex")
    if verts.size == 1:
        return np.maximum(0.0, np.abs(points - verts[0]) - slack)
    if verts.size == 2:
        a, b = verts
        seg = b - a
        t = np.clip(((points - a) * np.conj(seg)).real / abs(seg) ** 2,
                    0.0, 1.0)
        return np.maximum(0.0, np.abs(points - (a + t * seg)) - slack)
    verts = verts[np.argsort(np.angle(verts))]
    edges = np.roll(verts, -1) - verts
    # positive cross product = point on the interior (left) side
    cross = (np.conj(edges) * (points[..., None] - verts)).imag
    worst = np.max(-cross / np.maximum(np.abs(edges), 1e-300), axis=-1)
    return np.maximum(0.0, worst - slack)


def bright_secular_roots(angles, weights):
    """Solve the secular equation for all bright eigenvalues.

    The charges sit at exp(-i angles) with the removal weights weights.
    A rank-one update of a unitary has its nonzero eigenvalues equal to
    those of diag(z) compressed onto the complement of rho = sqrt(p)
    (Golub, SIAM Rev. 15, 318, 1973).  The Householder reflection H
    that maps rho to e_0 makes that compression (H Z H)[1:, 1:], whose
    eigenvalues are the w - 1 roots.  Each root is then verified by its
    first-order error |f / f'| for f(zeta) = sum_l p_l / (z_l - zeta)
    and by hull containment; a root on a pole has no such error and is
    refused.  Returns the roots by descending modulus, with moduli
    within TIE_MODULUS of their neighbour tied and ordered by ascending
    angle in [0, 2pi): the dominant root is the first.
    """
    angles = np.asarray(angles, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if angles.ndim != 1 or angles.shape != weights.shape:
        raise ValidationError("charge angles and weights must align")
    if angles.size == 0:
        raise ValidationError("the secular equation needs a charge")
    if np.any(weights < 0.0):
        raise ValidationError("negative charge weight")
    w = angles.size
    poles = np.exp(-1j * angles)
    # v = rho + e_0 has no cancellation, and H rho = -e_0
    v = np.sqrt(weights)
    v[0] += 1.0
    house = np.eye(w) - 2.0 * np.outer(v, v) / (v @ v)
    roots = np.linalg.eigvals(((house * poles) @ house)[1:, 1:])
    if roots.shape[0] != w - 1:
        raise NumericsError(
            f"expected {w - 1} bright roots, found {roots.shape[0]}"
        )
    gap = poles - roots[:, None]
    if not np.all(gap):
        k, l = np.argwhere(gap == 0.0)[0]
        raise NumericsError(
            f"secular root {roots[k]} lies on the pole at angle "
            f"{angles[l]:.17g} of weight {weights[l]:.3e}"
        )
    inv = 1.0 / gap
    error = np.abs((inv @ weights) / (inv**2 @ weights))
    ok = error <= ROOT_RESIDUAL_TOL
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise NumericsError(
            f"secular root {roots[k]} violates force balance (first-order "
            f"error {error[k]:.3e})"
        )
    excess = convex_hull_violation(roots, poles, HULL_SLACK)
    if np.any(excess > 0.0):
        k = int(np.argmax(excess))
        raise NumericsError(
            f"secular root {roots[k]} lies {excess[k]:.3e} outside the "
            "charge hull"
        )
    roots = roots[np.argsort(-np.abs(roots), kind="stable")]
    # the order of near-tied moduli is rounding noise; resolve it by
    # angle within each run of gaps below TIE_MODULUS
    group = np.cumsum(-np.diff(np.abs(roots), prepend=np.inf) > TIE_MODULUS)
    return roots[np.lexsort((np.angle(roots) % (2.0 * math.pi), group))]


def scaling_predictions(L, theta0, eps, variant):
    """Closed-form filtration-time estimates for the two protocol targets.

    Variants: "tar1-general" for arbitrary angle, "tar1-orthogonal" at
    the special angle where the initial state loses its overlap with the
    odd cat combination, "tar2" for the rotating two-component target.
    Leading-order asymptotics; simulation is the ground truth they are
    compared against.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    if L < 2:
        raise ValidationError("L must be at least 2")
    sign = (-1.0) ** L
    if variant == "tar1-general":
        top = 1.0 + sign * math.cos(L * theta0)
        bottom = 1.0 - sign * math.cos(L * theta0)
        if abs(top) < 1e-9:
            raise ValidationError(
                "orthogonality angle: the general estimate degenerates, "
                "use variant 'tar1-orthogonal'"
            )
        value = 2.0**L / 8.0 * math.log(top / bottom / eps)
    elif variant == "tar1-orthogonal":
        value = 2.0**L / (4.0 * L) * math.log(L / eps)
    elif variant == "tar2":
        denom = 1.0 + sign * math.cos((L - 1) * theta0)
        if abs(denom) < 1e-9:
            raise ValidationError(
                "theta0 sits at a pole of the tar2 estimate (no dark overlap)"
            )
        num = 1.0 + L**2 - 2.0 * sign * L * math.cos((L - 1) * theta0)
        value = 2.0**L / (4.0 * (L + 1.0)) * math.log(
            num / (2.0 * L * denom) / eps
        )
    else:
        raise ValidationError(f"unknown scaling variant {variant!r}")
    return max(0.0, value)
