"""Bright-eigenvalue secular equation, charge picture, scaling laws.

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

The dominant bright modulus sets the filtration time; the closed-form
asymptotics for the protocol's two targets are evaluated here.
"""

from __future__ import annotations

import math

import numpy as np

# PHASE_TOL is read from the module at call time, so a patched value
# reaches the charge picture as well
from darkfilter import filtration
from darkfilter.errors import NumericsError, ValidationError

# Weights below this are structural zeros of the removal decomposition:
# the group hosts dark directions only and exerts no force.
ZERO_WEIGHT = 1e-14

# A secular root zeta is accepted when its first-order error |f / f'|,
# f the force sum_l p_l / (z_l - zeta), is at most ROOT_RESIDUAL_TOL and
# it lies within HULL_SLACK of the charge hull.  |f| alone cannot
# certify a root next to a pole, where f' is large.
ROOT_RESIDUAL_TOL = 1e-8
HULL_SLACK = 1e-10

# Bright moduli closer than this are ordered by angle.
TIE_MODULUS = 1e-12


class ChargePicture:
    """Unit-circle charges of the bright secular equation.

    angles holds theta_l = E_l tau mod 2pi per degenerate group (charge
    position exp(-i theta_l)); weights the summed removal overlaps p_l.
    Zero-weight groups are retained for dark accounting but do not count
    toward w.
    """

    def __init__(self, angles, weights):
        self.angles = np.asarray(angles, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.angles.shape != self.weights.shape:
            raise ValidationError("angles and weights must align")
        if float(np.min(self.weights, initial=0.0)) < -1e-12:
            raise NumericsError("negative removal weight")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > 1e-10:
            raise NumericsError(f"removal weights sum to {total}, not 1")

    @property
    def w(self):
        """Number of charged (weight-carrying) phases."""
        return int(np.count_nonzero(self.weights > ZERO_WEIGHT))

    @property
    def charged(self):
        keep = self.weights > ZERO_WEIGHT
        return self.angles[keep], self.weights[keep]


def charge_picture(setup):
    """Cluster the engine's eigenphases and sum removal weight per group."""
    if not isinstance(setup, filtration.FiltrationSetup):
        raise ValidationError("charge_picture expects a FiltrationSetup")
    phase_angles = np.angle(setup.phases)
    weight = np.abs(setup.removal_eig) ** 2
    angles = []
    weights = []
    order, starts, _ = filtration._cluster_angles(phase_angles,
                                                  filtration.PHASE_TOL)
    for members in np.split(order, starts[1:]):
        rep = phase_angles[members[0]]
        angles.append((-rep) % (2.0 * math.pi))
        weights.append(float(np.sum(weight[members])))
    order = np.argsort(angles, kind="stable")
    return ChargePicture(np.asarray(angles)[order], np.asarray(weights)[order])


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


class BrightSpectrum:
    """Bright eigenvalues with their dominant member.

    Roots are sorted by descending modulus; moduli within TIE_MODULUS
    of their neighbour are tied and sorted by ascending angle in
    [0, 2pi).  dominant is the first root, None when there are none.
    """

    def __init__(self, roots, dominant):
        self.roots = roots
        self.dominant = dominant

    @property
    def count(self):
        return self.roots.shape[0]

    @classmethod
    def from_roots(cls, roots):
        roots = np.asarray(roots, dtype=complex)
        roots = roots[np.argsort(-np.abs(roots), kind="stable")]
        if roots.size == 0:
            return cls(roots, None)
        # the order of near-tied moduli is rounding noise; resolve it
        # by angle within each run of gaps below TIE_MODULUS
        group = np.concatenate([[0], np.cumsum(
            -np.diff(np.abs(roots)) > TIE_MODULUS)])
        roots = roots[np.lexsort((np.angle(roots) % (2.0 * math.pi), group))]
        return cls(roots, complex(roots[0]))


def bright_secular_roots(cp):
    """Solve the secular equation for all bright eigenvalues.

    A rank-one update of a unitary has its nonzero eigenvalues equal to
    those of diag(z) compressed onto the complement of rho = sqrt(p)
    (Golub, SIAM Rev. 15, 318, 1973).  The Householder reflection H
    that maps rho to e_0 makes that compression (H Z H)[1:, 1:], whose
    eigenvalues are the w - 1 roots.  Each root is then verified by its
    first-order error |f / f'| for f(zeta) = sum_l p_l / (z_l - zeta)
    and by hull containment.
    """
    angles, weights = cp.charged
    w = angles.size
    if w == 0:
        raise ValidationError("charge picture carries no weight")
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
    inv = 1.0 / (poles - roots[:, None])
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
    return BrightSpectrum.from_roots(roots)


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
