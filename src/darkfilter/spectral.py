"""The spectrum of F: phase groups, dark states, bright roots, jump-ahead.

Because the removal projector is rank one, the spectrum of F is fixed
by very little data: the eigenphases of U(tau) clustered into degenerate
groups (degeneracy_groups, one PhaseGroups per analysis) and the removal
weight p_l each group carries.  A group the removal reaches is a charge
and hosts g - 1 dark vectors (closed form, dark_subspace); every other
group is fully dark.  The bright eigenvalues solve

    sum_l p_l / (exp(-i theta_l) - zeta) = 0

over the w charges at exp(-i theta_l): w - 1 roots, the eigenvalues of
diag(z) compressed onto the complement of rho = sqrt(p).  Read as 2D
electrostatics they are the force-equilibrium points of charges p_l on
the unit circle, inside the convex hull of the charge positions.  So
the dark phases, the w - 1 roots and the removal's one zero number dim
by construction.  The dominant bright modulus sets the filtration time:
on the tower engine jump_filtration_time finds it from powers of F
without stepping, and the closed-form asymptotics of the two targets
are here.  The tower's groups are the classes of its integer levels,
the other engines' are grouped by each phase's own rounding bound.
"""

from __future__ import annotations

import math

import numpy as np

from darkfilter import filtration
from darkfilter.filtration import _pi_phases
from darkfilter.errors import NumericsError, ValidationError

# A degenerate group whose removal component is smaller than this is
# fully dark; every other group is a charge.
DARK_OVERLAP_TOL = 1e-12

# A secular root zeta is accepted when its first-order error |f / f'|,
# f the force sum_l p_l / (z_l - zeta), is at most ROOT_RESIDUAL_TOL and
# it lies within HULL_SLACK of the charge hull.  |f| alone cannot
# certify a root next to a pole, where f' is large.
ROOT_RESIDUAL_TOL = 1e-8
HULL_SLACK = 1e-10

# Bright moduli closer than this are ordered by angle.
TIE_MODULUS = 1e-12


class PhaseGroups:
    """The eigenphases of U(tau) clustered into degenerate groups.

    The one grouping that every dark-state quantity reads: a caller
    needing several of them groups once.  Group k has the eigenvalue
    phases[k] of its smallest coordinate, at the eigenphase angles[k] of
    that coordinate, and the removal weight weights[k] = sum
    |<psi_r|e_i>|^2; groups ascend in angle, and label[i] is the group
    of coordinate i.
    A group is reached when its removal norm is at least
    DARK_OVERLAP_TOL: it is then a charge and hosts g - 1 dark vectors,
    else it is fully dark with g (dark_counts).  That one cut makes the
    dark count plus the charge count w equal dim.

    The charge view lists the groups by their charge angle
    -angles[k] mod 2pi, ascending (charge position exp(-i angle)):
    charge_angles, charge_weights and charge_reached.  It is the order
    of charges.csv, and its reached charges are the poles of the
    secular equation (bright_secular_roots).
    """

    def __init__(self, setup, label, angles, phases):
        removal = setup.removal_eig
        self.setup = setup
        self.label = label
        self.phases = phases
        # non-negative, and summing to the removal's norm that
        # FiltrationSetup checks
        self.weights = weights = np.bincount(
            label, weights=removal.real**2 + removal.imag**2)
        self.reached = np.sqrt(weights) >= DARK_OVERLAP_TOL
        self.dark_counts = np.bincount(label) - self.reached
        self.w = int(np.count_nonzero(self.reached))
        charge = (-angles) % (2.0 * math.pi)
        order = np.argsort(charge, kind="stable")
        self.charge_angles = charge[order]
        self.charge_weights = weights[order]
        self.charge_reached = self.reached[order]

    @property
    def members(self):
        """Engine coordinates of each group, ascending, as int tuples."""
        order = np.argsort(self.label, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.label)).tolist()
        return [tuple(order[a:b]) for a, b in zip([0] + ends, ends)]


def _cluster_angles(angles, bound):
    """Cluster angles by the rounding bound of each, with wrap-around.

    Neighbours in ascending angle, and the largest and smallest across
    pi, join when their gap is at most the sum b of their bounds and
    split when it passes 100 b; a gap in between is neither rounding nor
    resolved, a NumericsError naming both angles.  Returns label, with
    label[i] the cluster of index i.
    """
    order = np.argsort(angles, kind="stable")
    ordered = angles[order]
    gaps = np.append(np.diff(ordered), ordered[0] + 2.0 * math.pi - ordered[-1])
    sums = bound[order] + np.roll(bound[order], -1)
    odd = np.flatnonzero((gaps > sums) & (gaps <= 100.0 * sums))
    if odd.size:
        k, after = odd[0], np.roll(ordered, -1)
        raise NumericsError(
            f"eigenphases {ordered[k]:.17g} and {after[k]:.17g} rad lie "
            f"{gaps[k]:.3e} apart, within 100 times their rounding bound "
            f"{sums[k]:.3e}: neither degenerate nor resolved")
    # s > 0 splits cut the circle into s arcs (none leave one): an angle's
    # arc counts the splits before it, the one across pi first, modulo s
    split = gaps > sums
    arc = np.cumsum(np.roll(split, 1)) % max(1, np.count_nonzero(split))
    return arc[np.argsort(order)]


def degeneracy_groups(setup):
    """Group the eigenphases of U(tau) into degenerate groups.

    On the tower a group is a class of the integer levels 2pn mod 2q.
    Elsewhere _cluster_angles groups the phases by the rounding bound
    delta_i = |tau| eps (n_b max|w_b| + |E_i|) + 4 eps of coordinate i
    in a block of n_b eigenvalues w_b: a Weyl-type bound on the block's
    eigh (Parlett, The Symmetric Eigenvalue Problem, ch. 4 and 11), plus
    the rounding of E_i tau, its phase and its angle.  Returns PhaseGroups.
    """
    if not isinstance(setup, filtration.FiltrationSetup):
        raise ValidationError("expected a FiltrationSetup")
    phases = setup.phases * setup.global_phase      # those of U(tau)
    angles = np.angle(phases)
    key = setup._levels
    if key is None:
        tau = abs(setup.tau)
        bound = np.concatenate([
            b.energies.size * (tau * np.max(np.abs(b.energies)))
            + tau * np.abs(b.energies) for b in setup.sector_eigs])
        key = _cluster_angles(angles, np.finfo(float).eps * (bound + 4.0))
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    rep = phases[first]
    # libm hypot, as abs of a complex: np.abs may round differently
    phases = rep / np.hypot(rep.real, rep.imag)
    rank = np.argsort(np.angle(phases), kind="stable")
    return PhaseGroups(setup, np.argsort(rank)[label], angles[first][rank],
                       phases[rank])


class DarkSubspace:
    """Orthonormal dark vectors with their unimodular eigenphases."""

    def __init__(self, vectors, phases, members):
        self.vectors = vectors      # (dim, k) orthonormal engine-frame columns
        self.phases = phases        # (k,) eigenvalues of F on each vector
        self.members = members      # source group members per vector
        self.count = vectors.shape[1]

    def overlaps(self, vec):
        """<Phi_delta|vec> for each dark vector, vec in engine coordinates."""
        return self.vectors.conj().T @ np.asarray(vec, dtype=complex)


def _canonical_phase(cols):
    """Rotate each column so its largest-modulus entry is real positive."""
    pivot = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return cols * (np.abs(pivot) / pivot)


def _group_darks(a):
    """The g - 1 dark vectors of a reached group, as (g, g - 1) columns.

    a holds the removal overlaps <psi_r|e_i> of the group's g members
    and n_d = |a_(0..d)| its prefix norms.  Column d - 1, the vector v
    that member d adds, is the unit vector with <psi_r|v> = 0 that is
    orthogonal to every column before it, in O(g):

        (conj(a_(0..d-1)) / n_(d-1)) (a_d / n_d)  -  (n_(d-1) / n_d) e_d.

    Members with exactly zero overlap before the first nonzero one have
    n = 0 and are dark unit vectors.  Columns are phased canonically.
    """
    g = a.size
    norms = np.hypot.accumulate(np.abs(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = np.triu(a.conj()[:, None] / norms[:-1] * (a[1:] / norms[1:]))
        cols[np.arange(1, g), np.arange(g - 1)] = -norms[:-1] / norms[1:]
    lead = int(np.argmax(a != 0))
    cols[:, :lead] = np.eye(g, lead)
    return _canonical_phase(cols)


def dark_subspace(groups):
    """All dark states of the grouped setup, in the engine eigenbasis.

    A reached group hosts the g - 1 vectors of _group_darks, any other
    its g coordinates (for the tower engine, tower basis states).
    """
    removal = groups.setup.removal_eig
    counts = groups.dark_counts
    vectors = np.zeros((removal.size, int(counts.sum())), dtype=complex)
    members = []
    for group, reached, k in zip(groups.members, groups.reached, counts):
        if k:
            idx = list(group)
            vectors[idx, len(members):len(members) + k] = \
                _group_darks(removal[idx].conj()) if reached else np.eye(k)
            members += [group] * k
    return DarkSubspace(vectors, np.repeat(groups.phases, counts),
                        tuple(members))


def dark_projection(groups, vec):
    """Project engine-frame coordinates onto the dark subspace implicitly.

    Within each reached group the dark part is the complement of the
    normalized removal component, so the projection needs the group's
    removal weight and one bincount over the labels, never a dark
    basis: the full engine at L = 10 stays inside a few hundred MB.
    """
    vec = np.asarray(vec, dtype=complex)
    removal = groups.setup.removal_eig
    if vec.shape != removal.shape:
        raise ValidationError("dark projection expects engine-frame coordinates")
    dot = removal.conj() * vec
    dot = np.bincount(groups.label, weights=dot.real) \
        + 1j * np.bincount(groups.label, weights=dot.imag)
    # a group without removal component is fully dark
    scale = np.divide(dot, groups.weights, out=np.zeros_like(dot),
                      where=groups.reached)
    return vec - removal * scale[groups.label]


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


# Largest relative drift of the target's conserved amplitude Q_n S_n.
DARK_AMPLITUDE_RTOL = 1e-10

# Smallest distance of Q on either side of 1 - eps at a crossing that the
# jump-ahead search trusts.
CROSSING_MARGIN = 1e-12

# Doublings after which the jump-ahead search gives up (n beyond 2^62).
MAX_DOUBLINGS = 62


def jump_filtration_time(setup, initial, target, eps):
    """Smallest n with Q_n >= 1 - eps on the tower engine, without stepping.

    target is a RotatingTarget.  Doubling k until Q at n = 2^k reaches
    1 - eps brackets the crossing in (2^(k-1), 2^k]; binary lifting from
    2^(k-1) down to 1 then pins it.
    The state F^n psi0 is built from the powers F^(2^k) of the
    filtration matrix, of the tower's dimension L + 1, and Q_n by the
    helper run_filtration uses (filtration._fidelity), with the powers of
    the setup's exact levels and the rotation of the target reduced
    modulo 2 pi from the integers of its h_tau, so they do not drift.

    The search is valid because the target lies in the dark subspace:
    its overlap modulus is conserved, so Q_n = Q_0 S_0 / S_n never
    decreases.  That conservation is checked at every n evaluated
    (NumericsError beyond DARK_AMPLITUDE_RTOL), as are the asymptote
    Q_inf >= 1 - eps and the crossing margin CROSSING_MARGIN.
    """
    if setup.engine != "tower":
        raise ValidationError("jump-ahead needs the tower engine")
    thr = 1.0 - eps
    if not 0.0 < eps < 1.0 or thr == 1.0:
        raise ValidationError(f"eps={eps!r} outside (0, 1) or below the "
                              "resolution of 1 - eps")
    q, levels = setup.h_tau[1], setup._levels
    turns = np.rint(target.angles * q / math.pi)
    if float(np.max(np.abs(target.angles - math.pi * turns / q))) > 1e-12:
        raise ValidationError(
            f"target rotation is not a multiple of pi/{q}: {target.angles}"
        )
    turns = [int(t) for t in turns]
    psi0, probes, gram = filtration._eigen_inputs(setup, initial, target)

    def amplitude(n, psi):
        """(Q_n, Q_n S_n) of the unnormalised state psi = F^n psi0."""
        coef = target.weights * _pi_phases([t * n for t in turns], q)
        survival = float(np.vdot(psi, psi).real)
        q_n = float(filtration._fidelity(
            coef[None], (probes.conj() @ psi)[None], gram, survival)[0])
        return q_n, q_n * survival

    q0, kept = amplitude(0, psi0)
    dark = dark_projection(degeneracy_groups(setup), psi0)
    w_dark = float(np.vdot(dark, dark).real)
    q_inf = amplitude(0, dark)[0] if w_dark > 0.0 else 0.0
    if q_inf < thr:
        raise NumericsError(
            f"Q_inf = {q_inf:.10f} from dark weight {w_dark:.3e} never "
            f"reaches 1 - eps = {thr}"
        )
    if q0 >= thr:
        return 0

    def fidelity(n, psi):
        q_n, kept_n = amplitude(n, psi)
        if abs(kept_n - kept) > DARK_AMPLITUDE_RTOL * kept:
            raise NumericsError(
                f"target amplitude Q_n S_n drifted by "
                f"{abs(kept_n - kept) / kept:.3e} (relative) at n={n}: "
                "the target is not dark"
            )
        return q_n

    # F^(2^k) = D^(2^k) + X_k with D = diag(phases).  Squaring it as
    # D^2 + D X_k + X_k D + X_k^2 keeps the decay rates 1 - |zeta| ~ 2^-L
    # at full relative precision; a dense F^(2^k) would round them
    # against 1 and lose about n * 1e-16 in Q_n.
    r = setup.removal_eig
    devs = [np.outer(-r, r.conj() * setup.phases)]

    def ahead(k, psi):
        """F^(2^k) psi."""
        return _pi_phases([m << k for m in levels], q) * psi + devs[k] @ psi

    q_hi = fidelity(1, ahead(0, psi0))
    while q_hi < thr:
        k = len(devs) - 1
        if k >= MAX_DOUBLINGS:
            raise NumericsError(f"Q_n < 1 - eps up to n = 2^{MAX_DOUBLINGS}")
        d, x = _pi_phases([m << k for m in levels], q), devs[k]
        devs.append(d[:, None] * x + x * d + x @ x)
        q_hi = fidelity(1 << (k + 1), ahead(k + 1, psi0))
    n, q_lo, psi = 0, q0, psi0
    for k in range(len(devs) - 2, -1, -1):
        step = ahead(k, psi)
        q_k = fidelity(n + (1 << k), step)
        if q_k < thr:
            n, q_lo, psi = n + (1 << k), q_k, step
        else:
            q_hi = q_k
    margin = min(thr - q_lo, q_hi - thr)
    if margin < CROSSING_MARGIN:
        raise NumericsError(
            f"crossing at n={n + 1} is within {margin:.2e} of 1 - eps: "
            "too close to resolve in double precision"
        )
    return n + 1


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
        if abs(bottom) < 1e-9:
            raise ValidationError(
                "theta0 sits at a pole of the tar1-general estimate"
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
