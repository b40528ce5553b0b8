"""Brute-force oracles shared by the test modules.

Everything here is assembled from first principles (explicit Kronecker
products, subset enumeration, dense expm) so the library is never used
to check itself.  Conventions: site j = 1..L is the j-th least
significant base-3 digit, local digit = 1 - m for m in {+1, 0, -1}.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from darkfilter.errors import NumericsError

SZ = np.diag([1.0, 0.0, -1.0])
SP = math.sqrt(2.0) * np.diag([1.0, 1.0], k=1)
SM = SP.T
SX = (SP + SM) / 2.0
SY = (SP - SM) / 2.0j
ID3 = np.eye(3)


def kron_site(op, site, L):
    """Embed a local operator at 1-based site, site 1 least significant."""
    out = np.ones((1, 1), dtype=complex)
    for j in range(1, L + 1):
        out = np.kron(op if j == site else ID3, out)
    return out


def dense_hamiltonian(L, J=1.0, h=1.0, D=0.1, J2=0.0, J3=0.0):
    """Open-chain spin-1 XY Hamiltonian from explicit Kronecker products."""
    dim = 3**L
    ham = np.zeros((dim, dim), dtype=complex)
    for dist, coupling in ((1, J), (2, J2), (3, J3)):
        if coupling == 0.0:
            continue
        for j in range(1, L + 1 - dist):
            ham += coupling * (
                kron_site(SX, j, L) @ kron_site(SX, j + dist, L)
                + kron_site(SY, j, L) @ kron_site(SY, j + dist, L)
            )
    for j in range(1, L + 1):
        sz = kron_site(SZ, j, L)
        ham += h * sz + D * sz @ sz
    assert np.max(np.abs(ham.imag)) < 1e-14
    return ham.real


def _sparse_site(local, site, L):
    """Local operator at 1-based site as a sparse full-space matrix."""
    left = sp.eye_array(3 ** (L - site), format="csr")
    right = sp.eye_array(3 ** (site - 1), format="csr")
    return sp.csr_array(sp.kron(left, sp.kron(sp.csr_array(local), right)))


def sparse_hamiltonian(L, J=1.0, h=1.0, D=0.1, J2=0.0, J3=0.0):
    """The chain Hamiltonian from sparse Kronecker products, as CSR.

    Same operator as dense_hamiltonian, built site by site with
    scipy.sparse so that it reaches the full-engine chain lengths.
    """
    ham = sp.csr_array((3**L, 3**L))
    for j in range(1, L + 1):
        sz = _sparse_site(SZ, j, L)
        ham = ham + h * sz + D * (sz @ sz)
    for dist, coupling in ((1, J), (2, J2), (3, J3)):
        for j in range(1, L + 1 - dist):
            hop = _sparse_site(SP, j, L) @ _sparse_site(SM, j + dist, L)
            ham = ham + coupling * 0.5 * (hop + hop.T)
    return sp.csr_array(ham)


def sparse_bimagnon_raising(L):
    """Q+ = (1/2) sum_j (-1)^j (S+_j)^2 from sparse Kronecker products."""
    pair_flip = np.zeros((3, 3))
    pair_flip[0, 2] = 1.0      # (1/2) (S+)^2 maps |-> to |+>
    total = sp.csr_array((3**L, 3**L))
    for j in range(1, L + 1):
        total = total + (-1.0) ** j * _sparse_site(pair_flip, j, L)
    return total


def triplets_to_dense(op):
    """Dense matrix of a triplet operator, repeated positions summed."""
    dim = 3**op.L
    out = np.zeros((dim, dim))
    np.add.at(out, (op.row, op.col), op.data)
    return out


def subset_tower_state(L, n):
    """B_n by explicit subset enumeration.

    Each term raises the sites of an n-subset from m=-1 to m=+1 and picks
    up (-1)^site; everything else stays m=-1 (digit 2).
    """
    vec = np.zeros(3**L)
    base = 3**L - 1                       # all-minus configuration
    for subset in itertools.combinations(range(1, L + 1), n):
        idx = base - sum(2 * 3 ** (j - 1) for j in subset)
        vec[idx] = (-1.0) ** sum(subset)
    return vec / np.linalg.norm(vec)


def product_state(L, theta):
    """Protocol product state with site-staggered phases, by digit lookup."""
    vec = np.empty(3**L, dtype=complex)
    for idx in range(3**L):
        amp = 1.0 + 0.0j
        rest = idx
        for j in range(1, L + 1):
            digit = rest % 3
            rest //= 3
            if digit == 1:
                amp = 0.0
                break
            if digit == 2:
                amp *= np.exp(1j * (np.pi * j + theta))
        vec[idx] = amp
    return vec / 2.0 ** (L / 2.0)


def dense_filtration_matrix(ham, tau, removal):
    """F = (1 - |r><r|) expm(-i H tau) on the same basis as ham."""
    unitary = sla.expm(-1j * tau * np.asarray(ham, dtype=complex))
    proj = np.eye(ham.shape[0]) - np.outer(removal, np.conj(removal))
    return proj @ unitary


def engine_support(setup):
    """Sorted input-basis indices that the blocks of an engine cover."""
    return np.unique(np.concatenate([blk.images.ravel()
                                     for blk in setup.sector_eigs]))


def block_eigenvectors(blk, dim):
    """(dim, n) eigenvectors of a SectorEig on the input basis.

    Column a of the orbit basis is sum_g coefs[g, a] e_(images[g, a]).
    """
    n = blk.images.shape[1]
    orbits = np.zeros((dim, n), dtype=blk.vectors.dtype)
    for img, coef in zip(blk.images, blk.coefs):
        orbits[img, np.arange(n)] += coef
    return orbits @ blk.vectors


def engine_columns(setup):
    """(input dimension, engine dimension) eigenvectors of every block."""
    dim = setup.removal.size
    return np.hstack([block_eigenvectors(blk, dim)
                      for blk in setup.sector_eigs])


def character_energies(ham, L, label, reflection, parity):
    """Eigenvalues of dense H on one symmetry character of sector label.

    The character space is the range of (1 + e R')/2 inside the sector,
    times (1 + p P)/2 on M = 0, with R' and P from the digit-loop
    permutations below, independent of the engine's orbit bases.
    """
    digits = (np.arange(3**L)[:, None] // 3 ** np.arange(L)) % 3
    sector = np.flatnonzero((1 - digits).sum(axis=1) == label)
    eye = np.eye(sector.size)
    mirror, twist = twisted_reflection_dense(L)
    proj = (eye + reflection * twist[sector][:, None]
            * eye[np.searchsorted(sector, mirror[sector])]) / 2.0
    if label == 0:
        flip = flip_permutation_dense(L)
        proj = proj @ (eye + parity
                       * eye[np.searchsorted(sector, flip[sector])]) / 2.0
    values, vectors = np.linalg.eigh(proj)
    basis = vectors[:, values > 0.5]
    return sla.eigvalsh(basis.T @ ham[np.ix_(sector, sector)] @ basis)


def flip_permutation_dense(L):
    """Index of the flipped configuration, digit d -> 2 - d on every site."""
    perm = np.empty(3**L, dtype=np.int64)
    for idx in range(3**L):
        rest, flipped = idx, 0
        for j in range(L):
            flipped += (2 - rest % 3) * 3**j
            rest //= 3
        perm[idx] = flipped
    return perm


def twisted_reflection_dense(L):
    """Site reflection j -> L+1-j by digit reversal, and the sign of R'.

    Returns the mirrored index of every configuration and the sign that
    the twisted reflection R' = R (-1)^((L+1) n) gives it, n = (L-|M|)//2
    the number of |-> sites of a product configuration in its sector M.
    """
    mirror = np.empty(3**L, dtype=np.int64)
    twist = np.empty(3**L)
    for idx in range(3**L):
        digits = [(idx // 3**j) % 3 for j in range(L)]
        mirror[idx] = sum(d * 3 ** (L - 1 - j) for j, d in enumerate(digits))
        mag = sum(1 - d for d in digits)
        twist[idx] = (-1.0) ** ((L + 1) * ((L - abs(mag)) // 2))
    return mirror, twist


def dense_stepping(ham, tau, removal, psi0, n_steps, flip):
    """Explicit steps of the dense F in the full space.

    Returns the survival S_n = |F^n psi0|^2, the normalized string
    expectation <prod X>_n with prod X the index permutation flip, and
    the last normalized state, for n = 0..n_steps.
    """
    fmat = dense_filtration_matrix(ham, tau, removal)
    vec = np.asarray(psi0, dtype=complex)
    survival, string = [], []
    for n in range(n_steps + 1):
        if n:
            vec = fmat @ vec
        weight = float(np.vdot(vec, vec).real)
        survival.append(weight)
        string.append(np.vdot(vec, vec[flip]) / weight)
    return np.array(survival), np.array(string), vec / np.linalg.norm(vec)


def explicit_stepping(phases, removal, psi0, n_steps, probes=None,
                      flip=None):
    """The filtration protocol one step at a time, in the engine frame.

    Each step is psi <- diag(phases) psi, then psi <- psi - r (r^H psi).
    Returns, for n = 0..n_steps, the survival S_n = |psi_n|^2, the
    overlaps probes^* psi_n (an (n+1, k) array, or None), the normalized
    string expectation <psi_n|P|psi_n> / S_n for the signed permutation
    flip = (pos, sign) (or None), and the unnormalized last state.
    """
    psi = np.array(psi0, dtype=complex)
    removal = np.asarray(removal, dtype=complex)
    survival, overlaps, string = [], [], []
    for n in range(n_steps + 1):
        if n:
            psi = phases * psi
            psi = psi - removal * np.vdot(removal, psi)
        weight = float(np.vdot(psi, psi).real)
        survival.append(weight)
        if probes is not None:
            overlaps.append(np.conj(probes) @ psi)
        if flip is not None:
            pos, sign = flip
            string.append(np.vdot(psi[pos], sign * psi) / weight)
    return (np.array(survival),
            np.array(overlaps) if probes is not None else None,
            np.array(string) if flip is not None else None,
            psi)


def renewal_tables(phases, removal, probes, length):
    """The renewal kernel's tables by the renewal equation T c = a.

    a_j = r^H D^j psi, and T is the unit lower triangular Toeplitz
    matrix of g_m = r^H D^m r, so the c table is T^-1 (Z * conj(r)),
    Z_j = phases^j, solved by forward substitution over its rows; a
    probe t's table is Z * conj(t) - H T^-1 (Z * conj(r)), H the lower
    triangular Toeplitz matrix of h_m = t^H D^m r.  Returns the tables
    stacked as RenewalKernel.tables holds them: c first, then each probe.
    """
    powers = np.cumprod(np.broadcast_to(phases, (length, phases.size)),
                        axis=0)
    lag = np.subtract.outer(np.arange(length), np.arange(length))

    def toeplitz(column):
        return np.where(lag >= 0, column[np.maximum(lag, 0)], 0.0)

    g = np.concatenate([[1.0], powers[:-1] @ np.abs(removal) ** 2])
    lower = toeplitz(g)
    amps = powers * removal.conj()
    for j in range(1, length):
        amps[j] -= lower[j, :j] @ amps[:j]
    tables = [amps]
    for t in probes:
        h = np.concatenate([[np.vdot(t, removal)],
                            powers[:-1] @ (t.conj() * removal)])
        tables.append(powers * t.conj() - toeplitz(h) @ amps)
    return np.concatenate(tables)


def mp_tower_survival(L, h_tau, theta0, n_steps, digits=50):
    """Survival S_n on the tower engine in mpmath at `digits` digits.

    Rebuilds the tower problem from its closed forms (binomial weights,
    removal (-1)^k w_k, initial exp(i (L - k) theta0) w_k, phases
    exp(-2 pi i p k / q) with the common phase dropped) and steps it.
    """
    import mpmath as mp

    p, q = h_tau
    dim = L + 1
    with mp.workdps(digits):
        w = [mp.sqrt(mp.mpf(math.comb(L, k)) / 2**L) for k in range(dim)]
        r = [(-1) ** k * w[k] for k in range(dim)]
        phase = [mp.expjpi(mp.mpf(-2 * p * k) / q) for k in range(dim)]
        psi = [mp.expj((L - k) * mp.mpf(theta0)) * w[k] for k in range(dim)]
        out = [mp.fsum(abs(z) ** 2 for z in psi)]
        for _ in range(n_steps):
            psi = [z * u for z, u in zip(psi, phase)]
            c = mp.fsum(x * z for x, z in zip(r, psi))
            psi = [z - x * c for x, z in zip(r, psi)]
            out.append(mp.fsum(abs(z) ** 2 for z in psi))
        return [float(s) for s in out]


def _fx_dot(x, y):
    return sum(map(operator.mul, x, y))


def _fx_matmul(a, b, bits):
    """Complex fixed-point product; matrices are (re, im) lists of rows."""
    (ar, ai), (br, bi) = a, b
    cr, ci = list(zip(*br)), list(zip(*bi))
    re = [[(_fx_dot(x, u) - _fx_dot(y, v)) >> bits for u, v in zip(cr, ci)]
          for x, y in zip(ar, ai)]
    im = [[(_fx_dot(x, v) + _fx_dot(y, u)) >> bits for u, v in zip(cr, ci)]
          for x, y in zip(ar, ai)]
    return re, im


def mp_filtration_time(L, theta0, h_tau, which, eps, bits=160):
    """First n with Q_n >= 1 - eps on the tower, in extended precision.

    Rebuilds the tower problem from its closed forms with mpmath:
    binomial weights w_k = sqrt(C(L, k) / 2^L), removal (-1)^k w_k,
    initial state exp(i (L - k) theta0) w_k, phases exp(-2 pi i p k / q)
    with the common phase dropped, and the GHZ (tar1) or rotating
    edge-pair (tar2) target.  The powers of F then run on Python integers
    in fixed point with `bits` fractional bits (rounding doubles with
    each squaring, so 2^36 steps cost about 36 bits), and each Q_n is
    compared with the exact rational 1 - eps.  Doubling, then binary
    lifting on plain powers of F, with none of the library's numerics.
    States are rows, so the powers are those of F^T.
    """
    import mpmath as mp

    p, q = h_tau
    dim = L + 1
    with mp.workprec(bits + 64):
        def fixed(rows):
            cells = [[mp.mpc(z) * 2**bits for z in row] for row in rows]
            return ([[int(mp.nint(z.real)) for z in row] for row in cells],
                    [[int(mp.nint(z.imag)) for z in row] for row in cells])

        w = [mp.sqrt(mp.mpf(math.comb(L, k)) / 2**L) for k in range(dim)]
        r = [(-1) ** k * w[k] for k in range(dim)]
        phase = [mp.expjpi(mp.mpf(-2 * p * k) / q) for k in range(dim)]
        f_t = fixed([[(phase[i] if i == j else 0) - r[i] * r[j] * phase[j]
                      for i in range(dim)] for j in range(dim)])
        psi0 = fixed([[mp.expj((L - k) * mp.mpf(theta0)) * w[k]
                       for k in range(dim)]])
        s = (-1) ** L
        comps = [[0] * dim for _ in range(2 if which == "tar2" else 1)]
        if which == "tar1":
            comps[0][L], comps[0][0] = 1 / mp.sqrt(2), -s / mp.sqrt(2)
            coefs, turns = [1], [0]
        else:
            root = mp.sqrt(L + 1)
            comps[0][0], comps[0][L - 1] = -s * mp.sqrt(L) / root, -1 / root
            comps[1][1], comps[1][L] = s / root, mp.sqrt(L) / root
            coefs = [mp.expj(mp.mpf(theta0)) / mp.sqrt(2), -1 / mp.sqrt(2)]
            turns = [0, 2 * p]
        thr = 1 - Fraction(eps)

        def below(n, vec):
            """Whether Q_n < 1 - eps for the row vec = (F^n psi0)^T."""
            rot = [c * mp.expjpi(mp.mpf(-t * n % (2 * q)) / q)
                   for c, t in zip(coefs, turns)]
            (tr,), (ti,) = fixed([[sum(c * v[k] for c, v in zip(rot, comps))
                                   for k in range(dim)]])
            (vr,), (vi,) = vec
            ov_re = _fx_dot(tr, vr) + _fx_dot(ti, vi)
            ov_im = _fx_dot(tr, vi) - _fx_dot(ti, vr)
            tt = _fx_dot(tr, tr) + _fx_dot(ti, ti)
            vv = _fx_dot(vr, vr) + _fx_dot(vi, vi)
            return ((ov_re**2 + ov_im**2) * thr.denominator
                    < thr.numerator * tt * vv)

        if not below(0, psi0):
            return 0
        powers = [f_t]
        while below(2 ** (len(powers) - 1),
                    _fx_matmul(psi0, powers[-1], bits)):
            powers.append(_fx_matmul(powers[-1], powers[-1], bits))
        n, vec = 0, psi0
        for k in range(len(powers) - 2, -1, -1):
            ahead = _fx_matmul(vec, powers[k], bits)
            if below(n + 2**k, ahead):
                n, vec = n + 2**k, ahead
        return n + 1


def dark_complement(phases, removal, tol=1e-9):
    """Dark basis of F in the engine frame by the complement construction.

    Coordinates whose eigenphases agree to tol form a degenerate group.
    Within a group the dark vectors are an orthonormal basis of the
    complement of the removal component, or every group coordinate when
    that component vanishes.  Returns the (dim, k) columns and the
    eigenphase of each.
    """
    dim = phases.shape[0]
    cols, values = [], []
    left = list(range(dim))
    while left:
        members = [j for j in left if abs(phases[j] - phases[left[0]]) < tol]
        left = [j for j in left if j not in members]
        a = np.conj(removal[members])
        if np.linalg.norm(a) < 1e-12:
            null = np.eye(len(members))
        else:
            null = sla.null_space(a[None, :])
        for v in null.T:
            vec = np.zeros(dim, dtype=complex)
            vec[members] = v
            cols.append(vec)
            values.append(phases[members[0]])
    return np.reshape(np.transpose(cols), (dim, len(cols))), np.array(values)


def determinant_darks(members, removal):
    """Dark vectors of one reached group by the recursive determinant.

    The delta-th dark vector is the formal determinant whose first row
    holds the group kets e_1..e_(delta+1), the second the removal
    overlaps <psi_r|e_i>, and the remaining rows the overlaps of the
    dark vectors built before it; cofactor expansion along the ket row
    gives a vector orthogonal to psi_r and to its predecessors.  Each is
    normalized and rotated so its largest-modulus entry is real
    positive.  Returns (dim, g - 1) columns; raises NumericsError when
    a determinant's norm falls below 1e-14, as it does after two
    leading zero overlaps.
    """
    dim = removal.shape[0]
    idx = list(members)
    rows = [removal[idx].conj()]
    darks = []
    for delta in range(1, len(idx)):
        size = delta + 1
        numeric = np.array([row[:size] for row in rows])
        coeffs = np.array([(-1.0) ** i * np.linalg.det(
            np.delete(numeric, i, axis=1)) for i in range(size)])
        vec = np.zeros(dim, dtype=complex)
        vec[idx[:size]] = coeffs
        nrm = np.linalg.norm(vec)
        if nrm < 1e-14:
            raise NumericsError("determinant construction degenerated")
        vec = vec / nrm
        pivot = vec[int(np.argmax(np.abs(vec)))]
        vec = vec * (abs(pivot) / pivot)
        darks.append(vec)
        rows.append(vec[idx].conj())
    return np.array(darks).reshape(-1, dim).T


def cluster_angles_loop(angles, bound):
    """Sorted angles clustered one gap at a time, with wrap-around.

    A gap of at most b, the two angles' bounds summed, joins an angle to
    the cluster before it, and a gap above 100 b starts a new one; any
    other gap raises NumericsError.  When the gap across pi joins too,
    the last cluster is put in front of the first.  Returns the clusters
    as arrays of indices into angles.
    """
    order = np.argsort(angles, kind="stable")
    ordered = angles[order]

    def joins(gap, i, j):
        b = bound[order[i]] + bound[order[j]]
        if b < gap <= 100.0 * b:
            raise NumericsError(f"gap {gap} within 100 times {b}")
        return gap <= b

    clusters = [[0]]
    for i in range(1, ordered.size):
        if joins(ordered[i] - ordered[i - 1], i - 1, i):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    wrap = joins(ordered[0] + 2.0 * math.pi - ordered[-1], -1, 0)
    if len(clusters) > 1 and wrap:
        clusters[0] = clusters.pop() + clusters[0]
    return [order[c] for c in clusters]


def plateau_loop(q, slope, smooth):
    """Longest window of smoothed |dQ/dn| below slope, one step at a time.

    Q is smoothed by a centered moving average of smooth points; the
    first of several longest runs wins.  Returns (start, end, height)
    with end exclusive, or None.
    """
    q = np.asarray(q, dtype=float)
    if q.size < smooth + 1:
        return None
    smoothed = np.convolve(q, np.ones(smooth) / smooth, mode="valid")
    flat = np.abs(np.diff(smoothed)) < slope
    best_len, best_start = 0, -1
    i = 0
    while i < flat.size:
        if flat[i]:
            j = i
            while j < flat.size and flat[j]:
                j += 1
            if j - i > best_len:
                best_len, best_start = j - i, i
            i = j
        else:
            i += 1
    if best_start < 0:
        return None
    start = best_start + smooth // 2
    end = best_start + best_len + smooth // 2
    return start, end, float(np.mean(q[start:end + 1]))


def long_time_state(phases, removal, psi0, n):
    """Normalized late-time state predicted from the dark subspace alone.

    The bright components are gone; what remains is the dark part of
    psi0 with each dark vector rotated by its eigenphase to the n-th
    power.
    """
    vectors, values = dark_complement(phases, removal)
    out = vectors @ (values**n * (vectors.conj().T @ psi0))
    return out / np.linalg.norm(out)


def charge_order(groups):
    """The groups as charges, by the ordering of the removed
    spectral.charge_picture: charge angle -angle mod 2pi, stably
    ascending, each group's angle that of U(tau)'s phase on its
    smallest member.  Returns the angles, weights and reached flags."""
    setup = groups.setup
    first = [members[0] for members in groups.members]
    angles = (-np.angle(setup.phases[first] * setup.global_phase)) \
        % (2.0 * math.pi)
    order = np.argsort(angles, kind="stable")
    return angles[order], groups.weights[order], groups.reached[order]


def hull_violation_loop(point, vertices):
    """Distance of one point outside the polygon of unit-circle vertices.

    Vertices in angular order, one edge at a time: the largest distance
    to the outer side of an edge line, 0 inside.
    """
    verts = np.asarray(vertices, dtype=complex)
    verts = verts[np.argsort(np.angle(verts))]
    worst = 0.0
    for i in range(verts.size):
        a, b = verts[i], verts[(i + 1) % verts.size]
        edge = b - a
        cross = (np.conj(edge) * (point - a)).imag
        worst = max(worst, -cross / abs(edge))
    return worst


@dataclass
class FiltrationSpectrum:
    """Full non-normal eigensystem of F with dark/bright classification."""

    values: np.ndarray
    right: np.ndarray            # columns, unit 2-norm
    left: np.ndarray             # columns a with a^H F = zeta a^H
    eta: np.ndarray              # <zeta_l|psi0> / <zeta_l|zeta_r>
    kinds: list                  # "dark" | "bright" | "trivial-zero"
    min_condition: float         # smallest left-right alignment |<l|r>|
    degraded: bool
    recon_residual: float

    def select(self, kind):
        idx = [i for i, k in enumerate(self.kinds) if k == kind]
        return np.array(idx, dtype=int)


# spectral_decomposition: moduli above 1 - SPECTRAL_DARK_TOL are dark,
# below SPECTRAL_ZERO_TOL trivial zeros; a left-right alignment below
# SPECTRAL_COND_TOL marks the eigensystem degraded; the expansion is
# checked against SPECTRAL_CHECK_STEPS explicit steps.
SPECTRAL_DARK_TOL = 1e-8
SPECTRAL_ZERO_TOL = 1e-12
SPECTRAL_COND_TOL = 1e-8
SPECTRAL_CHECK_STEPS = 50


def spectral_decomposition(setup, initial):
    """Dense eigendecomposition of F = (1 - |r><r|) U in the eigenframe.

    Returns eigenvalues with left/right vectors and the expansion
    coefficients eta of the initial state, verified by re-summing the
    first SPECTRAL_CHECK_STEPS of the trajectory.  Modes are labelled
    by modulus.  The oracle of the secular roots and of goe_demo's
    spectrum.
    """
    psi0 = setup.to_eigen(initial)
    r = setup.removal_eig
    # the phases of U, with the global factor the tower steps without
    phases = setup.phases * setup.global_phase
    fmat = np.diag(phases).astype(complex)
    fmat -= np.outer(r, r.conj() * phases)
    values, vr = np.linalg.eig(fmat)
    # the rows of vr^-1 are the left eigenvectors, conjugated
    vl = np.linalg.inv(vr).conj().T
    vl /= np.linalg.norm(vl, axis=0)
    align = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    min_cond = float(np.min(align))
    degraded = min_cond < SPECTRAL_COND_TOL
    denom = np.einsum("ij,ij->j", vl.conj(), vr)
    eta = (vl.conj().T @ psi0) / denom
    kinds = []
    for z in values:
        mod = abs(z)
        if mod > 1.0 - SPECTRAL_DARK_TOL:
            kinds.append("dark")
        elif mod < SPECTRAL_ZERO_TOL:
            kinds.append("trivial-zero")
        else:
            kinds.append("bright")
    resid = 0.0
    direct = psi0.copy()
    scaled = vr * eta
    for n in range(1, SPECTRAL_CHECK_STEPS + 1):
        direct = phases * direct
        direct -= r * np.vdot(r, direct)
        recon = scaled @ values**n
        resid = max(resid, float(np.linalg.norm(recon - direct)))
    allowance = 1e-6 if not degraded else 1e-6 / max(min_cond, 1e-30)
    if resid > allowance:
        raise NumericsError(
            f"spectral reconstruction residual {resid:.3e} exceeds "
            f"tolerance {allowance:.3e}"
        )
    return FiltrationSpectrum(values, vr, vl, eta, kinds, min_cond,
                              degraded, resid)


def _oracle_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def rowwise_csv(header, columns):
    """CSV bytes written one cell and one row at a time.

    Each cell is formatted on its own ("%.17g" for floats, "%d" for
    integers, 1/0 for booleans, blank for None) and each row joined with
    commas, as the writer did before it formatted whole blocks.
    """
    rows = max((len(c) for c in columns if c is not None), default=0)
    cells = [[""] * rows if c is None else [_oracle_cell(v) for v in c]
             for c in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return ("\n".join(lines) + "\n").encode()
