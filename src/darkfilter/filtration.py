"""Filtration protocol: engine construction and iteration.

One protocol period applies U(tau) = exp(-i H tau) and then removes the
component along a fixed product state |psi_r>, i.e. the filtration
operator F = (1 - |psi_r><psi_r|) U(tau).  F is non-normal and
contractive; its unimodular eigenvectors (dark states) survive forever,
everything else is depleted exponentially.

All engines iterate in the eigenbasis of H, where U is diagonal, through
one chunked kernel (RenewalKernel): a chunk of B steps is a few
matrix-vector products against tables fixed per run, O(B dim) in all,
with no Python loop over its steps.  On an engine with a spin flip the
string operator is recorded on every step; it comes from the same chunk
scalars, summed over the flip groups of coordinates, so a state is
formed only at a chunk's end.  Every engine holds its eigenbasis as
symmetry blocks (SectorEig), so states enter and leave it by one path;
a state is a plain complex array, and the removal state too enters in
the input basis (FiltrationSetup.removal), whose length is that basis's
dimension.  A setup holds the engine only: the chain and the angle of
the initial state stay with its builders' callers.  Three engines exist:

* ``tower``   -- the (L+1)-dimensional bi-magnon ladder, H diagonal by
  construction, one block with identity eigenvectors; valid only for
  J2 = 0.
* ``full``    -- exact diagonalization of the full chain in blocks of
  magnetization and of the symmetry group {1, P, R'} (spin flip and
  twisted site reflection), with sector -M taken from sector M by the
  flip; only the blocks that the removal or the initial state reaches
  are diagonalized and kept.  Handles SGA-breaking perturbations and
  modified removal states.
* ``generic`` -- an arbitrary Hermitian matrix (random-matrix demos).

Iteration never renormalizes the internal state; survival probability is
its squared norm, and all reported quantities are normalized on output.
F is never diagonalized here; its spectrum is the spectral module's.
"""

from __future__ import annotations

import math

import numpy as np

from darkfilter.basis import (
    magnetization_of,
    reflection_of,
    reflection_twist,
    string_parity_sign,
)
from darkfilter.errors import NumericsError, ValidationError
from darkfilter.spin_model import (
    ChainParams,
    ManyBodyOperator,
    build_hamiltonian,
    protocol_states,
)

# Largest rounding, in radians, that a setup lets the phases
# exp(-i E tau) of its declared period carry (eps max|E| |tau|).
PHASE_TOL = 1e-9


def _pi_phases(m, q):
    """exp(-i pi m / q) for Python integers m, reduced modulo 2q exactly."""
    return np.exp(-1j * math.pi * np.array([k % (2 * q) for k in m],
                                           dtype=float) / q)


def _period(h_tau, h):
    """The period tau = pi p/(q h) of the resonance h_tau = (p, q)."""
    if h == 0.0:
        raise ValidationError("tau undefined at h = 0")
    try:
        return math.pi * h_tau[0] / h_tau[1] / h
    except OverflowError:
        raise ValidationError(
            f"h_tau = {list(h_tau)} is beyond the float range") from None


def resonance_period(ea, eb):
    """Period tau = 2 pi / |eb - ea| that makes two eigenphases collide."""
    if ea == eb:
        raise ValidationError(
            "energies already degenerate: every period is resonant"
        )
    return 2.0 * math.pi / abs(eb - ea)


class SectorEig:
    """Eigendecomposition of H on one symmetry block.

    The block's basis holds one symmetrized vector per orbit of a group
    of G signed permutations: column a is sum_g coefs[g, a] e_(images[g, a])
    over the input basis, images[:, a] being the orbit representative's
    images under the G elements.  An image repeats when the orbit is
    shorter than the group, and its coefficients then add.  Eigenvectors
    are stored in these orbit coordinates.
    """

    def __init__(self, label, images, coefs, energies, vectors, parity=1.0,
                 reflection=1.0):
        self.label = label          # magnetization M (0 for generic engines)
        self.images = images        # (G, n) input-basis indices
        self.coefs = coefs          # (G, n) real
        self.energies = energies
        self.vectors = vectors      # (n, n) columns are eigenvectors
        # P maps column j to parity * column j of -M
        self.parity = parity
        self.reflection = reflection    # eigenvalue of the twisted R'


class FiltrationSetup:
    """Everything needed to iterate the protocol in the H eigenbasis; no
    chain, which stays with the callers of the builders.

    engine is "tower", "full" or "generic".  removal is the removal
    state, unit norm, in the basis of run_filtration's inputs and
    outputs: every state is a complex array of its length.  sector_eigs
    are the blocks of H in engine order, which the coordinates follow.
    A chain engine (tower, full) sits at h tau = pi p/q, h_tau = (p, q),
    with a spin flip prod X mapping coordinate i to pos[i] with sign
    sign[i], flip = (pos, sign).  Derived: energies, the blocks'
    eigenvalues of H in order; removal_eig, the removal in the
    eigenbasis; phases, the exp(-i E tau) that run_filtration steps,
    exact where h_tau fixes them.  The tower steps exp(-i pi m/q) of its
    integer levels m = 2pn mod 2q, _levels (None elsewhere), and keeps
    exp(-i E_0 tau), which cancels in every trajectory observable, apart
    as global_phase (1 elsewhere); the full engine's sector -M (energies
    those of M less 2hM) steps those of M times exp(2 pi i (pM mod q)/q).
    So the flip turns coordinate i of magnetization M (2n - L on the
    tower) by exactly exp(-i pi (2pM mod 2q)/q), and flip_groups =
    (label, w) has the class label[i] of i and the turn w[g] of class g.
    A tau whose phases would round by more than PHASE_TOL, eps max|E|
    |tau|, is refused first, and so is a chain engine or a flip without
    h_tau.
    """

    def __init__(self, tau, engine, removal, sector_eigs, flip=None,
                 h_tau=None):
        if engine not in ("tower", "full", "generic"):
            raise ValidationError(f"unknown engine {engine!r}")
        if h_tau is None and (engine != "generic" or flip is not None):
            raise ValidationError(
                "a tower or full engine, and a flip, needs its resonance h_tau")
        self.tau = tau
        self.h_tau = h_tau
        self.engine = engine
        self.sector_eigs = sector_eigs
        self.flip = flip
        self.energies = np.concatenate([b.energies for b in sector_eigs])
        with np.errstate(over="ignore", invalid="ignore"):
            top = float(np.max(np.abs(self.energies), initial=0.0))
            blur = np.finfo(float).eps * top * abs(tau)
        if blur > PHASE_TOL:
            raise ValidationError(
                f"tau = {tau:.6g} with max|E| = {top:.6g} leaves the phases "
                f"exp(-i E tau) a rounding of {blur:.3g} rad, above "
                f"PHASE_TOL = {PHASE_TOL:g}")
        self.phases = np.exp(-1j * self.energies * tau)
        self.global_phase = 1.0
        self._levels = None
        if engine == "tower":
            p, q = h_tau
            self.global_phase = self.phases[0]
            self._levels = [2 * p * n % (2 * q) for n in range(self.dimension)]
            self.phases = _pi_phases(self._levels, q)
        self.flip_groups = None if flip is None else self._flip_classes(*h_tau)
        self.removal = np.asarray(removal)
        self.removal_eig = self.to_eigen(self.removal)
        if abs(np.linalg.norm(self.removal_eig) - 1.0) > 1e-12:
            raise ValidationError("removal vector must have unit norm")
        # written so that a NaN phase fails
        if not np.all(np.abs(np.abs(self.phases) - 1.0) <= 1e-12):
            raise NumericsError("propagator phases are not unimodular")

    def _flip_classes(self, p, q):
        """flip_groups; first turns the phases of the full engine's -M."""
        if self.engine == "tower":
            mags, sizes = range(1 - self.dimension, self.dimension, 2), 1
        else:
            mags, sizes = zip(*[(b.label, b.energies.shape[0])
                                for b in self.sector_eigs])
        turns = [2 * p * M % (2 * q) for M in mags]
        classes = sorted(set(turns))
        label = np.repeat([classes.index(t) for t in turns], sizes)
        w = _pi_phases(classes, q)
        if self.engine == "full":
            low = np.repeat([M < 0 for M in mags], sizes)
            self.phases[low] = self.phases[self.flip[0][low]] * w[label[low]]
        return label, w

    @property
    def dimension(self):
        return self.energies.shape[0]

    def retuned(self, h_tau):
        """The same chain engine at another resonance h_tau = (p, q).

        H and the removal state do not depend on it, so the eigenbasis
        is reused, and the field h = pi p0/(q0 tau) from the setup's own
        h_tau and tau.  The full engine's blocks are those the removal
        reaches, which hold the protocol state at every angle; to_eigen
        refuses a state that leaves them.
        """
        return FiltrationSetup(_period(h_tau, _period(self.h_tau, self.tau)),
                               self.engine, self.removal, self.sector_eigs,
                               self.flip, h_tau)

    def to_eigen(self, state):
        """Input-basis state -> eigenbasis coords."""
        vec = np.asarray(state, dtype=complex)
        if vec.shape != (self.removal.size,):
            raise ValidationError("state dimension does not match setup basis")
        out = np.empty(self.dimension, dtype=complex)
        pos = 0
        for blk in self.sector_eigs:
            d = blk.energies.shape[0]
            orbits = np.einsum("ga,ga->a", blk.coefs, vec[blk.images])
            out[pos:pos + d] = _matvec(blk.vectors.conj().T, orbits)
            pos += d
        lost = abs(float(np.vdot(vec, vec).real) - float(np.vdot(out, out).real))
        if lost > 1e-10:
            raise ValidationError(
                f"state carries weight {lost:.3e} outside the engine sectors"
            )
        return out

    def from_eigen(self, coords):
        """Eigenbasis coords -> input-basis amplitude vector."""
        coords = np.asarray(coords, dtype=complex)
        out = np.zeros(self.removal.size, dtype=complex)
        pos = 0
        for blk in self.sector_eigs:
            d = blk.energies.shape[0]
            orbits = _matvec(blk.vectors, coords[pos:pos + d])
            # the images under one group element are distinct
            for img, coef in zip(blk.images, blk.coefs):
                out[img] += coef * orbits
            pos += d
        return out

    def string_rows(self, psi):
        """<psi|prod X|psi> for an eigenbasis state psi.

        The value is for psi as given (unnormalized); divide by the
        survival weight to report a normalized expectation.
        """
        if self.flip is None:
            raise ValidationError("string operator unavailable for this engine")
        pos, sign = self.flip
        return np.vdot(sign * psi[pos], psi)


def _matvec(matrix, vec):
    """matrix @ vec for a complex vec.

    A real matrix acts on the real and imaginary parts apart, so numpy
    never copies it to complex.
    """
    if np.iscomplexobj(matrix):
        return matrix @ vec
    return matrix @ vec.real + 1j * (matrix @ vec.imag)


def reduced_setup(params, h_tau, theta0):
    """Tower engine at h_tau: H diagonal on the L+1 bi-magnon states.

    Needs no full-space vectors, so it scales far beyond the dense cap.
    The removal and initial states are the exact tower decompositions of
    the protocol product states, with binomial weights sqrt(C(L,n)/2^L).
    The spin flip maps B_n to string_parity_sign(L) B_(L-n).  The tower
    basis is the eigenbasis, one block whose eigenvectors are the
    identity, so the removal's coordinates pass to_eigen unchanged; its
    8 (L+1)^2 bytes must fit TRAJECTORY_BUDGET.  Returns (setup, initial
    state in the tower basis).
    """
    if not isinstance(params, ChainParams):
        raise ValidationError("reduced_setup expects ChainParams")
    if params.J2 != 0.0:
        raise ValidationError("tower engine requires J2 = 0 (tower not exact)")
    L = params.L
    if 8 * (L + 1) ** 2 > TRAJECTORY_BUDGET:
        raise ValidationError(
            f"tower engine at L = {L} needs {8 * (L + 1) ** 2} bytes for its "
            f"(L+1)^2 eigenvectors, above the budget of {TRAJECTORY_BUDGET} "
            "bytes")
    n = np.arange(L + 1)
    # exact integer division: 2.0**L overflows from L = 1024
    weights = np.sqrt([math.comb(L, int(m)) / 2**L for m in n])
    if not math.isfinite(L * float(theta0)):
        raise ValidationError(f"theta0 = {theta0!r} overflows the initial "
                              "state's phases (L - n) theta0")
    initial = np.exp(1j * (L - n) * theta0) * weights
    setup = FiltrationSetup(
        tau=_period(h_tau, params.h),
        engine="tower",
        removal=(-1.0) ** n * weights,
        sector_eigs=[SectorEig(0, n[None, :], np.ones((1, L + 1)),
                               params.tower_energy(n), np.eye(L + 1))],
        flip=(n[::-1], np.full(L + 1, string_parity_sign(L))),
        h_tau=h_tau,
    )
    return setup, initial


# Largest entry of H coupling two Sz sectors, of P H P - H + 2 h Sz, or
# of R' H R' - H, that the symmetry blocks tolerate; check_symmetries
# reads all three in one pass, the flip as H's table against itself.
FLIP_TOL = 1e-12


def check_symmetries(ham, h, mags, mirror):
    """(Sz, flip, reflection) defects of H, the blocks' three symmetries.

    They are the largest triplet whose row and column lie in different
    sectors (mags is Sz per index), max |P H P - H + 2h Sz| (P maps index
    i to 3^L - 1 - i) and max |R' H R' - H| (R' maps i to mirror[i], with
    the sign basis.reflection_twist of its sector).  Raises NumericsError
    at the first beyond FLIP_TOL.  H is summed once into a table indexed
    by (offset x - y, column y), one row per offset that H holds, closed
    under negation.  P sends (d, y) to (-d, 3^L - 1 - y), so P H P is the
    table reversed in both axes.  R' H R' is gathered at the images of
    H's triplets only: a position that only R' H R' holds mirrors one
    that H holds, with the same defect.
    """
    dim = 3**ham.L
    top = dim - 1
    shift = ham.row - ham.col + top        # offset slot in [0, 2 top]
    held = np.zeros(2 * dim - 1, dtype=bool)
    held[shift] = held[top] = True
    held |= held[::-1]
    slot = np.cumsum(held) - 1
    table = np.bincount(slot[shift] * dim + ham.col, weights=ham.data,
                        minlength=(int(slot[-1]) + 1) * dim).reshape(-1, dim)
    flip = table[::-1, ::-1] - table
    flip[slot[top]] += 2.0 * h * mags
    sign = reflection_twist(ham.L, mags)
    at = mirror[ham.row] - mirror[ham.col] + top
    image = sign[ham.row] * sign[ham.col] * np.where(
        held[at], table[slot[at], mirror[ham.col]], 0.0)
    defects = (
        np.max(np.abs(ham.data[mags[ham.row] != mags[ham.col]]), initial=0.0),
        np.max(np.abs(flip)),
        np.max(np.abs(image - table[slot[shift], ham.col]), initial=0.0))
    for worst, message in zip(defects, (
            "H couples magnetization sectors (max |element| {:.3e})",
            "H - h Sz is not flip symmetric (max |P H P - H + 2h Sz| {:.3e})",
            "H is not symmetric under the site reflection (max "
            "|R' H R' - H| {:.3e})")):
        if worst > FLIP_TOL:
            raise NumericsError(message.format(worst))
    return tuple(map(float, defects))


def _character_blocks(group, twist):
    """Orbit bases of a sector's character blocks under its symmetry group.

    group[g] maps each configuration of sector M, as a full-space index,
    to its image under element g of {1, R'}, or of {1, R', P, P R'} on
    the sector M = 0, which P maps to itself; group[0] lists the sector.
    The elements holding R' carry the sign twist.  A character (e, p)
    takes the value e on R' and p on P.  An orbit enters a character's
    block when every element that fixes its representative, the orbit's
    smallest index, acts there as +1, with the unit vector
    sum_g chi(g) sign(g) e_(g rep) / sqrt(G |stab|).  These vectors are
    orthonormal, so a state's weight in the block needs no eigenvector.
    Yields (e, p, images as full-space indices, coefs) for each
    non-empty block.
    """
    G = group.shape[0]
    images = group[:, group.min(axis=0) == group[0]]
    fixed = images == images[0]
    for e in (1.0, -1.0):
        for p in (1.0, -1.0)[:G // 2]:
            phase = np.array([1.0, twist * e, p, twist * e * p])[:G]
            ok = np.all(~fixed | (phase[:, None] > 0.0), axis=0)
            if ok.any():
                yield (e, p, images[:, ok],
                       phase[:, None] / np.sqrt(G * fixed[:, ok].sum(axis=0)))


def _eigh(matrix, name):
    """np.linalg.eigh, with a failure to converge a NumericsError that
    names the matrix."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigh of {name}: {exc}") from None


def _block_eigh(op, imgs, coefs, name):
    """eigh of H on one character block of a sector, named name.

    op holds the triplets of H whose row lies in the sector, over the
    full space.  The block is scattered straight from them, each
    carrying the coefficients of its two ends, never through the whole
    sector.
    """
    n = imgs.shape[1]
    slot = np.full(3**op.L, -1)
    weight = np.zeros(3**op.L)
    for img, coef in zip(imgs, coefs):
        slot[img] = np.arange(n)
        weight[img] += coef
    use = (slot[op.row] >= 0) & (slot[op.col] >= 0)
    r, c = op.row[use], op.col[use]
    return _eigh(np.bincount(
        slot[r] * n + slot[c], weights=weight[r] * weight[c] * op.data[use],
        minlength=n * n).reshape(n, n), name)


def _orbit_weight(vec, images, coefs):
    """Squared norm of an input-basis vector in a block's orbit basis."""
    orbits = np.einsum("ga,ga->a", coefs, vec[images])
    return float(np.vdot(orbits, orbits).real)


def full_setup(params, h_tau, theta0, removal=None, *, all_blocks=False):
    """Full-space engine at h_tau, blocked by Sz and the group {1, P, R'}.

    Works inside the total-Sz sectors that can carry weight: the parity
    sectors M = L mod 2 hosting the protocol states, plus any sector
    touched by a custom removal vector (e.g. a noisy removal spreads
    everywhere), closed under M -> -M.  Three symmetries set the blocks;
    check_symmetries checks all three to FLIP_TOL in one pass over one
    table of H, reading the flip as the table against itself reversed:

    * H conserves Sz, so no triplet couples two sectors;
    * the spin flip P maps sector M to -M and commutes with H - h Sz, so
      only sectors M >= 0 run eigh and sector -M is the flipped copy;
    * the site reflection commutes with H.  On even L it maps the
      staggered phases of the product states to minus themselves on
      every |-> site, so the engine uses the twisted reflection
      R' = R (-1)^((L-M)/2) (basis.reflection_twist), under which the
      removal, initial, target and tower states are all even.

    Each sector M > 0 splits into the two characters of R', and M = 0
    into the four of {1, P, R', P R'}; the orbits are read off the
    full-space index maps of these elements.  A block enters the engine
    when the removal or the initial state carries weight at or above
    DEPLETION_FLOOR in it, or in its flipped copy in sector -M (a
    symmetry leaves them rounding, about 1e-32): F maps the span of
    these blocks into itself, so a run from the initial state never
    leaves it, and the kept set is closed under P.  The weights come
    from the orbit basis, before any eigh, so an unreached block is
    never scattered or diagonalized; all_blocks keeps every block, for
    the census of every dark state.  Each kept block is scattered
    straight from the sector's triplets of H onto one symmetrized vector
    per orbit, and its eigenvectors stay in those orbit coordinates
    (SectorEig).  In this eigenbasis P is a signed permutation of
    coordinates, which makes the string operator O(dim).  Returns
    (setup, initial product state on the full basis).
    """
    if not isinstance(params, ChainParams):
        raise ValidationError("full_setup expects ChainParams")
    tau = _period(h_tau, params.h)
    L = params.L
    ham = build_hamiltonian(params)
    mags = magnetization_of(L)
    mirror = reflection_of(L)
    check_symmetries(ham, params.h, mags, mirror)
    psi_r, psi_0 = protocol_states(params, theta0)
    if removal is not None:
        psi_r = np.asarray(removal, dtype=complex)
        if psi_r.shape != (3**L,):
            raise ValidationError(f"custom removal has shape {psi_r.shape}, "
                                  f"not ({3**L},)")
    sectors = set(M for M in range(L + 1) if (M - L) % 2 == 0)
    occupied = np.abs(psi_r) > 0.0
    sectors.update(np.abs(mags[occupied]).tolist())
    members = {M: np.flatnonzero(mags == M) for M in sorted(sectors)}
    row_m = mags[ham.row]
    top = 3**L - 1
    blocks = []
    # eigh holds several arrays of its block's size (syevd workspace alone
    # is 2 d^2), so each block is built just before its eigh, and the
    # largest go first, while few eigenvectors are stored beside them
    for M in sorted(members, key=lambda M: -members[M].size
                    / (4 if M == 0 else 2)):
        idx = members[M]
        group = [idx, mirror[idx]]
        if M == 0:
            group += [top - idx, top - mirror[idx]]
        inside = row_m == M
        op = ManyBodyOperator(L, ham.row[inside], ham.col[inside],
                              ham.data[inside])
        for e, p, imgs, coefs in _character_blocks(
                np.array(group), float(reflection_twist(L, M))):
            # P maps orbit to orbit and commutes with R': sector -M has
            # the same orbit coordinates and eigenvectors
            images = [imgs, top - imgs][:1 + (M > 0)]
            if not all_blocks and max(
                    _orbit_weight(state, img, coefs)
                    for state in (psi_r, psi_0)
                    for img in images) < DEPLETION_FLOOR:
                continue
            w, v = _block_eigh(op, imgs, coefs,
                               f"sector M = {M} (R' = {e:+g}, P = {p:+g})")
            blocks.append(SectorEig(M, imgs, coefs, w, v, parity=p,
                                    reflection=e))
            if M:
                blocks.append(SectorEig(-M, images[1], coefs,
                                        w - 2.0 * params.h * M, v,
                                        reflection=e))
    blocks.sort(key=lambda b: (b.label, -b.reflection, -b.parity))
    sizes = [b.energies.shape[0] for b in blocks]
    offsets = np.cumsum([0] + sizes[:-1])
    start = {(b.label, b.reflection, b.parity): off
             for b, off in zip(blocks, offsets)}
    # P maps eigenvector j of block (M, e, p) to p times eigenvector j of
    # block (-M, e, p); p = 1 off M = 0
    pos = np.concatenate([
        np.arange(d) + start[-b.label, b.reflection, b.parity]
        for b, d in zip(blocks, sizes)
    ])
    sign = np.concatenate([np.full(d, b.parity)
                           for b, d in zip(blocks, sizes)])
    setup = FiltrationSetup(
        tau=tau,
        engine="full",
        removal=psi_r,
        sector_eigs=blocks,
        flip=(pos, sign),
        h_tau=h_tau,
    )
    return setup, psi_0


def generic_setup(matrix, removal):
    """Engine for an arbitrary Hermitian matrix on a plain basis.

    A NaN or infinite entry is refused first: NaN passes the Hermitian
    check.  The period is 2 pi / (E_max - E_min), gluing the spectrum's
    extremal phases into one dark state from the band's edges.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("matrix has a NaN or infinite entry")
    if float(np.max(np.abs(matrix - matrix.conj().T))) > 1e-12:
        raise ValidationError("matrix must be Hermitian")
    dim = matrix.shape[0]
    if np.shape(removal) != (dim,):
        raise ValidationError("state dimension does not match setup basis")
    w, v = _eigh(matrix, "the generic matrix")
    blk = SectorEig(0, np.arange(dim)[None, :], np.ones((1, dim)), w, v)
    return FiltrationSetup(tau=resonance_period(w[0], w[-1]),
                           engine="generic", removal=removal,
                           sector_eigs=[blk])


class RotatingTarget:
    """Target state t(n) = sum_j w_j exp(-i n alpha_j) |c_j>, normalized.

    Captures targets that rotate rigidly inside the dark subspace, e.g.
    the breathing cat state whose two components beat at frequency 2h.
    """

    def __init__(self, components, weights, angles):
        self.components = components    # arrays in the setup input basis
        self.weights = np.asarray(weights, dtype=complex)
        # per-step phase advance of each component
        self.angles = np.asarray(angles, dtype=float)
        if not (len(self.components) == self.weights.size == self.angles.size):
            raise ValidationError("components, weights, angles must align")

    @classmethod
    def static(cls, state):
        return cls([state], np.ones(1), np.zeros(1))

    def at(self, n):
        """Explicit normalized target after n periods (for inspection)."""
        acc = sum(
            w * np.exp(-1j * n * al) * np.asarray(c)
            for w, al, c in zip(self.weights, self.angles, self.components)
        )
        return acc / np.linalg.norm(acc)


class Trajectory:
    """Recorded protocol run, row n for step n, reported normalized.

    survival[n] is the squared norm of the unnormalized F^n psi0 (the
    probability of n consecutive non-detections); q[n] the fidelity to
    the target; overlaps[n] the probe overlaps with F^n psi0; string[n]
    the string operator's expectation, on every step of an engine with a
    spin flip, and None on an engine without one.
    """

    def __init__(self, survival, q, overlaps, string, depleted):
        rise = float(np.max(np.diff(survival), initial=-np.inf))
        if rise > 1e-12:
            raise NumericsError(f"survival weight increased by {rise:.3e}")
        bad = np.flatnonzero(~np.isfinite(q))
        if bad.size:
            raise NumericsError(
                f"fidelity Q_n is {q[bad[0]]} at step {bad[0]} "
                f"(survival {survival[bad[0]]:.3e})")
        top = float(np.max(q, initial=0.0))
        if top > 1.0 + 1e-10 or float(np.min(q, initial=0.0)) < -1e-12:
            raise NumericsError(f"fidelity left [0, 1]: max {top}")
        self.survival = survival
        self.q = q
        self.overlaps = overlaps        # (n+1, k)
        self.string = string
        self.depleted = depleted

    @property
    def steps(self):
        """Each row's step, its index (the benchmark's traces count it)."""
        return np.arange(self.survival.size)


# A run stops at the first step whose survival falls below this floor.
# Survival starts at 1, and the survival identity S_n = 1 - sum_k |c_k|^2
# rounds its terms against that unit weight, so it cannot tell a survival
# below eps = 2^-52 from zero.  A step that cancels the state leaves far
# less, only the rounding of its amplitudes: a squared norm of about
# dim eps^2 (7.5e-32 on the L = 3 tower at h tau = pi/2, theta0 = 0),
# whose normalized observables are noise.
DEPLETION_FLOOR = 2.0**-52

# A chunk ends early at the first step whose survival has fallen below
# this fraction of the chunk's opening weight: the survival identity
# subtracts from that weight, so it keeps its relative digits only
# while the weight has not dropped far.  That step's survival, probe
# overlaps and string are then taken from its state, and the next chunk
# starts from it.
CHUNK_DROP = 1.0 / 16.0

# Largest gap at a chunk end between a renewal value (the survival
# identity, the flip-group string) and the same quantity of the formed
# state, relative to the chunk's opening weight (NumericsError beyond).
CHUNK_DRIFT_TOL = 1e-10

# array library that runs the step kernel, recorded in run metadata
BACKEND = "numpy"

# Largest number of bytes run_filtration records: per step, 8 for the
# survival, 8 for Q, 16 per probe and 16 for the string on an engine
# with a spin flip.  A run asking for more is refused before any
# allocation; horizons beyond it need no stepping of every step.  The
# tower engine's eigenvectors and goe_demo's matrix are held to it too.
TRAJECTORY_BUDGET = 2**30


def chunk_length(setup):
    """Steps per renewal chunk on an engine.

    A step costs a few gemv columns at any chunk length, so chunks are
    long, up to a budget of 2^18 entries per (B, dim) table: a power of
    two of at least 8, and at most 256, or 64 on an engine with a spin
    flip, whose string costs G B^2 per chunk for G flip groups.
    """
    top = 6 if setup.flip is not None else 8
    fit = max(2**18 // setup.dimension, 1).bit_length() - 1
    return 1 << min(top, max(3, fit))


class RenewalKernel:
    """Chunks of B filtration steps from the quantum renewal equation.

    With D = diag(phases) and r the removal state, one step is
    F = (1 - r r^H) D, and the amplitude removed at step j of a chunk
    that starts from psi is c_j = r^H D psi_(j-1) = r^H D F^(j-1) psi;
    the overlap of a probe t with psi_j is t^H F^j psi.  Each is one
    gemv against a table fixed per run whose rows follow by the
    recursion row_(j+1) = row_j F = (row_j - (row_j . r) r^H) * phases,
    from r^H D for c and from t^H F for a probe, O(B dim) in all.  This
    is the renewal equation of Friedman, Kessler and Barkai (PRE 95,
    032141, 2017) solved row by row.  Survival follows
    S_j = S_0 - sum_(k<=j) |c_k|^2.  The state is formed only at a
    chunk's end, in the frame that D^j carries: psi_j = Z_j * y_j,
    Z_j = phases^j, y_j = psi - sum_(k<=j) c_k R_k, with R_k = D^-k r.

    The string <psi_j|P|psi_j> of a signed flip permutation P (i to
    pi(i), sign s_i) needs no state either.  flip = (pi, s, label, w)
    puts coordinate i in the flip group g = label[i], whose exact turn
    w_g = conj(ph[pi i]) ph[i] (FiltrationSetup.flip_groups; pi maps
    each group onto one group) holds over a chunk of any length.  The
    string is sum_g w_g^j Q_g(y_j), Q_g(u) = sum_(i in g) s_i
    conj(u[pi i]) u[i], and Q_g(y_j) is Q_g(psi), minus the prefix
    sum of c_k A_g[k] with A_g = R[:, g] @ (s conj(psi[pi]))[g], minus
    the same for pi(g) conjugated, plus the prefix quadratic
    sum_(k,l<=j) conj(c_k) G_g[k, l] c_l of the table G_g = R^H P_g R
    fixed per run.  G_g is Toeplitz up to a phase per row, so it costs
    O(B dim G) to build for G groups, and a chunk O(B dim G + G B^2).
    """

    def __init__(self, phases, removal, probes, length, flip=None):
        self.flip = flip
        self.length = B = length
        dim = phases.shape[0]
        self.powers = np.cumprod(np.broadcast_to(phases, (B, dim)), axis=0)
        self.returns = self.powers.conj() * removal             # D^-k r
        bra = removal.conj()

        def times_f(rows, out):
            # out = rows F, in place; out must not alias rows
            np.multiply((rows @ removal)[:, None], bra, out=out)
            np.subtract(rows, out, out=out)
            out *= phases

        # tables[i B + j] is row j of table i: c first, then each probe
        self.tables = np.empty(((1 + len(probes)) * B, dim), dtype=complex)
        rows = self.tables.reshape(-1, B, dim)
        rows[0, 0] = bra * phases                   # r^H D
        times_f(probes.conj(), rows[1:, 0])         # t^H F
        for j in range(1, B):
            times_f(rows[:, j - 1], rows[:, j])
        if flip is not None:
            pos, sign, group, w = flip
            self.members = np.eye(w.size)[group]            # (dim, G)
            self.mirror = group[pos[np.argmax(self.members, axis=0)]]
            self.group_powers = np.cumprod(
                np.broadcast_to(w, (B, w.size)), axis=0)
            # with ph[pi i] = conj(w_g) ph[i] on group g, G_g[k, l] is
            # conj(w_g)^k u_g(k - l), u_g(m) = sum_(i in g) ph[i]^m x_i
            x = self.members * (sign * removal[pos].conj() * removal)[:, None]
            u = np.concatenate([(self.powers[-2::-1] @ x.conj()).conj(),
                                x.sum(axis=0)[None], self.powers[:-1] @ x])
            lag = np.subtract.outer(np.arange(B), np.arange(B)) + B - 1
            gram = (self.group_powers.conj()[:, None] * u[lag]).transpose(
                2, 0, 1)
            # contiguous, as the products in strings run 3-4 times
            # slower on strided tables
            self.gram_lower = np.ascontiguousarray(np.tril(gram))
            self.gram_upper = np.ascontiguousarray(
                np.triu(gram, 1).transpose(0, 2, 1))

    def strings(self, psi, c):
        """<psi_j|P|psi_j> for j = 1 .. B, without forming psi_j."""
        pos, sign = self.flip[:2]
        paired = self.members * (sign * psi[pos].conj())[:, None]
        linear = np.cumsum(c[:, None] * (self.returns @ paired), axis=0)
        quad = np.cumsum(c.conj() * (self.gram_lower @ c)
                         + c * (self.gram_upper @ c.conj()), axis=1).T
        q = psi @ paired - linear - linear[:, self.mirror].conj() + quad
        return np.einsum("jg,jg->j", self.group_powers, q)

    def advance(self, psi, c, m):
        """psi_m, without forming the states before it."""
        return self.powers[m - 1] * (psi - c[:m] @ self.returns[:m])


def _fidelity(coef, overlaps, gram, survival):
    """Q_n = |<t_n|psi_n>|^2 / (<t_n|t_n> S_n) of a target on each row n.

    The target t_n = sum_j coef[n, j] c_j has the Gram matrix gram over
    its components c_j, overlaps[n, j] = <c_j|psi_n> holds the probe
    overlaps of the unnormalized state and survival[n] = S_n its weight.
    A coef of one row serves every row.
    """
    amp = np.einsum("...j,...j->...", coef.conj(), overlaps)
    tnorm = np.einsum("...j,...j->...", coef.conj() @ gram, coef).real
    return (amp.real**2 + amp.imag**2) / (tnorm * survival)


def _eigen_inputs(setup, initial, target):
    """The initial state (unit norm, else ValidationError), the target's
    components as rows and their Gram matrix, in the eigenbasis."""
    psi = setup.to_eigen(initial)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValidationError("initial state must have unit norm")
    probes = np.array([setup.to_eigen(c) for c in target.components])
    return psi, probes, probes.conj() @ probes.T


def run_filtration(setup, initial, n_steps, target):
    """Iterate the filtration operator and record observables.

    The state is propagated unnormalized in the eigenbasis; survival,
    probe overlaps and, on an engine with a spin flip, the string
    expectation are recorded at every step (including n=0), and Q_n
    follows from the overlaps (_fidelity).  An n_steps whose recorded
    arrays pass TRAJECTORY_BUDGET bytes is refused (ValidationError).
    Steps run in chunks through the RenewalKernel on every coordinate of
    the engine, which for the full engine are the blocks its removal and
    initial state reach
    (full_setup); to_eigen refuses an initial state or a target with
    weight outside them.  At each chunk end the survival identity and
    the flip-group string are checked against the formed state
    (NumericsError beyond CHUNK_DRIFT_TOL).  A chunk cut short by
    CHUNK_DROP records its last step from that state.  Iteration stops
    at the first step whose survival falls below DEPLETION_FLOOR
    (depleted flag).  That step is not recorded, as its observables are
    normalized by rounding noise: the trajectory ends at the last step at
    or above the floor.  target is a RotatingTarget; its components are
    the probes.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValidationError("n_steps must be a non-negative integer")
    flip = setup.flip is not None
    total = int(n_steps) + 1
    size = total * (16 + 16 * len(target.components) + 16 * flip)
    if size > TRAJECTORY_BUDGET:
        raise ValidationError(
            f"n_steps = {n_steps} would record {size} bytes of trajectory, "
            f"above the budget of {TRAJECTORY_BUDGET} bytes")
    psi, probes, gram = _eigen_inputs(setup, initial, target)

    survival = np.empty(total)
    survival[0] = float(np.vdot(psi, psi).real)
    overlaps = np.empty((total, probes.shape[0]), dtype=complex)
    overlaps[0] = probes.conj() @ psi
    string = None
    if flip:
        string = np.empty(total, dtype=complex)     # normalized at the end
        string[0] = setup.string_rows(psi)

    kernel = RenewalKernel(setup.phases, setup.removal_eig, probes,
                           chunk_length(setup),
                           setup.flip + setup.flip_groups if flip else None)
    B = kernel.length
    done = 0
    depleted = False
    weight = survival[0]
    while done < n_steps and not depleted:
        m = min(B, n_steps - done)
        out = kernel.tables @ psi
        c = out[:B]
        surv = weight - np.cumsum(c.real**2 + c.imag**2)
        floor = max(CHUNK_DROP * weight, DEPLETION_FLOOR)
        cut = surv[m - 1] < floor
        if cut:
            m = int(np.argmax(surv < floor)) + 1
        lo, end = done + 1, done + m
        survival[lo:end + 1] = surv[:m]
        overlaps[lo:end + 1] = out[B:].reshape(-1, B)[:, :m].T
        if flip:
            string[lo:end + 1] = kernel.strings(psi, c)[:m]
        psi = kernel.advance(psi, c, m)
        opening, weight = weight, float(np.vdot(psi, psi).real)
        formed = [("survival identity", survival, weight)]
        if flip:
            formed.append(("flip-group string", string, setup.string_rows(psi)))
        for name, values, value in formed:
            drift = abs(values[end] - value)
            if drift > CHUNK_DRIFT_TOL * opening:
                raise NumericsError(
                    f"{name} drifted by {drift:.3e} from the formed state "
                    f"at step {end}, in a chunk that opened at {opening:.3e}"
                )
            if cut:
                # the renewal values err relative to the opening weight,
                # far above this step's own: take them from the state
                values[end] = value
        if cut:
            overlaps[end] = probes.conj() @ psi
            depleted = weight < DEPLETION_FLOOR
        done += m

    count = done + 1 - depleted
    survival = survival[:count]
    overlaps = overlaps[:count]
    # a static target needs no per-row rotation
    coef = target.weights[None, :]
    if np.any(target.angles):
        coef = coef * np.exp(-1j * np.outer(np.arange(count), target.angles))
    with np.errstate(divide="ignore", invalid="ignore"):
        # exact depletion gives 0/0, which Trajectory rejects
        q = _fidelity(coef, overlaps, gram, survival)
    return Trajectory(
        survival=survival,
        q=q,
        overlaps=overlaps,
        string=string[:count] / survival if flip else None,
        depleted=depleted,
    )


def filtration_time(trajectory, eps):
    """Smallest step n with Q_n >= 1 - eps, or None when no step gets there."""
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must lie in (0, 1]")
    hits = np.flatnonzero(trajectory.q >= 1.0 - eps)
    return int(hits[0]) if hits.size else None
