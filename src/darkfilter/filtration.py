"""Filtration protocol: engine construction, iteration, dark subspaces.

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
symmetry blocks (SectorEig), so states enter and leave it by one path.
Three engines exist:

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
F is never diagonalized: its dark part comes from dark_subspace and its
bright eigenvalues from the secular equation of the spectral module.
On the tower engine, jump_filtration_time finds a filtration time from
powers of F instead of iterating.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from darkfilter.basis import (
    BasisEncoding,
    magnetization_of,
    reflection_of,
    reflection_twist,
    string_parity_sign,
)
from darkfilter.errors import NumericsError, ValidationError
from darkfilter.spin_model import (
    ChainParams,
    ManyBodyOperator,
    StateVector,
    build_hamiltonian,
    protocol_states,
)

# Degeneracy clustering tolerance for eigenphases, in radians.  The
# resonant periods are constructed as exact ratios, so true collisions
# sit at rounding error while distinct phases are separated by O(1/L).
PHASE_TOL = 1e-9

# A degenerate group whose removal component is smaller than this is
# fully dark.
DARK_OVERLAP_TOL = 1e-12


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
    """Everything needed to iterate the protocol in the H eigenbasis.

    engine is "tower", "full" or "generic"; basis is the basis of
    run_filtration's inputs and outputs; energies (dim,) are the
    engine-space eigenvalues of H and phases exp(-i E tau).  removal_eig
    is the removal state in the eigenbasis, unit norm: an input-basis
    StateVector is projected with to_eigen on construction.  sector_eigs
    are the blocks of H in engine order, which the coordinates follow.
    The spin flip prod X maps coordinate i to flip_pos[i] with sign
    flip_sign[i]; both are None when no flip is defined.
    """

    def __init__(self, engine, tau, basis, energies, phases, removal_eig,
                 sector_eigs, params=None, theta0=None, flip_pos=None,
                 flip_sign=None):
        self.engine = engine
        self.tau = tau
        self.basis = basis
        self.energies = np.asarray(energies, dtype=float)
        self.phases = np.ascontiguousarray(phases, dtype=complex)
        self.sector_eigs = sector_eigs
        self.params = params
        self.theta0 = theta0
        self.flip_pos = flip_pos
        self.flip_sign = flip_sign
        if isinstance(removal_eig, StateVector):
            removal_eig = self.to_eigen(removal_eig)
        self.removal_eig = np.ascontiguousarray(removal_eig, dtype=complex)
        if abs(np.linalg.norm(self.removal_eig) - 1.0) > 1e-12:
            raise ValidationError("removal vector must have unit norm")
        if float(np.max(np.abs(np.abs(self.phases) - 1.0))) > 1e-12:
            raise NumericsError("propagator phases are not unimodular")

    @property
    def dimension(self):
        return self.energies.shape[0]

    def retuned(self, tau, theta0):
        """The same engine at another period and initial angle.

        H and the removal state depend on neither, so the eigenbasis is
        reused and only the phases exp(-i E tau) are recomputed.  The
        full engine's blocks are those the removal reaches, which hold
        the protocol state at every angle; to_eigen refuses a state that
        leaves them.
        """
        return FiltrationSetup(self.engine, tau, self.basis, self.energies,
                               np.exp(-1j * self.energies * tau),
                               self.removal_eig, self.sector_eigs,
                               self.params, theta0, self.flip_pos,
                               self.flip_sign)

    def to_eigen(self, state):
        """Input-basis state (StateVector or array) -> eigenbasis coords."""
        vec = state.amplitudes if isinstance(state, StateVector) else state
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (self.basis.dimension,):
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
        out = np.zeros(self.basis.dimension, dtype=complex)
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
        if self.flip_pos is None:
            raise ValidationError("string operator unavailable for this engine")
        return np.vdot(self.flip_sign * psi[self.flip_pos], psi)


def _matvec(matrix, vec):
    """matrix @ vec for a complex vec.

    A real matrix acts on the real and imaginary parts apart, so numpy
    never copies it to complex.
    """
    if np.iscomplexobj(matrix):
        return matrix @ vec
    return matrix @ vec.real + 1j * (matrix @ vec.imag)


def reduced_setup(params, tau, theta0):
    """Tower-reduced engine: H diagonal on the L+1 bi-magnon states.

    Needs no full-space vectors, so it scales far beyond the dense cap.
    The removal and initial states are the exact tower decompositions of
    the protocol product states, with binomial weights sqrt(C(L,n)/2^L).
    The spin flip maps B_n to string_parity_sign(L) B_(L-n).  The tower
    basis is the eigenbasis, one block whose eigenvectors are the
    identity.  Returns (setup, initial state in the tower basis).
    """
    if not isinstance(params, ChainParams):
        raise ValidationError("reduced_setup expects ChainParams")
    if params.J2 != 0.0:
        raise ValidationError("tower engine requires J2 = 0 (tower not exact)")
    L = params.L
    n = np.arange(L + 1)
    energies = (params.D - params.h) * L + 2.0 * params.h * n
    # exact integer division: 2.0**L overflows from L = 1024
    weights = np.sqrt([math.comb(L, int(m)) / 2**L for m in n])
    removal = (-1.0) ** n * weights
    initial = np.exp(1j * (L - n) * theta0) * weights
    setup = FiltrationSetup(
        engine="tower",
        tau=tau,
        basis=BasisEncoding.tower(L),
        energies=energies,
        phases=np.exp(-1j * energies * tau),
        removal_eig=removal.astype(complex),
        sector_eigs=[SectorEig(0, n[None, :], np.ones((1, L + 1)), energies,
                               np.eye(L + 1))],
        params=params,
        theta0=theta0,
        flip_pos=n[::-1],
        flip_sign=np.full(L + 1, string_parity_sign(L)),
    )
    return setup, StateVector(setup.basis, initial)


# Largest entry of H coupling two Sz sectors, of P H P - H + 2 h Sz, or
# of R' H R' - H, that the symmetry blocks tolerate.
FLIP_TOL = 1e-12


def _symmetry_defect(ham, image, sign, diagonal):
    """Largest entry of S H S - H + diag(diagonal).

    S is the signed permutation e_k -> sign_k e_(image k), an involution,
    so S H S holds sign_x sign_y H[image x, image y] at (x, y).  H is
    read from a table of its triplets indexed by (offset x - y, column
    y), one row per offset that H holds (two per bond and the diagonal),
    in O(nnz + offsets * 3^L); an offset H does not hold reads 0.  The
    defect is taken at every position H holds and on the diagonal: a
    position off the diagonal where only S H S holds an entry mirrors one
    where H does, with the same defect.
    """
    dim = ham.basis.dimension
    top = dim - 1
    shift = ham.row - ham.col + top        # offset slot in [0, 2 top]
    held = np.zeros(2 * dim - 1, dtype=bool)
    held[shift] = True
    slot = np.cumsum(held) - 1
    table = np.bincount(slot[shift] * dim + ham.col, weights=ham.data,
                        minlength=(int(slot[-1]) + 1) * dim)

    def entries(x, y):
        at = x - y + top
        return np.where(held[at], table[np.maximum(slot[at], 0) * dim + y],
                        0.0)

    diag = np.arange(dim)
    x = np.concatenate([ham.row, diag])
    y = np.concatenate([ham.col, diag])
    defect = sign[x] * sign[y] * entries(image[x], image[y]) - entries(x, y)
    defect += np.where(x == y, diagonal[x], 0.0)
    return float(np.max(np.abs(defect)))


def check_flip_symmetry(ham, h, mags):
    """Largest entry of P H P - H + 2 h Sz, P the global spin flip.

    P maps index i to 3^L - 1 - i; mags is Sz per index.  Raises
    NumericsError beyond FLIP_TOL: the full engine pairs sector -M with
    sector M through P.
    """
    dim = ham.basis.dimension
    worst = _symmetry_defect(ham, np.arange(dim)[::-1], np.ones(dim),
                             2.0 * h * mags)
    if worst > FLIP_TOL:
        raise NumericsError(
            f"H - h Sz is not flip symmetric (max |P H P - H + 2h Sz| "
            f"{worst:.3e})"
        )
    return worst


def check_reflection_symmetry(ham, mags):
    """Largest entry of R' H R' - H, R' the twisted site reflection.

    R' maps configuration k to its mirror image with the sign
    basis.reflection_twist of its sector; mags is Sz per index.  Raises
    NumericsError beyond FLIP_TOL: the full engine splits each sector
    into the characters of R'.
    """
    L = ham.basis.L
    worst = _symmetry_defect(ham, reflection_of(L),
                             reflection_twist(L, mags).astype(float),
                             np.zeros(ham.basis.dimension))
    if worst > FLIP_TOL:
        raise NumericsError(
            f"H is not symmetric under the site reflection (max "
            f"|R' H R' - H| {worst:.3e})"
        )
    return worst


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


def _block_eigh(op, imgs, coefs):
    """eigh of H on one character block of a sector.

    op holds the triplets of H whose row lies in the sector, over the
    full space.  The block is scattered straight from them, each
    carrying the coefficients of its two ends, never through the whole
    sector.
    """
    n = imgs.shape[1]
    slot = np.full(op.basis.dimension, -1)
    weight = np.zeros(op.basis.dimension)
    for img, coef in zip(imgs, coefs):
        slot[img] = np.arange(n)
        weight[img] += coef
    use = (slot[op.row] >= 0) & (slot[op.col] >= 0)
    r, c = op.row[use], op.col[use]
    return np.linalg.eigh(np.bincount(
        slot[r] * n + slot[c], weights=weight[r] * weight[c] * op.data[use],
        minlength=n * n).reshape(n, n))


def _orbit_weight(vec, images, coefs):
    """Squared norm of an input-basis vector in a block's orbit basis."""
    orbits = np.einsum("ga,ga->a", coefs, vec[images])
    return float(np.vdot(orbits, orbits).real)


def full_setup(params, tau, theta0, removal=None, *, all_blocks=False):
    """Full-space engine blocked by Sz and the symmetry group {1, P, R'}.

    Works inside the total-Sz sectors that can carry weight: the parity
    sectors M = L mod 2 hosting the protocol states, plus any sector
    touched by a custom removal vector (e.g. a noisy removal spreads
    everywhere), closed under M -> -M.  Three symmetries, each checked on
    the triplets of H to FLIP_TOL, set the blocks:

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
    L = params.L
    ham = build_hamiltonian(params)
    mags = magnetization_of(L)
    row_m = mags[ham.row]
    cross = row_m != mags[ham.col]
    leak = float(np.max(np.abs(ham.data[cross]), initial=0.0))
    if leak > FLIP_TOL:
        raise NumericsError(
            f"H couples magnetization sectors (max |element| {leak:.3e})"
        )
    check_flip_symmetry(ham, params.h, mags)
    check_reflection_symmetry(ham, mags)
    psi_r, psi_0 = protocol_states(params, theta0)
    if removal is not None:
        vec = removal.amplitudes if isinstance(removal, StateVector) else removal
        psi_r = StateVector(ham.basis, np.asarray(vec, dtype=complex))
        nrm = psi_r.norm()
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError("custom removal vector must have unit norm")
    sectors = set(M for M in range(L + 1) if (M - L) % 2 == 0)
    occupied = np.abs(psi_r.amplitudes) > 0.0
    sectors.update(np.abs(mags[occupied]).tolist())
    members = {M: np.flatnonzero(mags == M) for M in sorted(sectors)}
    mirror = reflection_of(L)
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
        op = ManyBodyOperator(ham.basis, ham.row[inside], ham.col[inside],
                              ham.data[inside])
        for e, p, imgs, coefs in _character_blocks(
                np.array(group), float(reflection_twist(L, M))):
            # P maps orbit to orbit and commutes with R': sector -M has
            # the same orbit coordinates and eigenvectors
            images = [imgs, top - imgs][:1 + (M > 0)]
            if not all_blocks and max(
                    _orbit_weight(state.amplitudes, img, coefs)
                    for state in (psi_r, psi_0)
                    for img in images) < DEPLETION_FLOOR:
                continue
            w, v = _block_eigh(op, imgs, coefs)
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
    flip_pos = np.concatenate([
        np.arange(d) + start[-b.label, b.reflection, b.parity]
        for b, d in zip(blocks, sizes)
    ])
    flip_sign = np.concatenate([np.full(d, b.parity)
                                for b, d in zip(blocks, sizes)])
    energies = np.concatenate([b.energies for b in blocks])
    setup = FiltrationSetup(
        engine="full",
        tau=tau,
        basis=ham.basis,
        energies=energies,
        phases=np.exp(-1j * energies * tau),
        removal_eig=psi_r,
        sector_eigs=blocks,
        params=params,
        theta0=theta0,
        flip_pos=flip_pos,
        flip_sign=flip_sign,
    )
    return setup, psi_0


def generic_setup(matrix, removal, tau=None):
    """Engine for an arbitrary Hermitian matrix on a plain basis.

    With tau omitted, the period is set to 2 pi / (E_max - E_min), which
    makes the spectrum's extremal phases collide and engineers one dark
    state from the top and bottom of the band.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("matrix must be square")
    if float(np.max(np.abs(matrix - matrix.conj().T))) > 1e-12:
        raise ValidationError("matrix must be Hermitian")
    dim = matrix.shape[0]
    w, v = np.linalg.eigh(matrix)
    if tau is None:
        tau = resonance_period(w[0], w[-1])
    removal = np.asarray(removal, dtype=complex)
    if removal.shape != (dim,):
        raise ValidationError("removal dimension mismatch")
    basis = BasisEncoding.generic(dim)
    blk = SectorEig(0, np.arange(dim)[None, :], np.ones((1, dim)), w, v)
    setup = FiltrationSetup(
        engine="generic",
        tau=tau,
        basis=basis,
        energies=w,
        phases=np.exp(-1j * w * tau),
        removal_eig=StateVector(basis, removal),
        sector_eigs=[blk],
    )
    return setup


def _cluster_angles(angles, tol):
    """Cluster angles whose sorted gaps are below tol, with wrap-around.

    Returns (order, starts, label): cluster k holds the indices
    order[starts[k]:starts[k + 1]] in ascending angle, and label[i] is the
    cluster of index i.  Clusters come in ascending angle, except that a
    cluster reaching across pi comes first, its members near pi before
    those near -pi.  Warns when two clusters are closer than 10 tol.
    """
    order = np.argsort(angles, kind="stable")
    ordered = angles[order]
    starts = np.flatnonzero(np.diff(ordered) >= tol) + 1
    gaps = ordered[starts] - ordered[starts - 1]
    if starts.size:
        wrap = ordered[0] + 2.0 * math.pi - ordered[-1]
        if wrap < tol:
            # the last cluster joins the first across pi
            shift = order.size - starts[-1]
            order = np.roll(order, shift)
            starts = starts[:-1] + shift
        else:
            gaps = np.append(gaps, wrap)
    if starts.size and gaps.min() < 10.0 * tol:
        warnings.warn(
            f"eigenphase clusters separated by only {gaps.min():.2e} rad; "
            "grouping may be ambiguous",
            stacklevel=3,
        )
    starts = np.concatenate([[0], starts])
    label = np.empty(order.size, dtype=np.intp)
    label[order] = np.cumsum(np.bincount(starts, minlength=order.size)) - 1
    return order, starts, label


def degeneracy_groups(setup):
    """Cluster the eigenphases of U(tau) into degenerate groups.

    The phases are diagonal in the engine frame, so a group is a set of
    engine coordinates.  Clusters are gaps below PHASE_TOL.  Returns
    (phase, members) pairs in ascending angle of the phase: phase is the
    group's representative unimodular eigenvalue, members its engine
    coordinates, ascending.
    """
    if not isinstance(setup, FiltrationSetup):
        raise ValidationError("expected a FiltrationSetup")
    values = setup.phases
    groups = []
    order, starts, _ = _cluster_angles(np.angle(values), PHASE_TOL)
    for members in np.split(order, starts[1:]):
        members = tuple(int(m) for m in np.sort(members))
        rep = values[members[0]]
        groups.append((complex(rep / abs(rep)), members))
    groups.sort(key=lambda g: float(np.angle(g[0])))
    return groups


class DarkSubspace:
    """Orthonormal dark vectors with their unimodular eigenphases."""

    def __init__(self, vectors, phases, members):
        self.vectors = vectors      # (dim, k) orthonormal engine-frame columns
        self.phases = phases        # (k,) eigenvalues of F on each vector
        self.members = members      # source group members per vector

    @property
    def count(self):
        return self.vectors.shape[1]

    def overlaps(self, vec):
        """<Phi_delta|vec> for each dark vector, vec in engine coordinates."""
        return self.vectors.conj().T @ np.asarray(vec, dtype=complex)


def _canonical_phase(vec):
    """Rotate a vector so its largest-modulus entry is real positive."""
    i = int(np.argmax(np.abs(vec)))
    pivot = vec[i]
    if abs(pivot) == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


def _group_darks(members, removal):
    """Dark vectors hosted by one degenerate group, as (dim, k) columns.

    If the removal state has no component on the group, every group
    coordinate is dark.  Otherwise the group contributes g-1 vectors by
    the recursive formal determinant: the delta-th dark vector is the
    determinant whose first row holds the group kets e_1..e_(delta+1),
    the second the removal overlaps <psi_r|e_i>, and the remaining rows
    the overlaps of the previously built dark vectors; cofactor
    expansion along the ket row yields a vector automatically orthogonal
    to psi_r and to all its predecessors.
    """
    dim = removal.shape[0]
    idx = list(members)
    a = removal[idx].conj()
    if np.linalg.norm(a) < DARK_OVERLAP_TOL:
        vectors = np.zeros((dim, len(idx)), dtype=complex)
        vectors[idx, np.arange(len(idx))] = 1.0
        return vectors
    rows = [a]
    darks = []
    for delta in range(1, len(idx)):
        size = delta + 1
        numeric = np.array([row[:size] for row in rows])
        coeffs = np.empty(size, dtype=complex)
        for i in range(size):
            minor = np.delete(numeric, i, axis=1)
            coeffs[i] = (-1.0) ** i * np.linalg.det(minor)
        vec = np.zeros(dim, dtype=complex)
        vec[idx[:size]] = coeffs
        nrm = np.linalg.norm(vec)
        if nrm < 1e-14:
            raise NumericsError(
                "determinant construction degenerated; removal overlaps "
                "are numerically dependent"
            )
        vec = _canonical_phase(vec / nrm)
        darks.append(vec)
        rows.append(vec[idx].conj())
    if not darks:
        return np.zeros((dim, 0), dtype=complex)
    return np.column_stack(darks)


def dark_subspace(setup):
    """All dark states of a setup, concatenated over degenerate groups.

    Vectors are expressed in the engine eigenbasis (for the tower engine
    that is the tower basis itself).
    """
    vectors, phases, members = [], [], []
    for phase, group in degeneracy_groups(setup):
        v = _group_darks(group, setup.removal_eig)
        vectors.append(v)
        phases += [phase] * v.shape[1]
        members += [group] * v.shape[1]
    return DarkSubspace(np.concatenate(vectors, axis=1),
                        np.array(phases, dtype=complex), tuple(members))


def dark_projection(setup, vec):
    """Project engine-frame coordinates onto the dark subspace implicitly.

    Within each degenerate eigenphase group the dark part is the
    complement of the normalized removal component, so the projection
    needs only two sums per group: the removal weight and its overlap
    with vec, both taken by bincount over the group labels.  Unlike
    dark_subspace this never
    materializes a dark basis, which keeps the full engine at L = 10
    (dimension ~3e4) inside a few hundred MB.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (setup.dimension,):
        raise ValidationError("dark projection expects engine-frame coordinates")
    *_, label = _cluster_angles(np.angle(setup.phases), PHASE_TOL)
    removal = setup.removal_eig
    weight = np.bincount(label, weights=removal.real**2 + removal.imag**2)
    dot = removal.conj() * vec
    dot = np.bincount(label, weights=dot.real) \
        + 1j * np.bincount(label, weights=dot.imag)
    # a group without removal component is fully dark
    scale = np.divide(dot, weight, out=np.zeros_like(dot),
                      where=np.sqrt(weight) >= DARK_OVERLAP_TOL)
    return vec - removal * scale[label]


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
    """Recorded protocol run: everything is reported normalized.

    survival[n] is the squared norm of the unnormalized F^n psi0 (the
    probability of n consecutive non-detections); q[n] the fidelity to
    the target; overlaps[n] the probe overlaps with F^n psi0; string[n]
    the string operator's expectation, on every step of an engine with a
    spin flip.  q, overlaps and string may be None.
    """

    def __init__(self, steps, survival, q, overlaps, string, depleted):
        rise = float(np.max(np.diff(survival), initial=-np.inf))
        if rise > 1e-12:
            raise NumericsError(f"survival weight increased by {rise:.3e}")
        if q is not None:
            bad = np.flatnonzero(~np.isfinite(q))
            if bad.size:
                raise NumericsError(
                    f"fidelity Q_n is {q[bad[0]]} at step "
                    f"{int(steps[bad[0]])} (survival "
                    f"{survival[bad[0]]:.3e})"
                )
            top = float(np.max(q, initial=0.0))
            if top > 1.0 + 1e-10 or float(np.min(q, initial=0.0)) < -1e-12:
                raise NumericsError(f"fidelity left [0, 1]: max {top}")
        self.steps = steps
        self.survival = survival
        self.q = q
        self.overlaps = overlaps        # (n+1, k)
        self.string = string
        self.depleted = depleted


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


def chunk_length(setup):
    """Steps per renewal chunk on an engine.

    A step costs a few gemv columns at any chunk length, so chunks are
    long, up to a budget of 2^18 entries per (B, dim) table: a power of
    two of at least 8, and at most 256, or 64 on an engine with a spin
    flip, whose string costs G B^2 per chunk for G flip groups.
    """
    top = 6 if setup.flip_pos is not None else 8
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
    pi(i), sign s_i) needs no state either.  With w_i = conj(ph[pi i])
    ph[i] it is sum_g w_g^j Q_g(y_j), Q_g(u) = sum_(i in g) s_i
    conj(u[pi i]) u[i], over the flip groups g of coordinates that share
    one w (clustered as eigenphases are, w_g taken from a member; pi maps
    each group onto one group).  Q_g(y_j) is Q_g(psi), minus the prefix
    sum of c_k A_g[k] with A_g = R[:, g] @ (s conj(psi[pi]))[g], minus
    the same for pi(g) conjugated, plus the prefix quadratic
    sum_(k,l<=j) conj(c_k) G_g[k, l] c_l of the table G_g = R^H P_g R
    fixed per run.  G_g is Toeplitz up to a phase per row, so it costs
    O(B dim G) to build for G groups, and a chunk O(B dim G + G B^2).
    """

    def __init__(self, phases, removal, probes, length, flip=None):
        self.length = B = length
        dim = phases.shape[0]
        self.powers = np.cumprod(np.broadcast_to(phases, (B, dim)), axis=0)
        self.returns = self.powers.conj() * removal             # D^-k r
        bra = removal.conj()

        def times_f(rows):
            return (rows - np.outer(rows @ removal, bra)) * phases

        # tables[i B + j] is row j of table i: c first, then each probe
        self.tables = np.empty(((1 + len(probes)) * B, dim), dtype=complex)
        rows = self.tables.reshape(-1, B, dim)
        rows[0, 0] = bra * phases                   # r^H D
        rows[1:, 0] = times_f(probes.conj())        # t^H F
        for j in range(1, B):
            rows[:, j] = times_f(rows[:, j - 1])
        self.flip = flip
        if flip is not None:
            pos, sign = flip
            w = phases[pos].conj() * phases
            order, starts, self.group = _cluster_angles(np.angle(w),
                                                        PHASE_TOL)
            rep = order[starts]
            self.mirror = self.group[pos[rep]]
            self.group_powers = np.cumprod(
                np.broadcast_to(w[rep], (B, rep.size)), axis=0)
            # with ph[pi i] = conj(w_g) ph[i] on group g, G_g[k, l] is
            # conj(w_g)^k u_g(k - l), u_g(m) = sum_(i in g) ph[i]^m x_i
            x = self._by_group(sign * removal[pos].conj() * removal)
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

    def _by_group(self, values):
        """(dim, G) matrix holding values[i] in the column of i's group."""
        out = np.zeros((values.size, self.mirror.size), dtype=complex)
        out[np.arange(values.size), self.group] = values
        return out

    def strings(self, psi, c):
        """<psi_j|P|psi_j> for j = 1 .. B, without forming psi_j."""
        pos, sign = self.flip
        paired = self._by_group(sign * psi[pos].conj())
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


def run_filtration(setup, initial, n_steps, target=None):
    """Iterate the filtration operator and record observables.

    The state is propagated unnormalized in the eigenbasis; survival,
    probe overlaps and, on an engine with a spin flip, the string
    expectation are recorded at every step (including n=0), and Q_n
    follows from the overlaps (_fidelity).  Steps run in chunks through
    the RenewalKernel on every coordinate of the engine, which for the
    full engine are the blocks its removal and initial state reach
    (full_setup); to_eigen refuses an initial state or a target with
    weight outside them.  At each chunk end the survival identity and
    the flip-group string are checked against the formed state
    (NumericsError beyond CHUNK_DRIFT_TOL).  A chunk cut short by
    CHUNK_DROP records its last step from that state.  Iteration stops
    at the first step whose survival falls below DEPLETION_FLOOR
    (depleted flag).  That step is not recorded, as its observables are
    normalized by rounding noise: the trajectory ends at the last step at
    or above the floor.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ValidationError("n_steps must be a non-negative integer")
    psi = setup.to_eigen(initial)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValidationError("initial state must have unit norm")
    rot = None
    probes = np.zeros((0, setup.dimension), dtype=complex)
    if target is not None:
        rot = target if isinstance(target, RotatingTarget) \
            else RotatingTarget.static(target)
        probes = np.array([setup.to_eigen(c) for c in rot.components])
        gram = probes.conj() @ probes.T
    flip = setup.flip_pos is not None

    total = n_steps + 1
    survival = np.empty(total)
    survival[0] = float(np.vdot(psi, psi).real)
    overlaps = string = None
    if rot is not None:
        overlaps = np.empty((total, probes.shape[0]), dtype=complex)
        overlaps[0] = probes.conj() @ psi
    if flip:
        string = np.empty(total, dtype=complex)     # normalized at the end
        string[0] = setup.string_rows(psi)

    kernel = RenewalKernel(
        setup.phases, setup.removal_eig, probes, chunk_length(setup),
        (setup.flip_pos, setup.flip_sign) if flip else None)
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
        if overlaps is not None:
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
            if overlaps is not None:
                overlaps[end] = probes.conj() @ psi
            depleted = weight < DEPLETION_FLOOR
        done += m

    count = done + 1 - depleted
    steps = np.arange(count)
    survival = survival[:count]
    q = None
    if rot is not None:
        overlaps = overlaps[:count]
        # a static target needs no per-row rotation
        coef = rot.weights[None, :]
        if np.any(rot.angles):
            coef = coef * np.exp(-1j * np.outer(steps, rot.angles))
        with np.errstate(divide="ignore", invalid="ignore"):
            # exact depletion gives 0/0, which Trajectory rejects
            q = _fidelity(coef, overlaps, gram, survival)
    return Trajectory(
        steps=steps,
        survival=survival,
        q=q,
        overlaps=overlaps,
        string=string[:count] / survival if flip else None,
        depleted=depleted,
    )


class FiltrationTime:
    """First crossing of the fidelity threshold."""

    def __init__(self, n_eps, reached, max_q):
        self.n_eps = n_eps          # None when the threshold is never met
        self.reached = reached
        self.max_q = max_q


def filtration_time(trajectory, eps):
    """Smallest n with Q_n >= 1 - eps, or the best Q attained."""
    if trajectory.q is None:
        raise ValidationError("trajectory was not recorded against a target")
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must lie in (0, 1]")
    hits = np.nonzero(trajectory.q >= 1.0 - eps)[0]
    if hits.size:
        return FiltrationTime(int(trajectory.steps[hits[0]]), True,
                              float(np.max(trajectory.q)))
    return FiltrationTime(None, False, float(np.max(trajectory.q, initial=0.0)))


# Largest relative drift of the target's conserved amplitude Q_n S_n.
DARK_AMPLITUDE_RTOL = 1e-10

# Smallest distance of Q on either side of 1 - eps at a crossing that the
# jump-ahead search trusts.
CROSSING_MARGIN = 1e-12

# Doublings after which the jump-ahead search gives up (n beyond 2^62).
MAX_DOUBLINGS = 62


def _pi_phases(m, q):
    """exp(-i pi m / q) for Python integers m, reduced modulo 2q exactly."""
    return np.exp(-1j * math.pi * np.array([k % (2 * q) for k in m],
                                           dtype=float) / q)


def jump_filtration_time(setup, initial, target, eps, h_tau):
    """Smallest n with Q_n >= 1 - eps on the tower engine, without stepping.

    h_tau = (p, q) is the resonance h*tau = pi p/q of the setup.  Doubling
    k until Q at n = 2^k reaches 1 - eps brackets the crossing in
    (2^(k-1), 2^k]; binary lifting from 2^(k-1) down to 1 then pins it.
    The state F^n psi0 is built from the powers F^(2^k) of the
    (L+1)-dimensional filtration matrix, and Q_n is evaluated by the
    helper run_filtration uses (_fidelity), with the phases of F and the
    rotation of the target reduced modulo 2 pi from integers so they do
    not drift with n.

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
    p, q = h_tau
    # E_k tau - E_0 tau = pi * levels[k] / q on the tower
    levels = [2 * p * k for k in range(setup.params.L + 1)]
    phases = _pi_phases(levels, q)
    drift = float(np.max(np.abs(setup.phases * setup.phases[0].conj()
                                - phases)))
    if drift > PHASE_TOL:
        raise ValidationError(
            f"setup phases are not at h*tau = pi*{p}/{q} (off by {drift:.2e})"
        )
    rot = target if isinstance(target, RotatingTarget) \
        else RotatingTarget.static(target)
    turns = np.rint(rot.angles * q / math.pi)
    if float(np.max(np.abs(rot.angles - math.pi * turns / q))) > 1e-12:
        raise ValidationError(
            f"target rotation is not a multiple of pi/{q}: {rot.angles}"
        )
    turns = [int(t) for t in turns]
    probes = np.array([setup.to_eigen(c) for c in rot.components])
    gram = probes.conj() @ probes.T
    psi0 = setup.to_eigen(initial)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValidationError("initial state must have unit norm")

    def amplitude(n, psi):
        """(Q_n, Q_n S_n) of the unnormalised state psi = F^n psi0."""
        coef = rot.weights * _pi_phases([t * n for t in turns], q)
        survival = float(np.vdot(psi, psi).real)
        q_n = float(_fidelity(coef[None], (probes.conj() @ psi)[None], gram,
                              survival)[0])
        return q_n, q_n * survival

    q0, kept = amplitude(0, psi0)
    dark = dark_projection(setup, psi0)
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
    devs = [np.outer(-r, r.conj() * phases)]

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
