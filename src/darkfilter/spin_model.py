"""Spin-1 XY chain, its exact bi-magnon tower, and the protocol states.

The Hamiltonian on L sites with open boundaries is

    H = J sum_i (Sx_i Sx_{i+1} + Sy_i Sy_{i+1}) + h sum_i Sz_i
        + D sum_i (Sz_i)^2
        + J2 sum_i (Sx_i Sx_{i+2} + Sy_i Sy_{i+2})
        + J3 sum_i (Sx_i Sx_{i+3} + Sy_i Sy_{i+3})

XY couplings over an odd distance (J, J3) annihilate the bi-magnon
tower, so the tower states stay exact eigenstates under J3; the
even-distance J2 term destroys them.

The tower is built from the fully polarized state Omega = |--...-> by
repeated application of the staggered bi-magnon raising operator
Q+ = (1/2) sum_j exp(i pi j) (S+_j)^2.  With positive normalization the
n-th member is

    B_n = binom(L, n)^(-1/2) sum_{|S| = n} (-1)^(sum S) |S>,

where |S> has sites in S flipped to |+> and the rest in |->, and its
energy is E_n = (D - h) L + 2 n h.

All matrices are real in the digit basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from darkfilter.basis import BasisEncoding, digits_of
from darkfilter.errors import NumericsError, ValidationError

# Largest |element| coupling two magnetization sectors that
# sz_sector_split tolerates.
SECTOR_LEAK_TOL = 1e-12

# Local operators in digit order (|+>, |0>, |->).
SPLUS = np.sqrt(2.0) * (np.diag([1.0, 1.0], k=1))
SMINUS = SPLUS.T


@dataclass(frozen=True)
class ChainParams:
    """Couplings of the spin-1 chain (open boundary)."""

    L: int
    J: float = 1.0
    h: float = 1.0
    D: float = 0.1
    J2: float = 0.0
    J3: float = 0.0

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise ValidationError(f"L must be an integer >= 2, got {self.L!r}")
        for name in ("J", "h", "D", "J2", "J3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"coupling {name} must be finite, got {v!r}")

    def tower_energy(self, n):
        """Energy of the n-bi-magnon tower state."""
        return (self.D - self.h) * self.L + 2.0 * n * self.h


@dataclass
class StateVector:
    basis: BasisEncoding
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes)
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValidationError(
                f"amplitude shape {self.amplitudes.shape} does not match "
                f"basis dimension {self.basis.dimension}"
            )

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class ManyBodyOperator:
    basis: BasisEncoding
    matrix: sp.csr_array


def _embed(local, site, L):
    """Single-site operator at site (1-based) as a sparse full-space matrix."""
    left = sp.eye_array(3 ** (L - site), format="csr")
    right = sp.eye_array(3 ** (site - 1), format="csr")
    return sp.csr_array(sp.kron(left, sp.kron(sp.csr_array(local), right)))


def _xy_coupling(L, distance):
    """sum_i (Sx_i Sx_{i+d} + Sy_i Sy_{i+d}) over the open chain, sparse."""
    total = sp.csr_array((3**L, 3**L))
    for i in range(1, L - distance + 1):
        hop = _embed(SPLUS, i, L) @ _embed(SMINUS, i + distance, L)
        total = total + 0.5 * (hop + hop.T)
    return total


def build_hamiltonian(params):
    """Sparse real-symmetric Hamiltonian on the full 3^L space."""
    L = params.L
    basis = BasisEncoding.full(L)
    digits = digits_of(L)
    m = 1.0 - digits           # per-site Sz eigenvalue
    diag = params.h * m.sum(axis=1) + params.D * (m**2).sum(axis=1)
    H = sp.diags_array(diag, format="csr")
    H = H + params.J * _xy_coupling(L, 1)
    if params.J2 != 0.0:
        H = H + params.J2 * _xy_coupling(L, 2)
    if params.J3 != 0.0:
        H = H + params.J3 * _xy_coupling(L, 3)
    return ManyBodyOperator(basis, sp.csr_array(H))


def bimagnon_raising(L):
    """Q+ = (1/2) sum_j exp(i pi j) (S+_j)^2 as a sparse real matrix."""
    pair_flip = np.zeros((3, 3))
    pair_flip[0, 2] = 1.0      # (1/2) (S+)^2 maps |-> to |+>
    total = sp.csr_array((3**L, 3**L))
    for j in range(1, L + 1):
        total = total + (-1.0) ** j * _embed(pair_flip, j, L)
    return total


@dataclass
class ScarTower:
    """The L+1 exact tower states as rows over the full basis."""

    params: ChainParams
    basis: BasisEncoding
    states: np.ndarray          # (L+1, 3^L), real
    energies: np.ndarray        # (L+1,)

    def state(self, n):
        return StateVector(self.basis, self.states[n].astype(complex))


def build_tower(params):
    """Construct the tower by repeated sparse application of Q+."""
    L = params.L
    basis = BasisEncoding.full(L)
    qplus = bimagnon_raising(L)
    states = np.zeros((L + 1, 3**L))
    vec = np.zeros(3**L)
    vec[3**L - 1] = 1.0        # all digits 2: the fully polarized |--...->
    states[0] = vec
    for n in range(1, L + 1):
        vec = qplus @ vec
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise NumericsError(f"tower construction collapsed at n={n}")
        vec = vec / nrm
        states[n] = vec
    energies = np.array([params.tower_energy(n) for n in range(L + 1)])
    return ScarTower(params, basis, states, energies)


@dataclass(frozen=True)
class SgaReport:
    """Residuals certifying the tower is exact.

    eigen_residual:   max_n || (H - E_n) B_n ||
    algebra_residual: max_n || ([H, Q+] - 2h Q+) B_n ||
    """

    eigen_residual: float
    algebra_residual: float

    @property
    def max(self):
        return max(self.eigen_residual, self.algebra_residual)


def sga_residual(params):
    """Check the restricted spectrum-generating algebra on the tower.

    Builds the Hamiltonian and tower for the given couplings and reports
    the worst eigenvalue residual ||(H - E_n) B_n|| and the worst
    restricted-algebra residual ||([H, Q+] - 2h Q+) B_n|| over the whole
    ladder (n = 0 covers the defining relation on Omega).
    """
    tower = build_tower(params)
    H = build_hamiltonian(params).matrix
    qplus = bimagnon_raising(params.L)
    twoh = 2.0 * params.h
    r_eig = 0.0
    r_alg = 0.0
    for n in range(tower.states.shape[0]):
        b = tower.states[n]
        r_eig = max(r_eig, float(np.linalg.norm(H @ b - tower.energies[n] * b)))
        comm = H @ (qplus @ b) - qplus @ (H @ b)
        r_alg = max(r_alg, float(np.linalg.norm(comm - twoh * (qplus @ b))))
    return SgaReport(r_eig, r_alg)


def protocol_states(params, theta0):
    """Removal and initial product states of the filtration protocol.

    The initial state is theta0-dependent,

        psi0 = prod_j (|+>_j + exp(i (pi j + theta0)) |->_j) / sqrt(2),

    and the removal state is the same product at theta0 = pi.  Both are
    equal-weight superpositions over the whole tower; returned in that
    order (removal, initial).
    """
    L = params.L
    basis = BasisEncoding.full(L)

    def product(theta):
        vec = np.ones(1, dtype=complex)
        for j in range(1, L + 1):
            site = np.array([1.0, 0.0, np.exp(1j * (np.pi * j + theta))],
                            dtype=complex) / np.sqrt(2.0)
            vec = np.kron(site, vec)
        return StateVector(basis, vec)

    return product(np.pi), product(theta0)


@dataclass(frozen=True)
class SectorBlock:
    basis: BasisEncoding
    matrix: np.ndarray          # dense real block


def sz_sector_split(operator, sectors, mags):
    """Split a full-space operator into its magnetization-diagonal blocks.

    Verifies that the operator does not couple different total-Sz
    sectors (up to SECTOR_LEAK_TOL) and returns dense blocks keyed by M
    for the M values in sectors; mags is Sz per full-space index.
    """
    L = operator.basis.L
    if operator.basis.kind != "full":
        raise ValidationError("sector split expects a full-space operator")
    coo = operator.matrix.tocoo()
    cross = mags[coo.row] != mags[coo.col]
    if np.any(cross):
        worst = float(np.max(np.abs(coo.data[cross])))
        if worst > SECTOR_LEAK_TOL:
            raise NumericsError(
                f"operator couples magnetization sectors (max |element| {worst:.3e})"
            )
    csr = operator.matrix
    blocks = {}
    for M in sorted(set(int(M) for M in sectors)):
        idx = np.nonzero(mags == M)[0]
        if idx.size == 0:
            continue
        sub = csr[idx][:, idx]
        block = sub.toarray() if sp.issparse(sub) else np.asarray(sub)
        blocks[M] = SectorBlock(
            BasisEncoding("sector", L, idx.size, states=idx),
            block.real if np.isrealobj(block) else block,
        )
    return blocks
