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

import numpy as np

from darkfilter.basis import BasisEncoding, digits_of
from darkfilter.errors import NumericsError, ValidationError


class ChainParams:
    """Couplings of the spin-1 chain (open boundary)."""

    def __init__(self, L, J=1.0, h=1.0, D=0.1, J2=0.0, J3=0.0):
        if not isinstance(L, (int, np.integer)) or L < 2:
            raise ValidationError(f"L must be an integer >= 2, got {L!r}")
        for name, v in (("J", J), ("h", h), ("D", D), ("J2", J2), ("J3", J3)):
            if not math.isfinite(v):
                raise ValidationError(f"coupling {name} must be finite, got {v!r}")
        self.L = L
        self.J = J
        self.h = h
        self.D = D
        self.J2 = J2
        self.J3 = J3

    def __eq__(self, other):
        return type(other) is ChainParams and vars(other) == vars(self)

    def tower_energy(self, n):
        """Energy of the n-bi-magnon tower state."""
        return (self.D - self.h) * self.L + 2.0 * n * self.h


class StateVector:
    def __init__(self, basis, amplitudes):
        amplitudes = np.asarray(amplitudes)
        if amplitudes.shape != (basis.dimension,):
            raise ValidationError(
                f"amplitude shape {amplitudes.shape} does not match "
                f"basis dimension {basis.dimension}"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


class ManyBodyOperator:
    """Real operator on the full space as COO triplets.

    data[k] sits at (row[k], col[k]), both full-space indices; entries at
    a repeated position add.
    """

    def __init__(self, basis, row, col, data):
        self.basis = basis
        self.row = row
        self.col = col
        self.data = data

    def __matmul__(self, vec):
        """The operator applied to a real vector over its basis."""
        return np.bincount(self.row, weights=self.data * vec[self.col],
                           minlength=self.basis.dimension)


def build_hamiltonian(params):
    """Real-symmetric Hamiltonian on the full 3^L space, as triplets.

    The diagonal is h sum_j m_j + D sum_j m_j^2, m = 1 - digit.  The XY
    term of the bond (i, i+d), sites 0-based, is (S+_i S-_(i+d) + h.c.)/2:
    S+ lowers a digit by one and S- raises it, each with element sqrt(2),
    so the hop moves index k to k - 3^i + 3^(i+d) with element J_d
    wherever digit_i >= 1 and digit_(i+d) <= 1, and its conjugate moves
    it back.  An index difference fixes the bond, so every triplet is one
    entry of H.
    """
    L = params.L
    basis = BasisEncoding.full(L)
    digits = digits_of(L)
    m = 1.0 - digits           # per-site Sz eigenvalue
    index = np.arange(3**L)
    rows, cols = [index], [index]
    data = [params.h * m.sum(axis=1) + params.D * (m**2).sum(axis=1)]
    for d, coupling in ((1, params.J), (2, params.J2), (3, params.J3)):
        if coupling == 0.0:
            continue
        for i in range(L - d):
            src = index[(digits[:, i] >= 1) & (digits[:, i + d] <= 1)]
            dst = src - 3**i + 3 ** (i + d)
            rows += [dst, src]
            cols += [src, dst]
            data.append(np.full(2 * src.size, float(coupling)))
    return ManyBodyOperator(basis, np.concatenate(rows), np.concatenate(cols),
                            np.concatenate(data))


def bimagnon_raising(L):
    """Q+ = (1/2) sum_j exp(i pi j) (S+_j)^2 as triplets.

    (S+)^2 / 2 maps |-> (digit 2) to |+> (digit 0) with element 1, so the
    site-j term moves index k to k - 2 * 3^(j-1) with sign (-1)^j.
    """
    basis = BasisEncoding.full(L)
    digits = digits_of(L)
    index = np.arange(3**L)
    rows, cols, data = [], [], []
    for j in range(1, L + 1):
        src = index[digits[:, j - 1] == 2]
        rows.append(src - 2 * 3 ** (j - 1))
        cols.append(src)
        data.append(np.full(src.size, (-1.0) ** j))
    return ManyBodyOperator(basis, np.concatenate(rows), np.concatenate(cols),
                            np.concatenate(data))


class ScarTower:
    """The L+1 exact tower states as rows over the full basis."""

    def __init__(self, params, basis, states, energies):
        self.params = params
        self.basis = basis
        self.states = states        # (L+1, 3^L), real
        self.energies = energies    # (L+1,)

    def state(self, n):
        return StateVector(self.basis, self.states[n].astype(complex))


def build_tower(params):
    """Construct the tower by repeated application of Q+ to Omega."""
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


class SgaReport:
    """Residuals certifying the tower is exact.

    eigen_residual:   max_n || (H - E_n) B_n ||
    algebra_residual: max_n || ([H, Q+] - 2h Q+) B_n ||
    """

    def __init__(self, eigen_residual, algebra_residual):
        self.eigen_residual = eigen_residual
        self.algebra_residual = algebra_residual

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
    H = build_hamiltonian(params)
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
