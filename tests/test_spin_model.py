"""Hamiltonian, scar tower, and protocol states against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfilter.basis import magnetization_of, string_parity_sign
from darkfilter.errors import ValidationError
from darkfilter.spin_model import (
    ChainParams,
    bimagnon_raising,
    build_hamiltonian,
    build_tower,
    protocol_states,
    sga_residual,
)

from helpers import (
    dense_hamiltonian,
    flip_permutation_dense,
    product_state,
    sparse_bimagnon_raising,
    sparse_hamiltonian,
    subset_tower_state,
    triplets_to_dense,
)


@pytest.mark.parametrize(
    "L,kw",
    [
        (2, {}),
        (3, {"h": 0.7, "D": -0.3}),
        (4, {"J": 1.3, "J2": 0.11, "J3": 0.07}),
        (5, {"J2": 0.02, "J3": 0.1}),
    ],
)
def test_hamiltonian_matches_kron_oracle(L, kw):
    params = ChainParams(L=L, **kw)
    ham = triplets_to_dense(build_hamiltonian(params))
    oracle = dense_hamiltonian(L, params.J, params.h, params.D,
                               params.J2, params.J3)
    assert np.max(np.abs(ham - oracle)) < 1e-12


def test_hamiltonian_is_real_symmetric():
    ham = triplets_to_dense(build_hamiltonian(ChainParams(L=4, J2=0.05,
                                                         J3=0.1)))
    assert np.max(np.abs(ham - ham.T)) < 1e-14
    assert np.isrealobj(ham) or np.max(np.abs(ham.imag)) < 1e-14


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_tower_matches_subset_enumeration(L):
    tower = build_tower(ChainParams(L=L))
    for n in range(L + 1):
        oracle = subset_tower_state(L, n)
        assert np.max(np.abs(tower[n] - oracle)) < 1e-12


def test_tower_orthonormal():
    tower = build_tower(ChainParams(L=6))
    gram = tower @ tower.T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


@pytest.mark.parametrize("kw", [{}, {"J3": 0.1}, {"h": 0.6, "D": -0.2, "J3": 0.25}])
def test_tower_states_are_eigenstates(kw):
    params = ChainParams(L=5, **kw)
    ham = build_hamiltonian(params)
    tower = build_tower(params)
    for n in range(6):
        vec = tower[n]
        resid = ham @ vec - params.tower_energy(n) * vec
        assert np.linalg.norm(resid) < 1e-12
    # equal spacing 2h between neighbors
    spacing = np.diff(params.tower_energy(np.arange(6)))
    assert np.max(np.abs(spacing - 2.0 * params.h)) < 1e-12


def test_range_two_coupling_breaks_the_tower_interior():
    params = ChainParams(L=5, J2=0.05)
    ham = build_hamiltonian(params)
    tower = build_tower(params)
    # edge states survive, the interior does not
    for n in (0, 5):
        vec = tower[n]
        assert np.linalg.norm(ham @ vec
                              - params.tower_energy(n) * vec) < 1e-12
    vec = tower[2]
    assert np.linalg.norm(ham @ vec
                          - params.tower_energy(2) * vec) > 1e-3


def test_bimagnon_raising_walks_the_ladder():
    L = 4
    tower = build_tower(ChainParams(L=L))
    qplus = bimagnon_raising(L)
    for n in range(L):
        raised = qplus @ tower[n]
        coeff = tower[n + 1] @ raised
        assert coeff > 0                      # construction fixes the sign
        assert np.linalg.norm(raised - coeff * tower[n + 1]) < 1e-12
    assert np.linalg.norm(qplus @ tower[L]) < 1e-12


@pytest.mark.parametrize("L", [4, 5, 6, 7, 8])
def test_sga_residual_with_range_three_coupling(L):
    report = sga_residual(ChainParams(L=L, J3=0.1))
    assert report.max < 1e-10


def test_sga_residual_detects_breaking():
    report = sga_residual(ChainParams(L=4, J2=0.3))
    assert report.max > 1e-3


@pytest.mark.parametrize("theta0", [0.0, 0.37, math.pi / 6])
def test_protocol_states_match_product_oracle(theta0):
    L = 4
    psi_r, psi_0 = protocol_states(ChainParams(L=L), theta0)
    assert np.max(np.abs(psi_0 - product_state(L, theta0))) < 1e-12
    assert np.max(np.abs(psi_r - product_state(L, math.pi))) < 1e-12


def test_protocol_states_refuse_lengths_above_the_full_space_cap():
    with pytest.raises(ValidationError, match="cap"):
        protocol_states(ChainParams(L=11), 0.0)


@pytest.mark.parametrize("L,key,value", [(4, "h", 1e308), (4, "D", -1e308),
                                         (100, "h", 1e307)])
def test_chain_params_refuse_overflowing_energies(L, key, value):
    with pytest.raises(ValidationError, match=f"coupling {key} "):
        ChainParams(L=L, **{key: value})
    # just inside the bound L (|D| + 3 |h|) < inf
    ChainParams(L=L, **{key: value / (3.0 * L)})


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_protocol_states_tower_decomposition(L):
    """Both product states live entirely on the tower with binomial weights."""
    theta0 = 0.4
    tower = build_tower(ChainParams(L=L))
    psi_r, psi_0 = protocol_states(ChainParams(L=L), theta0)
    c_r = tower @ psi_r
    c_0 = tower @ psi_0
    n = np.arange(L + 1)
    weights = np.sqrt([math.comb(L, int(m)) / 2.0**L for m in n])
    # closed forms up to one global phase
    law_r = (-1.0) ** n * weights
    law_0 = np.exp(1j * (L - n) * theta0) * weights
    for coeffs, law in ((c_r, law_r), (c_0, law_0)):
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-12
        phase = coeffs[0] / law[0]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(coeffs - phase * law)) < 1e-12


@pytest.mark.parametrize("L", [3, 4, 5])
def test_string_operator_reflects_the_tower(L):
    # prod X maps B_n to string_parity_sign(L) B_(L-n)
    flip = flip_permutation_dense(L)
    tower = build_tower(ChainParams(L=L))
    sign = string_parity_sign(L)
    for n in range(L + 1):
        image = tower[n][flip]
        assert np.max(np.abs(image - sign * tower[L - n])) < 1e-12


def test_chain_params_validation():
    with pytest.raises(ValidationError):
        ChainParams(L=1)
    with pytest.raises(ValidationError):
        ChainParams(L=4, h=float("nan"))
    with pytest.raises(ValidationError):
        ChainParams(L=2.5)


COUPLING = st.floats(-1.5, 1.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(2, 6), J=COUPLING, J2=COUPLING, J3=COUPLING,
       h=COUPLING, D=COUPLING)
def test_triplets_match_sparse_kron_oracle(L, J, J2, J3, h, D):
    params = ChainParams(L=L, J=J, h=h, D=D, J2=J2, J3=J3)
    oracle = sparse_hamiltonian(L, J, h, D, J2, J3).toarray()
    assert np.max(np.abs(triplets_to_dense(build_hamiltonian(params))
                         - oracle)) <= 1e-14
    # the oracle has no entry between sectors for the engine's blocks to
    # miss
    mags = magnetization_of(L)
    assert np.max(np.abs(oracle[mags[:, None] != mags[None, :]]),
                  initial=0.0) == 0.0
    oracle_q = sparse_bimagnon_raising(L)
    assert np.array_equal(triplets_to_dense(bimagnon_raising(L)),
                          oracle_q.toarray())
    vec = np.zeros(3**L)
    vec[-1] = 1.0
    tower = build_tower(params)
    for n in range(L + 1):
        assert np.max(np.abs(tower[n] - vec)) <= 1e-14
        vec = oracle_q @ vec
        vec /= max(np.linalg.norm(vec), 1e-300)
