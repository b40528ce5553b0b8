"""Filtration engines, dark subspaces, and trajectories vs dense oracles."""

import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darkfilter import experiments, filtration, spectral
from darkfilter.basis import (magnetization_of, reflection_of,
                              string_parity_sign)
from darkfilter.cli import main
from darkfilter.errors import NumericsError, ValidationError
from darkfilter.experiments import (
    build_setup,
    make_target,
    perturbation_study,
    tar2_optimal_angle,
)
from darkfilter.filtration import (
    FiltrationSetup,
    RotatingTarget,
    SectorEig,
    Trajectory,
    filtration_time,
    full_setup,
    generic_setup,
    reduced_setup,
    resonance_period,
    run_filtration,
)
from darkfilter.spectral import (dark_projection, dark_subspace,
                                 degeneracy_groups, mode_spectrum)
from darkfilter.spin_model import (
    ChainParams,
    ManyBodyOperator,
    build_hamiltonian,
    build_tower,
)

from helpers import (
    SZ,
    block_eigenvectors,
    character_energies,
    cluster_angles_loop,
    dark_complement,
    dense_filtration_matrix,
    determinant_darks,
    dense_hamiltonian,
    dense_stepping,
    engine_columns,
    engine_support,
    flip_permutation_dense,
    kron_site,
    long_time_state,
    product_state,
    spectral_decomposition,
    triplets_to_dense,
    twisted_reflection_dense,
)


def _states(setup, initial, n_steps):
    """run_filtration with the input-basis unit vectors as target.

    The target components are the projections t_k = V V^H e_k of the unit
    vectors onto the engine span (V = engine_columns), so that
    Trajectory.overlaps[n, k] = <t_k|psi_n> = <e_k|psi_n> is amplitude k
    of the unnormalised F^n psi0, which never leaves that span.  Returns
    the trajectory and those states, (n_steps + 1, input dimension), zero
    off the configurations the engine covers.
    """
    dim = setup.removal.size
    support = engine_support(setup)
    columns = engine_columns(setup)
    probes = RotatingTarget(list(columns[support].conj() @ columns.T),
                            np.ones(support.size), [0] * support.size)
    traj = run_filtration(setup, initial, n_steps, target=probes)
    states = np.zeros((traj.survival.size, dim), dtype=complex)
    states[:, support] = traj.overlaps
    return traj, states


def _noisy_removal(L, lam, seed):
    """Protocol removal state plus seeded noise, weight in every sector."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    noise = rng.standard_normal(3**L) + 1j * rng.standard_normal(3**L)
    removal = product_state(L, math.pi) + lam * noise / np.linalg.norm(noise)
    return removal / np.linalg.norm(removal)


def test_full_engine_matches_dense_oracle():
    """30 protocol steps vs literal matrix powers of F = (1-|r><r|) expm."""
    L, theta0 = 3, 0.3
    setup, psi0 = full_setup(ChainParams(L=L), (2, 9), theta0)
    traj, states = _states(setup, psi0, 30)

    ham = dense_hamiltonian(L)
    fmat = dense_filtration_matrix(ham, setup.tau, product_state(L, math.pi))
    vec = product_state(L, theta0)
    for _ in range(30):
        vec = fmat @ vec
    assert abs(traj.survival[30] - np.vdot(vec, vec).real) < 1e-12
    assert np.max(np.abs(states[30] - vec)) < 1e-10


def test_tower_and_full_engines_agree():
    L = 5
    theta0 = 0.3
    params = ChainParams(L=L)
    red_setup, red_init = reduced_setup(params, (1, L), theta0)
    full_s, full_init = full_setup(params, (1, L), theta0)
    traj_r, states_r = _states(red_setup, red_init, 100)
    traj_f, states_f = _states(full_s, full_init, 100)
    assert np.max(np.abs(traj_r.survival - traj_f.survival)) < 1e-12
    assert np.max(np.abs(traj_r.string - traj_f.string)) < 1e-12
    # the states coincide up to the engines' global phase convention
    tower = build_tower(params)
    embedded = tower.T @ states_r[100]
    embedded /= np.linalg.norm(embedded)
    other = states_f[100] / np.linalg.norm(states_f[100])
    phase = np.vdot(embedded, other)
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.max(np.abs(embedded * phase / abs(phase) - other)) < 1e-10


def test_resonance_period():
    assert resonance_period(0.0, 2.0) == math.pi
    assert resonance_period(1.0, -1.0) == math.pi
    with pytest.raises(ValidationError):
        resonance_period(1.0, 1.0)


def test_tower_weights_beyond_float_powers_of_two():
    # 2.0**L overflows from L = 1024; the weights C(L, n) / 2^L do not
    setup, psi0 = reduced_setup(ChainParams(L=1100), (1, 1100), 0.3)
    assert abs(np.linalg.norm(setup.removal_eig) - 1.0) < 1e-12
    assert abs(np.linalg.norm(psi0) - 1.0) < 1e-12


def test_tower_removal_is_the_binomial_law_bit_for_bit():
    # the tower's eigenvectors are the identity: to_eigen moves no bit
    for L in range(3, 201):
        setup, _ = reduced_setup(ChainParams(L=L), (1, L), 0.3)
        law = (-1.0) ** np.arange(L + 1) * np.sqrt(
            [math.comb(L, n) / 2**L for n in range(L + 1)])
        assert np.array_equal(setup.removal_eig, law)


def test_retuned_keeps_the_removal_bits():
    setup, _ = build_setup(ChainParams(L=5, J2=0.02), (1, 5), 0.3, "full",
                           lam=0.01, noise_seed=3)
    again = setup.retuned((1, 4))
    assert again.removal is setup.removal
    assert np.array_equal(again.removal_eig, setup.removal_eig)


def test_full_setup_refuses_a_removal_of_the_wrong_length():
    with pytest.raises(ValidationError, match="shape"):
        full_setup(ChainParams(L=3), (1, 3), 0.0,
                   removal=np.full(26, 26 ** -0.5))


def test_nan_phases_are_not_unimodular():
    # a NaN energy makes its phase NaN: a comparison that a NaN passes
    # let it through
    energies = np.array([0.0, 1.0, math.nan, 3.0])
    with pytest.raises(NumericsError, match="not unimodular"):
        FiltrationSetup(
            tau=1.0, engine="generic", removal=np.full(4, 0.5),
            sector_eigs=[SectorEig(0, np.arange(4)[None, :],
                                   np.ones((1, 4)), energies, np.eye(4))])


def test_setup_refuses_phases_without_precision():
    # eps max|E| |tau| is the rounding of the phases exp(-i E tau), which
    # the setup bounds by PHASE_TOL (the tower steps exact levels, but the
    # period is the one declared)
    setup, _ = reduced_setup(ChainParams(L=4), (1, 4), 0.0)
    edge = filtration.PHASE_TOL / (np.finfo(float).eps
                                   * np.max(np.abs(setup.energies)))
    # tau = pi p at h tau = pi p and h = 1
    below, above = int(0.99 * edge / math.pi), int(1.01 * edge / math.pi)
    assert setup.retuned((below, 1)).tau == math.pi * below
    # h = -1 has the same max|E| and tau = -pi p; tau at h = 5e-324 is inf
    for h, p in ((1.0, above), (-1.0, above), (5e-324, 1)):
        with pytest.raises(ValidationError, match=r"tau = .* max\|E\|"):
            reduced_setup(ChainParams(L=4, h=h), (p, 1), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="tau = inf"):
            _diagonal_setup([0.0, 1.0, 2.0, 3.0], np.full(4, 0.5), math.inf)


@pytest.mark.parametrize("engine,flip", [
    ("tower", False), ("full", False), ("full", True), ("generic", True)])
def test_setup_refuses_a_chain_engine_or_flip_without_h_tau(engine, flip):
    # the tower's levels and the flip classes are integers of h_tau; once
    # unpacking a missing h_tau was a TypeError
    with pytest.raises(ValidationError, match="needs its resonance h_tau"):
        FiltrationSetup(
            tau=1.0, engine=engine, removal=np.full(4, 0.5),
            sector_eigs=[SectorEig(0, np.arange(4)[None, :],
                                   np.ones((1, 4)), np.arange(4.0),
                                   np.eye(4))],
            flip=(np.arange(4)[::-1], np.ones(4)) if flip else None)


def _diagonal_setup(energies, removal, tau=1.0):
    """Generic engine at period tau whose eigenbasis is the input basis."""
    dim = len(energies)
    return FiltrationSetup(
        tau=tau, engine="generic", removal=removal,
        sector_eigs=[SectorEig(0, np.arange(dim)[None, :], np.ones((1, dim)),
                               np.asarray(energies, dtype=float),
                               np.eye(dim))])


def _engines():
    """A tower, a full and a generic setup."""
    return [reduced_setup(ChainParams(L=4), (1, 4), 0.0)[0],
            full_setup(ChainParams(L=3), (1, 3), 0.0)[0],
            generic_setup(np.diag([0.0, 1.0, 2.0, 3.0]), np.full(4, 0.5))]


def test_to_eigen_refuses_a_state_of_the_wrong_length():
    # the input dimension is the removal's length, on every engine
    for setup in _engines():
        size = setup.removal.size
        for state in (np.full(size - 1, 0.5), np.full(size + 1, 0.5),
                      np.full((size, 1), 0.5)):
            with pytest.raises(ValidationError, match="state dimension"):
                setup.to_eigen(state)
        assert setup.from_eigen(setup.removal_eig).shape == (size,)


def test_generic_setup_refuses_a_removal_of_the_wrong_length():
    matrix = np.diag([0.0, 1.0, 2.0, 3.0])
    for removal in (np.full(3, 3 ** -0.5), np.full(5, 0.2 ** 0.5),
                    np.full((4, 1), 0.5)):
        with pytest.raises(ValidationError, match="state dimension"):
            generic_setup(matrix, removal)
    # a removal that is not a vector is refused by the record itself
    with pytest.raises(ValidationError, match="state dimension"):
        FiltrationSetup(
            tau=1.0, engine="generic", removal=np.full((4, 1), 0.5),
            sector_eigs=[SectorEig(0, np.arange(4)[None, :],
                                   np.ones((1, 4)), np.arange(4.0),
                                   np.eye(4))])


def test_eigh_failure_is_a_numerics_error(monkeypatch):
    # at J2 = 1e308 the sector eigh cannot converge
    with pytest.raises(NumericsError, match="eigh of sector M = 0 "):
        full_setup(ChainParams(L=4, J2=1e308), (1, 4), 0.0)

    # a generic matrix whose eigh fails is named in the message
    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericsError, match="eigh of the generic matrix: "
                       "Eigenvalues did not converge"):
        generic_setup(np.diag([0.0, 1.0, 2.0, 3.0]), np.full(4, 0.5))


def test_generic_setup_refuses_non_finite_entries():
    # a NaN passes max|A - A^H| > 1e-12, which compares False, and an
    # infinite diagonal makes A - A^H NaN with a numpy warning: both are
    # refused first, with no warning
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.inf)):
        for matrix in (np.full((4, 4), bad), np.diag([bad, 0.0, 0.0, 0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="NaN or infinite"):
                    generic_setup(matrix, np.full(4, 0.5))


def test_degeneracy_groups_at_resonance():
    # h tau = pi/3 folds the ladder mod 3
    setup, _ = reduced_setup(ChainParams(L=6), (1, 3), 0.0)
    groups = degeneracy_groups(setup)
    assert sorted(groups.members) == [(0, 3, 6), (1, 4), (2, 5)]
    assert np.all(np.abs(np.abs(groups.phases) - 1.0) < 1e-12)
    # ascending angle, one label per coordinate, binomial weights
    assert np.all(np.diff(np.angle(groups.phases)) > 0.0)
    for k, members in enumerate(groups.members):
        assert np.all(groups.label[list(members)] == k)
        assert groups.weights[k] == pytest.approx(
            sum(math.comb(6, n) for n in members) / 64.0, abs=1e-15)
    assert np.all(groups.reached)
    assert groups.dark_counts.tolist() == [len(m) - 1 for m in groups.members]


def test_degeneracy_groups_offresonant_all_singletons():
    # h tau = pi/7: the levels 2n mod 14 of n = 0..6 never meet
    setup, _ = reduced_setup(ChainParams(L=6), (1, 7), 0.0)
    groups = degeneracy_groups(setup)
    assert sorted(groups.members) == [(n,) for n in range(7)]


def test_degeneracy_groups_via_propagator():
    """degeneracy_groups of the full engine vs eigenphases of dense expm."""
    params = ChainParams(L=3, J3=0.1)
    tau = resonance_period(params.tower_energy(0), params.tower_energy(1))
    # h tau = pi: the period that glues neighbouring tower levels
    setup, _ = full_setup(params, (1, 1), 0.0,
                          removal=_noisy_removal(3, 0.1, 2))
    assert setup.tau == tau
    groups = degeneracy_groups(setup)
    assert sum(len(members) for members in groups.members) == 27
    assert any(len(members) > 1 for members in groups.members)
    dense = np.linalg.eigvals(
        sla.expm(-1j * tau * dense_hamiltonian(3, J3=0.1)))
    for phase, members in zip(groups.phases, groups.members):
        assert np.max(np.abs(setup.phases[list(members)] - phase)) < 1e-9
        assert np.count_nonzero(np.abs(dense - phase) < 1e-9) \
            == len(members)


def test_propagator_matches_expm():
    """The full engine's U(tau) = V diag(phases) V^dag is expm(-iH tau)."""
    setup, _ = full_setup(ChainParams(L=3, J3=0.1), (3, 25), 0.0,
                          removal=_noisy_removal(3, 0.1, 2))
    eye = np.eye(27, dtype=complex)
    u = np.column_stack([setup.from_eigen(setup.phases * setup.to_eigen(col))
                         for col in eye.T])
    direct = sla.expm(-1j * setup.tau * dense_hamiltonian(3, J3=0.1))
    assert np.max(np.abs(u - direct)) < 1e-10


# (L, J2, J3, lam, noise seed): tower-breaking and tower-keeping
# couplings, the twisted reflection R' (even L) and the plain one (odd
# L), and removal states with seeded noise in every sector
ORACLE_CASES = [
    (5, 0.03, 0.02, 0.0, None),
    (6, 0.02, 0.0, 0.0, None),
    (5, 0.03, 0.02, 0.05, 12),
    (4, 0.0, 0.0, 0.1, 4),
    (4, 0.03, 0.02, 0.0, None),
    (4, 0.03, 0.02, 0.05, 12),
]
ORACLE_IDS = ["L5-J2-J3", "L6-J2", "L5-J2-J3-noise", "L4-noise", "L4-J2-J3",
              "L4-J2-J3-noise"]


def _oracle_engine(case, all_blocks=False):
    """(setup, psi0, dense H, dense removal) at h tau = pi/L, theta0 = 0.3."""
    L, J2, J3, lam, seed = case
    params = ChainParams(L=L, J2=J2, J3=J3)
    removal = product_state(L, math.pi)
    custom = None
    if lam:
        removal = custom = _noisy_removal(L, lam, seed)
    setup, psi0 = full_setup(params, (1, L), 0.3, removal=custom,
                             all_blocks=all_blocks)
    return setup, psi0, dense_hamiltonian(L, J2=J2, J3=J3), removal


def _keys(setup):
    return [(b.label, b.reflection, b.parity) for b in setup.sector_eigs]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=ORACLE_IDS)
def test_full_engine_matches_dense_stepping(case):
    """150 steps of the symmetry-blocked engine vs dense F in 3^L, with
    prod X, on the blocks the run reaches."""
    setup, psi0, ham, removal = _oracle_engine(case)
    L, lam = case[0], case[3]
    every = set(_keys(_oracle_engine(case, all_blocks=True)[0]))
    kept = set(_keys(setup))
    if lam:
        # a noisy removal reaches both characters of every sector
        assert kept == every
        assert {b[1] for b in kept} == {1.0, -1.0}
    else:
        # the protocol reaches the R'-even blocks, and on M = 0 only the
        # flip character of the tower state B_(L/2)
        assert kept == {b for b in every if b[1] == 1.0
                        and (b[0] != 0 or b[2] == string_parity_sign(L))}
    n = 150
    traj, states = _states(setup, psi0, n)
    survival, string, last = dense_stepping(
        ham, math.pi / L, removal, psi0, n,
        flip_permutation_dense(L))
    assert np.max(np.abs(traj.survival - survival)) <= 1e-10
    assert np.max(np.abs(traj.string - string)) <= 1e-10
    assert np.max(np.abs(states[n] / math.sqrt(traj.survival[n]) - last)) \
        <= 1e-10


@pytest.mark.parametrize("case", ORACLE_CASES, ids=ORACLE_IDS)
def test_full_engine_spectrum_and_block_residuals(case):
    """The census engine spans its sectors; the engine is its reached cut."""
    setup, _, ham, _ = _oracle_engine(case)
    every = _oracle_engine(case, all_blocks=True)[0]
    L = case[0]
    flip = flip_permutation_dense(L)
    support = engine_support(every)
    assert support.size == every.dimension
    assert set(flip[support]) == set(support)
    dense = sla.eigvalsh(ham[np.ix_(support, support)])
    assert np.max(np.abs(np.sort(every.energies) - dense)) <= 1e-10
    # each kept block is the census engine's block, to the bit, and holds
    # the spectrum of dense H on its symmetry character
    census = dict(zip(_keys(every), every.sector_eigs))
    for key, blk in zip(_keys(setup), setup.sector_eigs):
        same = census[key]
        for field in ("images", "coefs", "energies", "vectors"):
            assert np.array_equal(getattr(blk, field), getattr(same, field))
        dense = character_energies(ham, L, *key)
        assert np.max(np.abs(np.sort(blk.energies) - dense)) <= 1e-10
    support = engine_support(setup)
    assert set(flip[support]) == set(support)
    assert any(b.label < 0 for b in setup.sector_eigs)
    mirror, twist = twisted_reflection_dense(L)
    for blk in every.sector_eigs:
        vecs = block_eigenvectors(blk, 3**L)
        resid = np.linalg.norm(ham @ vecs - vecs * blk.energies)
        assert resid <= 1e-10, (blk.label, resid)
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12
        # each block is an eigenspace of R', and of P on M = 0
        assert np.max(np.abs(twist[:, None] * vecs[mirror]
                             - blk.reflection * vecs)) <= 1e-14
        if blk.label == 0:
            assert np.max(np.abs(vecs[flip] - blk.parity * vecs)) <= 1e-14
    # the character blocks of M = 0 together span the sector
    zero = [b for b in every.sector_eigs if b.label == 0]
    if zero:
        assert len({(b.reflection, b.parity) for b in zero}) == len(zero)
        both = np.hstack([block_eigenvectors(b, 3**L) for b in zero])
        sector = np.flatnonzero(magnetization_of(L) == 0)
        assert both.shape[1] == sector.size
        assert np.max(np.abs(both.T @ both - np.eye(both.shape[1]))) <= 1e-12
        assert np.max(np.abs(both[np.setdiff1d(np.arange(3**L), sector)]),
                      initial=0.0) == 0.0


def test_perturbation_study_reuses_engine_for_tar2(tmp_path, monkeypatch):
    """The tar2 leg runs on the tar1 eigenbasis, retuned, and matches a
    fresh engine at h tau = pi/(L-1)."""
    calls = []
    real = experiments.full_setup

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "full_setup", counting)
    L = 6
    params = ChainParams(L=L, J2=0.02)
    perturbation_study(tmp_path, L, J2=0.02, n_steps=150)
    assert len(calls) == 1
    got = np.genfromtxt(tmp_path / "trajectory_tar2.csv", delimiter=",",
                        names=True)
    theta0 = tar2_optimal_angle(L)
    fresh, psi0 = real(params, (1, L - 1), theta0)
    target = make_target(fresh, params, "tar2", theta0)
    traj = run_filtration(fresh, psi0, 150, target=target)
    assert np.max(np.abs(got["survival"] - traj.survival)) <= 1e-12
    assert np.max(np.abs(got["q_n"] - traj.q)) <= 1e-12
    assert np.max(np.abs(got["string_re"] - traj.string.real)) <= 1e-12
    assert np.max(np.abs(got["string_im"] - traj.string.imag)) <= 1e-12


def test_full_setup_checks_flip_symmetry(monkeypatch):
    # c Sz_1 Sz_2^2 conserves Sz but is odd under the flip, so sector -M
    # is no longer sector M flipped and the engine must refuse to pair
    L = 4
    params = ChainParams(L=L, J2=0.02, J3=0.03)
    assert max(filtration.check_symmetries(
        build_hamiltonian(params), params.h, magnetization_of(L),
        reflection_of(L))) <= 1e-12
    odd = kron_site(SZ, 1, L) @ kron_site(SZ @ SZ, 2, L)
    real = filtration.build_hamiltonian

    def broken(params):
        ham = real(params)
        diag = np.arange(3**L)
        return ManyBodyOperator(ham.L, np.concatenate([ham.row, diag]),
                                np.concatenate([ham.col, diag]),
                                np.concatenate([ham.data,
                                                0.01 * np.diag(odd).real]))

    monkeypatch.setattr(filtration, "build_hamiltonian", broken)
    with pytest.raises(NumericsError, match="flip symmetric"):
        full_setup(params, (1, 4), 0.0)


def test_full_setup_checks_sz_conservation(monkeypatch, tmp_path):
    # a symmetric pair coupling |00..0> (M = 0) to the same state with
    # site 1 raised (M = 1): the engine blocks by Sz and must refuse
    L = 4
    real = filtration.build_hamiltonian
    zero = (3**L - 1) // 2                 # every digit 1
    mags = magnetization_of(L)
    assert (mags[zero], mags[zero - 1]) == (0, 1)

    def broken(params):
        ham = real(params)
        return ManyBodyOperator(ham.L,
                                np.concatenate([ham.row, [zero, zero - 1]]),
                                np.concatenate([ham.col, [zero - 1, zero]]),
                                np.concatenate([ham.data, [0.01, 0.01]]))

    monkeypatch.setattr(filtration, "build_hamiltonian", broken)
    with pytest.raises(NumericsError, match="magnetization sectors"):
        full_setup(ChainParams(L=L, J2=0.02), (1, L), 0.0)
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"L": {L}, "J2": 0.02, "n_steps": 10}}')
    assert main(["perturb", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2


def _site_one_quadratic(L, c):
    """build_hamiltonian plus c (Sz_1)^2: Sz- and flip-symmetric, not R."""
    real = filtration.build_hamiltonian
    term = c * np.diag(kron_site(SZ @ SZ, 1, L)).real
    diag = np.arange(3**L)

    def broken(params):
        ham = real(params)
        return ManyBodyOperator(ham.L, np.concatenate([ham.row, diag]),
                                np.concatenate([ham.col, diag]),
                                np.concatenate([ham.data, term]))
    return broken


@pytest.mark.parametrize("L", [4, 5], ids=["twisted", "plain"])
def test_full_setup_checks_reflection_symmetry(L, monkeypatch, tmp_path):
    # a site-1-only (Sz_1)^2 term conserves Sz and commutes with the flip,
    # but not with the site reflection, so the engine must refuse to split
    # the sectors into reflection characters
    params = ChainParams(L=L, J2=0.02, J3=0.03)
    mags, mirror = magnetization_of(L), reflection_of(L)
    assert max(filtration.check_symmetries(build_hamiltonian(params),
                                           params.h, mags, mirror)) <= 1e-12
    broken = _site_one_quadratic(L, 0.01)
    ham = broken(params)
    with monkeypatch.context() as patch:
        patch.setattr(filtration, "FLIP_TOL", math.inf)
        leak, flip, _ = filtration.check_symmetries(ham, params.h, mags,
                                                    mirror)
    assert max(leak, flip) <= 1e-12
    with pytest.raises(NumericsError, match="site reflection"):
        filtration.check_symmetries(ham, params.h, mags, mirror)
    monkeypatch.setattr(filtration, "build_hamiltonian", broken)
    with pytest.raises(NumericsError, match="site reflection"):
        full_setup(params, (1, 4), 0.0)
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"L": {L}, "J2": 0.02, "n_steps": 10}}')
    assert main(["perturb", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2


def _symmetry_breakers(L):
    """Extra triplets (rows, cols, data) to add to H, and the error each
    raises first: none, a diagonal entry that only P moves, a triplet
    without its transpose, a symmetric and mirror-symmetric coupling of
    sectors 0 and 1 (R' is odd there on even L), zero triplets on held,
    new and cross-sector positions, and a site-1-only (Sz_1)^2 term."""
    zero = (3**L - 1) // 2                 # every digit 1, M = 0
    ends = [zero - 1, zero - 3 ** (L - 1)]  # site 1 or site L raised, M = 1
    diag = np.arange(3**L)
    return {
        "none": (([], [], []), None),
        "diagonal": (([0], [0], [0.01]), "flip symmetric"),
        "one-sided": (([1], [3], [0.02]), "flip symmetric"),
        "cross-sector": (([zero, zero, *ends], [*ends, zero, zero],
                          [0.01] * 4), "magnetization sectors"),
        "zero-duplicates": (([zero, zero - 1, 5, 0, 0],
                             [zero - 1, zero, 5, 0, 4], [0.0] * 5), None),
        "site-one": ((diag, diag,
                      0.01 * np.diag(kron_site(SZ @ SZ, 1, L)).real),
                     "site reflection"),
    }


@pytest.mark.parametrize("kind", ["none", "diagonal", "one-sided",
                                  "cross-sector", "zero-duplicates",
                                  "site-one"])
@pytest.mark.parametrize("J2, J3", [(0.0, 0.0), (0.02, 0.03)],
                         ids=["nn", "J2J3"])
@pytest.mark.parametrize("L", [3, 4])
def test_check_symmetries_matches_dense(L, J2, J3, kind, monkeypatch):
    """The three defects of check_symmetries against dense matrices:
    the largest cross-sector triplet, max |P H P - H + 2h Sz| and
    max |R' H R' - H|, with H summed from its triplets."""
    params = ChainParams(L=L, J2=J2, J3=J3)
    ham = build_hamiltonian(params)
    (rows, cols, data), error = _symmetry_breakers(L)[kind]
    ham = ManyBodyOperator(ham.L,
                           np.concatenate([ham.row, rows]).astype(np.int64),
                           np.concatenate([ham.col, cols]).astype(np.int64),
                           np.concatenate([ham.data, data]))
    dense = triplets_to_dense(ham)
    sz = sum(np.diag(kron_site(SZ, j, L)).real for j in range(1, L + 1))
    flip = flip_permutation_dense(L)
    mirror, twist = twisted_reflection_dense(L)
    want = (
        np.max(np.abs(ham.data[sz[ham.row] != sz[ham.col]]), initial=0.0),
        np.max(np.abs(dense[np.ix_(flip, flip)] - dense
                      + 2.0 * params.h * np.diag(sz))),
        np.max(np.abs(np.outer(twist, twist) * dense[np.ix_(mirror, mirror)]
                      - dense)),
    )
    args = (ham, params.h, magnetization_of(L), reflection_of(L))
    with monkeypatch.context() as patch:
        patch.setattr(filtration, "FLIP_TOL", math.inf)
        got = filtration.check_symmetries(*args)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
    if error is None:
        assert max(got) <= 1e-12
        assert filtration.check_symmetries(*args) == got
    else:
        with pytest.raises(NumericsError, match=error):
            filtration.check_symmetries(*args)


@pytest.mark.parametrize("L", [4, 5, 7, 8])
def test_protocol_states_are_reflection_even(L):
    """Removal, initial and tower states are even under R' (R on odd L)."""
    mirror, twist = twisted_reflection_dense(L)
    states = [product_state(L, math.pi), product_state(L, 0.3),
              *build_tower(ChainParams(L=L))]
    for vec in states:
        assert np.max(np.abs(twist * vec[mirror] - vec)) <= 1e-15
    if L % 2 == 0:
        # the plain reflection maps them to minus themselves on odd n
        assert np.max(np.abs(product_state(L, 0.3)[mirror]
                             - product_state(L, 0.3))) > 0.1


@pytest.mark.parametrize("L", [6, 7])
def test_protocol_run_steps_only_the_even_blocks(L, monkeypatch):
    params = ChainParams(L=L, J2=0.02)
    setup, psi0 = full_setup(params, (1, L), 0.3)
    every, _ = full_setup(params, (1, L), 0.3, all_blocks=True)
    # the census engine holds every sector M = L mod 2 whole
    mags = magnetization_of(L)
    assert every.dimension == np.count_nonzero((L - mags) % 2 == 0)
    even = [b for b in every.sector_eigs if b.reflection == 1.0
            and (b.label != 0 or b.parity == string_parity_sign(L))]
    assert _keys(setup) == [(b.label, b.reflection, b.parity) for b in even]
    assert setup.dimension == sum(b.energies.size for b in even)
    # about half: the mirror-symmetric configurations are all R'-even
    assert setup.dimension < 0.55 * every.dimension
    dims = []
    build = filtration.RenewalKernel.__init__

    def recording(self, phases, *args):
        dims.append(phases.shape[0])
        build(self, phases, *args)

    monkeypatch.setattr(filtration.RenewalKernel, "__init__", recording)
    traj = run_filtration(setup, psi0, 50,
                          target=make_target(setup, params, "tar1", 0.3))
    assert dims == [setup.dimension]
    assert traj.survival.size == 51


@pytest.mark.parametrize("L", [6, 7])
def test_full_setup_diagonalizes_only_the_reached_blocks(L, monkeypatch):
    """eigh runs inside full_setup, once per kept block of a sector
    M >= 0; a kept block is one where the removal or the initial state
    has weight at or above DEPLETION_FLOOR, closed under the flip, and
    all_blocks keeps every block."""
    params = ChainParams(L=L, J2=0.02)
    real = np.linalg.eigh
    calls = []

    def recording(matrix):
        inside = any(info.frame.f_code is full_setup.__code__
                     for info in inspect.stack(0))
        values, vectors = real(matrix)
        calls.append((inside, values.tolist()))
        return values, vectors

    monkeypatch.setattr(filtration.np.linalg, "eigh", recording)
    engines = {}
    for all_blocks in (False, True):
        calls.clear()
        setup, _ = full_setup(params, (1, L), 0.3, all_blocks=all_blocks)
        upper = [b.energies.tolist() for b in setup.sector_eigs
                 if b.label >= 0]
        assert all(inside for inside, _ in calls)
        assert sorted(values for _, values in calls) == sorted(upper)
        engines[all_blocks] = setup
    monkeypatch.undo()
    every = engines[True]
    weight = {}
    for key, blk in zip(_keys(every), every.sector_eigs):
        vecs = block_eigenvectors(blk, 3**L)
        weight[key] = max(np.linalg.norm(vecs.T @ product_state(L, theta))**2
                          for theta in (math.pi, 0.3))
    reached = {key for key, w in weight.items()
               if max(w, weight[(-key[0], *key[1:])])
               >= filtration.DEPLETION_FLOOR}
    assert set(_keys(engines[False])) == reached
    assert len(reached) < len(weight)


def test_full_dark_states_census_unchanged(tmp_path):
    """Every block is still diagonalized: the full-engine dark census."""
    cfg = tmp_path / "c.json"
    cfg.write_text('{"L": 5, "h_tau": [1, 5], "engine": "full"}')
    assert main(["dark-states", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0
    meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
    assert meta["count"] == 117
    assert abs(meta["dark_weight"] - 0.06249999999999997) <= 1e-16


def test_dark_states_defining_properties():
    """Unit norm, orthogonal to the removal state, eigenvectors of F."""
    L = 5
    setup, psi0 = reduced_setup(ChainParams(L=L), (1, 2), 0.2)
    dark = dark_subspace(degeneracy_groups(setup))
    assert dark.count == 4         # n mod 2 groups of size 3 give 2 + 2
    r = setup.removal_eig
    # the phases of U(tau): the tower steps them without the global factor
    phases = setup.phases * setup.global_phase
    fmat = np.diag(phases) - np.outer(r, r.conj() * phases)
    for k in range(dark.count):
        vec = dark.vectors[:, k]
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(np.vdot(r, vec)) < 1e-12
        assert np.linalg.norm(fmat @ vec - dark.phases[k] * vec) < 1e-12
    # orthonormal family
    gram = dark.vectors.conj().T @ dark.vectors
    assert np.max(np.abs(gram - np.eye(dark.count))) < 1e-12


def test_dark_state_methods_span_the_same_subspace():
    # the closed-form dark vectors against the complement oracle
    setup, _ = reduced_setup(ChainParams(L=6), (1, 2), 0.1)
    det = dark_subspace(degeneracy_groups(setup))
    comp, _ = dark_complement(setup.phases, setup.removal_eig)
    assert det.count == comp.shape[1] == 5
    pa = det.vectors @ det.vectors.conj().T
    pb = comp @ comp.conj().T
    assert np.max(np.abs(pa - pb)) < 1e-10


@pytest.mark.parametrize("engine_tau", [
    ("tower", (1, 3)),
    ("full", (1, 2)),
])
def test_dark_projection_matches_explicit_subspace(engine_tau):
    engine, h_tau = engine_tau
    params = ChainParams(L=5 if engine == "full" else 6)
    if engine == "tower":
        setup, psi0 = reduced_setup(params, h_tau, 0.3)
    else:
        setup, psi0 = full_setup(params, h_tau, 0.3)
    groups = degeneracy_groups(setup)
    dark = dark_subspace(groups)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=setup.dimension) + 1j * rng.normal(size=setup.dimension)
    explicit = dark.vectors @ dark.overlaps(vec)
    implicit = dark_projection(groups, vec)
    assert np.max(np.abs(explicit - implicit)) < 1e-10
    psi = setup.to_eigen(psi0)
    weight = float(np.linalg.norm(dark_projection(groups, psi)) ** 2)
    assert abs(weight - float(np.sum(np.abs(dark.overlaps(psi)) ** 2))) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(
    st.sampled_from([-math.pi, -1.0, 0.0, 0.5, 2.0, math.pi]),
    st.integers(-2, 2), st.sampled_from([1e-13, 6.5e-10])),
    min_size=1, max_size=12))
def test_cluster_angles_matches_the_gap_loop(points):
    # offsets of 4e-10 against bounds of 1e-13 and 6.5e-10: a gap of one
    # or more offsets joins, splits or is refused, never within rounding
    # of a bound; the points at -pi and pi cluster across the cut
    angles = np.clip([c + 4e-10 * k for c, k, _ in points], -math.pi, math.pi)
    bound = np.array([b for *_, b in points])
    try:
        oracle = cluster_angles_loop(angles, bound)
    except NumericsError:
        with pytest.raises(NumericsError, match="neither degenerate nor"):
            spectral._cluster_angles(angles, bound)
        return
    label = spectral._cluster_angles(angles, bound)
    assert sorted(label[c[0]] for c in oracle) == list(range(len(oracle)))
    for cluster in oracle:
        assert np.all(label[cluster] == label[cluster[0]])


def test_dark_projection_rejects_wrong_shape():
    setup, _ = reduced_setup(ChainParams(L=6), (1, 3), 0.2)
    with pytest.raises(ValidationError):
        dark_projection(degeneracy_groups(setup), np.zeros(3))


def test_dark_states_zero_overlap_group_is_fully_dark():
    # a removal state with no weight on a group of three degenerate
    # coordinates leaves all three dark
    energies = np.array([0.0, 0.0, 0.0, 0.5])
    removal = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    setup = FiltrationSetup(
        tau=1.0, engine="generic", removal=removal,
        sector_eigs=[SectorEig(0, np.arange(4)[None, :], np.ones((1, 4)),
                               energies, np.eye(4))])
    dark = dark_subspace(degeneracy_groups(setup))
    assert dark.count == 3
    assert dark.members == ((0, 1, 2),) * 3
    assert np.array_equal(dark.vectors, np.eye(4, 3))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(size=st.integers(2, 12), lead=st.booleans(),
       zeros=st.sets(st.integers(1, 11), max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_darks_match_the_determinant(size, lead, zeros, seed):
    # random overlaps with exact zeros inside the group and at its end,
    # and at most one leading zero, which the determinant still handles
    rng = np.random.Generator(np.random.Philox(key=seed))
    removal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    removal[[z for z in zeros if z < size]] = 0.0
    removal[0] *= not lead
    assume(np.count_nonzero(removal[:2]))
    want = determinant_darks(range(size), removal)
    got = spectral._group_darks(removal.conj())
    assert got.shape == want.shape == (size, size - 1)
    assert np.max(np.abs(got - want)) < 1e-14


def _lead_zero_groups():
    """Overlaps the determinant refuses: two leading zeros, and the even
    tower group at L = 106, h tau = pi/2, which opens with 2^-53, 8e-15."""
    setup, _ = reduced_setup(ChainParams(L=106), (1, 2), 0.3)
    even = setup.removal_eig[0::2]
    assert abs(even[0]) == 2.0**-53 and abs(even[1]) < 1e-14
    rng = np.random.Generator(np.random.Philox(key=3))
    noisy = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    noisy[[0, 1, 5]] = 0.0
    return [even, noisy]


@pytest.mark.parametrize("removal", _lead_zero_groups(),
                         ids=["tower-L106", "two-leading-zeros"])
def test_closed_form_darks_where_the_determinant_refuses(removal):
    with pytest.raises(NumericsError, match="degenerated"):
        determinant_darks(range(removal.size), removal)
    cols = spectral._group_darks(removal.conj())
    g = removal.size
    assert cols.shape == (g, g - 1)
    gram = cols.conj().T @ cols
    assert np.max(np.abs(gram - np.eye(g - 1))) < 2e-15
    assert np.max(np.abs(removal.conj() @ cols)) \
        < 2e-16 * np.linalg.norm(removal)


def test_large_tower_dark_states_are_orthonormal_and_dark():
    # L = 160 at h tau = pi/2: the parity groups host 159 dark states
    setup, _ = reduced_setup(ChainParams(L=160), (1, 2), 0.3)
    dark = dark_subspace(degeneracy_groups(setup))
    assert dark.count == 159
    gram = dark.vectors.conj().T @ dark.vectors
    assert np.max(np.abs(gram - np.eye(159))) < 2e-15
    assert np.max(np.abs(setup.removal_eig.conj() @ dark.vectors)) < 2e-16


@pytest.mark.parametrize("gap,w", [(1e-14, 3), (1e-11, None), (5e-9, 4)])
def test_near_pair_is_grouped_refused_or_split(gap, w):
    # energies up to 600 at tau = 1 bound the rounding of each phase by
    # 4 * 600 eps + 4 eps = 5.3e-13 (degeneracy_groups), 1.07e-12 for the
    # pair: 1e-14 apart it is one group, 5e-9 apart two, and 1e-11 apart,
    # inside 100 times its bound, it is refused, naming both phases
    setup = _diagonal_setup([0.0, gap, 300.0, 600.0], np.full(4, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if w is None:
            low, high = np.angle(setup.phases[[1, 0]])
            with pytest.raises(NumericsError, match=re.escape(
                    f"eigenphases {low:.17g} and {high:.17g} rad")):
                mode_spectrum(setup)
            return
        _, groups, roots = mode_spectrum(setup)
    assert (groups.w, roots.size) == (w, w - 1)


def test_phases_are_grouped_once_per_analysis(tmp_path, monkeypatch):
    # one clustering of U(tau)'s phases per goe-demo run and perturb leg,
    # and none on the tower, whose groups are its integer level classes;
    # the step kernel takes its flip groups from the setup's integer
    # classes and clusters nothing
    callers = []
    cluster = spectral._cluster_angles

    def counted(angles, bound):
        callers.append(inspect.stack()[1].function)
        return cluster(angles, bound)

    monkeypatch.setattr(spectral, "_cluster_angles", counted)
    runs = [("bright-spectrum", {"L": 8, "target": "tar1"}, 0),
            ("goe-demo", {"goe": {"D_goe": 8, "seed": 5}}, 1),
            # only the static GHZ leg projects onto the dark manifold
            ("perturb", {"L": 4, "J2": 0.02, "n_steps": 60}, 1)]
    for sub, doc, grouped in runs:
        callers.clear()
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(doc))
        assert main([sub, "--config", str(cfg),
                     "--out", str(tmp_path / sub), "--quiet"]) == 0
        assert callers == ["degeneracy_groups"] * grouped, sub


def test_run_filtration_chunking_is_invisible():
    """Restarting mid-chunk moves every chunk boundary, not the trajectory."""
    setup, psi0 = reduced_setup(ChainParams(L=6), (1, 6), 0.4)
    length = filtration.chunk_length(setup)
    n, shift = 3 * length + 7, 5                  # shift is not a boundary
    a, states = _states(setup, psi0, n)
    start = states[shift] / np.linalg.norm(states[shift])
    b = run_filtration(setup, start, n - shift, RotatingTarget.static(start))
    assert np.max(np.abs(a.survival[shift] * b.survival
                         / a.survival[shift:] - 1.0)) <= 1e-10
    assert np.max(np.abs(a.string[shift:] - b.string)) <= 1e-12


def test_depletion_stops_early():
    # U maps psi0 exactly onto the removal state: one step empties it
    removal = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    psi0 = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    setup = _diagonal_setup([0.0, math.pi], removal)
    traj = run_filtration(setup, psi0, 40, RotatingTarget.static(psi0))
    assert traj.depleted
    # S_1 is rounding (below 1e-30), so step 1 is not recorded
    assert traj.survival.size == 1


def test_exact_depletion_with_a_target_records_no_fidelity():
    # the removal state is the whole space: one step leaves S_1 = 0, and
    # Q_1 = 0/0 must not pass as a recorded fidelity; the run stops
    # before it, and a NaN fidelity that reached a trajectory is refused
    setup = _diagonal_setup([0.3], [1.0])
    traj = run_filtration(setup, [1.0], 3, target=RotatingTarget.static([1.0]))
    assert traj.depleted
    assert traj.q.tolist() == [1.0]
    with pytest.raises(NumericsError, match="at step 1"):
        Trajectory(survival=np.array([1.0, 0.0]),
                   q=np.array([1.0, np.nan]), overlaps=None, string=None,
                   depleted=True)


def test_run_filtration_validates_input():
    setup, psi0 = reduced_setup(ChainParams(L=4), (1, 4), 0.0)
    target = RotatingTarget.static(psi0)
    with pytest.raises(ValidationError):
        run_filtration(setup, psi0 * 2.0, 5, target)
    with pytest.raises(ValidationError):
        run_filtration(setup, psi0, -1, target)
    with pytest.raises(ValidationError):
        run_filtration(setup, psi0, 2.5, target)


def _dark_target(setup, psi0):
    """The late-time prediction as a target rotating with the dark phases:
    each dark vector turns by the tower level of the group it lies in."""
    vectors, _ = dark_complement(setup.phases, setup.removal_eig)
    ov = vectors.conj().T @ psi0
    keep = np.abs(ov) > 1e-14
    levels = np.array(setup._levels)[np.argmax(np.abs(vectors), axis=0)]
    return RotatingTarget(list(vectors[:, keep].T),
                          ov[keep] / np.linalg.norm(ov[keep]),
                          levels[keep], setup.h_tau[1])


def test_long_time_state_matches_late_checkpoint():
    L = 6
    setup, psi0 = reduced_setup(ChainParams(L=L), (1, 6), math.pi / 7.0)
    n = 2000
    _, states = _states(setup, psi0, n)
    predicted = long_time_state(setup.phases, setup.removal_eig,
                                psi0, n)
    assert np.max(np.abs(predicted
                         - states[n] / np.linalg.norm(states[n]))) < 1e-8


def test_rotating_target_tracks_dark_rotation():
    setup, psi0 = reduced_setup(ChainParams(L=5), (1, 5), 0.3)
    target = _dark_target(setup, psi0)
    for n in (0, 1, 7, 100):
        expected = long_time_state(setup.phases, setup.removal_eig,
                                   psi0, n)
        got = target.at(n)
        phase = np.vdot(got, expected)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(got * phase / abs(phase) - expected)) < 1e-12


def test_target_rotation_is_exact_at_any_n():
    # tar2 turns by the integer level 2p over q a step, so its phase at
    # any n is exp(-i pi (2pn mod 2q)/q); a float angle n 2 pi p/q rounds
    # by n eps, 9.0e-9 rad at n = 10^8
    L, (p, q) = 8, (1, 7)
    params, theta0 = ChainParams(L=L), tar2_optimal_angle(L)
    setup, initial = reduced_setup(params, (p, q), theta0)
    target = make_target(setup, params, "tar2", theta0)
    for n in (3000, 20000, 10**8):
        turn = np.exp(-1j * math.pi * (2 * p * n % (2 * q)) / q)
        acc = sum(w * c for w, c in zip(target.weights * [1.0, turn],
                                        target.components))
        assert np.max(np.abs(target.at(n) - acc / np.linalg.norm(acc))) \
            <= 4e-16
    # the run's rows are the jump-ahead's, each formed from its own n
    n_steps = 20000
    traj = run_filtration(setup, initial, n_steps, target)
    _, probes, gram = filtration._eigen_inputs(setup, initial, target)
    rows = target.coefficients(n_steps + 1)
    for n in (1, 999, n_steps):
        coef = target.coefficients(1, n)
        assert np.array_equal(rows[n], coef[0])
        assert traj.q[n] == filtration._fidelity(
            coef, traj.overlaps[n][None], gram, traj.survival[n])[0]


def test_fidelity_converges_to_dark_prediction():
    setup, psi0 = reduced_setup(ChainParams(L=6), (1, 6), 0.25)
    target = _dark_target(setup, psi0)
    traj = run_filtration(setup, psi0, 1500, target=target)
    assert traj.q[-1] > 1.0 - 1e-8
    assert filtration_time(traj, 0.01) == int(np.nonzero(traj.q >= 0.99)[0][0])


def test_filtration_time_unreached():
    setup, psi0 = reduced_setup(ChainParams(L=6), (1, 6), 0.25)
    target = _dark_target(setup, psi0)
    traj = run_filtration(setup, psi0, 3, target=target)
    assert filtration_time(traj, 1e-9) is None
    with pytest.raises(ValidationError):
        filtration_time(traj, 0.0)


def test_survival_limit_is_dark_weight():
    """The non-detection probability converges to the initial dark weight."""
    setup, psi0 = reduced_setup(ChainParams(L=6), (1, 6), 0.8)
    dark = dark_subspace(degeneracy_groups(setup))
    weight = float(np.sum(np.abs(dark.overlaps(psi0)) ** 2))
    traj = run_filtration(setup, psi0, 1500, RotatingTarget.static(psi0))
    assert abs(traj.survival[-1] - weight) < 1e-10


def test_spectral_decomposition_classifies_modes():
    setup, psi0 = reduced_setup(ChainParams(L=6), (1, 3), 0.15)
    spec = spectral_decomposition(setup, psi0)
    assert spec.select("dark").size == 4
    assert spec.select("bright").size == 2
    assert spec.select("trivial-zero").size == 1
    assert spec.recon_residual < 1e-10
    # the dark component of psi0 per eigenphase is basis-independent
    dark = dark_subspace(degeneracy_groups(setup))
    idx = spec.select("dark")
    ov = dark.overlaps(setup.to_eigen(psi0))
    for phase in np.unique(np.round(np.angle(dark.phases), 9)):
        sel = idx[np.abs(np.angle(spec.values[idx]) - phase) < 1e-8]
        resultant = spec.right[:, sel] @ spec.eta[sel]
        mine = np.abs(np.angle(dark.phases) - phase) < 1e-8
        want = float(np.sum(np.abs(ov[mine]) ** 2))
        assert abs(float(np.vdot(resultant, resultant).real) - want) < 1e-10


def _spectral_cases():
    params = ChainParams(L=4, J2=0.05, J3=0.1)
    full, full0 = full_setup(params, (1, 4), 0.3)
    rng = np.random.Generator(np.random.Philox(key=11))
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    removal = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    generic = generic_setup((a + a.conj().T) / 2.0,
                            removal / np.linalg.norm(removal))
    initial = np.zeros(10, dtype=complex)
    initial[0] = 1.0
    return {
        "tower": reduced_setup(ChainParams(L=6), (1, 3), 0.15),
        "full": (full, full0),
        "generic": (generic, initial),
    }


@pytest.mark.parametrize("case", ["tower", "full", "generic"])
def test_spectral_decomposition_matches_scipy_eig(case):
    setup, initial = _spectral_cases()[case]
    spec = spectral_decomposition(setup, initial)
    r, psi0 = setup.removal_eig, setup.to_eigen(initial)
    phases = setup.phases * setup.global_phase
    fmat = np.diag(phases) - np.outer(r, r.conj() * phases)
    values, vl, vr = sla.eig(fmat, left=True, right=True)
    eta = (vl.conj().T @ psi0) / np.einsum("ij,ij->j", vl.conj(), vr)
    # pair each eigenvalue with the nearest oracle value, one to one
    left = list(range(values.size))
    for z, kind in zip(spec.values, spec.kinds):
        j = left.pop(int(np.argmin(np.abs(values[left] - z))))
        assert abs(values[j] - z) <= 1e-12
        mod = abs(values[j])
        want = ("dark" if mod > 1.0 - 1e-8
                else "trivial-zero" if mod < 1e-12 else "bright")
        assert kind == want
    # the expansion sum_l eta_l zeta_l^n r_l is basis independent
    for n in range(12):
        mine = spec.right @ (spec.eta * spec.values**n)
        oracle = vr @ (eta * values**n)
        assert np.max(np.abs(mine - oracle)) <= 1e-12
    # left vectors: unit columns with l^H F = zeta l^H
    assert np.max(np.abs(np.linalg.norm(spec.left, axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(spec.left.conj().T @ fmat
                         - spec.values[:, None] * spec.left.conj().T)) <= 1e-10


def test_spectral_decomposition_refuses_singular_eigenvectors(monkeypatch):
    setup, psi0 = reduced_setup(ChainParams(L=3), (1, 3), 0.15)
    real_eig = np.linalg.eig

    def parallel(matrix):
        values, vectors = real_eig(matrix)
        vectors[:, 1] = vectors[:, 0]       # as if F were defective
        return values, vectors

    # inverting the eigenvectors then fails to reproduce the steps of F
    monkeypatch.setattr(np.linalg, "eig", parallel)
    with pytest.raises(NumericsError, match="reconstruction residual"):
        spectral_decomposition(setup, psi0)


@pytest.mark.parametrize("case", ["full", "generic"])
def test_eigenbasis_projections_match_the_complex_product(case):
    setup, _ = _spectral_cases()[case]
    rng = np.random.Generator(np.random.Philox(key=5))
    inside = engine_support(setup)
    dim = setup.removal.size
    vec = np.zeros(dim, dtype=complex)
    vec[inside] = rng.standard_normal(inside.size) \
        + 1j * rng.standard_normal(inside.size)
    # a vector in the engine span, which the blocks hold without loss
    columns = engine_columns(setup).astype(complex)
    vec = columns @ (columns.conj().T @ vec)
    vec /= np.linalg.norm(vec)
    coords = setup.to_eigen(vec)
    oracle = columns.conj().T @ vec
    assert np.max(np.abs(coords - oracle)) <= 1e-14
    back = setup.from_eigen(coords)
    assert np.max(np.abs(back - columns @ coords)) <= 1e-14
    assert np.max(np.abs(back - vec)) <= 1e-14


def test_generic_setup_default_tau_glues_band_edges():
    rng = np.random.Generator(np.random.Philox(key=7))
    a = rng.standard_normal((12, 12))
    mat = (a + a.T) / 2.0
    removal = np.zeros(12, dtype=complex)
    removal[0] = 1.0
    setup = generic_setup(mat, removal)
    w = np.sort(sla.eigvalsh(mat))
    assert abs(setup.tau - 2.0 * math.pi / (w[-1] - w[0])) < 1e-12
    groups = degeneracy_groups(setup)
    sizes = sorted(len(members) for members in groups.members)
    assert sizes == [1] * 10 + [2]          # only the glued edge pair
    with pytest.raises(ValidationError):
        generic_setup(a, removal)           # not Hermitian


def test_setup_rejects_bad_removal():
    params = ChainParams(L=3)
    with pytest.raises(ValidationError):
        full_setup(params, (1, 4), 0.0,
                   removal=np.ones(27, dtype=complex))
