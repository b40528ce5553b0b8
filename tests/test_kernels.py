"""The renewal step kernel against explicit stepping, and its invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfilter import filtration
from darkfilter.cli import main
from darkfilter.experiments import (
    ExperimentSpec,
    Perturbations,
    build_setup,
    make_target,
    orthogonality_angle,
    sample_goe,
    tar2_optimal_angle,
)
from darkfilter.filtration import (
    DEPLETION_FLOOR,
    FiltrationSetup,
    RenewalKernel,
    SectorEig,
    chunk_length,
    full_setup,
    generic_setup,
    reduced_setup,
    run_filtration,
)
from darkfilter.spin_model import ChainParams

from helpers import explicit_stepping, mp_tower_survival, renewal_tables

# agreement of run_filtration with explicit stepping
SURVIVAL_RTOL = 1e-10
OBSERVABLE_ATOL = 1e-12


def _random_problem(dim, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    phases = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, dim))
    removal = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    removal /= np.linalg.norm(removal)
    return psi, phases, removal


def _plain_setup(phases, removal):
    """Generic engine whose eigenbasis is the input basis; its phases are
    the given ones up to rounding."""
    dim = phases.shape[0]
    energies = -np.angle(phases)
    return FiltrationSetup(
        tau=1.0, engine="generic", removal=removal,
        sector_eigs=[SectorEig(0, np.arange(dim)[None, :], np.ones((1, dim)),
                               energies, np.eye(dim, dtype=complex))],
    )


def _fidelity(target, overlaps, survival, gram):
    """Q_n from probe overlaps, as run_filtration defines it."""
    steps = np.arange(survival.size)
    coef = target.weights[None, :] * np.exp(-1j * np.outer(steps,
                                                           target.angles))
    numer = np.abs(np.einsum("nj,nj->n", coef.conj(), overlaps)) ** 2
    tnorm = np.einsum("nj,jk,nk->n", coef.conj(), gram, coef).real
    return numer / (tnorm * survival)


def test_survival_is_squared_norm_and_monotone():
    psi, phases, removal = _random_problem(32, 11)
    # a signed involution: pairs (i, 31 - i), sign shared within a pair
    pos = np.arange(32)[::-1]
    sign = np.where(np.minimum(pos, np.arange(32)) % 3 == 0, -1.0, 1.0)
    kernel = RenewalKernel(phases, removal, np.zeros((0, 32)), 64,
                           (pos, sign))
    c = kernel.tables @ psi
    rows = np.array([kernel.advance(psi, c, j) for j in range(1, 65)])
    survival = 1.0 - np.cumsum(np.abs(c) ** 2)
    norms = np.linalg.norm(rows, axis=1) ** 2
    assert np.max(np.abs(norms - survival)) < 1e-12
    assert np.all(np.diff(survival) <= 0.0)
    # every formed state is orthogonal to the removal direction
    assert np.max(np.abs(rows @ removal.conj())) < 1e-12
    # the flip-group strings are those of the formed states
    formed = np.einsum("ji,ji->j", (sign * rows[:, pos]).conj(), rows)
    assert np.max(np.abs(kernel.strings(psi, c) - formed)) < 1e-12
    # with the unit vectors as target components, overlaps[n] is F^n psi
    units = filtration.RotatingTarget(list(np.eye(32)), np.ones(32),
                                      np.zeros(32))
    traj = run_filtration(_plain_setup(phases, removal), psi, 300,
                          target=units)
    assert np.all(np.diff(traj.survival) <= 1e-15)
    for n in (77, 300):
        assert abs(np.vdot(removal, traj.overlaps[n])) < 1e-12


def test_early_stop_on_depletion():
    # removal aligned with the only surviving direction kills psi at once
    setup = _plain_setup(np.array([1.0 + 0.0j]), np.array([1.0 + 0.0j]))
    traj = run_filtration(setup, np.array([1.0 + 0.0j]), 10)
    assert traj.depleted
    # the depleting step is not recorded: the trajectory ends at n = 0
    assert traj.survival.size == 1
    assert np.all(traj.survival >= DEPLETION_FLOOR)


@pytest.mark.parametrize("build", [reduced_setup, full_setup],
                         ids=["tower", "full"])
def test_rounding_level_depletion_stops_the_run(build):
    # at h tau = pi/2 and theta0 = 0 one step cancels the L = 3 state down
    # to the rounding of its amplitudes (S_1 ~ 1e-31); stepping on would
    # report normalized rounding noise as data
    params = ChainParams(L=3)
    setup, psi0 = build(params, math.pi / (2.0 * params.h), 0.0)
    traj = run_filtration(setup, psi0, 50)
    assert traj.depleted
    # step 1 holds only rounding and is not recorded
    assert traj.survival.size == 1
    assert np.all(traj.survival >= DEPLETION_FLOOR)
    assert traj.string.shape == traj.survival.shape


def _tower_case():
    L = 6
    spec = ExperimentSpec(name="oracle-tower", params=ChainParams(L=L),
                          theta0=tar2_optimal_angle(L), h_tau=(1, L - 1),
                          n_steps=0)
    setup, initial = build_setup(spec)
    return setup, initial, make_target(setup, spec.params, "tar2", spec.theta0)


def _full_case():
    L = 4
    spec = ExperimentSpec(name="oracle-full",
                          params=ChainParams(L=L, J2=0.03, J3=0.01),
                          theta0=orthogonality_angle(L), h_tau=(1, L),
                          n_steps=0, engine="full",
                          perturbations=Perturbations(lam=0.2, seed=5))
    setup, initial = build_setup(spec)
    return setup, initial, make_target(setup, spec.params, "tar1", spec.theta0)


def _generic_case():
    rng = np.random.Generator(np.random.Philox(key=3))
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    removal, initial, probe = (rng.standard_normal((3, 12))
                               + 1j * rng.standard_normal((3, 12)))
    setup = generic_setup((a + a.conj().T) / 2.0,
                          removal / np.linalg.norm(removal), tau=0.9)
    target = filtration.RotatingTarget.static(probe)
    return setup, initial / np.linalg.norm(initial), target


def _goe_case():
    # the goe-demo engine: dim 64, removal |1>, initial |0>
    removal, initial = np.eye(64, dtype=complex)[[1, 0]]
    setup = generic_setup(sample_goe(64, 23), removal)
    return setup, initial, filtration.RotatingTarget.static(initial)


ENGINES = [_tower_case, _full_case, _generic_case, _goe_case]
ENGINE_IDS = ["tower", "full-noisy", "generic", "goe"]


@pytest.mark.parametrize("length", [64, 256])
@pytest.mark.parametrize("build", ENGINES, ids=ENGINE_IDS)
def test_recursive_tables_match_renewal_equation(build, length):
    setup, _, target = build()
    probes = np.array([setup.to_eigen(c) for c in target.components])
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    kernel = RenewalKernel(setup.phases, setup.removal_eig, probes, length)
    oracle = renewal_tables(setup.phases, setup.removal_eig, probes, length)
    assert np.max(np.abs(kernel.tables - oracle)) <= 1e-13


@pytest.mark.parametrize("build", ENGINES, ids=ENGINE_IDS)
def test_chunk_length_reads_the_engine(build):
    setup = build()[0]
    # engines with a spin flip pay G B^2 per chunk for the string
    want = 64 if setup.flip is not None else 256
    assert chunk_length(setup) == want


@pytest.mark.parametrize("build", [_tower_case, _full_case, _generic_case],
                         ids=["tower", "full-noisy", "generic"])
def test_kernel_matches_explicit_stepping(build):
    setup, initial, target = build()
    length = chunk_length(setup)
    n_steps = 5 * length + length // 2 + 1          # ends inside a chunk
    traj = run_filtration(setup, initial, n_steps, target=target)
    probes = np.array([setup.to_eigen(c) for c in target.components])
    # the generic engine has no spin flip, so no string
    flip = setup.flip
    survival, overlaps, string, _ = explicit_stepping(
        setup.phases, setup.removal_eig, setup.to_eigen(initial), n_steps,
        probes, flip)
    assert traj.steps.size == n_steps + 1
    assert np.max(np.abs(traj.survival / survival - 1.0)) <= SURVIVAL_RTOL
    assert np.max(np.abs(traj.overlaps - overlaps)) <= OBSERVABLE_ATOL
    q = _fidelity(target, overlaps, survival, probes.conj() @ probes.T)
    assert np.max(np.abs(traj.q - q)) <= OBSERVABLE_ATOL
    if flip is None:
        assert traj.string is None
    else:
        assert np.max(np.abs(traj.string - string)) <= OBSERVABLE_ATOL


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       n_steps=st.integers(0, 300))
def test_kernel_property_random_problems(dim, seed, n_steps):
    psi, phases, removal = _random_problem(dim, seed)
    probe = _random_problem(dim, seed + 1)[0]
    setup = _plain_setup(phases, removal)
    traj = run_filtration(setup, psi, n_steps,
                          target=filtration.RotatingTarget.static(probe))
    survival, overlaps, _, _ = explicit_stepping(setup.phases, removal, psi,
                                                 n_steps, probe[None, :])
    count = traj.survival.size
    assert count == n_steps + 1 or traj.depleted
    # both paths round relative to the weight they start a step (or a
    # chunk) from, so compare relative to the larger of S_n and 1e-6
    scale = np.maximum(survival[:count], 1e-6)
    assert np.max(np.abs(traj.survival - survival[:count]) / scale) \
        <= SURVIVAL_RTOL
    assert np.max(np.abs(traj.overlaps - overlaps[:count])) <= OBSERVABLE_ATOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(3, 5), J2=st.floats(-0.1, 0.1),
       theta0=st.one_of(st.floats(0.0, 2.0 * math.pi),
                        st.sampled_from([1e-7, 1e-3])),
       h_tau=st.integers(2, 8).flatmap(
           lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
       lam=st.sampled_from([0.0, 0.3, 1.0]), n_steps=st.integers(0, 300))
def test_rowless_strings_match_explicit_stepping(L, J2, theta0, h_tau, lam,
                                                 n_steps):
    # a start near theta0 = 0 loses most of its weight in the first steps,
    # which ends chunks early; n_steps mostly ends a run inside a chunk
    spec = ExperimentSpec(
        name="rowless", params=ChainParams(L=L, J2=J2), theta0=theta0,
        h_tau=h_tau, n_steps=0, engine="full",
        perturbations=Perturbations(lam=lam, seed=7) if lam
        else Perturbations())
    setup, initial = build_setup(spec)
    traj = run_filtration(setup, initial, n_steps)
    string = explicit_stepping(setup.phases, setup.removal_eig,
                               setup.to_eigen(initial), n_steps,
                               flip=setup.flip)[2]
    count = traj.survival.size
    assert count == n_steps + 1 or traj.depleted
    assert np.max(np.abs(traj.string - string[:count])) <= OBSERVABLE_ATOL


def test_renewal_and_stepping_track_extended_precision():
    L, theta0, n_steps = 6, 0.4, 400
    setup, initial = reduced_setup(ChainParams(L=L), math.pi / L, theta0)
    exact = np.array(mp_tower_survival(L, (1, L), theta0, n_steps))
    traj = run_filtration(setup, initial, n_steps)
    stepped = explicit_stepping(setup.phases, setup.removal_eig,
                                setup.to_eigen(initial), n_steps)[0]
    for path in (traj.survival, stepped):
        assert np.max(np.abs(path / exact - 1.0)) < 1e-12


def test_corrupted_kernel_table_exits_2(tmp_path, monkeypatch):
    """The survival identity check at each chunk end catches a bad table."""
    build = RenewalKernel.__init__

    def corrupted(self, *args):
        build(self, *args)
        self.tables[0, 0] *= 1.01

    monkeypatch.setattr(RenewalKernel, "__init__", corrupted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"L": 6, "target": "tar1", "n_steps": 200}))
    assert main(["filter-run", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_corrupted_string_table_exits_2(tmp_path, monkeypatch, capsys):
    """The flip-group string check at each chunk end catches a bad table."""
    build = RenewalKernel.__init__

    def corrupted(self, *args):
        build(self, *args)
        self.gram_lower[0] += 1e-6

    monkeypatch.setattr(RenewalKernel, "__init__", corrupted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"L": 6, "target": "tar1", "n_steps": 200}))
    assert main(["filter-run", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "flip-group string drifted" in capsys.readouterr().err
