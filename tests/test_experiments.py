"""Experiment drivers: targets, sweeps, plateau detection, studies."""

import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfilter import experiments, filtration
from darkfilter.errors import NumericsError, ValidationError
from darkfilter.experiments import (
    ExperimentSpec,
    Perturbations,
    build_setup,
    detect_plateau,
    document_of,
    fit_slope_log2,
    general_angle,
    goe_demo,
    group_label,
    make_target,
    noise_vector,
    orthogonality_angle,
    perturbation_study,
    run_target,
    sample_goe,
    sweep_n_epsilon,
    table1_scan,
    tar1_components,
    tar1_resonance,
    tar2_components,
    tar2_optimal_angle,
    tar2_resonance,
    zeta_vs_L_scan,
)
from darkfilter.filtration import (FiltrationSetup, filtration_time,
                                   generic_setup, reduced_setup,
                                   run_filtration)
from darkfilter.spectral import degeneracy_groups, jump_filtration_time
from darkfilter.spin_model import ChainParams
from helpers import mp_filtration_time, plateau_loop, spectral_decomposition


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_resonances_and_angles():
    assert tar1_resonance(8) == (1, 8)
    assert tar2_resonance(8) == (1, 7)
    assert orthogonality_angle(8) == pytest.approx(math.pi / 8.0)
    assert orthogonality_angle(7) == pytest.approx(2.0 * math.pi / 7.0)
    assert tar2_optimal_angle(8) == pytest.approx(2.0 * math.pi / 7.0)
    assert tar2_optimal_angle(7) == pytest.approx(math.pi / 6.0)


def test_spec_validation():
    params = ChainParams(L=6)
    with pytest.raises(ValidationError):
        ExperimentSpec(name="x", params=ChainParams(L=6, J2=0.1),
                       theta0=0.1, h_tau=(1, 6), n_steps=10, engine="tower")
    with pytest.raises(ValidationError):
        ExperimentSpec(name="x", params=params, theta0=0.1,
                       h_tau=(0, 6), n_steps=10)
    with pytest.raises(ValidationError):
        ExperimentSpec(name="x", params=params, theta0=0.1,
                       h_tau=(1, 6), n_steps=10, engine="fast")
    with pytest.raises(ValidationError):
        ExperimentSpec(name="x", params=params, theta0=0.1,
                       h_tau=(1, 6), n_steps=10, target="tar3")
    with pytest.raises(ValidationError):
        Perturbations(lam=0.1)          # noise needs an explicit seed
    spec = ExperimentSpec(name="x", params=params, theta0=0.1,
                          h_tau=(1, 6), n_steps=10)
    assert spec.h_tau_value == pytest.approx(math.pi / 6.0)
    assert spec.tau == pytest.approx(math.pi / 6.0)    # h = 1
    with pytest.raises(ValidationError):
        ExperimentSpec(name="x", params=ChainParams(L=6, h=0.0),
                       theta0=0.1, h_tau=(1, 6), n_steps=10).tau


def test_noise_vector_deterministic():
    a = noise_vector(50, 3)
    b = noise_vector(50, 3)
    c = noise_vector(50, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


@pytest.mark.parametrize("L", [5, 6])
def test_target_components(L):
    (ghz,) = tar1_components(L)
    # (B_L - (-1)^L B_0) / sqrt(2) in ladder coordinates
    assert ghz[L] == pytest.approx(1.0 / math.sqrt(2.0))
    assert ghz[0] == pytest.approx(-((-1.0) ** L) / math.sqrt(2.0))
    assert np.count_nonzero(ghz) == 2
    phi1, phi2 = tar2_components(L)
    for vec in (phi1, phi2):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert abs(np.vdot(phi1, phi2)) < 1e-12


def _tower_spec(L, theta0, h_tau, n_steps, **kw):
    return ExperimentSpec(name="t", params=ChainParams(L=L), theta0=theta0,
                          h_tau=h_tau, n_steps=n_steps, **kw)


def test_run_tar1_artifacts(tmp_path):
    L = 6
    spec = _tower_spec(L, orthogonality_angle(L), tar1_resonance(L), 400,
                       target="tar1")
    art = run_target(spec, tmp_path)
    header, rows = read_csv(art.paths["trajectory"])
    assert header == ["n", "survival", "q_n", "string_re", "string_im"]
    assert len(rows) == 401
    # Q_0 is the exact GHZ weight of the initial product state
    assert float(rows[0][2]) == pytest.approx(2.0 ** (1 - L), abs=1e-12)
    assert float(rows[0][1]) == pytest.approx(1.0)
    assert art.metadata["reached"]
    assert art.metadata["q_final"] > 0.999
    # survival converges onto the GHZ weight itself
    assert float(rows[-1][1]) == pytest.approx(2.0 ** (1 - L), abs=1e-10)
    meta = json.loads(open(os.path.join(tmp_path, "metadata.json")).read())
    assert meta["spec"]["h_tau"] == [1, 6]
    assert meta["experiment"] == "run_tar1"


def test_run_tar1_rejects_wrong_resonance(tmp_path):
    spec = _tower_spec(6, 0.3, (1, 5), 50, target="tar1")
    with pytest.raises(ValidationError):
        run_target(spec, tmp_path)


def test_run_target_needs_a_target(tmp_path):
    with pytest.raises(ValidationError, match="needs a target"):
        run_target(_tower_spec(6, 0.3, (1, 6), 50), tmp_path)


def test_run_tar1_rejects_zero_overlap_angle(tmp_path):
    # theta0 = 0 at even L zeroes the GHZ component of psi0
    spec = _tower_spec(6, 0.0, (1, 6), 50, target="tar1")
    with pytest.raises(ValidationError):
        run_target(spec, tmp_path)


def test_run_tar2_artifacts(tmp_path):
    L = 8
    spec = _tower_spec(L, tar2_optimal_angle(L), tar2_resonance(L), 800,
                       target="tar2")
    art = run_target(spec, tmp_path)
    assert art.metadata["experiment"] == "run_tar2"
    assert art.metadata["reached"]
    assert art.metadata["string_dev_abs"] < 0.01
    # the checked window starts where this run's Q_n certifies the law
    assert 0 <= art.metadata["string_check_from"] <= 800
    header, rows = read_csv(art.paths["trajectory"])
    assert len(rows) == 801
    # the string signal keeps beating at 2 h tau
    re_vals = np.array([float(r[3]) for r in rows[400:]])
    assert np.max(re_vals) > 0.9 and np.min(re_vals) < -0.9


def test_run_tar2_omits_string_law_before_certified(tmp_path):
    # 40 steps at L=8 stay short of Q_n >= 1 - (0.01/2)^2
    L = 8
    spec = _tower_spec(L, tar2_optimal_angle(L), tar2_resonance(L), 40,
                       target="tar2")
    art = run_target(spec, tmp_path)
    assert art.metadata["max_q"] < 1.0 - 0.005 ** 2
    for key in ("string_dev_abs", "string_dev_signed", "string_check_from"):
        assert key not in art.metadata


def test_make_target_rotates_tar2():
    spec = _tower_spec(6, tar2_optimal_angle(6), tar2_resonance(6), 10)
    setup, _ = build_setup(spec)
    target = make_target(setup, spec.params, "tar2", spec.theta0)
    t0, t1 = target.at(0), target.at(1)
    assert abs(abs(np.vdot(t0, t0)) - 1.0) < 1e-12
    assert abs(np.vdot(t0, t1)) < 1.0 - 1e-3      # genuinely rotating


def test_targets_take_the_chain_from_their_caller():
    # a setup holds no chain: a tower engine built by hand reaches the
    # sweep's filtration time from the chain its caller passes
    L = 8
    params = ChainParams(L=L)
    theta0 = orthogonality_angle(L)
    built, initial = reduced_setup(params, math.pi / (L * params.h), theta0)
    setup = FiltrationSetup(built.tau, "tower", built.removal,
                            built.sector_eigs, flip=built.flip)
    assert not hasattr(setup, "params")
    target = make_target(setup, params, "tar1", theta0)
    assert jump_filtration_time(setup, initial, target, 0.01, (1, L)) == 68
    # a generic engine has no chain: a target made for it is in the
    # chain's basis, 3^L states, and its run is refused
    generic = generic_setup(np.diag(np.arange(5.0)), np.full(5, 5 ** -0.5))
    target = make_target(generic, ChainParams(L=2), "tar1", 0.0)
    with pytest.raises(ValidationError, match="state dimension"):
        run_filtration(generic, np.eye(5)[0], 10, target=target)


def test_sweep_small_range(tmp_path):
    art = sweep_n_epsilon([6, 7, 8], "general", 0.01, "tar1-general", tmp_path)
    header, rows = read_csv(art.paths["scaling"])
    assert header == ["L", "n_eps_sim", "n_eps_theory", "variant"]
    assert [int(r[0]) for r in rows] == [6, 7, 8]
    for r in rows:
        sim, th = float(r[1]), float(r[2])
        assert 0.5 < sim / th < 2.0
        assert r[3] == "tar1-general"
    assert 0.6 < art.metadata["slope_log2"] < 1.4


def test_sweep_rejects_unknown_rule(tmp_path):
    with pytest.raises(ValidationError):
        sweep_n_epsilon([6], "diagonal", 0.01, "tar1-general", tmp_path)
    with pytest.raises(ValidationError):
        sweep_n_epsilon([], "general", 0.01, "tar1-general", tmp_path)


# ------------------------------------------- jump-ahead filtration time

SWEEP_CASES = {  # variant -> (theta0 rule, resonance, target)
    "tar1-orthogonal": (orthogonality_angle, tar1_resonance, "tar1"),
    "tar1-general": (general_angle, tar1_resonance, "tar1"),
    "tar2": (tar2_optimal_angle, tar2_resonance, "tar2"),
}


def _sweep_problem(L, variant):
    rule, resonance, which = SWEEP_CASES[variant]
    h_tau = resonance(L)
    spec = _tower_spec(L, rule(L), h_tau, 0)
    setup, initial = build_setup(spec)
    return setup, initial, make_target(setup, spec.params, which,
                                      spec.theta0), h_tau


def _stepped_n_eps(setup, initial, target, eps, n_steps):
    traj = run_filtration(setup, initial, n_steps, target=target)
    return filtration_time(traj, eps).n_eps


@pytest.mark.parametrize("variant", sorted(SWEEP_CASES))
def test_jump_ahead_matches_stepping(variant):
    for L in range(6, 15):
        setup, initial, target, h_tau = _sweep_problem(L, variant)
        n_jump = jump_filtration_time(setup, initial, target, 0.01, h_tau)
        # a stepped first crossing anywhere else, or none, fails the check
        assert _stepped_n_eps(setup, initial, target, 0.01,
                              2 * n_jump + 50) == n_jump, (variant, L)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(L=st.integers(4, 10), variant=st.sampled_from(sorted(SWEEP_CASES)),
       eps=st.floats(1e-4, 0.5))
def test_jump_ahead_matches_stepping_over_eps(L, variant, eps):
    setup, initial, target, h_tau = _sweep_problem(L, variant)
    n_jump = jump_filtration_time(setup, initial, target, eps, h_tau)
    assert _stepped_n_eps(setup, initial, target, eps,
                          2 * n_jump + 50) == n_jump


@pytest.mark.parametrize("variant,L", [("tar1-orthogonal", 24),
                                       ("tar1-orthogonal", 30),
                                       ("tar1-general", 30), ("tar2", 30)])
def test_jump_ahead_matches_extended_precision(variant, L):
    # beyond stepping range, up to the sweep's certified SWEEP_L_MAX = 30
    setup, initial, target, h_tau = _sweep_problem(L, variant)
    n_jump = jump_filtration_time(setup, initial, target, 0.01, h_tau)
    which = SWEEP_CASES[variant][2]
    theta0 = SWEEP_CASES[variant][0](L)
    assert n_jump == mp_filtration_time(L, theta0, h_tau, which, 0.01)
    if (variant, L) == ("tar1-orthogonal", 24):
        assert n_jump == 1388864


def test_jump_ahead_darkness_invariant_catches_detuning(monkeypatch):
    # At h tau = 1.001 pi/L the GHZ edges B_0, B_L no longer share a
    # phase.  A phase tolerance loose enough to group them anyway makes
    # the GHZ target look dark; its amplitude then drifts at n = 1.
    L = 8
    params = ChainParams(L=L)
    setup, initial = reduced_setup(params, 1.001 * math.pi / L,
                                   orthogonality_angle(L))
    charges = degeneracy_groups(setup).w
    monkeypatch.setattr(filtration, "PHASE_TOL", 0.01)
    # the grouping reads the tolerance when called: B_0, B_L merge
    assert degeneracy_groups(setup).w == charges - 1
    target = make_target(setup, params, "tar1", orthogonality_angle(L))
    with pytest.raises(NumericsError, match="not dark"):
        jump_filtration_time(setup, initial, target, 0.01, (1001, 1000 * L))


def test_jump_ahead_rejects_what_it_cannot_certify():
    setup, initial, target, h_tau = _sweep_problem(8, "tar1-orthogonal")
    with pytest.raises(ValidationError, match="resolution"):
        jump_filtration_time(setup, initial, target, 1e-17, h_tau)
    with pytest.raises(ValidationError, match="not at h"):
        jump_filtration_time(setup, initial, target, 0.01, (1, 7))
    # at h tau = pi/3 the dark subspace holds more than the GHZ target
    params = ChainParams(L=6)
    setup, initial = reduced_setup(params, math.pi / 3, orthogonality_angle(6))
    target = make_target(setup, params, "tar1", orthogonality_angle(6))
    with pytest.raises(NumericsError, match="Q_inf"):
        jump_filtration_time(setup, initial, target, 0.01, (1, 3))
    # at L=40 the crossing lies 7e-13 from 1 - eps
    setup, initial, target, h_tau = _sweep_problem(40, "tar1-orthogonal")
    with pytest.raises(NumericsError, match="too close"):
        jump_filtration_time(setup, initial, target, 0.01, h_tau)


def test_sweep_rejects_uncertified_length(tmp_path):
    with pytest.raises(ValidationError, match="certified"):
        sweep_n_epsilon([20, 31], "orthogonal", 0.01, "tar1-orthogonal",
                        tmp_path)


def test_ghz_scaling_law_in_asymptotic_regime(tmp_path):
    # the tar1-orthogonal law 2^L/(4L) log(L/eps) is leading order: the
    # simulated n_eps approaches it from above as L grows
    art = sweep_n_epsilon([20, 24, 30], "orthogonal", 0.01,
                          "tar1-orthogonal", tmp_path)
    ratio = [pt["n_eps_sim"] / pt["n_eps_theory"]
             for pt in art.metadata["points"]]
    assert 1.0 < ratio[2] < ratio[1] < ratio[0] < 1.04, ratio
    assert art.metadata["points"][2]["n_eps_sim"] == 72508479


def test_fit_slope_log2_on_exact_doubling():
    rows = [(L, 2.0**L, 0.0, "x") for L in range(5, 10)]
    assert fit_slope_log2(rows) == pytest.approx(1.0)
    assert fit_slope_log2(rows[:1]) is None


def test_group_label():
    assert group_label((0, 3, 6)) == "(0;3;6)"
    assert group_label((1, 4), index=1, total=2) == "(1;4)_2"


def test_table1_scan(tmp_path):
    art = table1_scan(tmp_path)
    counts = {(c["p"], c["q"]): c["count"] for c in art.metadata["cases"]}
    assert counts == {(1, 6): 1, (1, 5): 2, (1, 4): 3,
                      (1, 3): 4, (2, 5): 2, (1, 2): 5}
    header, rows = read_csv(art.paths["table1"])
    assert header == ["p", "q", "label", "coeff_re", "coeff_im"]
    assert len(rows) == 17                        # total dark count
    labels = [r[2] for r in rows if (r[0], r[1]) == ("1", "3")]
    case = next(c for c in art.metadata["cases"]
                if (c["p"], c["q"]) == (1, 3))
    assert labels == case["labels"]
    assert sorted(labels) == ["(0;3;6)_1", "(0;3;6)_2", "(1;4)", "(2;5)"]


def test_detect_plateau_finds_flat_window():
    rise = np.linspace(0.0, 0.9, 200)
    flat = np.full(1000, 0.9)
    fall = np.linspace(0.9, 0.1, 300)
    q = np.concatenate([rise, flat, fall])
    found = detect_plateau(q)
    assert found is not None
    start, end, height = found
    assert height == pytest.approx(0.9, abs=1e-6)
    assert 150 < start < 300
    assert 1100 < end < 1300


def test_detect_plateau_rejects_steady_slopes():
    assert detect_plateau(np.linspace(0.0, 1.0, 500)) is None
    assert detect_plateau(np.zeros(3)) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(segments=st.lists(
    st.tuples(st.integers(4, 8), st.sampled_from([0.0, 1e-6]),
              st.integers(1, 6), st.sampled_from([4e-5, -4e-5])),
    max_size=8))
def test_detect_plateau_matches_the_loop(segments):
    # flat stretches of a few lengths between slopes, so longest runs
    # tie often: the first of them wins in both
    steps = [[flat] * m + [slope] * k for m, flat, k, slope in segments]
    q = 0.5 + np.cumsum(sum(steps, []))
    want = plateau_loop(q, experiments.PLATEAU_SLOPE,
                        experiments.PLATEAU_SMOOTH)
    assert detect_plateau(q) == want


def test_detect_plateau_takes_the_first_of_tied_runs():
    flat = np.full(20, 0.5)
    q = np.concatenate([flat, flat + 0.01, flat + 0.02])
    found = detect_plateau(q)
    assert found == plateau_loop(q, experiments.PLATEAU_SLOPE,
                                 experiments.PLATEAU_SMOOTH)
    assert found[0] == 2


def test_perturbation_study_smoke(tmp_path):
    spec = ExperimentSpec(name="p", params=ChainParams(L=6, J2=0.02),
                          theta0=0.0, h_tau=(1, 6), n_steps=600,
                          engine="full")
    art = perturbation_study(spec, tmp_path)
    meta = art.metadata
    assert meta["edge_residuals"]["B0"] < 1e-12
    assert meta["edge_residuals"]["B6"] < 1e-12
    assert meta["tar1"]["dark_residual"] < 1e-10
    assert meta["tar1"]["dark_weight"] == pytest.approx(2.0**-5, abs=1e-10)
    for which in ("tar1", "tar2"):
        assert os.path.exists(art.paths[f"trajectory_{which}"])


def test_perturbation_study_caps_length(tmp_path):
    spec = ExperimentSpec(name="p", params=ChainParams(L=11, J2=0.02),
                          theta0=0.0, h_tau=(1, 11), n_steps=10,
                          engine="full")
    with pytest.raises(ValidationError):
        perturbation_study(spec, tmp_path)


def test_perturbation_study_refuses_the_tower_engine(tmp_path):
    spec = ExperimentSpec(name="p", params=ChainParams(L=4), theta0=0.0,
                          h_tau=(1, 4), n_steps=10, engine="tower")
    with pytest.raises(ValidationError, match="full engine"):
        perturbation_study(spec, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_noisy_removal_runs(tmp_path):
    pert = Perturbations(lam=0.05, seed=12)
    spec = ExperimentSpec(name="n", params=ChainParams(L=5),
                          theta0=orthogonality_angle(5), h_tau=(1, 5),
                          n_steps=300, engine="full", target="tar1",
                          perturbations=pert)
    art = run_target(spec, tmp_path)
    assert art.metadata["engine"] == "full"
    # noise shifts the reachable fidelity below the clean value
    assert art.metadata["max_q"] < 1.0 - 1e-6


def test_sample_goe_statistics():
    mat = sample_goe(400, 8)
    assert np.array_equal(mat, mat.T)
    off = mat[~np.eye(400, dtype=bool)]
    assert np.var(off) == pytest.approx(1.0 / 400.0, rel=0.05)
    assert np.var(np.diag(mat)) == pytest.approx(2.0 / 400.0, rel=0.3)
    assert not np.array_equal(sample_goe(400, 9), mat)


@pytest.mark.parametrize("d_goe,seed", [(2, 23), (8, -1), (8, 2**64)])
def test_goe_demo_validation(tmp_path, d_goe, seed):
    # the arguments are checked before the output directory is made
    with pytest.raises(ValidationError):
        goe_demo(tmp_path / "o", d_goe=d_goe, seed=seed)
    assert not (tmp_path / "o").exists()


def test_goe_demo_rejects_short_run(tmp_path):
    with pytest.raises(ValidationError):
        goe_demo(tmp_path, d_goe=32, seed=23, n_steps=10)


def test_goe_demo_spectrum_matches_the_dense_oracle(tmp_path):
    art = goe_demo(tmp_path, d_goe=64, seed=23)
    unit = np.eye(64, dtype=complex)
    setup = generic_setup(sample_goe(64, 23), unit[1])
    dense = spectral_decomposition(setup, unit[0])
    order = np.lexsort((np.angle(dense.values).round(12),
                        -np.abs(dense.values)))
    header, rows = read_csv(art.paths["spectrum"])
    values = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    assert np.max(np.abs(values - dense.values[order])) <= 1e-12
    assert [r[3] for r in rows] == [dense.kinds[i] for i in order]
    zeta_d = np.max(np.abs(dense.values[dense.select("bright")]))
    n_bound = math.ceil(math.log(1e-8) / (2.0 * math.log(zeta_d)))
    assert art.metadata["n_bound"] == n_bound == 204127


def test_zeta_scan_prefix(tmp_path):
    art = zeta_vs_L_scan(tmp_path, L_values=(4, 5, 6, 7))
    header, rows = read_csv(art.paths["zeta_scan"])
    assert header == ["L", "zeta_modulus"]
    mods = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(mods, mods[1:]))
    assert os.path.exists(os.path.join(tmp_path, "spectrum_L04.csv"))
    assert sorted(art.metadata["moduli"]) == ["4", "5", "6", "7"]


def test_document_roundtrip():
    spec = _tower_spec(6, 0.25, (1, 6), 77, eps=0.02, target="tar1")
    doc = document_of(spec)
    assert doc["L"] == 6 and doc["h_tau"] == [1, 6] and doc["n_steps"] == 77
    assert doc["target"] == "tar1"
    assert "lambda" not in json.dumps(doc)    # defaults stay silent
