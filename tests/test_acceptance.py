"""End-to-end acceptance suite.

Ten numbered criteria cover the headline physics: exactness of the scar
tower, the dark-state census, GHZ and rotating-cat preparation with
their filtration-time laws, the secular/charge description of the bright
spectrum, the GOE benchmark, metastability under a tower-breaking
coupling, engine equivalence, and byte-level determinism.

Each test prints one verdict line

    criterion NN <slug>: PASS|FAIL (<detail>)

and then asserts both the physics tolerance and a wall-clock budget.
The project pytest config includes -rA so the verdict lines of passing
tests show up in the run summary alongside any failures.
"""

import csv
import json
import math
import os
import time
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from darkfilter.experiments import (
    ExperimentSpec,
    TABLE1_CASES,
    build_setup,
    goe_demo,
    orthogonality_angle,
    perturbation_study,
    run_target,
    sweep_n_epsilon,
    table1_scan,
    tar2_optimal_angle,
    zeta_vs_L_scan,
)
from darkfilter.filtration import full_setup, reduced_setup, run_filtration
from darkfilter.spectral import (convex_hull_violation, dark_subspace,
                                 degeneracy_groups, mode_spectrum)
from darkfilter.spin_model import ChainParams, build_tower, sga_residual
from darkfilter.experiments import make_target

from helpers import dense_hamiltonian, product_state


def verdict(num, slug, ok, detail):
    print(f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def read_column(path, name):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = header.index(name)
        return np.array([float(row[col]) for row in reader])


def load_metadata(out_dir):
    with open(os.path.join(out_dir, "metadata.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- 1 ----
def test_criterion_01_algebraic_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for L in range(4, 9):
        report = sga_residual(ChainParams(L=L, J3=0.1))
        worst = max(worst, report.max)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 10.0
    assert verdict(1, "algebraic-exactness", ok,
                   f"worst tower/algebra residual {worst:.2e} over L=4..8 "
                   f"with J3=0.1, {dt:.1f} s")


# ---------------------------------------------------------------- 2 ----
def test_criterion_02_dark_state_census():
    t0 = time.perf_counter()
    L = 6
    params = ChainParams(L=L)
    tower = build_tower(params)
    ham = dense_hamiltonian(L)
    psi_r = product_state(L, math.pi)
    counts = {}
    worst = 0.0
    for (p, q), expected in TABLE1_CASES:
        tau = math.pi * p / (q * params.h)
        setup, _ = reduced_setup(params, (p, q), 0.3)
        dark = dark_subspace(degeneracy_groups(setup))
        counts[(p, q)] = dark.count
        if dark.count != expected:
            continue
        # embed the tower-basis dark vectors into the full 3^L space and
        # check them against the dense propagator, the removal state,
        # and each other
        embedded = tower.T @ dark.vectors
        unitary = sla.expm(-1j * tau * ham)
        for k in range(dark.count):
            phi = embedded[:, k]
            worst = max(worst, float(np.linalg.norm(
                unitary @ phi - dark.phases[k] * phi)))
            worst = max(worst, abs(np.vdot(psi_r, phi)))
        gram = embedded.conj().T @ embedded
        worst = max(worst, float(np.max(np.abs(gram - np.eye(dark.count)))))
    dt = time.perf_counter() - t0
    expected_counts = {pq: n for pq, n in TABLE1_CASES}
    ok = counts == expected_counts and worst < 1e-10 and dt < 30.0
    assert verdict(2, "dark-state-census", ok,
                   f"counts {[counts[pq] for pq, _ in TABLE1_CASES]} vs "
                   f"{[n for _, n in TABLE1_CASES]}, worst property residual "
                   f"{worst:.2e}, {dt:.1f} s")


# ---------------------------------------------------------------- 3 ----
def test_criterion_03_ghz_preparation_scaling(tmp_path):
    t0 = time.perf_counter()
    orth = sweep_n_epsilon(tmp_path / "orth", range(6, 13),
                           "tar1-orthogonal", "orthogonal", 0.01)
    points = orth["points"]
    ratios = {pt["L"]: pt["n_eps_sim"] / pt["n_eps_theory"] for pt in points}
    ok_ratio = all(0.7 <= ratios[L] <= 1.3 for L in range(8, 13))
    general = sweep_n_epsilon(tmp_path / "general", range(8, 14),
                              "tar1-general", "general", 0.01)
    slope = general["slope_log2"]
    ok_slope = 0.85 <= slope <= 1.15
    dt = time.perf_counter() - t0
    ok = ok_ratio and ok_slope and dt < 300.0
    worst_ratio = max((ratios[L] for L in range(8, 13)),
                      key=lambda r: abs(r - 1.0))
    assert verdict(3, "ghz-preparation-scaling", ok,
                   f"all L=6..12 reached Q>=0.99; worst n_eps ratio "
                   f"{worst_ratio:.3f} (L>=8), log2 slope {slope:.3f}, "
                   f"{dt:.1f} s")


# ---------------------------------------------------------------- 4 ----
@pytest.fixture(scope="module")
def cat_l14(tmp_path_factory):
    L = 14
    spec = ExperimentSpec(name="acceptance-cat", params=ChainParams(L=L),
                          theta0=tar2_optimal_angle(L), h_tau=(1, L - 1),
                          n_steps=4000, eps=0.01, target="tar2")
    out = tmp_path_factory.mktemp("cat_l14")
    t0 = time.perf_counter()
    meta = run_target(spec, out)
    return meta, out, time.perf_counter() - t0


def test_criterion_04_rotating_cat_fidelity(cat_l14):
    meta, _, dt = cat_l14
    n_eps = meta["n_eps"]
    ok = meta["reached"] and 1000 <= n_eps <= 3000 and dt < 120.0
    assert verdict(4, "rotating-cat-fidelity", ok,
                   f"L=14 reaches Q>=0.99 at n_eps {n_eps} in [1000, 3000], "
                   f"{dt:.1f} s")


def test_criterion_04_rotating_cat_string_law(cat_l14):
    meta, out, dt = cat_l14
    # before the checked window the law holds only up to the un-depleted
    # bright weight: the string operator has norm 1, so for pure states
    # | |s_n| - |law_n| | <= 2 sqrt(1 - Q_n)
    path = os.path.join(out, "trajectory.csv")
    n = read_column(path, "n")
    q = read_column(path, "q_n")
    s = read_column(path, "string_re") + 1j * read_column(path, "string_im")
    p, qq = meta["spec"]["h_tau"]
    law = np.cos(meta["spec"]["theta0"] + 2.0 * n * math.pi * p / qq)
    gap = np.abs(np.abs(s) - np.abs(law))
    bound = 2.0 * np.sqrt(np.maximum(1.0 - q, 0.0)) + 1e-9
    margin = float(np.min((bound - gap)[n >= 400]))
    start = meta.get("string_check_from")
    if start is None:
        ok = False
        detail = (f"Q_n never stays >= 1 - (0.01/2)^2 within "
                  f"{meta['spec']['n_steps']} steps (max Q "
                  f"{meta['max_q']:.6f}), so no window certifies the law")
    else:
        dev = meta["string_dev_abs"]
        ok = dev <= 0.01 and margin >= 0.0 and dt < 120.0
        detail = (f"string law deviation {dev:.2e} vs <= 0.01 for "
                  f"n >= {start}, where Q_n >= 1 - (0.01/2)^2; for "
                  f"n >= 400 within 2 sqrt(1 - Q_n), smallest margin "
                  f"{margin:.2e}")
    assert verdict(4, "rotating-cat-string-law", ok, f"{detail}, {dt:.1f} s")


# ---------------------------------------------------------------- 5 ----
def test_criterion_05_secular_vs_dense_spectra():
    t0 = time.perf_counter()
    cases = [(6, p, q) for (p, q), _ in TABLE1_CASES]
    cases += [(L, 1, L) for L in (6, 7, 8)]
    worst_root = 0.0
    worst_hull = 0.0
    count_ok = True
    for L, p, q in cases:
        params = ChainParams(L=L)
        tau = math.pi * p / (q * params.h)
        setup, _ = reduced_setup(params, (p, q), 0.3)
        _, groups, roots = mode_spectrum(setup)
        # independent oracle: tower-restricted F from the closed forms
        # for the removal coefficients and the ladder energies
        n = np.arange(L + 1)
        w_n = (-1.0) ** n * np.sqrt(
            [math.comb(L, int(k)) / 2.0 ** L for k in n])
        energies = (params.D - params.h) * L + 2.0 * n * params.h
        phases = np.exp(-1j * energies * tau)
        f_t = (np.eye(L + 1) - np.outer(w_n, w_n)) @ np.diag(phases)
        vals = sla.eigvals(f_t)
        # non-dark part = secular roots plus one structural zero from the
        # rank-deficient projector; drop the smallest modulus for it
        nondark = vals[np.abs(vals) < 1.0 - 1e-6]
        nondark = np.delete(nondark, int(np.argmin(np.abs(nondark))))
        # charged-group count from the oracle phases
        ang = np.sort(energies * tau % (2.0 * math.pi))
        w = 1 + int(np.count_nonzero(np.diff(ang) > 1e-9))
        if 2.0 * math.pi - (ang[-1] - ang[0]) < 1e-9 and w > 1:
            w -= 1
        if roots.size != w - 1 or nondark.size != w - 1:
            count_ok = False
            continue
        # nearest-complex pairing; a zero root has no meaningful angle
        left = list(nondark)
        for z in roots:
            dists = [abs(z - o) for o in left]
            k = int(np.argmin(dists))
            worst_root = max(worst_root, dists[k])
            left.pop(k)
        for root in roots:
            worst_hull = max(worst_hull, convex_hull_violation(
                root, np.exp(-1j * groups.charge_angles)))
    dt = time.perf_counter() - t0
    ok = count_ok and worst_root < 1e-8 and worst_hull < 1e-12 and dt < 60.0
    assert verdict(5, "secular-vs-dense-spectra", ok,
                   f"{len(cases)} cases, root counts w-1 "
                   f"{'ok' if count_ok else 'MISMATCH'}, worst root gap "
                   f"{worst_root:.2e}, worst hull excess {worst_hull:.2e}, "
                   f"{dt:.1f} s")


# ---------------------------------------------------------------- 6 ----
def test_criterion_06_dominant_eigenvalue_decay(tmp_path):
    t0 = time.perf_counter()
    meta = zeta_vs_L_scan(tmp_path)
    moduli = [meta["moduli"][str(L)] for L in range(4, 17)]
    drops = np.diff(moduli)
    dt = time.perf_counter() - t0
    ok = bool(np.all(drops < 0.0)) and dt < 60.0
    assert verdict(6, "dominant-eigenvalue-decay", ok,
                   f"|zeta_d| strictly decreasing over L=4..16 "
                   f"({moduli[0]:.4f} -> {moduli[-1]:.4f}), {dt:.1f} s")


# ---------------------------------------------------------------- 7 ----
def test_criterion_07_goe_dark_persistence(tmp_path):
    t0 = time.perf_counter()
    meta = goe_demo(tmp_path, d_goe=64, seed=23)
    worst = meta["worst_tail_error"]
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 60.0
    assert verdict(7, "goe-dark-persistence", ok,
                   f"survival matches the dark weight to {worst:.2e} past "
                   f"n = {meta['n_bound']}, {dt:.1f} s")


# ---------------------------------------------------------------- 8 ----
@pytest.fixture(scope="module")
def perturbed_l8(tmp_path_factory):
    spec = ExperimentSpec(name="acceptance-perturbed",
                          params=ChainParams(L=8, J2=0.02),
                          theta0=0.0, h_tau=(1, 8), n_steps=20000,
                          engine="full")
    out = tmp_path_factory.mktemp("perturbed_l8")
    t0 = time.perf_counter()
    meta = perturbation_study(spec, out)
    return meta, out, time.perf_counter() - t0


def ghz_darkness_gap(q, survival, w_dark):
    """Largest |Q_n S_n - w_dark| / w_dark along a trajectory.

    A dark target keeps the modulus of its amplitude in F^n psi0, so
    Q_n S_n equals its initial weight w_dark at every step.
    """
    return float(np.max(np.abs(q * survival - w_dark))) / w_dark


def test_criterion_08_perturbed_metastability_ghz(perturbed_l8):
    # J2 breaks the tower but keeps B_0 and B_L exact, and h tau = pi/L
    # keeps their phases equal: the GHZ target stays dark and its weight
    # is conserved, while Q_n = w_dark / S_n climbs as the thermal
    # levels drain (the PAPER.md "robust" regime)
    meta, out, dt = perturbed_l8
    L = 8
    tar1 = meta["tar1"]
    w_dark = tar1["dark_weight"]
    edge = max(meta["edge_residuals"].values())
    path = os.path.join(out, "trajectory_tar1.csv")
    q = read_column(path, "q_n")
    gap = ghz_darkness_gap(q, read_column(path, "survival"), w_dark)
    step = float(np.min(np.diff(q)))
    ok = (abs(w_dark - 2.0 ** (1 - L)) <= 1e-12
          and tar1["dark_residual"] < 1e-10 and edge < 1e-12
          and q.size == 20001 and gap <= 1e-10 and step >= -1e-12
          and dt < 900.0)
    assert verdict(8, "perturbed-metastability-ghz", ok,
                   f"L=8 J2=0.02 dark weight {w_dark:.6e} = 2^(1-L), "
                   f"|Q_n S_n - w_dark| / w_dark <= {gap:.1e} over "
                   f"n <= {q.size - 1}, smallest Q step {step:.1e}, edge "
                   f"residual {edge:.1e}, dark residual "
                   f"{tar1['dark_residual']:.1e}; Q(10^4) = "
                   f"{float(q[10000]):.4f}, study {dt:.1f} s")


def test_criterion_08_darkness_gap_detects_detuning():
    # off the resonance h tau = pi/L the edge phases drift apart, the
    # GHZ target is no longer dark and the identity of criterion 08 fails
    spec = ExperimentSpec(name="acceptance-detuned",
                          params=ChainParams(L=8, J2=0.02),
                          theta0=orthogonality_angle(8), h_tau=(1001, 8000),
                          n_steps=2000, engine="full")
    setup, initial = build_setup(spec)
    traj = run_filtration(setup, initial, spec.n_steps,
                          target=make_target(setup, spec.params, "tar1",
                                                 spec.theta0))
    assert ghz_darkness_gap(traj.q, traj.survival, 2.0 ** (1 - 8)) > 0.5


def test_criterion_08_perturbed_metastability_cat(perturbed_l8):
    meta, _, dt = perturbed_l8
    plateau = meta["tar2"]["plateau"]
    ok = (plateau is not None and plateau["height"] > 0.3
          and plateau["exit"] < 20000 and dt < 900.0)
    height = None if plateau is None else plateau["height"]
    assert verdict(8, "perturbed-metastability-cat", ok,
                   f"L=8 J2=0.02 cat plateau height {height} > 0.3, "
                   f"window {None if plateau is None else (plateau['start'], plateau['exit'])}, "
                   f"study {dt:.1f} s")


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="extended check; set RUN_EXTENDED=1")
def test_criterion_08_perturbed_metastability_extended(tmp_path):
    # full engine at L = 10: the cat-state fidelity stalls near 0.5
    # through n ~ 10^4 before the tower-breaking coupling wins; any
    # warning, such as a numpy one on the way, fails the check
    t0 = time.perf_counter()
    spec = ExperimentSpec(name="acceptance-perturbed-l10",
                          params=ChainParams(L=10, J2=0.02),
                          theta0=0.0, h_tau=(1, 10), n_steps=20000,
                          engine="full")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perturbation_study(spec, tmp_path)
    q = read_column(os.path.join(tmp_path, "trajectory_tar2.csv"), "q_n")
    mid = float(np.mean(q[5000:10000]))
    late = float(np.mean(q[19000:]))
    dt = time.perf_counter() - t0
    ok = 0.35 <= mid <= 0.65 and late < mid - 0.05
    assert verdict(8, "perturbed-metastability-extended", ok,
                   f"L=10 J2=0.02 cat fidelity mean {mid:.3f} over "
                   f"n=5e3..1e4, late mean {late:.3f}, {dt:.0f} s")


# ---------------------------------------------------------------- 9 ----
def test_criterion_09_engine_equivalence():
    t0 = time.perf_counter()
    params = ChainParams(L=6)
    theta0 = orthogonality_angle(6)
    results = {}
    for build in (reduced_setup, full_setup):
        setup, psi0 = build(params, (1, 6), theta0)
        target = make_target(setup, params, "tar1", theta0)
        results[setup.engine] = run_filtration(setup, psi0, 200,
                                               target=target)
    tower, full = results["tower"], results["full"]
    worst = max(
        float(np.max(np.abs(tower.survival - full.survival))),
        float(np.max(np.abs(tower.q - full.q))),
        float(np.max(np.abs(tower.string - full.string))),
    )
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 60.0
    assert verdict(9, "engine-equivalence", ok,
                   f"L=6, 200 steps: survival/fidelity/string agree to "
                   f"{worst:.2e}, {dt:.1f} s")


# --------------------------------------------------------------- 10 ----
def _artifact_bytes(job, out_dir):
    """The CSV bytes job writes into out_dir, and its metadata dict as
    JSON without the wall time."""
    meta = json.loads(json.dumps(job(out_dir), default=str))
    payload = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "metadata.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                payload[name] = fh.read()
    meta.pop("wall_time_s", None)
    payload["metadata"] = json.dumps(meta, sort_keys=True)
    return payload


def test_criterion_10_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    ghz_spec = ExperimentSpec(name="acceptance-det", params=ChainParams(L=8),
                              theta0=orthogonality_angle(8), h_tau=(1, 8),
                              n_steps=500, eps=0.01, target="tar1")
    jobs = {
        "trajectory": lambda d: run_target(ghz_spec, d),
        "census": lambda d: table1_scan(d),
        "goe": lambda d: goe_demo(d, d_goe=64, seed=23),
        "scaling": lambda d: sweep_n_epsilon(d, range(6, 9),
                                             "tar1-orthogonal", "orthogonal",
                                             0.01),
        "zeta": lambda d: zeta_vs_L_scan(d),
    }
    mismatched = []
    for name, job in jobs.items():
        first = _artifact_bytes(job, tmp_path / f"{name}_a")
        second = _artifact_bytes(job, tmp_path / f"{name}_b")
        if first != second:
            mismatched.append(name)
    dt = time.perf_counter() - t0
    ok = not mismatched and dt < 120.0
    assert verdict(10, "byte-determinism", ok,
                   f"{len(jobs)} artifact families run twice, "
                   f"mismatches: {mismatched or 'none'}, {dt:.1f} s")
