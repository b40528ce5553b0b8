"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one darkfilter subcommand with a generated config.
``inputs(seed)`` returns the config document and what the run must
produce; ``check(out_dir, expected)`` reads the artifacts and returns a
list of mismatches (empty when the run is correct).  References come
from the seed commit of this benchmark, or, where the input is random,
from an independent numpy computation made here.  Whole artifacts are
never hashed: their last digits depend on the BLAS build and thread count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

# filtration times n_eps of the tar1-orthogonal sweep, seed commit
TOWER_N_EPS = {
    6: 23, 7: 38, 8: 68, 9: 120, 10: 211, 11: 378, 12: 684, 13: 1248,
    14: 2303, 15: 4281, 16: 8010, 17: 15072, 18: 28494, 19: 54069,
}

# bright-decay bounds computed at the seed commit, keyed by (D_goe, seed)
GOE_N_BOUND = {(64, 23): 204127}

Q_TOL = 1e-9          # fidelities; their last digits move with the BLAS threads
RESIDUAL_TOL = 1e-10  # dark and edge residuals
TAIL_TOL = 1e-6       # goe_demo's own convergence tolerance
GOE_SEED_SEARCH = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    inputs: Callable[[int], tuple]
    check: Callable[[str, dict], list]
    blas_threads: int = 1
    probe: str = "vector"   # the host-speed probe of probe.py


def _metadata(out_dir):
    with open(os.path.join(out_dir, "metadata.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    """Data rows of a CSV file (lines after the header)."""
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _close(problems, what, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, expected {want!r} +- {tol:g}")


def _below(problems, what, got, limit):
    if got is None or not got < limit:
        problems.append(f"{what}: got {got!r}, expected < {limit:g}")


# -- tower-sweep -------------------------------------------------------------

def tower_sweep(L_values):
    L_values = list(L_values)

    def inputs(seed):
        doc = {"L_values": L_values, "variant": "tar1-orthogonal"}
        return doc, {"n_eps": {L: TOWER_N_EPS[L] for L in L_values}}

    def check(out_dir, expected):
        problems = []
        with open(os.path.join(out_dir, "scaling.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _expect(problems, "scaling.csv header", lines[0],
                "L,n_eps_sim,n_eps_theory,variant")
        got = {int(row.split(",")[0]): int(row.split(",")[1])
               for row in lines[1:]}
        _expect(problems, "n_eps by L", got, expected["n_eps"])
        points = {p["L"]: p["n_eps_sim"] for p in _metadata(out_dir)["points"]}
        _expect(problems, "metadata n_eps by L", points, expected["n_eps"])
        return problems

    return Workload(
        "tower-sweep", "scaling-sweep",
        "the paper's GHZ scaling law: ~0.55M tower steps at dim 7-20, all in "
        "the step kernel; bypasses eigh, the string operator and bulk CSV",
        inputs, check)


# -- perturb-full ------------------------------------------------------------

def perturb_full(L, n_steps, q_final, plateau):
    """plateau is (start, exit, height) of tar2, or None."""

    def inputs(seed):
        doc = {"L": L, "J2": 0.02, "n_steps": n_steps}
        return doc, {"q_final": q_final, "plateau": plateau,
                     "rows": n_steps + 1, "L": L}

    def check(out_dir, expected):
        problems = []
        meta = _metadata(out_dir)
        tar1, tar2 = meta["tar1"], meta["tar2"]
        _close(problems, "tar1 q_final", tar1["q_final"],
               expected["q_final"], Q_TOL)
        _below(problems, "tar1 dark_residual", tar1["dark_residual"],
               RESIDUAL_TOL)
        for edge in ("B0", f"B{expected['L']}"):
            _below(problems, f"edge residual {edge}",
                   meta["edge_residuals"].get(edge), RESIDUAL_TOL)
        want = expected["plateau"]
        got = tar2["plateau"]
        if want is None or got is None:
            _expect(problems, "tar2 plateau", got, want)
        else:
            _expect(problems, "tar2 plateau start", got["start"], want[0])
            _expect(problems, "tar2 plateau exit", got["exit"], want[1])
            _close(problems, "tar2 plateau height", got["height"], want[2],
                   Q_TOL)
        for which in ("tar1", "tar2"):
            _expect(problems, f"trajectory_{which}.csv rows",
                    _csv_rows(os.path.join(out_dir, f"trajectory_{which}.csv")),
                    expected["rows"])
        return problems

    return Workload(
        "perturb-full", "perturb",
        "tower-breaking J2 on two full ED engines of dim 3281: sector eigh, "
        "string operator every step, 0.5 GB peak; bypasses the tower engine",
        inputs, check, blas_threads=2, probe="blas")


# -- goe-demo ----------------------------------------------------------------

def goe_reference(d_goe, seed):
    """(n_bound, dark weight) of goe_demo's GOE draw, computed independently.

    Mirrors goe_demo: the matrix from a Philox stream keyed by seed,
    removal |1>, initial |0>, tau gluing the band edges; n_bound is where
    the slowest bright mode of F has decayed below 1e-8 in weight.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.standard_normal((d_goe, d_goe))
    w, v = sla.eigh((a + a.T) / math.sqrt(2.0 * d_goe))
    tau = 2.0 * math.pi / (w[-1] - w[0])
    phases = np.exp(-1j * w * tau)
    r = v[1].conj()                      # <E_k|1>: removal in the eigenbasis
    psi0 = v[0].conj()                   # <E_k|0>: initial state
    fmat = np.diag(phases) - np.outer(r, r.conj() * phases)
    moduli = np.abs(sla.eigvals(fmat))
    bright = moduli[(moduli <= 1.0 - 1e-8) & (moduli >= 1e-12)]
    n_bound = math.ceil(math.log(1e-8) / (2.0 * math.log(bright.max())))
    phi = np.zeros(d_goe, dtype=complex)
    phi[-1] = r[0].conj()
    phi[0] = -r[-1].conj()
    phi /= np.linalg.norm(phi)
    return n_bound, float(abs(np.vdot(phi, psi0)) ** 2)


def goe_demo(d_goe, n_steps):
    """GOE demo with a fixed step count, so every seed does the same work.

    The GOE draw for seed s is the first draw seed >= s whose bright-decay
    bound lies below n_steps; goe_demo refuses a run that stops before it.
    """

    def inputs(seed):
        for goe_seed in range(seed, seed + GOE_SEED_SEARCH):
            n_bound, dark_weight = goe_reference(d_goe, goe_seed)
            if n_bound < n_steps:
                break
        else:
            raise RuntimeError(f"no GOE draw from seed {seed} fits "
                               f"{n_steps} steps")
        doc = {"goe": {"D_goe": d_goe, "seed": goe_seed}, "n_steps": n_steps}
        reference = GOE_N_BOUND.get((d_goe, goe_seed))
        return doc, {"goe_seed": goe_seed,
                     "n_bound": n_bound if reference is None else reference,
                     "n_bound_tol": 1 if reference is None else 0,
                     "dark_weight": dark_weight, "rows": n_steps + 1,
                     "d_goe": d_goe}

    def check(out_dir, expected):
        problems = []
        meta = _metadata(out_dir)
        _expect(problems, "seed", meta["seed"], expected["goe_seed"])
        _close(problems, "n_bound", meta["n_bound"], expected["n_bound"],
               expected["n_bound_tol"])
        _below(problems, "worst_tail_error", meta["worst_tail_error"],
               TAIL_TOL)
        _close(problems, "expected_survival", meta["expected_survival"],
               expected["dark_weight"], 1e-9)
        path = os.path.join(out_dir, "trajectory.csv")
        _expect(problems, "trajectory.csv rows", _csv_rows(path),
                expected["rows"])
        with open(path, "rb") as fh:
            fh.seek(-200, os.SEEK_END)
            last = fh.read().decode().splitlines()[-1].split(",")
        _close(problems, "final survival", float(last[1]),
               expected["dark_weight"], TAIL_TOL)
        _expect(problems, "spectrum.csv rows",
                _csv_rows(os.path.join(out_dir, "spectrum.csv")),
                expected["d_goe"])
        charges = _csv_rows(os.path.join(out_dir, "charges.csv"))
        if not 1 <= charges <= expected["d_goe"]:
            problems.append(f"charges.csv rows: got {charges}, expected "
                            f"1..{expected['d_goe']}")
        return problems

    return Workload(
        "goe-demo", "goe-demo",
        "generic engine at d=64: 205127 steps, a CSV row per step and a dense "
        "non-normal eig; the CSV-heavy workload; the only one whose input "
        "the seed changes",
        inputs, check)


WORKLOADS = {w.name: w for w in (
    tower_sweep(range(6, 20)),
    perturb_full(8, 3000, 0.7190030183038625,
                 (2448, 2452, 0.9154943146159287)),
    goe_demo(64, 205127),
)}

# tiny versions of each workload for the harness self-tests
SMOKE = {w.name: w for w in (
    tower_sweep(range(6, 9)),
    perturb_full(4, 300, 0.9943678848186126, None),
    goe_demo(16, 20000),
)}
