"""Preset, reproducible experiment drivers, one per CLI subcommand.

Every driver is called the same way, driver(out_dir, **arguments): the
arguments are the keys of the subcommand's document (config), and each
default belongs to the signature that uses it; a chain's couplings keep
those of ChainParams.  A driver runs the protocol, writes every artifact
into out_dir, CSV files and then, through _finish, the metadata.json
sidecar with its code_version, rng and wall_time_s, and returns the
sidecar's dict.  The sidecar's "spec" echoes the arguments the driver
resolved as a document of the same subcommand.  A target superposition
is declared once, in TARGETS: its resonance, default angle, components
and rotation.  run_target prepares the target it is given, and
perturbation_study and the scaling sweep read the same table.
Re-running the "spec" echo reproduces the CSV bodies byte for byte; the
sidecar additionally records wall time, so only the data files are
expected to compare equal.

Randomness (removal-state noise, the random-matrix benchmark) always
goes through a counter-based Philox generator keyed by an explicit
seed recorded in the metadata.
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .basis import FULL_SPACE_CAP, string_parity_sign
from .errors import NumericsError, ValidationError
from .filtration import (BACKEND, TRAJECTORY_BUDGET, RotatingTarget, _lowest,
                         check_eps, full_setup, generic_setup, reduced_setup,
                         run_filtration, filtration_time)
from .output import SCHEMAS, emit_csv, spectrum_columns, write_metadata
from .spectral import (dark_projection, dark_subspace, degeneracy_groups,
                       jump_filtration_time, mode_spectrum,
                       scaling_predictions)
from .spin_model import (ChainParams, build_tower, protocol_states,
                         sga_residual)

RNG_FAMILY = "philox"
# default fidelity threshold: a run reaches its target at Q_n >= 1 - EPS
EPS = 0.01
# default run lengths: perturb runs each leg longer, into the metastable
# regime
RUN_STEPS = 5000
PERTURB_STEPS = 20000
# tolerance to which run_target checks the string-oscillation law of a
# rotating target
STRING_LAW_TOL = 0.01
# largest chain length at which scaling sweeps are certified (see
# sweep_n_epsilon)
SWEEP_L_MAX = 30
# dark overlaps that a refused run lists (_check_target_reachable)
DARK_LISTING = 8
# largest tower residual at which tower_check certifies the tower exact
SGA_TOL = 1e-10

def tar1_resonance(L):
    # h*tau = pi/L glues the phases of the tower edges B_0, B_L
    return 1, L


def tar2_resonance(L):
    # h*tau = pi/(L-1) glues (B_0, B_{L-1}) and (B_1, B_L) pairwise
    return 1, L - 1


def orthogonality_angle(L):
    """Initial-state angle that cancels the dominant bright overlap.

    Solves (-1)^L cos(L theta0) = -1 with the smallest positive angle.
    """
    return math.pi / L if L % 2 == 0 else 2.0 * math.pi / L


def tar2_optimal_angle(L):
    # (-1)^L cos((L-1) theta0) = +1, smallest positive solution
    return 2.0 * math.pi / (L - 1) if L % 2 == 0 else math.pi / (L - 1)


def parity_angle(L):
    """Angle 2 pi/(L+1) where even and odd chain lengths scale apart."""
    return 2.0 * math.pi / (L + 1)


def general_angle(L):
    # L*theta0 = pi/2 keeps the L-dependence of the target overlap flat
    return math.pi / (2.0 * L)


THETA0_RULES = {
    "orthogonal": orthogonality_angle,
    "tar2-optimal": tar2_optimal_angle,
    "parity": parity_angle,
    "general": general_angle,
}


def _check_seed(seed):
    # a seed keys a Philox generator and is documented as a u64
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed!r}")


def _finish(out_dir, name, echo, extra, t0):
    """Write metadata.json into out_dir and return its dict."""
    from . import __version__
    meta = {
        "experiment": name,
        "spec": echo,
        "code_version": __version__,
        "rng": RNG_FAMILY,
        "wall_time_s": round(time.time() - t0, 3),
    }
    meta.update(extra)
    write_metadata(os.path.join(out_dir, "metadata.json"), meta)
    return meta


def noise_vector(dim, seed):
    """Unit-norm complex Gaussian vector from a counter-based generator."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _mixed_removal(params, lam, seed):
    """The removal state, the protocol product at theta = pi, mixed with
    lam of the noise vector of seed and renormalized."""
    psi_r = protocol_states(params, math.pi)[0]
    vec = psi_r + lam * noise_vector(psi_r.size, seed)
    return vec / np.linalg.norm(vec)


def _chain_echo(name, params, lam=0.0, noise_seed=None, **keys):
    """A chain driver's spec echo, a document of its subcommand: name,
    the chain, the keys that are not None, and perturbations unless
    there is neither noise nor seed."""
    echo = {"name": name, **vars(params),
            **{key: val for key, val in keys.items() if val is not None}}
    if lam != 0.0 or noise_seed is not None:
        echo["perturbations"] = {"lambda": lam}
        if noise_seed is not None:
            echo["perturbations"]["seed"] = noise_seed
    return echo


def _protocol(L, target=None, theta0=None, h_tau=None, engine=None,
              lam=0.0, noise_seed=None, **couplings):
    """The chain and protocol of a run: (params, theta0, h_tau, engine).

    A target fixes the resonance and the initial angle that are not
    given; without one theta0 is 0 and h_tau must be given.  The engine
    defaults to full when J2 or the removal noise lam is nonzero, to the
    tower otherwise.  Every argument is checked here, before an engine
    is built.
    """
    params = ChainParams(L, **couplings)
    if lam < 0.0 or not math.isfinite(lam):
        raise ValidationError("noise strength lam must be >= 0 and finite")
    if lam > 0.0 and noise_seed is None:
        raise ValidationError("removal noise requires an explicit seed")
    if noise_seed is not None:
        _check_seed(noise_seed)
    if target is not None and not (isinstance(target, str)
                                   and target in TARGETS):
        raise ValidationError(f"unknown target {target!r}")
    if h_tau is None:
        if target is None:
            raise ValidationError(
                "h_tau is required when no target fixes the resonance"
            )
        h_tau = TARGETS[target].resonance(L)
    p, q = h_tau
    if not (isinstance(p, int) and isinstance(q, int)) or p <= 0 or q <= 0:
        raise ValidationError("h_tau must be a pair of positive integers")
    if theta0 is None:
        theta0 = 0.0 if target is None else TARGETS[target].angle(L)
    if engine is None:
        engine = "full" if params.J2 != 0.0 or lam != 0.0 else "tower"
    if engine not in ("tower", "full"):
        raise ValidationError(f"unknown engine {engine!r}")
    if engine == "tower" and (params.J2 != 0.0 or lam != 0.0):
        raise ValidationError(
            "tower engine requires J2 = 0 and lam = 0; use engine='full'"
        )
    return params, theta0, (p, q), engine


def build_setup(params, h_tau, theta0, engine="tower", lam=0.0,
                noise_seed=None, *, all_blocks=False):
    """Engine dispatch: returns (setup, initial state).

    The full engine's removal state carries lam of the noise of
    noise_seed.  all_blocks keeps every symmetry block of the full
    engine (full_setup), not only those a run reaches.
    """
    if engine == "tower":
        return reduced_setup(params, h_tau, theta0)
    removal = None
    if lam > 0.0:
        removal = _mixed_removal(params, lam, noise_seed)
    return full_setup(params, h_tau, theta0, removal=removal,
                      all_blocks=all_blocks)


def tower_check(out_dir, L, name="tower-check", **couplings) -> dict:
    """sga_residual of the chain; a residual not below SGA_TOL raises
    NumericsError after the sidecar records it."""
    t0 = time.time()
    params = ChainParams(L, **couplings)
    report = sga_residual(params)
    meta = _finish(out_dir, "tower_check", _chain_echo(name, params), {
        "eigen_residual": report.eigen_residual,
        "algebra_residual": report.algebra_residual,
    }, t0)
    if not report.max < SGA_TOL:    # NaN included
        raise NumericsError(
            f"tower residual {report.max:.3e} exceeds {SGA_TOL:.0e}"
        )
    return meta


def _tower_vec(L, entries):
    vec = np.zeros(L + 1, dtype=complex)
    for n, c in entries:
        vec[n] = c
    return vec


def tar1_components(L):
    """GHZ-type dark target: (B_L - (-1)^L B_0) / sqrt(2), tower coords."""
    s = (-1.0) ** L
    return [_tower_vec(L, [(L, 1.0 / math.sqrt(2)), (0, -s / math.sqrt(2))])]


def tar2_components(L):
    """The two edge-pair dark states behind the rotating cat target."""
    s = (-1.0) ** L
    root = math.sqrt(L + 1)
    phi1 = _tower_vec(L, [(0, -s * math.sqrt(L) / root), (L - 1, -1.0 / root)])
    phi2 = _tower_vec(L, [(1, s / root), (L, math.sqrt(L) / root)])
    return [phi1, phi2]


class TargetRule(NamedTuple):
    """How the protocol fixes one target superposition at chain length L."""

    resonance: Callable    # L -> (p, q), the resonance h tau = pi p/q
    angle: Callable        # L -> default initial-state angle theta0
    components: Callable   # L -> component vectors in tower coordinates
    weights: Callable      # theta0 -> component weights
    turns: tuple           # per-step turn of each component, in h tau

    @property
    def rotating(self):
        return any(self.turns)


# the static GHZ cat, and the cat whose two components beat at 2 h tau
TARGETS = {
    "tar1": TargetRule(tar1_resonance, orthogonality_angle, tar1_components,
                       lambda theta0: np.ones(1), (0,)),
    "tar2": TargetRule(tar2_resonance, tar2_optimal_angle, tar2_components,
                       lambda theta0: np.array([np.exp(1j * theta0), -1.0])
                       / math.sqrt(2), (0, 2)),
}


def make_target(setup, params, which, theta0):
    """The target `which` of TARGETS at initial angle theta0, turning by
    the levels turns * p over q a step at the setup's h_tau = (p, q)
    (the target's own on a generic engine), for the chain params of the
    setup.  Off the tower engine its components are lifted to the
    chain's 3^L states, so on a generic engine run_filtration refuses it."""
    if not isinstance(which, str) or which not in TARGETS:
        raise ValidationError(f"unknown target {which!r}")
    rule = TARGETS[which]
    components = rule.components(params.L)
    p, q = setup.h_tau or rule.resonance(params.L)
    if setup.engine != "tower":
        tower = build_tower(params)
        components = [tower.T @ np.asarray(c) for c in components]
    return RotatingTarget(components, rule.weights(theta0),
                          [t * p for t in rule.turns], q)


def _check_target_reachable(setup, initial, target):
    """Abort early when the initial state cannot reach the target.

    The overlap <t|psi0> is a sum of n terms, so its rounding is at most
    n eps sum |terms|: an overlap within that bound is zero, however
    large the bound.  An overlap whose square underflows leaves the
    fidelity no digits either.  Either is refused, naming the reason and
    the DARK_LISTING largest overlaps of psi0 with the dark states.
    """
    psi = setup.to_eigen(initial)
    terms = setup.to_eigen(target.at(0)).conj() * psi
    overlap = abs(terms.sum())
    bound = terms.size * sys.float_info.epsilon * float(np.sum(np.abs(terms)))
    if overlap <= bound:
        reason = (f"zero overlap with the target (|<t|psi0>| = "
                  f"{overlap:.3e}, within its rounding bound {bound:.3e})")
    elif overlap**2 < sys.float_info.min:
        reason = (f"overlap {overlap:.3e} with the target, whose square "
                  "underflows")
    else:
        return
    listing = "dark overlaps skipped (dimension too large)"
    if setup.dimension <= 4096:
        dark = dark_subspace(degeneracy_groups(setup))
        ov = np.abs(dark.overlaps(psi))
        top = np.argsort(-ov, kind="stable")[:DARK_LISTING]
        listing = f"{ov.size} dark states, largest overlaps: " + (", ".join(
            f"{dark.members[k]}:{ov[k]:.3e}" for k in top) or "none")
    raise ValidationError(f"initial state has {reason}; {listing}")


def _trajectory_columns(traj):
    """Columns of the trajectory schema; string cells are blank without a
    spin flip."""
    if traj.string is None:
        return [traj.steps, traj.survival, traj.q, None, None]
    return [traj.steps, traj.survival, traj.q, traj.string.real,
            traj.string.imag]


def string_check_start(traj, tol):
    """First step of the window in which Q_n certifies the string law.

    The string operator is a permutation, so for pure states
    |<X>_psi - <X>_target| <= 2 sqrt(1 - Q_n).  Past the first step
    after which Q_n stays at or above 1 - (tol/2)^2, a deviation from
    the law above tol is a fault of the law, the target's rotation or
    the string operator.  Returns None if the run never settles there.
    """
    below = np.nonzero(traj.q < 1.0 - (0.5 * tol) ** 2)[0]
    first = int(below[-1]) + 1 if below.size else 0
    return first if first < traj.q.size else None


def string_law_deviation(traj, theta0, h_tau, L, n_min):
    """Largest gap between |<prod X>| and |cos(theta0 + 2 n h tau)|, the
    angle read as theta0 + pi (2pn mod 2q)/q, h_tau = (p, q) in lowest terms.

    Also reports the signed-law deviation including the global parity
    sign (-1)^{L(L+1)/2} (-1)^L of the flip on the tower edges.
    """
    if traj.string is None:
        raise ValidationError("trajectory carries no string expectation")
    n = np.arange(max(n_min, 0), traj.string.size)
    if not n.size:
        raise ValidationError(f"no string samples at n >= {n_min}")
    vals = traj.string[n]
    p, q = h_tau
    law = np.cos(theta0 + math.pi * (2 * p * n % (2 * q)) / q)
    signed = string_parity_sign(L) * (-1.0) ** L * law
    dev_abs = float(np.max(np.abs(np.abs(vals) - np.abs(law))))
    dev_signed = float(np.max(np.abs(vals - signed)))
    return dev_abs, dev_signed


def run_target(out_dir, L, target, theta0=None, h_tau=None, engine=None,
               lam=0.0, noise_seed=None, n_steps=RUN_STEPS, eps=EPS,
               name="filter-run", **couplings) -> dict:
    """Preparation run of target: trajectory CSV plus the extracted n_eps.

    The target fixes h_tau, which must be its resonance, and theta0 when
    they are not given (_protocol).  A rotating target also has its
    string-oscillation law checked, from the step on which the run's own
    fidelity certifies it to STRING_LAW_TOL (see string_check_start); a
    run that never gets there records no string_* entries.
    """
    t0 = time.time()
    if target is None:
        raise ValidationError("a preparation run needs a target")
    params, theta0, h_tau, engine = _protocol(
        L, target, theta0, h_tau, engine, lam, noise_seed, **couplings)
    check_eps(eps)
    rule = TARGETS[target]
    p, q = h_tau
    want = rule.resonance(L)
    if _lowest(h_tau) != want:
        raise ValidationError(
            f"{target} requires h*tau = pi*{want[0]}/{want[1]}, "
            f"got pi*{p}/{q}"
        )
    setup, initial = build_setup(params, h_tau, theta0, engine, lam,
                                 noise_seed)
    goal = make_target(setup, params, target, theta0)
    _check_target_reachable(setup, initial, goal)
    traj = run_filtration(setup, initial, n_steps, goal)
    n_eps = filtration_time(traj, eps)
    extra = {
        "target": target,
        "engine": setup.engine,
        "backend": BACKEND,
        "n_eps": n_eps,
        "reached": n_eps is not None,
        "q_final": float(traj.q[-1]),
        "max_q": float(np.max(traj.q)),
        "depleted": traj.depleted,
    }
    string_check_from = (string_check_start(traj, STRING_LAW_TOL)
                         if rule.rotating else None)
    if string_check_from is not None:
        dev_abs, dev_signed = string_law_deviation(
            traj, theta0, setup.h_tau, L, n_min=string_check_from
        )
        extra["string_dev_abs"] = dev_abs
        extra["string_dev_signed"] = dev_signed
        extra["string_check_from"] = string_check_from
    emit_csv(os.path.join(out_dir, "trajectory.csv"), SCHEMAS["trajectory"],
             _trajectory_columns(traj))
    echo = _chain_echo(name, params, lam, noise_seed, theta0=theta0,
                       h_tau=[p, q], n_steps=n_steps, eps=eps, engine=engine,
                       target=target)
    return _finish(out_dir, f"run_{target}", echo, extra, t0)


def _sweep_case(L, variant, theta0, eps):
    """One point of the filtration-time sweep, tower engine."""
    which = variant.split("-")[0]          # a variant names its target first
    params = ChainParams(L=L)
    setup, initial = reduced_setup(params, TARGETS[which].resonance(L), theta0)
    target = make_target(setup, params, which, theta0)
    n_eps = jump_filtration_time(setup, initial, target, eps)
    return n_eps, scaling_predictions(L, theta0, eps, variant)


# scaling-sweep variant -> the theta0 rule it takes by default
VARIANT_RULES = {"tar1-general": "general",
                 "tar1-orthogonal": "orthogonal",
                 "tar2": "tar2-optimal"}


def sweep_n_epsilon(out_dir, L_values, variant, theta0_rule=None,
                    eps=EPS) -> dict:
    """Filtration time vs chain length against the closed-form laws.

    variant selects the prediction family, one of VARIANT_RULES;
    theta0_rule, one of 'orthogonal', 'general', 'parity',
    'tar2-optimal', defaults to the variant's.  Each n_eps comes from
    jump_filtration_time, which finds the crossing without stepping;
    chain lengths above SWEEP_L_MAX, where that search is not certified
    against an extended-precision oracle, are rejected.
    """
    t0 = time.time()
    if not isinstance(variant, str) or variant not in VARIANT_RULES:
        raise ValidationError(f"unknown variant {variant!r}")
    if theta0_rule is None:
        theta0_rule = VARIANT_RULES[variant]
    if theta0_rule not in THETA0_RULES:
        raise ValidationError(
            f"unknown theta0 rule {theta0_rule!r}; "
            f"choose from {sorted(THETA0_RULES)}"
        )
    L_values = [int(L) for L in L_values]
    if not L_values:
        raise ValidationError("empty L range")
    if any(L < 2 for L in L_values):
        raise ValidationError("chain lengths must be >= 2")
    if max(L_values) > SWEEP_L_MAX:
        raise ValidationError(
            f"chain length {max(L_values)} above {SWEEP_L_MAX}, the largest "
            "at which the jump-ahead filtration time is certified"
        )
    rule = THETA0_RULES[theta0_rule]
    rows = []
    results = []
    for L in L_values:
        theta0 = rule(L)
        n_sim, n_pred = _sweep_case(L, variant, theta0, eps)
        rows.append((L, n_sim, n_pred, variant))
        results.append({"L": L, "theta0": theta0,
                        "n_eps_sim": n_sim, "n_eps_theory": n_pred})
    emit_csv(os.path.join(out_dir, "scaling.csv"), SCHEMAS["scaling"],
             list(zip(*rows)))
    extra = {
        "variant": variant,
        "theta0_rule": theta0_rule,
        "eps": eps,
        "points": results,
        "slope_log2": fit_slope_log2(rows),
    }
    echo = {"L_values": L_values, "theta0_rule": theta0_rule,
            "eps": eps, "variant": variant}
    return _finish(out_dir, "sweep_n_epsilon", echo, extra, t0)


def fit_slope_log2(rows):
    """Least-squares slope of log2(n_eps) against L, over n_eps > 0.

    None when fewer than two distinct L are left.
    """
    L = np.array([r[0] for r in rows if r[1] > 0], dtype=float)
    n = np.array([r[1] for r in rows if r[1] > 0], dtype=float)
    if L.size < 2 or L.min() == L.max():
        return None
    return float(np.polyfit(L, np.log2(n), 1)[0])


# the resonance census at L=6 with the dark-state count each angle hosts
TABLE1_L = 6
TABLE1_THETA0 = math.pi / 7
TABLE1_CASES = (
    ((1, 6), 1),
    ((1, 5), 2),
    ((1, 4), 3),
    ((1, 3), 4),
    ((2, 5), 2),
    ((1, 2), 5),
)


def group_label(members, index=None, total=1):
    """Bi-magnon composition label, e.g. (0;3;6) or (0;3;6)_1."""
    body = "(" + ";".join(str(m) for m in members) + ")"
    if total > 1 and index is not None:
        body += f"_{index + 1}"
    return body


def dark_labels(dark):
    """group_label of each dark vector, numbered within shared groups."""
    seen = {}
    labels = []
    for members in dark.members:
        index = seen.get(members, 0)
        labels.append(group_label(members, index, dark.members.count(members)))
        seen[members] = index + 1
    return labels


def dark_states(out_dir, L, target=None, theta0=None, h_tau=None,
                engine=None, lam=0.0, noise_seed=None, name="dark-states",
                **couplings) -> dict:
    """Dark states of every block, reached or not, and their overlaps
    with the initial state; a target only fixes h_tau and theta0 when
    they are not given (_protocol)."""
    t0 = time.time()
    params, theta0, h_tau, engine = _protocol(
        L, target, theta0, h_tau, engine, lam, noise_seed, **couplings)
    setup, initial = build_setup(params, h_tau, theta0, engine, lam,
                                 noise_seed, all_blocks=True)
    dark = dark_subspace(degeneracy_groups(setup))
    emit_csv(os.path.join(out_dir, "spectrum.csv"), SCHEMAS["spectrum"],
             spectrum_columns(dark.phases, ["dark"] * dark.count))
    ov = dark.overlaps(setup.to_eigen(initial))
    echo = _chain_echo(name, params, lam, noise_seed, theta0=theta0,
                       h_tau=list(h_tau), engine=engine, target=target)
    return _finish(out_dir, "dark_states", echo, {
        "count": dark.count,
        "labels": dark_labels(dark) if setup.engine == "tower" else None,
        "initial_overlaps": ov,
        "dark_weight": float(np.sum(np.abs(ov) ** 2)),
    }, t0)


def bright_spectrum(out_dir, L, target=None, h_tau=None, engine=None,
                    name="bright-spectrum", **couplings) -> dict:
    """Dark phases, bright secular roots and charges of F on the tower;
    a target only fixes h_tau when it is not given."""
    t0 = time.time()
    params, theta0, h_tau, engine = _protocol(L, target, h_tau=h_tau,
                                              engine=engine, **couplings)
    if engine != "tower":
        raise ValidationError(
            "bright-spectrum works on the tower engine only"
        )
    setup, _ = build_setup(params, h_tau, theta0)
    dark, groups, roots = mode_spectrum(setup)
    emit_csv(os.path.join(out_dir, "spectrum.csv"), SCHEMAS["spectrum"],
             spectrum_columns(np.concatenate([dark, roots]),
                              ["dark"] * dark.size + ["bright"] * roots.size))
    emit_csv(os.path.join(out_dir, "charges.csv"), SCHEMAS["charges"],
             [groups.charge_angles, groups.charge_weights])
    echo = _chain_echo(name, params, h_tau=list(h_tau), engine=engine,
                       target=target)
    return _finish(out_dir, "bright_spectrum", echo, {
        "w": groups.w,
        "n_dark": dark.size,
        "n_bright_roots": int(roots.size),
        "dominant_modulus":
            float(max(np.abs(roots))) if roots.size else 0.0,
    }, t0)


def table1_scan(out_dir, theta0=TABLE1_THETA0) -> dict:
    """Dark-state census over the resonant angles of the L=6 tower.

    Emits one row per dark vector: the resonance (p, q), the composition
    label, and the long-time coefficient <Phi|psi0> normalized over the
    dark manifold.  A count mismatch is a numerical-invariant failure.
    """
    t0 = time.time()
    L = TABLE1_L
    params = ChainParams(L=L)
    rows = []
    summary = []
    for (p, q), expected in TABLE1_CASES:
        setup, initial = reduced_setup(params, (p, q), theta0)
        dark = dark_subspace(degeneracy_groups(setup))
        if dark.count != expected:
            raise NumericsError(
                f"h*tau = pi*{p}/{q}: found {dark.count} dark states, "
                f"expected {expected}"
            )
        ov = dark.overlaps(setup.to_eigen(initial))
        norm = np.linalg.norm(ov)
        coeffs = ov / norm if norm > 0 else ov
        labels = dark_labels(dark)
        for k in range(dark.count):
            rows.append((p, q, labels[k],
                         float(coeffs[k].real), float(coeffs[k].imag)))
        summary.append({"p": p, "q": q, "count": dark.count,
                        "labels": labels})
    emit_csv(os.path.join(out_dir, "table1.csv"),
             ("p", "q", "label", "coeff_re", "coeff_im"), list(zip(*rows)))
    extra = {"L": L, "theta0": theta0, "cases": summary}
    return _finish(out_dir, "table1_scan", {"theta0": theta0}, extra, t0)


# detect_plateau: largest smoothed |dQ/dn| inside a plateau, and the
# width of the centered moving average that smooths Q
PLATEAU_SLOPE = 1e-5
PLATEAU_SMOOTH = 5


def detect_plateau(q):
    """Longest window where the smoothed |dQ/dn| stays below PLATEAU_SLOPE.

    Q is smoothed with a centered PLATEAU_SMOOTH-point moving average
    before differencing.  Returns (start, end, height) in step units, or
    None when no window exists; end is exclusive and doubles as the exit
    time.
    """
    smooth = PLATEAU_SMOOTH
    q = np.asarray(q, dtype=float)
    if q.size < smooth + 1:
        return None
    kernel = np.ones(smooth) / smooth
    smoothed = np.convolve(q, kernel, mode="valid")
    flat = np.abs(np.diff(smoothed)) < PLATEAU_SLOPE
    # the edges of the flat runs alternate opening and closing ones; the
    # first of the longest runs wins
    edges = np.diff(flat, prepend=False, append=False).nonzero()[0]
    if not edges.size:
        return None
    opens, closes = edges[0::2], edges[1::2]
    best = int(np.argmax(closes - opens))
    # map smoothed-array positions back to the center of the stencil
    start = int(opens[best]) + smooth // 2
    end = int(closes[best]) + smooth // 2
    height = float(np.mean(q[start:end + 1]))
    return start, end, height


def perturbation_study(out_dir, L, lam=0.0, noise_seed=None,
                       n_steps=PERTURB_STEPS, name="perturb",
                       **couplings) -> dict:
    """Metastability under tower-breaking coupling and removal noise.

    Runs every target of TARGETS with the given couplings and noise,
    each at its own resonance and initial-state angle, on one build and
    diagonalization of H by the full engine.  Verifies that the edge
    tower states stay exact eigenstates of the perturbed chain (their
    residuals read in that eigenbasis), that the static GHZ target stays
    inside the dark manifold, and records the plateau of the unstable
    rotating target.
    """
    t0 = time.time()
    params, theta0, h_tau, _ = _protocol(
        L, h_tau=tar1_resonance(L), engine="full", lam=lam,
        noise_seed=noise_seed, **couplings)
    if L > FULL_SPACE_CAP:
        raise ValidationError(f"full engine capped at L = {FULL_SPACE_CAP}")
    # H and the removal state depend on neither tau nor theta0: one
    # eigenbasis serves every leg, retuned to its own phases
    engine, _ = build_setup(params, h_tau, theta0, "full", lam, noise_seed)
    tower = build_tower(ChainParams(L=L))
    # |(H - E_n) B_n| in the eigenbasis of H, where H is diagonal
    edge_residuals = {
        f"B{n}": float(np.linalg.norm(
            (engine.energies - params.tower_energy(n))
            * engine.to_eigen(tower[n])))
        for n in (0, L)
    }
    extra = {"edge_residuals": edge_residuals, "engine": "full",
             "lam": lam, "noise_seed": noise_seed}
    for which, rule in TARGETS.items():
        (p, q), theta0 = rule.resonance(L), rule.angle(L)
        setup = engine.retuned((p, q))
        initial = protocol_states(params, theta0)[1]
        target = make_target(setup, params, which, theta0)
        traj = run_filtration(setup, initial, n_steps, target)
        emit_csv(os.path.join(out_dir, f"trajectory_{which}.csv"),
                 SCHEMAS["trajectory"], _trajectory_columns(traj))
        info = {"q_final": float(traj.q[-1]),
                "max_q": float(np.max(traj.q)),
                "theta0": theta0, "h_tau": [p, q],
                "depleted": traj.depleted}
        if rule.rotating:
            found = detect_plateau(traj.q)
            info["plateau"] = None if found is None \
                else dict(zip(("start", "exit", "height"), found))
        else:
            # the GHZ target must sit inside the perturbed dark manifold
            groups = degeneracy_groups(setup)
            tvec = setup.to_eigen(target.at(0))
            info["dark_residual"] = float(
                np.linalg.norm(tvec - dark_projection(groups, tvec)))
            dark = dark_projection(groups, setup.to_eigen(initial))
            info["dark_weight"] = float(np.linalg.norm(dark) ** 2)
        extra[which] = info
    return _finish(out_dir, "perturbation_study",
                   _chain_echo(name, params, lam, noise_seed,
                               n_steps=n_steps), extra, t0)


def sample_goe(d_goe, seed):
    """Real symmetric matrix, diagonal variance 2/D, off-diagonal 1/D."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.standard_normal((d_goe, d_goe))
    return (a + a.T) / math.sqrt(2.0 * d_goe)


# goe_demo: the run covers the step where the slowest bright mode has
# decayed below GOE_BRIGHT_BOUND; from there the survival must match the
# dark weight to GOE_CONV_TOL
GOE_BRIGHT_BOUND = 1e-8
GOE_CONV_TOL = 1e-6
GOE_DIM, GOE_SEED = 64, 23      # goe_demo's default dimension and seed
# goe_demo labels its spectrum by modulus: above 1 - GOE_DARK_TOL dark,
# below GOE_ZERO_TOL trivial-zero, bright in between.  n_bound covers
# the bright label only, so a root that needs ~1e8 steps to decay does
# not set the run length.
GOE_DARK_TOL = 1e-8
GOE_ZERO_TOL = 1e-12


def goe_demo(out_dir, d_goe=GOE_DIM, seed=GOE_SEED, n_steps=None) -> dict:
    """Dark-state persistence for a generic dense spectrum.

    Draws one GOE matrix, filters |1> with removal |2>, and checks that
    the survival weight converges to the initial weight on the single
    dark state formed by the two edge eigenlevels (tau glues their
    phases).  The run covers the bound n where the slowest bright mode
    has decayed below GOE_BRIGHT_BOUND.  The matrix's 8 d_goe^2 bytes
    must fit TRAJECTORY_BUDGET.  Every check precedes the first write,
    which makes out_dir.
    """
    t0 = time.time()
    if d_goe < 4:
        raise ValidationError("GOE dimension must be at least 4")
    if 8 * d_goe**2 > TRAJECTORY_BUDGET:
        raise ValidationError(
            f"GOE dimension {d_goe} needs {8 * d_goe**2} bytes for its "
            f"matrix, above the budget of {TRAJECTORY_BUDGET} bytes")
    _check_seed(seed)
    mat = sample_goe(d_goe, seed)
    dim = d_goe
    removal, initial = np.eye(dim, dtype=complex)[[1, 0]]
    setup = generic_setup(mat, removal)          # tau = 2 pi / spectral span
    # dark vector spanned by the two glued edge levels, orthogonal to removal
    r = setup.removal_eig
    phi = np.zeros(dim, dtype=complex)
    phi[-1] = r[0].conj()
    phi[0] = -r[-1].conj()
    phi /= np.linalg.norm(phi)
    psi0 = setup.to_eigen(initial)
    expect = float(np.abs(np.vdot(phi, psi0)) ** 2)
    # the spectrum of F: the dark phases, the w - 1 secular roots and the
    # one zero of the rank-one removal
    dark, groups, roots = mode_spectrum(setup)
    values = np.concatenate([dark, roots, [0.0]])
    moduli = np.abs(values)
    kinds = np.where(moduli > 1.0 - GOE_DARK_TOL, "dark",
                     np.where(moduli < GOE_ZERO_TOL, "trivial-zero",
                              "bright"))
    zeta_d = float(np.max(moduli[kinds == "bright"]))
    n_bound = int(math.ceil(math.log(GOE_BRIGHT_BOUND)
                            / (2.0 * math.log(zeta_d))))
    if n_steps is None:
        n_steps = n_bound + 1000
    if n_steps <= n_bound:
        raise ValidationError(
            f"n_steps {n_steps} does not cover the bright-decay bound "
            f"{n_bound}"
        )
    target = RotatingTarget.static(setup.from_eigen(phi))
    traj = run_filtration(setup, initial, n_steps, target)
    tail = traj.survival[n_bound:]
    worst = float(np.max(np.abs(tail - expect)))
    if worst >= GOE_CONV_TOL:
        raise NumericsError(
            f"survival misses the dark weight by {worst:.3e} past the "
            f"bright-decay bound {n_bound}"
        )
    emit_csv(os.path.join(out_dir, "trajectory.csv"), SCHEMAS["trajectory"],
             _trajectory_columns(traj))
    order = np.lexsort((np.angle(values).round(12), -moduli))
    emit_csv(os.path.join(out_dir, "spectrum.csv"), SCHEMAS["spectrum"],
             spectrum_columns(values[order], kinds[order].tolist()))
    emit_csv(os.path.join(out_dir, "charges.csv"), SCHEMAS["charges"],
             [groups.charge_angles, groups.charge_weights])
    off = mat[~np.eye(dim, dtype=bool)]
    extra = {
        "d_goe": d_goe,
        "seed": seed,
        "tau": setup.tau,
        "expected_survival": expect,
        "zeta_dominant": zeta_d,
        "n_bound": n_bound,
        "worst_tail_error": worst,
        "offdiag_sq_mean": float(np.mean(off ** 2)),
        "offdiag_sq_expected": 1.0 / dim,
    }
    echo = {"goe": {"D_goe": d_goe, "seed": seed},
            "n_steps": int(n_steps)}
    return _finish(out_dir, "goe_demo", echo, extra, t0)


# h*tau = pi/4 of the zeta scan: the tower phases fall into the four
# classes n mod 4 at every length; and its default chain lengths
ZETA_H_TAU = (1, 4)
ZETA_L_VALUES = tuple(range(4, 17))


def zeta_vs_L_scan(out_dir, L_values=ZETA_L_VALUES) -> dict:
    """Dominant bright eigenvalue versus chain length at h*tau = pi/4.

    The four tower phase classes n mod 4 persist at every length; the
    scan asserts that the dominant modulus strictly decreases with L and
    that each length yields w = 4 charges (mode_spectrum).  Every length
    is checked before the first write, which makes out_dir.
    """
    t0 = time.time()
    L_values = [int(L) for L in L_values]
    if any(L < 4 for L in L_values):
        raise ValidationError("scan needs L >= 4 to populate all 4 classes")
    if any(a >= b for a, b in zip(L_values, L_values[1:])):
        raise ValidationError(
            f"L_values must be strictly increasing, got {L_values}"
        )
    p, q = ZETA_H_TAU
    spectra = []
    for L in L_values:
        setup, _ = reduced_setup(ChainParams(L=L), ZETA_H_TAU, 0.0)
        _, groups, roots = mode_spectrum(setup)
        if groups.w != 4:
            raise NumericsError(
                f"L={L}: expected 4 charged phase classes, found {groups.w}"
            )
        spectra.append(roots)
    moduli = [abs(complex(roots[0])) for roots in spectra]
    drops = np.diff(moduli)
    if np.any(drops >= 0.0):
        bad = int(np.argmax(drops >= 0.0))
        raise NumericsError(
            f"dominant modulus fails to decrease between L={L_values[bad]} "
            f"and L={L_values[bad + 1]}"
        )
    for L, roots in zip(L_values, spectra):
        emit_csv(os.path.join(out_dir, f"spectrum_L{L:02d}.csv"),
                 SCHEMAS["spectrum"],
                 spectrum_columns(roots, ["bright"] * roots.size))
    emit_csv(os.path.join(out_dir, "zeta_scan.csv"), ("L", "zeta_modulus"),
             [L_values, moduli])
    extra = {"h_tau": [p, q], "moduli": dict(zip(map(str, L_values), moduli))}
    return _finish(out_dir, "zeta_vs_L_scan", {"L_values": L_values},
                   extra, t0)
