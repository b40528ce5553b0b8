"""Command-line entry point.

Usage: darkfilter <subcommand> --config <file> --out <dir>
                  [--seed <u64>] [--engine full|tower] [--quiet]

--seed and --engine are accepted only by a subcommand that reads the
config keys they override (FLAG_KEYS).

Exit status: 0 on success, 1 on validation failure (bad arguments,
malformed config, precondition violations), 2 on numerical-invariant
failure (residuals, count mismatches, convergence misses).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (KEYS, parse_config, scan_options, sweep_options,
                     table1_options)
from .errors import NumericsError, ValidationError
from .experiments import (ExperimentSpec, GoeBlock, Perturbations,
                          build_setup, dark_labels, document_of, goe_demo,
                          perturbation_study, run_target, sweep_n_epsilon,
                          table1_scan, zeta_vs_L_scan)
from .filtration import dark_subspace
from .output import (SCHEMAS, emit_csv, ensure_dir, spectrum_columns,
                     write_metadata)
from .spectral import bright_secular_roots, charge_picture
from .spin_model import sga_residual

SUBCOMMANDS = (
    "tower-check", "filter-run", "dark-states", "bright-spectrum",
    "scaling-sweep", "table1", "perturb", "goe-demo", "zeta-scan",
)

SGA_TOL = 1e-10

# CLI flag -> the config keys it overrides; a subcommand that reads none
# of them refuses the flag
FLAG_KEYS = {"engine": ("engine",), "seed": ("perturbations", "goe")}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that slot is reserved
    # for numerical failures, so route usage errors through validation
    def error(self, message):
        raise ValidationError(message)


def build_parser():
    parser = _Parser(prog="darkfilter",
                     description="measurement-induced state filtration")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON experiment document")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the recorded RNG seed")
    parser.add_argument("--engine", choices=("full", "tower"), default=None,
                        help="override the engine choice")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the result summary")
    return parser


def _read_document(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def _check_flags(cli):
    reads = KEYS[cli.subcommand][0]
    for flag, keys in FLAG_KEYS.items():
        if getattr(cli, flag) is not None and not set(keys) & set(reads):
            raise ValidationError(
                f"--{flag} is not read by {cli.subcommand}"
            )


def _apply_overrides(spec: ExperimentSpec, cli) -> ExperimentSpec:
    if cli.seed is None and cli.engine is None:
        return spec
    pert, goe = spec.perturbations, spec.goe
    if cli.seed is not None:
        pert = Perturbations(lam=pert.lam, seed=cli.seed)
        if goe is not None:
            goe = GoeBlock(d_goe=goe.d_goe, seed=cli.seed)
    return ExperimentSpec(spec.name, spec.params, spec.theta0, spec.h_tau,
                          spec.n_steps, spec.eps, cli.engine or spec.engine,
                          spec.target, pert, goe)


def _say(cli, text):
    if not cli.quiet:
        print(text)


def _cmd_tower_check(cli, doc):
    spec = _apply_overrides(parse_config(doc, cli.subcommand), cli)
    report = sga_residual(spec.params)
    ensure_dir(cli.out)
    write_metadata(os.path.join(cli.out, "metadata.json"), {
        "experiment": "tower_check",
        "spec": document_of(spec),
        "eigen_residual": report.eigen_residual,
        "algebra_residual": report.algebra_residual,
    })
    _say(cli, f"max residual {report.max:.3e}")
    if report.max >= SGA_TOL:
        raise NumericsError(
            f"tower residual {report.max:.3e} exceeds {SGA_TOL:.0e}"
        )


def _cmd_filter_run(cli, doc):
    spec = _apply_overrides(parse_config(doc, cli.subcommand), cli)
    art = run_target(spec, cli.out)
    meta = art.metadata
    _say(cli, f"{spec.target}: n_eps={meta['n_eps']} "
              f"q_final={meta['q_final']:.6f}")
    return art


def _cmd_dark_states(cli, doc):
    spec = _apply_overrides(parse_config(doc, cli.subcommand), cli)
    # the census lists the dark states of every block, reached or not
    setup, initial = build_setup(spec, all_blocks=True)
    dark = dark_subspace(setup)
    ensure_dir(cli.out)
    path = emit_csv(os.path.join(cli.out, "spectrum.csv"),
                    SCHEMAS["spectrum"],
                    spectrum_columns(dark.phases, ["dark"] * dark.count))
    ov = dark.overlaps(setup.to_eigen(initial))
    write_metadata(os.path.join(cli.out, "metadata.json"), {
        "experiment": "dark_states",
        "spec": document_of(spec),
        "count": dark.count,
        "labels": dark_labels(dark) if setup.engine == "tower" else None,
        "initial_overlaps": ov,
        "dark_weight": float(np.sum(np.abs(ov) ** 2)),
    })
    _say(cli, f"{dark.count} dark states")
    return path


def _cmd_bright_spectrum(cli, doc):
    spec = _apply_overrides(parse_config(doc, cli.subcommand), cli)
    if spec.engine != "tower":
        raise ValidationError(
            "bright-spectrum works on the tower engine only"
        )
    setup, _ = build_setup(spec)
    cp = charge_picture(setup)
    bs = bright_secular_roots(cp)
    dark = dark_subspace(setup)
    ensure_dir(cli.out)
    spath = emit_csv(os.path.join(cli.out, "spectrum.csv"),
                     SCHEMAS["spectrum"],
                     spectrum_columns(np.concatenate([dark.phases, bs.roots]),
                                      ["dark"] * dark.count
                                      + ["bright"] * bs.roots.size))
    cpath = emit_csv(os.path.join(cli.out, "charges.csv"),
                     SCHEMAS["charges"], [cp.angles, cp.weights])
    dom = max(np.abs(bs.roots)) if bs.roots.size else 0.0
    write_metadata(os.path.join(cli.out, "metadata.json"), {
        "experiment": "bright_spectrum",
        "spec": document_of(spec),
        "w": cp.w,
        "n_dark": dark.count,
        "n_bright_roots": int(bs.roots.size),
        "dominant_modulus": float(dom),
    })
    _say(cli, f"w={cp.w} charges, {bs.roots.size} bright roots, "
              f"dominant modulus {dom:.6f}")
    return spath, cpath


def _cmd_scaling_sweep(cli, doc):
    L_values, rule, eps, variant = sweep_options(doc)
    art = sweep_n_epsilon(L_values, rule, eps, variant, cli.out)
    slope = art.metadata["slope_log2"]
    # no slope without two points of n_eps > 0
    _say(cli, f"{variant} ({rule}): slope "
              + ("none" if slope is None else f"{slope:.4f}"))
    return art


def _cmd_table1(cli, doc):
    art = table1_scan(cli.out, theta0=table1_options(doc))
    counts = {f"{c['p']}/{c['q']}": c["count"]
              for c in art.metadata["cases"]}
    _say(cli, f"dark counts {counts}")
    return art


def _cmd_perturb(cli, doc):
    if isinstance(doc, dict) and "n_steps" not in doc:
        doc = dict(doc, n_steps=20000)
    spec = _apply_overrides(parse_config(doc, cli.subcommand), cli)
    art = perturbation_study(spec, cli.out)
    info1, info2 = art.metadata["tar1"], art.metadata["tar2"]
    plateau = info2.get("plateau")
    height = plateau["height"] if plateau else math.nan
    _say(cli, f"tar1 q_final={info1['q_final']:.4f} "
              f"dark_residual={info1['dark_residual']:.3e}; "
              f"tar2 plateau height={height:.4f}")
    return art


def _cmd_goe_demo(cli, doc):
    spec = _apply_overrides(parse_config(doc, cli.subcommand), cli)
    n_steps = spec.n_steps if isinstance(doc, dict) and "n_steps" in doc \
        else None
    art = goe_demo(cli.out, d_goe=spec.goe.d_goe, seed=spec.goe.seed,
                   n_steps=n_steps)
    meta = art.metadata
    _say(cli, f"survival -> {meta['expected_survival']:.8f} "
              f"(worst tail error {meta['worst_tail_error']:.3e})")
    return art


def _cmd_zeta_scan(cli, doc):
    L_values = scan_options(doc)
    art = zeta_vs_L_scan(cli.out, L_values=L_values)
    mods = art.metadata["moduli"]
    first, last = L_values[0], L_values[-1]
    _say(cli, f"|zeta_d|: L={first} -> {mods[str(first)]:.6f}, "
              f"L={last} -> {mods[str(last)]:.6f}")
    return art


DISPATCH = {
    "tower-check": _cmd_tower_check,
    "filter-run": _cmd_filter_run,
    "dark-states": _cmd_dark_states,
    "bright-spectrum": _cmd_bright_spectrum,
    "scaling-sweep": _cmd_scaling_sweep,
    "table1": _cmd_table1,
    "perturb": _cmd_perturb,
    "goe-demo": _cmd_goe_demo,
    "zeta-scan": _cmd_zeta_scan,
}


def run_command(cli) -> int:
    """Dispatch a parsed command line; returns the process exit status.

    cli is the namespace of build_parser: subcommand, config, out, seed,
    engine and quiet.
    """
    try:
        _check_flags(cli)
        doc = _read_document(cli.config)
        DISPATCH[cli.subcommand](cli, doc)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerics: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cli = parser.parse_args(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run_command(cli)


if __name__ == "__main__":
    sys.exit(main())
