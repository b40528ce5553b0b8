"""Command-line entry point.

Usage: darkfilter <subcommand> --config <file> --out <dir> [--quiet]

The config document is a run's one input: the engine and the seeds are
its keys, and no flag overrides them.  A handler reads its document
only through the config module, which checks it and fills in every
default.

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
from .config import (goe_options, parse_config, scan_options, sweep_options,
                     table1_options)
from .errors import NumericsError, ValidationError
from .experiments import (build_setup, dark_labels, document_of, goe_demo,
                          perturbation_study, run_target, sweep_n_epsilon,
                          table1_scan, zeta_vs_L_scan)
from .output import SCHEMAS, emit_csv, spectrum_columns, write_metadata
from .spectral import dark_subspace, degeneracy_groups, mode_spectrum
from .spin_model import sga_residual

SUBCOMMANDS = (
    "tower-check", "filter-run", "dark-states", "bright-spectrum",
    "scaling-sweep", "table1", "perturb", "goe-demo", "zeta-scan",
)

SGA_TOL = 1e-10


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
    except ValueError as exc:       # JSONDecodeError, or an integer
        # longer than Python's int string limit
        raise ValidationError(f"malformed JSON in {path}: {exc}") from None


def _say(cli, text):
    if not cli.quiet:
        print(text)


def _cmd_tower_check(cli, doc):
    spec = parse_config(doc, cli.subcommand)
    report = sga_residual(spec.params)
    write_metadata(os.path.join(cli.out, "metadata.json"), {
        "experiment": "tower_check",
        "spec": document_of(spec),
        "eigen_residual": report.eigen_residual,
        "algebra_residual": report.algebra_residual,
    })
    _say(cli, f"max residual {report.max:.3e}")
    # written so that a NaN residual fails
    if not report.max < SGA_TOL:
        raise NumericsError(
            f"tower residual {report.max:.3e} exceeds {SGA_TOL:.0e}"
        )


def _cmd_filter_run(cli, doc):
    spec = parse_config(doc, cli.subcommand)
    meta = run_target(spec, cli.out)
    _say(cli, f"{spec.target}: n_eps={meta['n_eps']} "
              f"q_final={meta['q_final']:.6f}")


def _cmd_dark_states(cli, doc):
    spec = parse_config(doc, cli.subcommand)
    # the census lists the dark states of every block, reached or not
    setup, initial = build_setup(spec, all_blocks=True)
    dark = dark_subspace(degeneracy_groups(setup))
    emit_csv(os.path.join(cli.out, "spectrum.csv"), SCHEMAS["spectrum"],
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


def _cmd_bright_spectrum(cli, doc):
    spec = parse_config(doc, cli.subcommand)
    if spec.engine != "tower":
        raise ValidationError(
            "bright-spectrum works on the tower engine only"
        )
    setup, _ = build_setup(spec)
    dark, groups, roots = mode_spectrum(setup)
    emit_csv(os.path.join(cli.out, "spectrum.csv"), SCHEMAS["spectrum"],
             spectrum_columns(np.concatenate([dark, roots]),
                              ["dark"] * dark.size + ["bright"] * roots.size))
    emit_csv(os.path.join(cli.out, "charges.csv"), SCHEMAS["charges"],
             [groups.charge_angles, groups.charge_weights])
    dom = max(np.abs(roots)) if roots.size else 0.0
    write_metadata(os.path.join(cli.out, "metadata.json"), {
        "experiment": "bright_spectrum",
        "spec": document_of(spec),
        "w": groups.w,
        "n_dark": dark.size,
        "n_bright_roots": int(roots.size),
        "dominant_modulus": float(dom),
    })
    _say(cli, f"w={groups.w} charges, {roots.size} bright roots, "
              f"dominant modulus {dom:.6f}")


def _cmd_scaling_sweep(cli, doc):
    L_values, rule, eps, variant = sweep_options(doc)
    slope = sweep_n_epsilon(L_values, rule, eps, variant,
                            cli.out)["slope_log2"]
    # no slope without two points of n_eps > 0
    _say(cli, f"{variant} ({rule}): slope "
              + ("none" if slope is None else f"{slope:.4f}"))


def _cmd_table1(cli, doc):
    meta = table1_scan(cli.out, theta0=table1_options(doc))
    counts = {f"{c['p']}/{c['q']}": c["count"] for c in meta["cases"]}
    _say(cli, f"dark counts {counts}")


def _cmd_perturb(cli, doc):
    spec = parse_config(doc, cli.subcommand)
    meta = perturbation_study(spec, cli.out)
    info1, info2 = meta["tar1"], meta["tar2"]
    plateau = info2.get("plateau")
    height = plateau["height"] if plateau else math.nan
    _say(cli, f"tar1 q_final={info1['q_final']:.4f} "
              f"dark_residual={info1['dark_residual']:.3e}; "
              f"tar2 plateau height={height:.4f}")


def _cmd_goe_demo(cli, doc):
    meta = goe_demo(cli.out, *goe_options(doc))
    _say(cli, f"survival -> {meta['expected_survival']:.8f} "
              f"(worst tail error {meta['worst_tail_error']:.3e})")


def _cmd_zeta_scan(cli, doc):
    L_values = scan_options(doc)
    mods = zeta_vs_L_scan(cli.out, L_values=L_values)["moduli"]
    first, last = L_values[0], L_values[-1]
    _say(cli, f"|zeta_d|: L={first} -> {mods[str(first)]:.6f}, "
              f"L={last} -> {mods[str(last)]:.6f}")


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

    cli is the namespace of build_parser: subcommand, config, out and
    quiet.
    """
    try:
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
