"""Command-line entry point.

Usage: darkfilter <subcommand> --config <file> --out <dir> [--quiet]

Every subcommand runs the same way.  The config module checks the
document, a run's one input: the engine and the seeds are its keys, and
no flag overrides them.  One driver of the experiments module writes
every artifact, the metadata.json sidecar included.  This module prints
the summary line, read from the dict the driver returns.  config.KEYS
lists the subcommands, and _cmd_<name> runs the subcommand <name>.

Exit status: 0 on success, 1 on validation failure (bad arguments,
malformed config, precondition violations), 2 on numerical-invariant
failure (residuals, count mismatches, convergence misses).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .config import (KEYS, goe_options, parse_config, scan_options,
                     sweep_options, table1_options)
from .errors import NumericsError, ValidationError
from .experiments import (bright_spectrum, dark_states, goe_demo,
                          perturbation_study, run_target, sweep_n_epsilon,
                          table1_scan, tower_check, zeta_vs_L_scan)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that slot is reserved
    # for numerical failures, so route usage errors through validation
    def error(self, message):
        raise ValidationError(message)


def build_parser():
    parser = _Parser(prog="darkfilter",
                     description="measurement-induced state filtration")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=tuple(KEYS))
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


# each handler runs its driver on a document and an output directory, and
# returns the summary line

def _cmd_tower_check(doc, out):
    meta = tower_check(parse_config(doc, "tower-check"), out)
    return ("max residual "
            f"{max(meta['eigen_residual'], meta['algebra_residual']):.3e}")


def _cmd_filter_run(doc, out):
    meta = run_target(parse_config(doc, "filter-run"), out)
    return (f"{meta['target']}: n_eps={meta['n_eps']} "
            f"q_final={meta['q_final']:.6f}")


def _cmd_dark_states(doc, out):
    meta = dark_states(parse_config(doc, "dark-states"), out)
    return f"{meta['count']} dark states"


def _cmd_bright_spectrum(doc, out):
    meta = bright_spectrum(parse_config(doc, "bright-spectrum"), out)
    return (f"w={meta['w']} charges, {meta['n_bright_roots']} bright roots, "
            f"dominant modulus {meta['dominant_modulus']:.6f}")


def _cmd_scaling_sweep(doc, out):
    meta = sweep_n_epsilon(out, **sweep_options(doc))
    slope = meta["slope_log2"]
    # no slope without two points of n_eps > 0
    return (f"{meta['variant']} ({meta['theta0_rule']}): slope "
            + ("none" if slope is None else f"{slope:.4f}"))


def _cmd_table1(doc, out):
    meta = table1_scan(out, **table1_options(doc))
    counts = {f"{c['p']}/{c['q']}": c["count"] for c in meta["cases"]}
    return f"dark counts {counts}"


def _cmd_perturb(doc, out):
    meta = perturbation_study(parse_config(doc, "perturb"), out)
    info1, info2 = meta["tar1"], meta["tar2"]
    plateau = info2.get("plateau")
    height = plateau["height"] if plateau else math.nan
    return (f"tar1 q_final={info1['q_final']:.4f} "
            f"dark_residual={info1['dark_residual']:.3e}; "
            f"tar2 plateau height={height:.4f}")


def _cmd_goe_demo(doc, out):
    meta = goe_demo(out, **goe_options(doc))
    return (f"survival -> {meta['expected_survival']:.8f} "
            f"(worst tail error {meta['worst_tail_error']:.3e})")


def _cmd_zeta_scan(doc, out):
    meta = zeta_vs_L_scan(out, **scan_options(doc))
    L_values, mods = meta["spec"]["L_values"], meta["moduli"]
    first, last = L_values[0], L_values[-1]
    return (f"|zeta_d|: L={first} -> {mods[str(first)]:.6f}, "
            f"L={last} -> {mods[str(last)]:.6f}")


DISPATCH = {sub: globals()["_cmd_" + sub.replace("-", "_")] for sub in KEYS}


def run_command(cli) -> int:
    """Dispatch a parsed command line; returns the process exit status.

    cli is the namespace of build_parser: subcommand, config, out and
    quiet.
    """
    try:
        summary = DISPATCH[cli.subcommand](_read_document(cli.config),
                                           cli.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerics: {exc}", file=sys.stderr)
        return 2
    if not cli.quiet:
        print(summary)
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
