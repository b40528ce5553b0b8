"""JSON experiment-document parsing with strict key validation.

A document is a flat JSON object; unknown keys are rejected by name so
typos never silently fall back to defaults.  h*tau is written as the
integer pair [p, q] meaning pi*p/q, which keeps resonances exact: the
document_of echo of a spec parses back to the same spec.
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError
from .experiments import (TABLE1_THETA0, ExperimentSpec, GoeBlock,
                          Perturbations, orthogonality_angle, tar1_resonance,
                          tar2_resonance, tar2_optimal_angle)
from .spin_model import ChainParams

# protocol defaults: J = 1 sets the unit of energy, D = 0.1 the
# anisotropy, eps = 0.01 the fidelity threshold
DEFAULTS = {"J": 1.0, "h": 1.0, "D": 0.1, "J2": 0.0, "J3": 0.0,
            "eps": 0.01, "n_steps": 5000}

TOP_KEYS = {
    "name", "target", "L", "J", "h", "D", "J2", "J3", "theta0", "h_tau",
    "n_steps", "eps", "engine", "perturbations", "goe", "L_values",
    "theta0_rule", "variant",
}
PERT_KEYS = {"lambda", "seed"}
GOE_KEYS = {"D_goe", "seed"}

# the table1 census reads only its initial-state angle
TABLE1_KEYS = {"theta0"}


def _reject_unknown(doc, allowed, where):
    extra = sorted(set(doc) - allowed)
    if extra:
        raise ValidationError(
            f"unknown key{'s' if len(extra) > 1 else ''} in {where}: "
            + ", ".join(repr(k) for k in extra)
        )


def _number(doc, key, default=None, integer=False):
    if key not in doc:
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"key {key!r} must be a number")
    if integer:
        if isinstance(val, float) and not val.is_integer():
            raise ValidationError(f"key {key!r} must be an integer")
        return int(val)
    return float(val)


def _finite(doc, key, default):
    val = _number(doc, key, default)
    if not math.isfinite(val):
        raise ValidationError(f"{key} must be finite")
    return val


def _load(document):
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON document: {exc}") from None
    if not isinstance(document, dict):
        raise ValidationError("document must be a JSON object")
    return dict(document)


def _L_values(doc):
    values = doc["L_values"]
    if (not isinstance(values, list) or not values
            or any(isinstance(x, bool) or not isinstance(x, int)
                   for x in values)):
        raise ValidationError("L_values must be a non-empty integer list")
    return list(values)


def _resolve_htau(doc, target, L, required=True):
    if "h_tau" in doc:
        pair = doc["h_tau"]
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or any(isinstance(x, bool) or not isinstance(x, int)
                       for x in pair)):
            raise ValidationError(
                "h_tau must be an integer pair [p, q] meaning pi*p/q"
            )
        p, q = int(pair[0]), int(pair[1])
        if p <= 0 or q <= 0:
            raise ValidationError("h_tau integers must be positive")
        return p, q
    if target == "tar1":
        return tar1_resonance(L)
    if target == "tar2":
        return tar2_resonance(L)
    if not required:
        # study drivers pick their own per-target resonances
        return tar1_resonance(L)
    raise ValidationError(
        "h_tau is required when no target fixes the resonance"
    )


def _resolve_theta0(doc, target, L):
    if "theta0" in doc:
        return _finite(doc, "theta0", None)
    if target == "tar1":
        return orthogonality_angle(L)
    if target == "tar2":
        return tar2_optimal_angle(L)
    return 0.0


def parse_config(document, subcommand="filter-run") -> ExperimentSpec:
    """Validate a JSON document into a fully pinned ExperimentSpec.

    Defaults fill in the fixed physical choices; the target, when given,
    derives the resonance h*tau and the initial-state angle theta0.
    """
    doc = _load(document)
    _reject_unknown(doc, TOP_KEYS, "document")
    needs_chain = subcommand not in ("goe-demo",)
    required = []
    if needs_chain and "L" not in doc:
        required.append("L")
    if subcommand == "filter-run" and "target" not in doc:
        required.append("target")
    if subcommand == "scaling-sweep":
        for key in ("L_values", "variant"):
            if key not in doc:
                required.append(key)
    if required:
        raise ValidationError("missing required keys: " + ", ".join(required))

    target = doc.get("target")
    if target is not None and target not in ("tar1", "tar2"):
        raise ValidationError(f"unknown target {target!r}")

    L = _number(doc, "L", default=4, integer=True)
    params = ChainParams(
        L=L,
        J=_number(doc, "J", DEFAULTS["J"]),
        h=_number(doc, "h", DEFAULTS["h"]),
        D=_number(doc, "D", DEFAULTS["D"]),
        J2=_number(doc, "J2", DEFAULTS["J2"]),
        J3=_number(doc, "J3", DEFAULTS["J3"]),
    )

    pert = Perturbations()
    if "perturbations" in doc:
        sub = doc["perturbations"]
        if not isinstance(sub, dict):
            raise ValidationError("perturbations must be an object")
        _reject_unknown(sub, PERT_KEYS, "perturbations")
        pert = Perturbations(
            lam=_number(sub, "lambda", 0.0),
            seed=_number(sub, "seed", None, integer=True),
        )

    goe = None
    if "goe" in doc or subcommand == "goe-demo":
        sub = doc.get("goe", {})
        if not isinstance(sub, dict):
            raise ValidationError("goe must be an object")
        _reject_unknown(sub, GOE_KEYS, "goe")
        goe = GoeBlock(
            d_goe=_number(sub, "D_goe", 64, integer=True),
            seed=_number(sub, "seed", 23, integer=True),
        )

    engine = doc.get("engine")
    if engine is None:
        engine = "full" if (params.J2 != 0.0 or pert.lam != 0.0) else "tower"
    if engine not in ("tower", "full"):
        raise ValidationError(f"unknown engine {engine!r}")

    needs_htau = subcommand in ("filter-run", "dark-states",
                                "bright-spectrum")
    h_tau = _resolve_htau(doc, target, L, required=needs_htau)
    theta0 = _resolve_theta0(doc, target, L)
    name = doc.get("name", subcommand)
    if not isinstance(name, str) or not name:
        raise ValidationError("name must be a non-empty string")

    return ExperimentSpec(
        name=name,
        params=params,
        theta0=theta0,
        h_tau=h_tau,
        n_steps=_number(doc, "n_steps", DEFAULTS["n_steps"], integer=True),
        eps=_number(doc, "eps", DEFAULTS["eps"]),
        engine=engine,
        target=target,
        perturbations=pert,
        goe=goe,
    )


def sweep_options(document):
    """List-style options for the scaling sweep subcommand."""
    doc = _load(document)
    _reject_unknown(doc, TOP_KEYS, "document")
    if "L_values" not in doc or "variant" not in doc:
        raise ValidationError("missing required keys: L_values, variant")
    values = _L_values(doc)
    variant = doc["variant"]
    if variant not in ("tar1-general", "tar1-orthogonal", "tar2"):
        raise ValidationError(f"unknown variant {variant!r}")
    default_rule = {"tar1-general": "general",
                    "tar1-orthogonal": "orthogonal",
                    "tar2": "tar2-optimal"}[variant]
    rule = doc.get("theta0_rule", default_rule)
    eps = _number(doc, "eps", DEFAULTS["eps"])
    return values, rule, eps, variant


def scan_options(document):
    """Optional L_values override for the dominant-eigenvalue scan."""
    doc = _load(document)
    _reject_unknown(doc, TOP_KEYS, "document")
    if "L_values" in doc:
        return _L_values(doc)
    return list(range(4, 17))


def table1_options(document):
    """Initial-state angle theta0 of the table1 census."""
    doc = _load(document)
    _reject_unknown(doc, TABLE1_KEYS, "table1 document")
    return _finite(doc, "theta0", TABLE1_THETA0)
