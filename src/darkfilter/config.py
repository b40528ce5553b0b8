"""JSON experiment-document parsing with strict key validation.

A document is a flat JSON object.  Each subcommand reads the keys KEYS
lists for it, and any other key is rejected by name, so neither a typo
nor a key the subcommand would ignore passes silently.  h*tau is written
as the integer pair [p, q] meaning pi*p/q, which keeps resonances exact:
the document_of echo of a spec parses back to the same spec.  Every
default is filled in here, so the CLI never reads a document itself.
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError
from .experiments import (GOE_DIM, GOE_SEED, TABLE1_THETA0, TARGETS,
                          ExperimentSpec, Perturbations, _check_goe,
                          tar1_resonance)
from .spin_model import ChainParams

# protocol defaults: J = 1 sets the unit of energy, D = 0.1 the
# anisotropy, eps = 0.01 the fidelity threshold
DEFAULTS = {"J": 1.0, "h": 1.0, "D": 0.1, "J2": 0.0, "J3": 0.0,
            "eps": 0.01, "n_steps": 5000}
# perturb runs each leg longer, into the metastable regime
PERTURB_STEPS = 20000

CHAIN_KEYS = ("L", "J", "h", "D", "J2", "J3")
RUN_KEYS = ("name", "target", *CHAIN_KEYS, "theta0", "h_tau", "engine",
            "perturbations")

# subcommand -> (the keys it reads, the keys it requires)
KEYS = {
    "tower-check": (("name", *CHAIN_KEYS), ("L",)),
    "filter-run": ((*RUN_KEYS, "n_steps", "eps"), ("L", "target")),
    "dark-states": (RUN_KEYS, ("L",)),
    "bright-spectrum": (("name", "target", *CHAIN_KEYS, "h_tau", "engine"),
                        ("L",)),
    "scaling-sweep": (("L_values", "variant", "theta0_rule", "eps"),
                      ("L_values", "variant")),
    "table1": (("theta0",), ()),
    "perturb": (("name", *CHAIN_KEYS, "n_steps", "perturbations"), ("L",)),
    "goe-demo": (("goe", "n_steps"), ()),
    "zeta-scan": (("L_values",), ()),
}


def _reject_unknown(doc, allowed, where):
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ValidationError(
            f"unknown key{'s' if len(extra) > 1 else ''} for {where}: "
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


def _object(doc, key, allowed):
    """The sub-object doc[key] ({} when absent), checked against allowed."""
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ValidationError(f"{key} must be an object")
    _reject_unknown(sub, allowed, key)
    return sub


def _finite(doc, key, default):
    val = _number(doc, key, default)
    if not math.isfinite(val):
        raise ValidationError(f"{key} must be finite")
    return val


def _load(document, subcommand):
    """The document as a dict, checked against the KEYS of subcommand."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON document: {exc}") from None
    if not isinstance(document, dict):
        raise ValidationError("document must be a JSON object")
    allowed, required = KEYS[subcommand]
    _reject_unknown(document, allowed, subcommand)
    missing = [key for key in required if key not in document]
    if missing:
        raise ValidationError("missing required keys: " + ", ".join(missing))
    return dict(document)


def _L_values(doc):
    values = doc["L_values"]
    if (not isinstance(values, list) or not values
            or any(isinstance(x, bool) or not isinstance(x, int)
                   for x in values)):
        raise ValidationError("L_values must be a non-empty integer list")
    return list(values)


def _resolve_htau(doc, target, L, required):
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
    if target is not None:
        return TARGETS[target].resonance(L)
    if required:
        raise ValidationError(
            "h_tau is required when no target fixes the resonance"
        )
    # a subcommand that reads no resonance echoes this one; the study
    # drivers pick their own per target
    return tar1_resonance(L)


def _resolve_theta0(doc, target, L):
    if "theta0" in doc:
        return _finite(doc, "theta0", None)
    return 0.0 if target is None else TARGETS[target].angle(L)


def parse_config(document, subcommand="filter-run") -> ExperimentSpec:
    """Validate a JSON document into a fully pinned ExperimentSpec.

    Defaults fill in the fixed physical choices; the target, when given,
    derives the resonance h*tau and the initial-state angle theta0.
    """
    doc = _load(document, subcommand)
    target = doc.get("target")
    if target is not None and target not in TARGETS:
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

    sub = _object(doc, "perturbations", ("lambda", "seed"))
    pert = Perturbations(lam=_number(sub, "lambda", 0.0),
                         seed=_number(sub, "seed", None, integer=True))

    engine = doc.get("engine")
    if engine is None:
        # perturb reads no engine key: it always runs the full engine
        engine = "full" if (params.J2 != 0.0 or pert.lam != 0.0
                            or subcommand == "perturb") else "tower"
    if engine not in ("tower", "full"):
        raise ValidationError(f"unknown engine {engine!r}")

    # a subcommand that reads h_tau needs a resonance
    h_tau = _resolve_htau(doc, target, L, "h_tau" in KEYS[subcommand][0])
    theta0 = _resolve_theta0(doc, target, L)
    name = doc.get("name", subcommand)
    if not isinstance(name, str) or not name:
        raise ValidationError("name must be a non-empty string")
    steps = PERTURB_STEPS if subcommand == "perturb" else DEFAULTS["n_steps"]

    return ExperimentSpec(
        name=name,
        params=params,
        theta0=theta0,
        h_tau=h_tau,
        n_steps=_number(doc, "n_steps", steps, integer=True),
        eps=_number(doc, "eps", DEFAULTS["eps"]),
        engine=engine,
        target=target,
        perturbations=pert,
    )


def goe_options(document):
    """(d_goe, seed, n_steps) of the random-matrix benchmark.

    n_steps is None when the document leaves the run length to goe_demo.
    The document's values are checked here, so a --seed override cannot
    hide a bad seed; goe_demo checks the values it runs with again.
    """
    doc = _load(document, "goe-demo")
    sub = _object(doc, "goe", ("D_goe", "seed"))
    d_goe = _number(sub, "D_goe", GOE_DIM, integer=True)
    seed = _number(sub, "seed", GOE_SEED, integer=True)
    _check_goe(d_goe, seed)
    n_steps = _number(doc, "n_steps", integer=True)
    if n_steps is not None and n_steps < 0:
        raise ValidationError("n_steps must be a non-negative integer")
    return d_goe, seed, n_steps


def sweep_options(document):
    """List-style options for the scaling sweep subcommand."""
    doc = _load(document, "scaling-sweep")
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
    doc = _load(document, "zeta-scan")
    if "L_values" in doc:
        return _L_values(doc)
    return list(range(4, 17))


def table1_options(document):
    """Initial-state angle theta0 of the table1 census."""
    doc = _load(document, "table1")
    return _finite(doc, "theta0", TABLE1_THETA0)
