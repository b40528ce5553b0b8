"""JSON experiment-document parsing with strict key validation.

The document is a run's one input: no command-line flag sets a key.  It
is a flat JSON object.  Each subcommand reads the keys KEYS lists for
it, and any other key is rejected by name, so neither a typo nor a key
the subcommand would ignore passes silently.  A key that names a choice
(target, engine, variant, theta0_rule) holds one of its strings.  h*tau
is written as the integer pair [p, q] meaning pi*p/q, which keeps
resonances exact: the document_of echo of a spec parses back to the
same spec.  KEYS lists the subcommands, and the CLI follows it.  Only
n_steps defaults here; any other key left out is not passed on, so it
takes the default of the signature that owns it (ChainParams,
ExperimentSpec, or the experiments driver).
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError
from .experiments import (TARGETS, THETA0_RULES, VARIANT_RULES,
                          ExperimentSpec, Perturbations, tar1_resonance)
from .spin_model import ChainParams

# run lengths: perturb runs each leg longer, into the metastable regime
RUN_STEPS = 5000
PERTURB_STEPS = 20000

COUPLINGS = ("J", "h", "D", "J2", "J3")
CHAIN_KEYS = ("L", *COUPLINGS)
RUN_KEYS = ("name", "target", *CHAIN_KEYS, "theta0", "h_tau", "engine",
            "perturbations")

# the subcommands, each -> (the keys it reads, the keys it requires)
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
    try:
        return float(val)
    except OverflowError:
        raise ValidationError(f"key {key!r} = {val} overflows a float") \
            from None


def _choice(doc, key, allowed):
    """doc[key], one of the strings allowed; None when absent."""
    if key not in doc:
        return None
    val = doc[key]
    if not isinstance(val, str) or val not in allowed:
        raise ValidationError(f"unknown {key} {val!r}")
    return val


def _object(doc, key, allowed):
    """The sub-object doc[key] ({} when absent), checked against allowed."""
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ValidationError(f"{key} must be an object")
    _reject_unknown(sub, allowed, key)
    return sub


def _finite(doc, key):
    val = _number(doc, key)
    if val is not None and not math.isfinite(val):
        raise ValidationError(f"{key} must be finite")
    return val


def _present(**values):
    # the keyword arguments a document holds (a key left out reads None)
    return {key: val for key, val in values.items() if val is not None}


def _load(document, subcommand):
    """The document as a dict, checked against the KEYS of subcommand."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:   # JSONDecodeError, or an over-long int
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
    if "L_values" not in doc:
        return None
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
        return _finite(doc, "theta0")
    return 0.0 if target is None else TARGETS[target].angle(L)


def parse_config(document, subcommand="filter-run") -> ExperimentSpec:
    """Validate a JSON document into a fully pinned ExperimentSpec.

    The target, when given, derives the resonance h*tau and the
    initial-state angle theta0.
    """
    doc = _load(document, subcommand)
    target = _choice(doc, "target", TARGETS)
    L = _number(doc, "L", integer=True)
    params = ChainParams(L, **{key: _number(doc, key)
                               for key in COUPLINGS if key in doc})

    sub = _object(doc, "perturbations", ("lambda", "seed"))
    pert = Perturbations(lam=_number(sub, "lambda", 0.0),
                         seed=_number(sub, "seed", integer=True))

    engine = _choice(doc, "engine", ("tower", "full"))
    if engine is None:
        # perturb reads no engine key: it always runs the full engine
        engine = "full" if (params.J2 != 0.0 or pert.lam != 0.0
                            or subcommand == "perturb") else "tower"

    # a subcommand that reads h_tau needs a resonance
    h_tau = _resolve_htau(doc, target, L, "h_tau" in KEYS[subcommand][0])
    theta0 = _resolve_theta0(doc, target, L)
    name = doc.get("name", subcommand)
    if not isinstance(name, str) or not name:
        raise ValidationError("name must be a non-empty string")
    steps = PERTURB_STEPS if subcommand == "perturb" else RUN_STEPS

    return ExperimentSpec(
        name=name,
        params=params,
        theta0=theta0,
        h_tau=h_tau,
        n_steps=_number(doc, "n_steps", steps, integer=True),
        engine=engine,
        target=target,
        perturbations=pert,
        **_present(eps=_number(doc, "eps")),
    )


def goe_options(document):
    """Keyword arguments of goe_demo (d_goe, seed, n_steps) that the
    document holds; goe_demo checks them."""
    doc = _load(document, "goe-demo")
    sub = _object(doc, "goe", ("D_goe", "seed"))
    return _present(d_goe=_number(sub, "D_goe", integer=True),
                    seed=_number(sub, "seed", integer=True),
                    n_steps=_number(doc, "n_steps", integer=True))


def sweep_options(document):
    """Keyword arguments of sweep_n_epsilon (L_values, variant,
    theta0_rule, eps) that the document holds."""
    doc = _load(document, "scaling-sweep")
    return _present(L_values=_L_values(doc),
                    variant=_choice(doc, "variant", VARIANT_RULES),
                    theta0_rule=_choice(doc, "theta0_rule", THETA0_RULES),
                    eps=_number(doc, "eps"))


def scan_options(document):
    """Keyword arguments of zeta_vs_L_scan (L_values) that the document
    holds."""
    return _present(L_values=_L_values(_load(document, "zeta-scan")))


def table1_options(document):
    """Keyword arguments of table1_scan (theta0) that the document holds."""
    return _present(theta0=_finite(_load(document, "table1"), "theta0"))
