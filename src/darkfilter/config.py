"""JSON experiment-document parsing with strict key validation.

The document is a run's one input: no command-line flag sets a key.  It
is a flat JSON object.  Each subcommand reads the keys KEYS lists for
it, and any other key is rejected by name, so neither a typo nor a key
the subcommand would ignore passes silently.  A key that names a choice
(target, engine, variant, theta0_rule) holds one of its strings.  h*tau
is written as the integer pair [p, q] meaning pi*p/q, which keeps
resonances exact.  KEYS lists the subcommands, and the CLI follows it.

parse_config checks each key's type and shape and returns the keyword
arguments of the subcommand's driver that the document holds: it fills
nothing in, so a key left out takes the default of the signature that
owns it (ChainParams or the experiments driver), and the driver checks
the values against each other.  The sub-objects map to flat arguments:
perturbations to lam and noise_seed, goe to d_goe and seed.  Each
driver echoes the arguments it resolved as the sidecar's "spec", a
document that the same subcommand reads back into the same run.
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError
from .experiments import TARGETS, THETA0_RULES, VARIANT_RULES

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


def _number(key, val, integer=False):
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


def _integer(key, val):
    return _number(key, val, integer=True)


def _finite(key, val):
    val = _number(key, val)
    if not math.isfinite(val):
        raise ValidationError(f"{key} must be finite")
    return val


def _choice(allowed):
    """Reader of a key that holds one of the strings allowed."""
    def read(key, val):
        if not isinstance(val, str) or val not in allowed:
            raise ValidationError(f"unknown {key} {val!r}")
        return val
    return read


def _object(fields):
    """Reader of a sub-object: fields maps each of its keys to the
    driver argument it sets and that key's reader."""
    def read(key, sub):
        if not isinstance(sub, dict):
            raise ValidationError(f"{key} must be an object")
        _reject_unknown(sub, fields, key)
        return {name: reader(k, sub[k])
                for k, (name, reader) in fields.items() if k in sub}
    return read


def _name(key, val):
    if not isinstance(val, str) or not val:
        raise ValidationError("name must be a non-empty string")
    return val


def _h_tau(key, pair):
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


def _L_values(key, values):
    if (not isinstance(values, list) or not values
            or any(isinstance(x, bool) or not isinstance(x, int)
                   for x in values)):
        raise ValidationError("L_values must be a non-empty integer list")
    return list(values)


# each document key -> its reader, in the order the keys are checked; a
# sub-object's reader returns the flat driver arguments its keys set
READERS = {
    "goe": _object({"D_goe": ("d_goe", _integer),
                    "seed": ("seed", _integer)}),
    "target": _choice(TARGETS),
    "L": _integer,
    **dict.fromkeys(COUPLINGS, _number),
    "perturbations": _object({"lambda": ("lam", _number),
                              "seed": ("noise_seed", _integer)}),
    "engine": _choice(("tower", "full")),
    "h_tau": _h_tau,
    "theta0": _finite,
    "name": _name,
    "n_steps": _integer,
    "L_values": _L_values,
    "variant": _choice(VARIANT_RULES),
    "theta0_rule": _choice(THETA0_RULES),
    "eps": _number,
}
SUB_OBJECTS = ("goe", "perturbations")


def parse_config(document, subcommand="filter-run") -> dict:
    """The keyword arguments of the subcommand's driver that a document
    (a dict, or its JSON text) holds, each checked for type and shape."""
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
    args = {}
    for key, read in READERS.items():
        if key in document:
            value = read(key, document[key])
            args.update(value if key in SUB_OBJECTS else {key: value})
    return args
