"""Fuzz test of the CLI contract over drawn config documents.

Every subcommand reads a document whose keys come from config.KEYS:
each key is present or not, and holds a valid value, an edge number
(NaN, +-inf, 1e308, -0.0, subnormals, huge integers) or a value of the
wrong type (lists and objects in string keys included), with an unknown
key now and then.  Valid values keep chains small and runs short.  The
run goes through cli.main in-process with every warning an error, and
must end with status 0 and an empty stderr, or with 1 or 2 and exactly
one "error:" or "numerics:" line; status 1 leaves no --out.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from darkfilter.cli import main
from darkfilter.config import KEYS

EDGE = st.sampled_from([
    math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0, 0.0, 5e-324,
    2.2e-308, 2**64, 2**70, -2**70, 10**400, -1, 0, 1, 2.5,
])
WRONG = st.sampled_from([None, True, "", "tar1", [], [1], [4, 2], {},
                         {"a": 1}])


def _sub_object(valid):
    """A sub-object whose keys hold valid, edge or wrong values."""
    value = {key: st.one_of(strategy, EDGE, WRONG)
             for key, strategy in valid.items()}
    return st.fixed_dictionaries({}, optional=dict(
        value, seed_=st.just(1)))


# valid values: small chains, few steps, GOE draws that settle fast
VALID = {
    "name": st.sampled_from(["run", "x"]),
    "target": st.sampled_from(["tar1", "tar2"]),
    "L": st.integers(2, 5),
    "J": st.sampled_from([1.0, 0.5, -0.7]),
    "h": st.sampled_from([1.0, 0.3, -2.0]),
    "D": st.sampled_from([0.1, 0.0, -0.4]),
    "J2": st.sampled_from([0.0, 0.02]),
    "J3": st.sampled_from([0.0, 0.1]),
    "theta0": st.floats(-7.0, 7.0),
    "h_tau": st.lists(st.one_of(st.integers(1, 8), st.integers(1, 8), EDGE),
                      min_size=2, max_size=2),
    "n_steps": st.integers(0, 40),
    "eps": st.sampled_from([0.01, 0.5]),
    "engine": st.sampled_from(["tower", "full"]),
    "perturbations": _sub_object({"lambda": st.sampled_from([0.0, 0.05]),
                                  "seed": st.integers(0, 9)}),
    "goe": _sub_object({"D_goe": st.sampled_from([4, 5, 8]),
                        "seed": st.sampled_from([5, 23])}),
    "L_values": st.lists(st.one_of(st.integers(2, 9), st.integers(2, 9),
                                   EDGE), max_size=4),
    "theta0_rule": st.sampled_from(["orthogonal", "general", "parity",
                                    "tar2-optimal"]),
    "variant": st.sampled_from(["tar1-general", "tar1-orthogonal", "tar2"]),
}
ALL_KEYS = sorted(VALID)


@st.composite
def cases(draw):
    """(subcommand, document).  A required key is dropped one time in
    ten and any other read key is present half the time.  Most
    documents hold valid values but for one key, an edge or wrong value;
    one in four draws every value from all three.  An unknown key, from
    another subcommand or misspelt, joins one time in ten."""
    sub = draw(st.sampled_from(tuple(KEYS)))
    reads, required = KEYS[sub]
    keys = [key for key in reads
            if (draw(st.integers(0, 9)) > 0 if key in required
                else draw(st.booleans()))]
    odd = st.one_of(EDGE, WRONG)
    if draw(st.integers(0, 3)) == 0:
        doc = {key: draw(st.one_of(VALID[key], odd)) for key in keys}
    else:
        doc = {key: draw(VALID[key]) for key in keys}
        if keys and draw(st.integers(0, 4)) > 0:
            key = draw(st.sampled_from(keys))
            doc[key] = draw(odd)
    if draw(st.integers(0, 9)) == 0:
        key = draw(st.sampled_from(ALL_KEYS + ["tarqet"]))
        doc[key] = draw(VALID.get(key, st.just(1)))
    return sub, doc


def _run(sub, doc):
    """(status, stderr, whether --out exists) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            status = main([sub, "--config", cfg, "--out", out, "--quiet"])
        return status, err.getvalue(), os.path.exists(out)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=("filter-run", {"L": 3, "target": [1]}))
@example(case=("dark-states", {"L": 3, "target": {"a": 1}}))
@example(case=("bright-spectrum", {"L": 3, "target": [1]}))
@example(case=("scaling-sweep", {"L_values": [6], "variant": "tar2",
                                 "theta0_rule": []}))
@example(case=("goe-demo", {"goe": {"D_goe": 2**40}}))
@example(case=("dark-states", {"L": 2**70, "target": "tar1"}))
@example(case=("zeta-scan", {"L_values": [4, 2**70]}))
@example(case=("tower-check", {"L": 3, "J2": 1e308}))
@example(case=("filter-run", {"L": 10**400, "target": "tar2"}))
@example(case=("dark-states", {"L": 4, "h_tau": [1, 10**400]}))
@example(case=("scaling-sweep", {"L_values": [2], "variant": "tar1-general",
                                 "theta0_rule": "tar2-optimal"}))
def test_cli_contract_holds_on_drawn_documents(case):
    sub, doc = case
    status, err, out_exists = _run(sub, doc)
    assert status in (0, 1, 2)
    if status == 0:
        assert err == ""
        return
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: " if status == 1 else "numerics: ")
    if status == 1:
        assert not out_exists
