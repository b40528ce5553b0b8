"""Config parsing, CSV emission, and the command-line surface."""

import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darkfilter
from darkfilter.cli import main
from darkfilter.config import KEYS, parse_config
from darkfilter.errors import ValidationError
from darkfilter.experiments import (
    perturbation_study,
    run_target,
    sweep_n_epsilon,
    table1_scan,
    zeta_vs_L_scan,
)
from darkfilter.filtration import DEPLETION_FLOOR
from darkfilter.output import BLOCK_ROWS, emit_csv, format_cell, write_metadata

from helpers import rowwise_csv


# ---------------------------------------------------------------- output

def test_format_cell_float_roundtrip(tmp_path):
    # a float cell reads back as the float written
    floats = [0.1, 1.0 / 3.0, 1e300, 5e-324, -2.5e-17]
    path = emit_csv(tmp_path / "f.csv", ("x",), [floats])
    assert [float(t) for t in open(path).read().split()[1:]] == floats
    # format_cell writes the cells of text columns only
    assert format_cell(None) == ""
    assert format_cell("dark") == "dark"
    for bad in (7, True, 0.5, "a,b"):
        with pytest.raises(ValidationError):
            format_cell(bad)


def test_emit_csv_layout(tmp_path):
    path = emit_csv(tmp_path / "t.csv", ("n", "value", "note", "blank"),
                    [[0, 1], [0.5, 2.0], ["x", None], None])
    body = open(path, "rb").read()
    assert body == b"n,value,note,blank\n0,0.5,x,\n1,2,,\n"
    with pytest.raises(ValidationError):
        emit_csv(tmp_path / "bad.csv", ("a", "b"), [[1]])
    with pytest.raises(ValidationError):
        emit_csv(tmp_path / "ragged.csv", ("a", "b"), [[1, 2], [3]])


# one column of every cell kind, and the exact text each must produce
FORMAT_CASES = (
    ("none", [None, None], ["", ""]),
    ("int", [0, -7, 2**62], ["0", "-7", "4611686018427387904"]),
    ("bool", [True, False, np.bool_(True)], ["1", "0", "1"]),
    ("str", ["dark", "bright", ""], ["dark", "bright", ""]),
    ("np_int", [np.int64(-3), np.int32(12), np.uint8(255)],
     ["-3", "12", "255"]),
    ("np_float", [np.float64(0.1), np.float32(0.5), np.float64(-0.0)],
     ["0.10000000000000001", "0.5", "-0"]),
    ("float17", [1.0 / 3.0, 2.0 / 3.0, 1e300, 5e-324, -2.5e-17, 1.0, 123456789.0],
     ["0.33333333333333331", "0.66666666666666663", "1.0000000000000001e+300",
      "4.9406564584124654e-324", "-2.4999999999999999e-17", "1", "123456789"]),
    ("int_array", np.array([0, 5, -9]), ["0", "5", "-9"]),
    ("float_array", np.array([0.1, 1e-5, 7.0]),
     ["0.10000000000000001", "1.0000000000000001e-05", "7"]),
    ("mixed", [3, np.int64(2), 0.25, False], ["3", "2", "0.25", "0"]),
    ("text_none", [None, "x", ""], ["", "x", ""]),
)


@pytest.mark.parametrize("name, column, text", FORMAT_CASES,
                         ids=[case[0] for case in FORMAT_CASES])
def test_emit_csv_format_regression(tmp_path, name, column, text):
    """Known cells in, exact text out, through a whole-column write."""
    index = list(range(len(text)))
    path = emit_csv(tmp_path / f"{name}.csv", ("i", name), [index, column])
    lines = [f"{i},{t}" for i, t in zip(index, text)]
    assert open(path, "rb").read() == ("\n".join([f"i,{name}", *lines])
                                       + "\n").encode()


def test_emit_csv_rejects_bad_cells(tmp_path):
    for column in ([1.0, float("inf")], np.array([0.0, np.nan]), ["a,b"],
                   ["two\nlines"], [1 + 2j], ["nul\0"], [None, 3],
                   ["x", 0.5]):
        with pytest.raises(ValidationError):
            emit_csv(tmp_path / "bad.csv", ("x",), [column])
    with pytest.raises(ValidationError, match="NUL"):
        format_cell("a\0b")
    assert not os.path.exists(tmp_path / "bad.csv")
    # a bad cell in the second block, which is also formatted before the
    # file is opened, still leaves no file
    column = ["x"] * (2 * BLOCK_ROWS)
    column[-1] = "a,b"
    with pytest.raises(ValidationError, match="quoting"):
        emit_csv(tmp_path / "late.csv", ("x",), [column])
    assert not os.path.exists(tmp_path / "late.csv")
    # nor does one in the third block, after two good ones
    column = ["x"] * (3 * BLOCK_ROWS)
    column[2 * BLOCK_ROWS + 5] = "a,b"
    with pytest.raises(ValidationError, match="quoting"):
        emit_csv(tmp_path / "later.csv", ("x",), [column])
    assert not os.path.exists(tmp_path / "later.csv")


def _written(path, column):
    """The cells emit_csv writes for one column, as text."""
    emit_csv(path, ("x",), [column])
    return open(path, "rb").read().decode().split("\n")[1:-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
       ties=st.lists(st.tuples(st.integers(2**50, 2**51 - 1),
                               st.integers(-20, 100)), max_size=16))
def test_float_cells_match_percent_format(tmp_path_factory, bits, ties):
    # random IEEE patterns (every exponent, the out-of-range batch too),
    # and exact decimal ties (k + 1/4) 2^-s, which round half to even
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values[np.isfinite(values)],
                             [math.ldexp(k + 0.25, -s) for k, s in ties]])
    path = tmp_path_factory.mktemp("cells") / "f.csv"
    assert _written(path, values) == ["%.17g" % v for v in values.tolist()]


def test_float_cells_at_powers_of_ten_and_range_edges(tmp_path):
    # log10 rounds x just below 10^p up to p; the exponent is confirmed
    # on the truncated quotient instead
    near = []
    for p in range(-12, 19):
        for step in (-2, -1, 0, 1, 2):
            x = 10.0**p
            for _ in range(abs(step)):
                x = np.nextafter(x, np.inf if step > 0 else 0.0)
            near += [x, -x]
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1e-11, np.nextafter(1e-11, 1.0),
             np.nextafter(1e-11, 0.0), 1e17, np.nextafter(1e17, 0.0),
             1e-5, 9.9999999999999995e-5, 1e-4, 0.5, 1.0, 2.0**53,
             2.0**53 + 2.0, 99999999999999984.0, 1.7976931348623157e308]
    # 17-digit forms that end in every count of zeros from 1 to 16, so
    # every rung of the trailing-zero lookup runs: digit prefixes times
    # 10^j and 2^-s, and the powers 2^-s (exponent form from 2^-14)
    prefixes = [int("1234567890123456"[:d]) for d in range(1, 17)]
    zeros = [p * 10**j / 2**s for p in prefixes
             for j in range(0, 18 - len(str(p)), 3) for s in (0, 1, 3)]
    zeros += [2.0**-s for s in range(1, 24)]
    ends = {len(m) - len(m.rstrip("0"))
            for m in (("%.16e" % v).split("e")[0] for v in zeros)}
    assert ends >= set(range(1, 17))
    values = np.array(near + edges + zeros + [-v for v in edges + zeros])
    assert _written(tmp_path / "f.csv", values) == \
        ["%.17g" % v for v in values.tolist()]
    single = np.array([0.1, 1.0 / 3.0, 3.4028234663852886e38, 1e-45,
                       -2.5, 7.0], dtype=np.float32)
    assert _written(tmp_path / "s.csv", single) == \
        ["%.17g" % float(v) for v in single]


def test_int_cells_match_str_at_the_extremes(tmp_path):
    for dtype in (np.int8, np.int32, np.int64, np.uint8, np.uint64):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.max, 0, info.max - 1, 9, 10, 99,
                           100, info.min + 1], dtype=dtype)
        assert _written(tmp_path / "i.csv", values) == \
            [str(int(v)) for v in values]


def _int_values(dtype):
    """Lists of one integer dtype's values: its extremes, uniform draws,
    and magnitudes of every digit count from 1 to 20 with either sign,
    clipped to the dtype."""
    info = np.iinfo(dtype)
    digits = st.integers(1, 20).flatmap(
        lambda d: st.integers(10 ** (d - 1) - (d == 1), 10 ** d - 1))
    signed = st.tuples(digits, st.booleans()).map(
        lambda p: min(p[0], info.max) * (-1 if p[1] and info.min < 0 else 1))
    return st.lists(st.one_of(st.sampled_from([int(info.min), int(info.max)]),
                              st.integers(int(info.min), int(info.max)),
                              signed),
                    min_size=1, max_size=64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signed=_int_values(np.int64), unsigned=_int_values(np.uint64))
def test_int_cells_match_str(tmp_path_factory, signed, unsigned):
    # one column mixes widths, so the short cells blank their leading zeros
    path = tmp_path_factory.mktemp("ints") / "i.csv"
    for dtype, values in ((np.int64, signed), (np.uint64, unsigned)):
        assert _written(path, np.array(values, dtype=dtype)) == \
            [str(v) for v in values]


def _oracle_table(rows):
    """Columns of every kind the writer takes, with out-of-range floats:
    arrays, sequences of numbers, and text with None cells."""
    rng = np.random.Generator(np.random.Philox(key=11))
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-14, 19, rows)
    floats[::7] = 0.0
    floats[3::11] = 1e-300
    text = np.full(rows, None)
    text[::3] = "dark"
    numbers = [[7, 0.25, True, np.int64(-3)][i % 4] for i in range(rows)]
    ints = [[7, True, np.int64(-3)][i % 3] for i in range(rows)]
    return [np.arange(rows), floats, None, ["kind%d" % (i % 4)
                                            for i in range(rows)],
            numbers, ints, text, rng.standard_normal(rows).tolist(),
            floats.astype(np.float32),
            rng.integers(0, 2**64 - 1, rows, dtype=np.uint64,
                         endpoint=True)]


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                  BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_emit_csv_matches_rowwise_oracle(tmp_path, rows):
    columns = _oracle_table(rows)
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = emit_csv(tmp_path / "t.csv", header, columns)
    assert open(path, "rb").read() == rowwise_csv(header, columns)


IMPORT_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
import darkfilter.cli
print(" ".join(sorted(set(sys.modules) - before)))
print("concurrent.futures" in sys.modules)
"""

# what importing the CLI loads on top of numpy: the package and these
CLI_IMPORTS = {"__future__", "_json", "argparse", "gettext", "json"}


def test_cli_import_loads_no_further_modules():
    src = os.path.dirname(os.path.dirname(darkfilter.__file__))
    out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout.split("\n")
    added = {name.split(".")[0] for name in out[0].split()}
    assert added - {"darkfilter"} <= CLI_IMPORTS
    assert out[1] == "False"


NO_MASKED_SCRIPT = """
import math, sys
from darkfilter.filtration import RotatingTarget, full_setup, run_filtration
from darkfilter.spin_model import ChainParams
setup, psi0 = full_setup(ChainParams(L=4, J2=0.02), (1, 4), 0.3)
loaded = "numpy.ma" in sys.modules
run_filtration(setup, psi0, 100, RotatingTarget.static(psi0))
print(loaded, "numpy.ma" in sys.modules)
"""


def test_full_engine_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 13 ms a process
    src = os.path.dirname(os.path.dirname(darkfilter.__file__))
    out = subprocess.run([sys.executable, "-c", NO_MASKED_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout.split()
    assert out == ["False", "False"]


def _run_at_threads(tmp_path, sub, doc, threads):
    """(exit code, {file name: text}) of a fresh CLI process at an
    OpenBLAS thread count."""
    cfg = tmp_path / f"{sub}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"{sub}-{threads}"
    src = os.path.dirname(os.path.dirname(darkfilter.__file__))
    rc = subprocess.run(
        [sys.executable, "-m", "darkfilter.cli", sub, "--config", str(cfg),
         "--out", str(out), "--quiet"],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
        timeout=300).returncode
    return rc, {f.name: f.read_text() for f in sorted(out.iterdir())}


def _same_up_to_rounding(a, b):
    """Discrete values equal, floats to a relative 1e-12 (rounding-level
    residuals to 1e-14 absolute)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _same_up_to_rounding(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_up_to_rounding, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)
    return a == b and type(a) is type(b)


@pytest.mark.parametrize("sub, doc", [
    ("perturb", {"L": 6, "J2": 0.02, "n_steps": 400}),
    ("filter-run", {"L": 6, "target": "tar1", "engine": "full", "J2": 0.01,
                    "n_steps": 400}),
], ids=["perturb", "filter-run-full"])
def test_full_engine_results_do_not_depend_on_blas_threads(tmp_path, sub, doc):
    # the sector eigh rounds differently on one and two OpenBLAS threads,
    # so the bytes differ (n_eps, reached, depleted and the plateau
    # window must not), by about 1e-16 relative in each value
    (rc1, files1), (rc2, files2) = (
        _run_at_threads(tmp_path, sub, doc, n) for n in ("1", "2"))
    assert rc1 == rc2 == 0
    assert files1.keys() == files2.keys()
    for name, text in files1.items():
        if name == "metadata.json":
            meta1, meta2 = (json.loads(f[name]) for f in (files1, files2))
            del meta1["wall_time_s"], meta2["wall_time_s"]
            assert _same_up_to_rounding(meta1, meta2)
            continue
        rows1, rows2 = (np.loadtxt(f[name].splitlines(), delimiter=",",
                                   skiprows=1, ndmin=2)
                        for f in (files1, files2))
        assert rows1.shape == rows2.shape
        assert np.allclose(rows1, rows2, rtol=1e-12, atol=1e-14), name


def test_write_metadata_sorted_and_plain(tmp_path):
    path = tmp_path / "m.json"
    write_metadata(path, {"b": np.float64(0.5), "a": np.int64(3),
                          "z": 1 + 2j, "arr": np.arange(3)})
    text = open(path).read()
    assert text.index('"a"') < text.index('"b"') < text.index('"z"')
    data = json.loads(text)
    assert data["a"] == 3 and data["b"] == 0.5
    assert data["z"] == {"re": 1.0, "im": 2.0}
    assert data["arr"] == [0, 1, 2]


# ---------------------------------------------------------------- config

def _resolved(tmp_path, doc):
    """The arguments run_target resolves from a filter-run document."""
    return run_target(tmp_path / "o", **parse_config(doc))["spec"]


def test_parse_minimal_tar1(tmp_path):
    # config fills nothing in; the target and the driver's signature do
    assert parse_config({"L": 6, "target": "tar1"}) == {"L": 6,
                                                        "target": "tar1"}
    spec = _resolved(tmp_path, {"L": 6, "target": "tar1"})
    assert spec["h_tau"] == [1, 6]
    assert spec["theta0"] == pytest.approx(math.pi / 6.0)
    assert spec["engine"] == "tower"
    assert spec["n_steps"] == 5000 and spec["eps"] == 0.01
    assert spec["D"] == 0.1 and spec["J"] == 1.0


def test_parse_minimal_tar2_odd_chain(tmp_path):
    spec = _resolved(tmp_path, {"L": 9, "target": "tar2", "n_steps": 10})
    assert spec["h_tau"] == [1, 8]
    assert spec["theta0"] == pytest.approx(math.pi / 8.0)


def test_parse_explicit_fields_win(tmp_path):
    spec = _resolved(tmp_path, {"L": 6, "target": "tar1", "theta0": 0.4,
                                "h_tau": [1, 6], "n_steps": 123,
                                "eps": 0.05})
    assert spec["theta0"] == 0.4 and spec["n_steps"] == 123
    assert spec["eps"] == 0.05


def test_parse_config_accepts_json_text():
    args = parse_config('{"L": 6, "target": "tar1"}')
    assert args == {"L": 6, "target": "tar1"}


@pytest.mark.parametrize(
    "doc",
    [
        {"target": "tar1"},                      # missing L
        {"L": 6},                                # filter-run needs a target
        {"L": 6, "target": "tar1", "tarqet": 1},
        {"L": 6, "target": "tar1", "h_tau": "pi/6"},
        {"L": 6, "target": "tar1", "h_tau": [1]},
        {"L": 6, "target": "tar1", "h_tau": [1.5, 6]},
        {"L": 6, "target": "tar1", "h_tau": [1, 0]},
        {"L": True, "target": "tar1"},
        {"L": 6, "target": "tar1", "eps": "small"},
        {"L": 6, "target": "tar1", "perturbations": {"lambda": 0.1}},
        {"L": 6, "target": "tar1", "perturbations": {"level": 0.1}},
        {"L": 6, "target": "tar1", "J2": 0.1, "engine": "tower"},
    ],
)
def test_parse_config_rejects(tmp_path, doc):
    # config refuses a key's type or shape, the driver what its values
    # mean together, before it writes
    with pytest.raises(ValidationError):
        run_target(tmp_path / "o", **parse_config(doc))
    assert not (tmp_path / "o").exists()


def test_unknown_key_is_named():
    with pytest.raises(ValidationError, match="tarqet"):
        parse_config({"L": 6, "target": "tar1", "tarqet": 1})


def test_broken_symmetry_forces_full_engine(tmp_path):
    spec = _resolved(tmp_path, {"L": 6, "target": "tar1", "J2": 0.02,
                                "n_steps": 10})
    assert spec["engine"] == "full"


def test_serialize_parse_roundtrip(tmp_path):
    doc = {"L": 7, "target": "tar2", "n_steps": 444, "D": 0.2, "J3": 0.1}
    first = run_target(tmp_path / "a", **parse_config(doc))
    echo = json.loads(json.dumps(first["spec"]))
    again = run_target(tmp_path / "b", **parse_config(echo))
    assert again["spec"] == echo
    assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
            == (tmp_path / "b" / "trajectory.csv").read_bytes())


def test_sweep_options_defaults_by_variant(tmp_path):
    # the arguments hold only the document's keys; sweep_n_epsilon takes
    # the variant's theta0 rule and eps = 0.01 by default
    doc = {"L_values": [8, 9], "variant": "tar1-orthogonal"}
    assert parse_config(doc, "scaling-sweep") == doc
    meta = sweep_n_epsilon(tmp_path, **parse_config(doc, "scaling-sweep"))
    assert meta["theta0_rule"] == "orthogonal" and meta["eps"] == 0.01
    meta = sweep_n_epsilon(tmp_path, [8], "tar2")
    assert meta["theta0_rule"] == "tar2-optimal"
    assert parse_config({"L_values": [8], "variant": "tar2", "eps": 0.1,
                         "theta0_rule": "parity"},
                        "scaling-sweep")["theta0_rule"] == "parity"
    with pytest.raises(ValidationError):
        parse_config({"variant": "tar2"}, "scaling-sweep")
    with pytest.raises(ValidationError):
        parse_config({"L_values": [8], "variant": "cubic"}, "scaling-sweep")


def test_scan_options_default_range():
    # the driver's signature owns the default lengths
    assert parse_config({}, "zeta-scan") == {}
    default = inspect.signature(zeta_vs_L_scan).parameters["L_values"]
    assert list(default.default) == list(range(4, 17))
    assert parse_config({"L_values": [4, 6]}, "zeta-scan") \
        == {"L_values": [4, 6]}


@pytest.mark.parametrize("values", [[], [4, True], [4.0], "4", None],
                         ids=["empty", "bool", "float", "string", "null"])
def test_L_values_checked_alike(values):
    with pytest.raises(ValidationError, match="L_values"):
        parse_config({"L_values": values}, "zeta-scan")
    with pytest.raises(ValidationError, match="L_values"):
        parse_config({"L_values": values, "variant": "tar2"},
                     "scaling-sweep")


def test_non_object_documents_rejected():
    for doc in ([1], "[1]", 3):
        for sub in KEYS:
            with pytest.raises(ValidationError, match="JSON object"):
                parse_config(doc, sub)


def test_table1_options():
    assert parse_config({}, "table1") == {}
    default = inspect.signature(table1_scan).parameters["theta0"].default
    assert default == pytest.approx(math.pi / 7.0)
    assert parse_config({"theta0": 1}, "table1") == {"theta0": 1.0}
    with pytest.raises(ValidationError, match="thetaO"):
        parse_config({"thetaO": 0.3}, "table1")
    for bad in ("abc", True, [0.3], float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="theta0"):
            parse_config({"theta0": bad}, "table1")


# ------------------------------------------------------------------- cli

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_tower_check(tmp_path):
    cfg = _write(tmp_path, "c.json", {"L": 5, "J3": 0.1})
    rc = main(["tower-check", "--config", cfg,
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["eigen_residual"] < 1e-10


def test_cli_tower_check_flags_broken_algebra(tmp_path):
    cfg = _write(tmp_path, "c.json", {"L": 4, "J2": 0.3})
    rc = main(["tower-check", "--config", cfg,
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2


def test_cli_validation_failures(tmp_path):
    bad = _write(tmp_path, "bad.json", {"L": 6, "targett": "tar1"})
    assert main(["filter-run", "--config", bad,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    # malformed JSON and missing file both map to exit 1
    raw = tmp_path / "broken.json"
    raw.write_text("{nope")
    assert main(["filter-run", "--config", str(raw),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert main(["filter-run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    # argparse failures are validation failures, not numerics
    assert main(["defragment", "--out", str(tmp_path / "o")]) == 1


def test_cli_scaling_sweep_rejects_uncertified_length(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"L_values": [6, 31], "variant": "tar1-orthogonal"})
    assert main(["scaling-sweep", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert not (tmp_path / "o" / "scaling.csv").exists()


def test_cli_filter_run_refuses_eps_below_the_resolution(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1: no Q_n can reach that threshold, so the run
    # is refused as scaling-sweep refuses it, not reported as reached
    cfg = _write(tmp_path, "c.json", {"L": 4, "target": "tar1",
                                      "eps": 1e-17, "n_steps": 300})
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eps=1e-17 ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_scaling_sweep_without_a_slope_writes_valid_json(tmp_path,
                                                              capsys):
    # eps = 0.999 is met at n = 0 on every length: nothing to fit
    cfg = _write(tmp_path, "c.json",
                 {"L_values": [2, 3, 4], "variant": "tar2", "eps": 0.999})
    assert main(["scaling-sweep", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert "slope none" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    text = (tmp_path / "o" / "metadata.json").read_text()
    assert json.loads(text, parse_constant=refuse)["slope_log2"] is None


@pytest.mark.parametrize("values", [[6, 5], [5, 5], [4, 6, 5]],
                         ids=["falling", "repeated", "unsorted"])
def test_cli_zeta_scan_needs_increasing_lengths(tmp_path, capsys, values):
    cfg = _write(tmp_path, "c.json", {"L_values": values})
    assert main(["zeta-scan", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_cli_filter_run_beyond_float_binomials_exits_1(tmp_path, capsys):
    # 2.0**L overflows from L = 1024; the tower is built, and the run is
    # refused as an input outside its validity
    cfg = _write(tmp_path, "c.json",
                 {"L": 1100, "target": "tar1", "n_steps": 10})
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_filter_run_small_overlap_runs(tmp_path):
    # the tar1 overlap at L=100 is sqrt(2) 2^-50: small, far from zero
    cfg = _write(tmp_path, "c.json",
                 {"L": 100, "target": "tar1", "n_steps": 10})
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0


@pytest.mark.parametrize("subcommand, doc", [
    ("dark-states", {"L": 6, "h_tau": [1, 6]}),
    ("filter-run", {"L": 6, "target": "tar2"}),
], ids=["dark-states", "filter-run"])
def test_cli_tower_refuses_overflowing_theta0(tmp_path, capsys, subcommand,
                                              doc):
    # theta0 is finite, but (L - n) theta0 overflows to inf and the tower
    # initial state to NaN
    cfg = _write(tmp_path, "c.json", dict(doc, theta0=1e308))
    assert main([subcommand, "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "theta0" in capsys.readouterr().err


@pytest.mark.parametrize("doc, reason", [
    ({"L": 6, "theta0": 0.0}, "zero overlap"),
    ({"L": 6, "theta0": 0.0, "engine": "full"}, "zero overlap"),
    ({"L": 1030}, "whose square underflows"),
    ({"L": 1100}, "zero overlap"),
], ids=["exact-zero", "full-rounding", "underflow", "float-binomials"])
def test_cli_filter_run_refusal_names_its_reason(tmp_path, capsys, doc,
                                                 reason):
    cfg = _write(tmp_path, "c.json", dict(doc, target="tar1", n_steps=10))
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial state has ") and reason in err
    # at most eight "members:overlap" pairs after "error:" and "overlaps:"
    assert len(err) < 1024 and err.count(":") <= 2 + 8


def test_cli_filter_run_and_determinism(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"L": 6, "target": "tar1", "n_steps": 300})
    for sub in ("a", "b"):
        rc = main(["filter-run", "--config", cfg,
                   "--out", str(tmp_path / sub), "--quiet"])
        assert rc == 0
    raw_a = open(tmp_path / "a" / "trajectory.csv", "rb").read()
    raw_b = open(tmp_path / "b" / "trajectory.csv", "rb").read()
    assert raw_a == raw_b
    meta_a = json.load(open(tmp_path / "a" / "metadata.json"))
    meta_b = json.load(open(tmp_path / "b" / "metadata.json"))
    meta_a.pop("wall_time_s"), meta_b.pop("wall_time_s")
    assert meta_a == meta_b


def test_cli_engine_and_seed_overrides(tmp_path):
    # the document is a run's one input: its "engine" and
    # "perturbations.seed" keys override the defaults, no flag does
    cfg = _write(tmp_path, "c.json",
                 {"L": 5, "target": "tar1", "n_steps": 100, "engine": "full",
                  "perturbations": {"seed": 77}})
    rc = main(["filter-run", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["engine"] == "full"
    assert meta["spec"]["perturbations"]["seed"] == 77


def test_cli_seed_flag_sets_the_goe_seed(tmp_path, capsys):
    # goe.seed sets the recorded seed and the trajectory; the --seed flag
    # that once did is refused and writes nothing
    trajectories = []
    for seed in (5, 23):
        out = tmp_path / f"goe{seed}"
        cfg = _write(tmp_path, "g.json", {"goe": {"D_goe": 8, "seed": seed}})
        assert main(["goe-demo", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert json.load(open(out / "metadata.json"))["seed"] == seed
        trajectories.append((out / "trajectory.csv").read_bytes())
    assert trajectories[0] != trajectories[1]
    assert main(["goe-demo", "--config", cfg, "--out",
                 str(tmp_path / "flag"), "--seed", "5", "--quiet"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


@pytest.mark.parametrize("text", ['{"thetaO": 0.3}', '{"theta0": "abc"}',
                                  '[1]', '{"theta0": Infinity}'],
                         ids=["typo", "string", "list", "infinite"])
def test_cli_table1_rejects_bad_config(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["table1", "--config", str(path),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_cli_table1_reads_theta0(tmp_path):
    cfg = _write(tmp_path, "c.json", {"theta0": 0.5})
    assert main(["table1", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["theta0"] == 0.5


def test_cli_metadata_reports_depletion(tmp_path):
    # a strong tower-breaking J2 leaves the L = 3 chain no dark state that
    # this start reaches, so its survival falls below DEPLETION_FLOOR and
    # the run stops early; the metadata says so
    cfg = _write(tmp_path, "c.json",
                 {"L": 3, "J2": 1.0, "target": "tar2", "theta0": 0.5,
                  "n_steps": 4000, "engine": "full"})
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "d"), "--quiet"]) == 0
    meta = json.load(open(tmp_path / "d" / "metadata.json"))
    assert meta["depleted"] is True
    survival = np.genfromtxt(tmp_path / "d" / "trajectory.csv",
                             delimiter=",", names=True)["survival"]
    assert survival.size < 4001
    # the step that falls below the floor is not recorded
    assert np.all(survival >= DEPLETION_FLOOR)
    cfg = _write(tmp_path, "k.json",
                 {"L": 5, "target": "tar1", "n_steps": 200})
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "k"), "--quiet"]) == 0
    assert json.load(open(tmp_path / "k" / "metadata.json"))["depleted"] \
        is False
    cfg = _write(tmp_path, "p.json", {"L": 4, "J2": 0.02, "n_steps": 100})
    assert main(["perturb", "--config", cfg,
                 "--out", str(tmp_path / "p"), "--quiet"]) == 0
    meta = json.load(open(tmp_path / "p" / "metadata.json"))
    assert meta["tar1"]["depleted"] is False
    assert meta["tar2"]["depleted"] is False


@pytest.mark.parametrize("sub,doc", [
    ("goe-demo", {"goe": {"D_goe": 8}}),
    ("perturb", {"L": 4, "J2": 0.02}),
    ("filter-run", {"L": 4, "target": "tar1"}),
])
def test_cli_refuses_n_steps_beyond_the_trajectory_budget(tmp_path, capsys,
                                                          sub, doc):
    # 1e30 steps once reached np.empty, whose ValueError was a traceback
    cfg = _write(tmp_path, "c.json", dict(doc, n_steps=1e30))
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_steps = ") and "bytes" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_goe_demo_short_run_leaves_no_output(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"goe": {"D_goe": 16}, "n_steps": 10})
    assert main(["goe-demo", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 1
    assert "bright-decay bound" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_out_naming_a_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["table1", "--out", str(taken), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and str(taken) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("key", ["h", "D"])
def test_cli_refuses_overflowing_couplings(tmp_path, capsys, key):
    # L (|D| + 3 |h|) overflows: once three numpy RuntimeWarnings and
    # exit 2; the warnings filter turns any warning into a failure here
    cfg = _write(tmp_path, "c.json", {"L": 4, "target": "tar1",
                                      key: 1e308, "n_steps": 10})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter-run", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: coupling {key} = 1e+308 ")
    assert err.count("\n") == 1 and "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub,doc,message", [
    ("goe-demo", {"goe": {"D_goe": 11586}}, "GOE dimension 11586 needs "),
    ("goe-demo", {"goe": {"D_goe": 2**40}}, "GOE dimension 1099511627776 "),
    ("dark-states", {"L": 11585, "target": "tar1"},
     "tower engine at L = 11585 needs "),
    ("dark-states", {"L": 2**70, "target": "tar1"}, "tower engine at L = "),
    ("zeta-scan", {"L_values": [4, 2**70]}, "tower engine at L = "),
], ids=["goe-cap", "goe-2^40", "tower-cap", "tower-2^70", "zeta-2^70"])
def test_cli_refuses_arrays_beyond_the_budget(tmp_path, capsys, sub, doc,
                                              message):
    # the GOE matrix's 8 D^2 bytes and the tower's (L+1)^2 eigenvectors
    # must fit TRAJECTORY_BUDGET; each once reached numpy, whose ValueError
    # was a traceback, and D_goe = 1e5 would have drawn 80 GB.  The zeta
    # scan refuses L = 2^70 after computing L = 4, before any write.
    cfg = _write(tmp_path, "c.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and "bytes" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub,doc,message", [
    ("filter-run", {"L": 10**400, "target": "tar2"}, "L = 1000"),
    ("dark-states", {"L": 4, "h_tau": [1, 10**400]}, "h_tau = [1, 1000"),
    ("bright-spectrum", {"L": 4, "h_tau": [10**400, 1]}, "h_tau = [1000"),
    ("tower-check", {"L": 4, "J": 10**400}, "key 'J' = 1000"),
], ids=["L", "q", "p", "J"])
def test_cli_refuses_integers_beyond_the_float_range(tmp_path, capsys, sub,
                                                     doc, message):
    # each once raised OverflowError converting the integer to a float
    cfg = _write(tmp_path, "c.json", doc)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert "float" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_refuses_an_integer_past_the_digit_limit(tmp_path, capsys):
    # json reads a 5000-digit integer as a ValueError, not a JSONDecodeError
    path = tmp_path / "c.json"
    path.write_text('{"L": ' + "1" * 5000 + ', "target": "tar1"}')
    assert main(["filter-run", "--config", str(path),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed JSON in {path}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_tower_check_overflow_is_one_numerics_line(tmp_path, capsys):
    # J2 = 1e308 overflows H B_n: numpy's overflow warnings once joined
    # the numerics line on stderr
    cfg = _write(tmp_path, "c.json", {"L": 3, "J2": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tower-check", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerics: tower residual ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"h": 1e-20}, {"h": 1e-9}, {"J2": 1e200}, {"h": 1e-300, "D": 1e10},
], ids=["h-1e-20", "h-1e-9", "J2-1e200", "h-1e-300-D-1e10"])
def test_cli_refuses_phases_without_precision(tmp_path, capsys, doc):
    # eps max|E| tau above PHASE_TOL: the phases cannot hold the declared
    # resonance (at h = 1e-20 the tower energies all round to 0.4), and
    # the run is refused before they are computed
    cfg = _write(tmp_path, "c.json",
                 dict(doc, L=4, target="tar1", n_steps=10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter-run", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tau = ") and "max|E|" in err
    assert err.count("\n") == 1 and "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("h, n_steps", [
    (3e-6, 200), (1e-6, 200), (1e-7, 10),
], ids=["h-3e-6", "h-1e-6", "h-1e-7"])
def test_cli_small_h_runs_or_is_refused(tmp_path, capsys, h, n_steps):
    # tau = pi/(4h) rounds the phases exp(-i E tau) by up to 7e-10 rad at
    # these h, within PHASE_TOL; the tower steps the exact levels of h tau
    # = pi/4 and leaves that rounding in its global factor, so each run
    # holds the string over full chunks
    cfg = _write(tmp_path, "c.json",
                 {"L": 4, "target": "tar1", "h": h, "n_steps": n_steps})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter-run", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
    err = capsys.readouterr().err
    assert err == ""
    assert _lines(tmp_path / "o" / "trajectory.csv") == n_steps + 2
    # the preparation time of every h on this chain
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["n_eps"] == 6


def test_tower_run_at_small_h_writes_the_bytes_of_h_1(tmp_path):
    # the tower steps the levels of h tau = pi/8 alone, so its trajectory
    # does not depend on h
    paths = []
    for h in (1.0, 1e-6):
        cfg = _write(tmp_path, f"h{h}.json", {"L": 8, "target": "tar1",
                                              "h": h, "n_steps": 2000})
        out = tmp_path / f"o{h}"
        assert main(["filter-run", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        paths.append(out / "trajectory.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("sub, doc", [
    ("filter-run", {"L": 8, "target": "tar2", "n_steps": 200}),
    ("bright-spectrum", {"L": 8}),
], ids=["filter-run", "bright-spectrum"])
def test_equal_resonance_pairs_write_equal_bytes(tmp_path, sub, doc):
    # the engine reads h_tau in lowest terms, so [3, 21] forms the period,
    # levels, flip classes and target rotation of [1, 7]; the spec echo
    # keeps the pair the document gave
    outs = []
    for pair in ([3, 21], [1, 7]):
        out = tmp_path / f"o{pair[0]}"
        cfg = _write(tmp_path, f"c{pair[0]}.json", dict(doc, h_tau=pair))
        assert main([sub, "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert json.load(open(out / "metadata.json"))["spec"]["h_tau"] == pair
        outs.append(out)
    names = sorted(path.name for path in outs[0].glob("*.csv"))
    assert names and names == sorted(path.name
                                     for path in outs[1].glob("*.csv"))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("q", [3000000000, 7000000000])
def test_tower_levels_at_large_q_stay_distinct(tmp_path, capsys, q):
    # at h tau = pi/q the 7 levels 2n of the L = 6 tower lie 2 pi/q apart
    # (2.1e-9 and 9.0e-10 rad): distinct integers, so no dark state and 7
    # charges, with no warning
    cfg = _write(tmp_path, "c.json", {"L": 6, "h_tau": [1, q]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sub in ("dark-states", "bright-spectrum"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / sub),
                         "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    meta = [json.load(open(tmp_path / sub / "metadata.json"))
            for sub in ("dark-states", "bright-spectrum")]
    assert (meta[0]["count"], meta[1]["w"]) == (0, 7)


@pytest.mark.parametrize("sub, doc", [
    ("filter-run", {"L": 4, "target": "tar1", "J2": 1e308}),
    ("filter-run", {"L": 4, "target": "tar1", "J2": -1e308}),
    ("perturb", {"L": 4, "J2": 1e308}),
], ids=["filter-run", "filter-run-negative", "perturb"])
def test_cli_eigh_failure_exits_2(tmp_path, capsys, sub, doc):
    # a sector eigh that does not converge is a numerics failure
    cfg = _write(tmp_path, "c.json", dict(doc, n_steps=10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([sub, "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerics: eigh of sector M = ")
    assert err.count("\n") == 1 and "Warning" not in err
    assert not (tmp_path / "o").exists()


def test_cli_perturb_records_the_full_engine(tmp_path):
    # perturb runs the full engine at J2 = 0 too, and says so
    cfg = _write(tmp_path, "c.json", {"L": 4, "n_steps": 20})
    assert main(["perturb", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["engine"] == "full"


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def test_cli_perturb_defaults_to_20000_steps(tmp_path):
    cfg = _write(tmp_path, "c.json", {"L": 4, "J2": 0.02})
    assert main(["perturb", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    for leg in ("tar1", "tar2"):
        assert _lines(tmp_path / "o" / f"trajectory_{leg}.csv") == 20002
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["spec"]["n_steps"] == 20000


def test_cli_goe_demo_defaults_past_the_bright_bound(tmp_path):
    # no n_steps: the run covers n_bound + 1000 steps
    cfg = _write(tmp_path, "c.json", {"goe": {"D_goe": 8, "seed": 5}})
    assert main(["goe-demo", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["n_bound"] == 979
    assert _lines(tmp_path / "o" / "trajectory.csv") == 1981


@pytest.mark.parametrize("theta0", [1e-7, 1e-8, 1e-9, 1e-10])
def test_cli_depleting_start_records_no_rounding_row(tmp_path, theta0):
    # at h tau = pi/2 the L = 3 tar2 start keeps a dark weight of about
    # 0.75 theta0^2.  Below DEPLETION_FLOOR step 1 holds rounding noise,
    # whose normalized fidelity left [0, 1] (exit 2) when it was recorded.
    # Above it (theta0 = 1e-7) step 1 cuts its chunk, and its overlaps,
    # once taken from the renewal formula, gave a fidelity above 1 (exit 2)
    cfg = _write(tmp_path, "c.json",
                 {"L": 3, "target": "tar2", "theta0": theta0,
                  "h_tau": [1, 2], "n_steps": 50})
    assert main(["filter-run", "--config", cfg,
                 "--out", str(tmp_path / "d"), "--quiet"]) == 0
    depleted = 0.75 * theta0**2 < DEPLETION_FLOOR
    assert json.load(open(tmp_path / "d" / "metadata.json"))["depleted"] \
        is depleted
    data = np.genfromtxt(tmp_path / "d" / "trajectory.csv", delimiter=",",
                         names=True, ndmin=1)
    assert np.all(data["survival"] >= DEPLETION_FLOOR)
    if depleted:
        assert np.all((data["q_n"] >= 0.0) & (data["q_n"] <= 1.0))
    else:
        # only the dark target, a cat with string +-1, survives step 1
        assert data.size == 51
        assert np.max(np.abs(data["q_n"][1:] - 1.0)) <= 1e-12
        assert np.max(np.abs(np.abs(data["string_re"][1:]) - 1.0)) <= 1e-12
        assert np.max(np.abs(data["string_im"])) <= 1e-12


def test_cli_dark_states(tmp_path):
    cfg = _write(tmp_path, "c.json", {"L": 6, "h_tau": [1, 3]})
    rc = main(["dark-states", "--config", cfg,
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    rows = open(tmp_path / "o" / "spectrum.csv").read().strip().split("\n")
    assert rows[0] == "re,im,modulus,kind"
    assert sum(1 for r in rows[1:] if r.endswith(",dark")) == 4


@pytest.mark.parametrize("L", [106, 160])
def test_cli_dark_states_on_large_tower_groups(tmp_path, L):
    # h tau = pi/2 folds the tower into its two parity groups, which host
    # L - 1 dark states.  The even group's first overlaps, 2^-53 and
    # 8e-15 at L = 106, are small but not dependent.
    cfg = _write(tmp_path, "c.json", {"L": L, "h_tau": [1, 2], "theta0": 0.3})
    assert main(["dark-states", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0
    meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
    assert meta["count"] == L - 1


@pytest.mark.parametrize("L, status, counts", [
    (8, 0, (1, 8)),
    (46, 0, (1, 46)),
    (48, 0, (1, 48)),
    (60, 0, (1, 60)),
    (78, 2, "violates force balance"),
], ids=["L8", "L46", "L48", "L60", "L78"])
def test_cli_bright_spectrum_checks_the_mode_count(tmp_path, capsys, L,
                                                   status, counts):
    # at h tau = pi/L every group that the removal reaches is a charge,
    # however small its weight (below 1e-14 from L = 48 on), so the
    # spectrum has L rows.  At L = 78 the roots of those tiny charges
    # fail the force-balance check and the run exits 2, writing nothing.
    # (L = 75 fails too, but passes on one BLAS thread.)
    cfg = _write(tmp_path, "c.json", {"L": L, "target": "tar1"})
    out = tmp_path / "o"
    assert main(["bright-spectrum", "--config", cfg, "--out", str(out),
                 "--quiet"]) == status
    if status:
        assert counts in capsys.readouterr().err
        assert not out.exists()
        return
    meta = json.loads((out / "metadata.json").read_text())
    n_dark, w = counts
    assert (meta["n_dark"], meta["w"], meta["n_bright_roots"]) \
        == (n_dark, w, w - 1)
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == n_dark + w - 1 == L


def test_cli_bright_spectrum_requires_tower(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"L": 6, "h_tau": [1, 3], "engine": "full"})
    assert main(["bright-spectrum", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 1


def test_cli_quiet_silences_summary(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"L": 4})
    main(["tower-check", "--config", cfg,
          "--out", str(tmp_path / "o"), "--quiet"])
    assert capsys.readouterr().out == ""
    main(["tower-check", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert "residual" in capsys.readouterr().out


# a small run of every subcommand, both engines, random draws included
SMALL_RUNS = [
    ("tower-check", {"L": 4, "J3": 0.1}, []),
    ("filter-run", {"L": 5, "target": "tar2", "n_steps": 60}, []),
    ("filter-run", {"L": 4, "target": "tar1", "n_steps": 60, "engine": "full",
                    "perturbations": {"lambda": 0.05, "seed": 3}}, []),
    ("dark-states", {"L": 4, "target": "tar1", "engine": "full"}, []),
    ("bright-spectrum", {"L": 5, "target": "tar1"}, []),
    ("scaling-sweep", {"L_values": [6, 7], "variant": "tar1-orthogonal"}, []),
    ("table1", {}, []),
    ("perturb", {"L": 4, "J2": 0.02, "n_steps": 60}, []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": 5}}, []),
    ("zeta-scan", {"L_values": [4, 5]}, []),
]


@pytest.mark.parametrize("sub", list(KEYS))
def test_every_sidecar_carries_the_envelope(tmp_path, sub):
    # one driver writes each subcommand's sidecar, through the same path
    doc = next(doc for name, doc, _ in SMALL_RUNS if name == sub)
    cfg = _write(tmp_path, "c.json", doc)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["code_version"] == darkfilter.__version__
    assert meta["rng"] == "philox"
    assert meta["wall_time_s"] >= 0.0


@pytest.mark.parametrize("sub,doc,extra", SMALL_RUNS,
                         ids=[f"{k}-{sub}" for k, (sub, _, _)
                              in enumerate(SMALL_RUNS)])
def test_spec_echo_reruns_the_run(tmp_path, sub, doc, extra):
    # the sidecar's spec, fed back as the same subcommand's document,
    # writes the same CSV bytes and the same sidecar but for wall time
    runs = []
    for k in range(2):
        cfg = _write(tmp_path, f"c{k}.json", doc)
        out = tmp_path / f"o{k}"
        assert main([sub, "--config", cfg, "--out", str(out),
                     "--quiet"] + extra) == 0
        meta = json.load(open(out / "metadata.json"))
        meta.pop("wall_time_s")
        runs.append((meta, {path.name: path.read_bytes()
                            for path in out.glob("*.csv")}))
        doc = meta["spec"]
    assert runs[0] == runs[1]


# every config key with a valid value, and the keys each subcommand
# reads (README "Config keys"); any other key must exit 1
KEY_VALUES = {
    "name": "run", "target": "tar1", "L": 5, "J": 1.0, "h": 1.0, "D": 0.1,
    "J2": 0.0, "J3": 0.0, "theta0": 0.3, "h_tau": [1, 5], "n_steps": 60,
    "eps": 0.01, "engine": "tower", "perturbations": {"lambda": 0.0},
    "goe": {"D_goe": 8, "seed": 5}, "L_values": [4, 5],
    "theta0_rule": "general", "variant": "tar1-general",
}
CHAIN = "L J h D J2 J3 "
READS = {
    "tower-check": "name " + CHAIN,
    "filter-run": "name target " + CHAIN
                  + "theta0 h_tau n_steps eps engine perturbations",
    "dark-states": "name target " + CHAIN
                   + "theta0 h_tau engine perturbations",
    "bright-spectrum": "name target " + CHAIN + "h_tau engine",
    "scaling-sweep": "L_values variant theta0_rule eps",
    "table1": "theta0",
    "perturb": "name " + CHAIN + "n_steps perturbations",
    "goe-demo": "goe n_steps",
    "zeta-scan": "L_values",
}
IGNORED = [(sub, key) for sub, keys in READS.items()
           for key in KEY_VALUES if key not in keys.split()]


@pytest.mark.parametrize("sub,key", IGNORED)
def test_ignored_key_exits_1(tmp_path, capsys, sub, key):
    base = next(doc for name, doc, _ in SMALL_RUNS if name == sub)
    cfg = _write(tmp_path, "c.json", dict(base, **{key: KEY_VALUES[key]}))
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_read_keys_are_accepted():
    assert sorted(READS) == sorted(KEYS)
    for sub, keys in READS.items():
        doc = {key: KEY_VALUES[key] for key in keys.split()}
        parse_config(doc, sub)


# the flags that once overrode config keys: the document's "engine" and
# the seeds of "perturbations" and "goe" set them now, and every
# subcommand refuses the flags, naming them
REMOVED_FLAGS = {"--engine": "full", "--seed": "9"}
UNREAD_FLAGS = [(sub, flag) for flag in REMOVED_FLAGS for sub in KEYS]


@pytest.mark.parametrize("sub,flag", UNREAD_FLAGS)
def test_unread_flag_exits_1(tmp_path, capsys, sub, flag):
    doc = next(doc for name, doc, _ in SMALL_RUNS if name == sub)
    cfg = _write(tmp_path, "c.json", doc)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 flag, REMOVED_FLAGS[flag], "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not (tmp_path / "o").exists()


PERTURB_DOC = {"L": 4, "J2": 0.02, "n_steps": 60}
NOISY = {"lambda": 0.05}
BAD_SEEDS = [
    ("perturb", dict(PERTURB_DOC, perturbations={"seed": -1}), []),
    ("perturb", dict(PERTURB_DOC, perturbations=dict(NOISY, seed=-1)), []),
    ("perturb", dict(PERTURB_DOC, perturbations=dict(NOISY, seed=1e30)), []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": -5}}, []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": 2**64}}, []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": 2.0**64}}, []),
]


@pytest.mark.parametrize("sub,doc,extra", BAD_SEEDS)
def test_out_of_range_seed_exits_1(tmp_path, capsys, sub, doc, extra):
    # a seed keys a Philox generator, which rejects a negative key with a
    # ValueError; the document's seeds are u64
    cfg = _write(tmp_path, "c.json", doc)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # the ends of the range are accepted
    perturbation_study(tmp_path / "ends", 4, J2=0.02, lam=0.05,
                       noise_seed=0, n_steps=10)
    parse_config({"goe": {"seed": 2**64 - 1}}, "goe-demo")


NO_SCIPY_SCRIPT = """
import json, sys
from darkfilter.cli import main
report = []
for sub, cfg, out, extra in json.loads(sys.argv[1]):
    status = main([sub, "--config", cfg, "--out", out, "--quiet"] + extra)
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    report.append([sub, status, loaded])
print(json.dumps(report))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    assert sorted({sub for sub, _, _ in SMALL_RUNS}) == sorted(KEYS)
    runs = []
    for k, (sub, doc, extra) in enumerate(SMALL_RUNS):
        runs.append([sub, _write(tmp_path, f"c{k}.json", doc),
                     str(tmp_path / f"o{k}"), extra])
    src = os.path.dirname(os.path.dirname(darkfilter.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT,
                          json.dumps(runs)], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert [status for _, status, _ in report] == [0] * len(SMALL_RUNS)
    assert [loaded for _, _, loaded in report] == [[]] * len(SMALL_RUNS)
