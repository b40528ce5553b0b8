"""Config parsing, CSV emission, and the command-line surface."""

import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darkfilter
from darkfilter.cli import SUBCOMMANDS, main
from darkfilter.config import (
    parse_config,
    scan_options,
    sweep_options,
    table1_options,
)
from darkfilter.errors import ValidationError
from darkfilter.experiments import GoeBlock, Perturbations, document_of
from darkfilter.filtration import DEPLETION_FLOOR
from darkfilter.output import BLOCK_ROWS, emit_csv, format_cell, write_metadata

from helpers import rowwise_csv


# ---------------------------------------------------------------- output

def test_format_cell_float_roundtrip():
    for x in (0.1, 1.0 / 3.0, 1e300, 5e-324, -2.5e-17):
        assert float(format_cell(x)) == x
    assert format_cell(None) == ""
    assert format_cell(7) == "7"
    assert format_cell(True) == "1"
    assert format_cell("dark") == "dark"
    with pytest.raises(ValidationError):
        format_cell(float("nan"))
    with pytest.raises(ValidationError):
        format_cell("a,b")


def test_emit_csv_layout(tmp_path):
    path = emit_csv(tmp_path / "t.csv", ("n", "value", "note"),
                    [[0, 1], [0.5, None], ["x", None]])
    body = open(path, "rb").read()
    assert body == b"n,value,note\n0,0.5,x\n1,,\n"
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
    ("mixed", [None, 3, "x", 0.25, False], ["", "3", "x", "0.25", "0"]),
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
    assert [format_cell(c) for c in column] == text


def test_emit_csv_rejects_bad_cells(tmp_path):
    for column in ([1.0, float("inf")], np.array([0.0, np.nan]), ["a,b"],
                   ["two\nlines"], [1 + 2j], ["nul\0"]):
        with pytest.raises(ValidationError):
            emit_csv(tmp_path / "bad.csv", ("x",), [column])
    with pytest.raises(ValidationError, match="NUL"):
        format_cell("a\0b")
    assert not os.path.exists(tmp_path / "bad.csv")
    # a bad cell in the second block, formatted on the worker thread,
    # raises on the caller and still leaves no file
    column = ["x"] * (2 * BLOCK_ROWS)
    column[-1] = "a,b"
    with pytest.raises(ValidationError, match="quoting"):
        emit_csv(tmp_path / "late.csv", ("x",), [column])
    assert not os.path.exists(tmp_path / "late.csv")


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
    values = np.array(near + edges + [-v for v in edges])
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


def _oracle_table(rows):
    """Columns of every kind the writer takes, with out-of-range floats."""
    rng = np.random.Generator(np.random.Philox(key=11))
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-14, 19, rows)
    floats[::7] = 0.0
    floats[3::11] = 1e-300
    strings = np.full(rows, None)
    strings[::3] = rng.standard_normal(rows)[::3].tolist()
    mixed = [[None, 7, "dark", 0.25, True, np.int64(-3)][i % 6]
             for i in range(rows)]
    return [np.arange(rows), floats, None, ["kind%d" % (i % 4)
                                            for i in range(rows)],
            mixed, strings, floats.astype(np.float32),
            rng.integers(0, 2**64 - 1, rows, dtype=np.uint64,
                         endpoint=True)]


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                  BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_emit_csv_matches_rowwise_oracle(tmp_path, rows):
    columns = _oracle_table(rows)
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = emit_csv(tmp_path / "t.csv", header, columns)
    assert open(path, "rb").read() == rowwise_csv(header, columns)


def test_one_block_table_starts_no_thread(tmp_path, monkeypatch):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    emit_csv(tmp_path / "one.csv", ("x",), [np.arange(BLOCK_ROWS, dtype=float)])
    assert started == []
    emit_csv(tmp_path / "two.csv", ("x",),
             [np.arange(BLOCK_ROWS + 1, dtype=float)])
    assert len(started) == 1 and not started[0].is_alive()


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
from darkfilter.filtration import full_setup, run_filtration
from darkfilter.spin_model import ChainParams
setup, psi0 = full_setup(ChainParams(L=4, J2=0.02), math.pi / 4, 0.3)
loaded = "numpy.ma" in sys.modules
run_filtration(setup, psi0, 100)
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

def test_parse_minimal_tar1():
    spec = parse_config({"L": 6, "target": "tar1"})
    assert spec.h_tau == (1, 6)
    assert spec.theta0 == pytest.approx(math.pi / 6.0)
    assert spec.engine == "tower"
    assert spec.n_steps == 5000 and spec.eps == 0.01
    assert spec.params.D == 0.1 and spec.params.J == 1.0


def test_parse_minimal_tar2_odd_chain():
    spec = parse_config({"L": 9, "target": "tar2"})
    assert spec.h_tau == (1, 8)
    assert spec.theta0 == pytest.approx(math.pi / 8.0)


def test_parse_explicit_fields_win():
    spec = parse_config({"L": 6, "target": "tar1", "theta0": 0.4,
                         "h_tau": [1, 6], "n_steps": 123, "eps": 0.05})
    assert spec.theta0 == 0.4 and spec.n_steps == 123 and spec.eps == 0.05


def test_parse_config_accepts_json_text():
    spec = parse_config('{"L": 6, "target": "tar1"}')
    assert spec.params.L == 6


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
def test_parse_config_rejects(doc):
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_unknown_key_is_named():
    with pytest.raises(ValidationError, match="tarqet"):
        parse_config({"L": 6, "target": "tar1", "tarqet": 1})


def test_broken_symmetry_forces_full_engine():
    spec = parse_config({"L": 6, "target": "tar1", "J2": 0.02})
    assert spec.engine == "full"


def test_serialize_parse_roundtrip():
    spec = parse_config({"L": 7, "target": "tar2", "n_steps": 444,
                         "D": 0.2, "J3": 0.1})
    again = parse_config(json.loads(json.dumps(document_of(spec))))
    assert again == spec


def test_sweep_options_defaults_by_variant():
    L_values, rule, eps, variant = sweep_options(
        {"L_values": [8, 9], "variant": "tar1-orthogonal"})
    assert L_values == [8, 9] and rule == "orthogonal"
    assert eps == 0.01 and variant == "tar1-orthogonal"
    _, rule, _, _ = sweep_options({"L_values": [8], "variant": "tar2"})
    assert rule == "tar2-optimal"
    with pytest.raises(ValidationError):
        sweep_options({"variant": "tar2"})
    with pytest.raises(ValidationError):
        sweep_options({"L_values": [8], "variant": "cubic"})


def test_scan_options_default_range():
    assert scan_options({}) == list(range(4, 17))
    assert scan_options({"L_values": [4, 6]}) == [4, 6]


@pytest.mark.parametrize("values", [[], [4, True], [4.0], "4", None],
                         ids=["empty", "bool", "float", "string", "null"])
def test_L_values_checked_alike(values):
    with pytest.raises(ValidationError, match="L_values"):
        scan_options({"L_values": values})
    with pytest.raises(ValidationError, match="L_values"):
        sweep_options({"L_values": values, "variant": "tar2"})


def test_non_object_documents_rejected():
    for doc in ([1], "[1]", 3):
        for parse in (parse_config, sweep_options, scan_options,
                      table1_options):
            with pytest.raises(ValidationError, match="JSON object"):
                parse(doc)


def test_table1_options():
    assert table1_options({}) == pytest.approx(math.pi / 7.0)
    assert table1_options({"theta0": 1}) == 1.0
    with pytest.raises(ValidationError, match="thetaO"):
        table1_options({"thetaO": 0.3})
    for bad in ("abc", True, [0.3], float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="theta0"):
            table1_options({"theta0": bad})


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
    cfg = _write(tmp_path, "c.json",
                 {"L": 5, "target": "tar1", "n_steps": 100})
    rc = main(["filter-run", "--config", cfg, "--out", str(tmp_path / "o"),
               "--engine", "full", "--seed", "77", "--quiet"])
    assert rc == 0
    meta = json.load(open(tmp_path / "o" / "metadata.json"))
    assert meta["engine"] == "full"
    assert meta["spec"]["perturbations"]["seed"] == 77


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
    ("filter-run", {"L": 4, "target": "tar1", "n_steps": 60,
                    "perturbations": {"lambda": 0.05, "seed": 3}},
     ["--engine", "full"]),
    ("dark-states", {"L": 4, "target": "tar1"}, ["--engine", "full"]),
    ("bright-spectrum", {"L": 5, "target": "tar1"}, []),
    ("scaling-sweep", {"L_values": [6, 7], "variant": "tar1-orthogonal"}, []),
    ("table1", {}, []),
    ("perturb", {"L": 4, "J2": 0.02, "n_steps": 60}, []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": 5}}, []),
    ("zeta-scan", {"L_values": [4, 5]}, []),
]

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
    assert sorted(READS) == sorted(SUBCOMMANDS)
    parsers = {"scaling-sweep": sweep_options, "table1": table1_options,
               "zeta-scan": scan_options}
    for sub, keys in READS.items():
        doc = {key: KEY_VALUES[key] for key in keys.split()}
        parsers.get(sub, lambda d: parse_config(d, sub))(doc)


# the subcommands whose config keys a CLI flag overrides (README "Config
# keys"): --engine sets "engine", --seed the seed of "perturbations" or "goe"
FLAG_READERS = {
    "--engine": ("full", "filter-run dark-states bright-spectrum"),
    "--seed": ("9", "filter-run dark-states perturb goe-demo"),
}
UNREAD_FLAGS = [(sub, flag) for flag, (_, subs) in FLAG_READERS.items()
                for sub in SUBCOMMANDS if sub not in subs.split()]


@pytest.mark.parametrize("sub,flag", UNREAD_FLAGS)
def test_unread_flag_exits_1(tmp_path, capsys, sub, flag):
    doc = next(doc for name, doc, _ in SMALL_RUNS if name == sub)
    cfg = _write(tmp_path, "c.json", doc)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 flag, FLAG_READERS[flag][0], "--quiet"]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


PERTURB_DOC = {"L": 4, "J2": 0.02, "n_steps": 60}
NOISY = {"lambda": 0.05}
BAD_SEEDS = [
    ("perturb", PERTURB_DOC, ["--seed", "-1"]),
    ("perturb", dict(PERTURB_DOC, perturbations=dict(NOISY, seed=-1)), []),
    ("perturb", dict(PERTURB_DOC, perturbations=dict(NOISY, seed=1e30)), []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": -5}}, []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": 2**64}}, []),
    ("goe-demo", {"goe": {"D_goe": 8, "seed": 5}}, ["--seed", str(2**64)]),
]


@pytest.mark.parametrize("sub,doc,extra", BAD_SEEDS)
def test_out_of_range_seed_exits_1(tmp_path, capsys, sub, doc, extra):
    # a seed keys a Philox generator, which rejects a negative key with a
    # ValueError; the CLI documents --seed as a u64
    cfg = _write(tmp_path, "c.json", doc)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # the ends of the range are accepted
    Perturbations(lam=0.05, seed=0)
    GoeBlock(seed=2**64 - 1)


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
    assert sorted({sub for sub, _, _ in SMALL_RUNS}) == sorted(SUBCOMMANDS)
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
