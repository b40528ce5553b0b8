"""The benchmark's workloads, run in-process: their output checks hold.

perfbench/workloads.py declares each workload's config document and
reference values; a benchmark run whose artifacts miss them is
incorrect.  Running the same documents here through cli.main makes such
a change fail the tests first.  perfbench/ is only read.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

import darkfilter
from darkfilter.cli import main

PERFBENCH = pathlib.Path(darkfilter.__file__).parents[2] / "perfbench"
SEED = 23       # the benchmark's default seed (perfbench/run.py --seed)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # the dataclass looks itself up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_output_checks(name, tmp_path):
    workload = WORKLOADS[name]
    doc, expected = workload.inputs(SEED)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([workload.subcommand, "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    assert workload.check(str(out), expected) == []
