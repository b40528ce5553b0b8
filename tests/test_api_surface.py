"""The public surface: darkfilter.__all__ lists only names the package uses.

A name in __all__ that no package module reads, beyond its own
definition, is library code that only its tests call.  The names the
benchmark traces by lookup must resolve as well.
"""

import ast
import importlib
import math
import pathlib
import sys

import darkfilter
from darkfilter.filtration import reduced_setup, run_filtration
from darkfilter.spin_model import ChainParams

PACKAGE = pathlib.Path(darkfilter.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _names_read_by_the_package():
    """Identifiers read (not bound) anywhere in the package's modules."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_is_used_by_the_package():
    read = _names_read_by_the_package()
    unused = sorted(name for name in darkfilter.__all__
                    if name != "__version__" and name not in read)
    assert not unused, f"public names no package module uses: {unused}"


def test_all_names_resolve():
    for name in darkfilter.__all__:
        assert hasattr(darkfilter, name), name


def test_benchmark_layer_names_resolve(monkeypatch):
    # a traced benchmark run looks these names up with getattr, so a
    # renamed function would break it without failing any other test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    layers = importlib.import_module("layers")
    names = [*layers.SETUP_FUNCTIONS, *layers.TRACED_METHODS,
             *layers.COUNTS, *layers.UNWRAPPED]
    assert names
    for name in names:
        layer, *path = name.split(".")
        assert layer in layers.LAYERS, name
        obj = importlib.import_module(f"darkfilter.{layer}")
        for attr in path:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_benchmark_documents_pass_the_config_check(monkeypatch):
    from darkfilter.config import goe_options, parse_config, sweep_options
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    parsers = {"scaling-sweep": sweep_options, "goe-demo": goe_options}
    for table in (workloads.WORKLOADS, workloads.SMOKE):
        for work in table.values():
            doc, _ = work.inputs(7)
            parsers.get(work.subcommand,
                        lambda d: parse_config(d, work.subcommand))(doc)


def test_benchmark_step_count_reads_the_trajectory(monkeypatch):
    # a traced benchmark run counts a run's steps from its trajectory's
    # rows (Trajectory.steps), which no other test reads
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    layers = importlib.import_module("layers")
    setup, psi0 = reduced_setup(ChainParams(L=4), math.pi / 4.0, 0.3)
    traj = run_filtration(setup, psi0, 25)
    count = layers.COUNTS["filtration.run_filtration"]
    assert count((setup, psi0, 25), {}, traj) == {"steps": 25}
