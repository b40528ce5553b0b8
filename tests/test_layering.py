"""The package's modules import one way: engines below the spectrum below
the drivers, so an import cycle fails here before it fails at import."""

import ast
import pathlib

import pytest

import darkfilter

PACKAGE = pathlib.Path(darkfilter.__file__).parent

DRIVERS = {"experiments", "config", "output", "cli"}


def _package_imports(module):
    """The darkfilter modules that one module of the package imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("darkfilter."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("darkfilter")):
            base = (node.module or "").removeprefix("darkfilter").lstrip(".")
            # "from . import x" and "from darkfilter import x" name modules
            found.update([base.split(".")[0]] if base
                         else [a.name for a in node.names])
    return found


def test_the_import_reader_sees_every_form():
    assert _package_imports("spectral") == {"errors", "filtration"}
    assert {"errors", "filtration", "output", "spectral"} \
        <= _package_imports("experiments")


@pytest.mark.parametrize("module,forbidden", [
    ("filtration", DRIVERS | {"spectral"}),
    ("spectral", DRIVERS),
])
def test_lower_layers_import_no_higher_one(module, forbidden):
    assert not _package_imports(module) & forbidden


def test_config_imports_only_errors_and_the_drivers():
    # config checks a document against the drivers' tables; the engines
    # and their defaults stay behind the drivers
    assert _package_imports("config") <= {"errors", "experiments"}


def test_cli_imports_only_the_document_and_the_drivers():
    # the CLI reads the document (config), dispatches to one driver
    # (experiments) and reports (errors); the package gives __version__
    assert _package_imports("cli") <= {"config", "errors", "experiments",
                                       "__version__"}
