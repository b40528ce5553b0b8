"""The public surface: darkfilter.__all__ lists only names the package uses.

A name in __all__ that no package module reads, beyond its own
definition, is library code that only its tests call.
"""

import ast
import pathlib

import darkfilter

PACKAGE = pathlib.Path(darkfilter.__file__).parent


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
