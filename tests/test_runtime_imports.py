"""The runtime has no dependencies: every import in ``src/npcode`` is of the
standard library or of the package itself.

The test reads each module's source with ``ast``, so an import inside a
function or behind a branch counts as much as one at the top. The standard
library's names come from ``sys.stdlib_module_names`` (Python >= 3.10).
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "npcode"
MODULES = sorted(SRC.glob("*.py"))


def import_roots(tree):
    """The top-level package of every import in ``tree``; a relative import is the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "npcode" if node.level else node.module.split(".")[0]


def test_every_module_is_read():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "codes.py", "gf2.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_npcode(path):
    roots = set(import_roots(ast.parse(path.read_text())))
    assert roots, f"{path.name} imports nothing"
    outside = sorted(roots - set(sys.stdlib_module_names) - {"npcode"})
    assert not outside, f"{path.name} imports {', '.join(outside)}"
