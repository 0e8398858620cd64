"""Every name that ``bench/baselines.py`` imports from the package exists.

No test runs that script, so a change that drops or renames public API
would only show up when someone next runs it by hand. This test reads the
script's source with ``ast``, without running or changing it, and checks
each name of its ``from npcode import (...)`` against the package.
"""

import ast
from pathlib import Path

import npcode

BASELINES = Path(__file__).resolve().parent.parent / "bench" / "baselines.py"


def test_every_imported_name_resolves():
    tree = ast.parse(BASELINES.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "npcode" and node.level == 0
        for alias in node.names
    ]
    assert names, "bench/baselines.py no longer imports from npcode"
    missing = [name for name in names if not hasattr(npcode, name)]
    assert not missing, f"npcode has no {', '.join(missing)}"
