"""Named mutants of ``src/npcode`` and a runner that checks the tests kill each.

pytest does not collect this module; ``tests/test_mutants.py`` checks that
each mutant's old text occurs exactly once in ``src``, so a change that
rewrites the code a mutant patches must update or drop that mutant. Run from
any directory, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each run the runner copies the checkout (without ``.git``) to a new
temporary directory and runs pytest there, with ``PYTHONPATH`` at the copy's
``src``. pytest must run inside the copy: ``pyproject.toml``'s
``pythonpath = ["src"]`` puts the ``src`` next to it first on ``sys.path``.
The unpatched copy must pass every test a mutant names; then each mutant is
applied to its own copy, and it is killed when its tests fail there. The
runner prints one kill table, exits 1 if a mutant survives, and writes
nothing in the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "npcode"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/npcode
    old: str  # occurs exactly once in src
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the checkout


MUTANTS = [
    Mutant(
        "family-keys-swapped",
        "cli.py",
        '"bch": Family(codes.bch_code, ("n", "design_t"),',
        '"bch": Family(codes.bch_code, ("design_t", "n"),',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "model-key-check-dropped",
        "cli.py",
        '    _require(f"{cfg.failure_model} failure model", model.keys, model_params)\n',
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "model-unread-check-dropped",
        "cli.py",
        '    _reject_unread(f"{cfg.failure_model} failure model", model.keys, model_params)\n',
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "unread-key-check-dropped",
        "cli.py",
        "        if value is not None and key not in keys:",
        "        if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "needs-check-dropped",
        "cli.py",
        "    if any(given.get(key) is None for key in keys):",
        "    if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "verified-flag-check-dropped",
        "codes.py",
        "        if self.d_min_verified and min(self.k, self.m) > gf2.MIN_DISTANCE_ROW_LIMIT:",
        "        if False:",
        ("tests/test_codes.py::TestInvariants", "tests/test_codes.py::TestCodeFile"),
    ),
]


def _copy() -> Path:
    tmp = Path(tempfile.mkdtemp(prefix="npcode-mutant-"))
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    shutil.copytree(ROOT, tmp / "repo", ignore=ignore)
    return tmp / "repo"


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, float]:
    """pytest's exit code for ``tests`` in a fresh copy, with ``mutant`` applied, and its wall time."""
    copy = _copy()
    try:
        if mutant is not None:
            path = copy / "src" / "npcode" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: its old text does not occur exactly once in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return done.returncode, time.perf_counter() - start
    finally:
        shutil.rmtree(copy.parent)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    code, seconds = run(tests)
    if code != 0:
        print(f"the unpatched copy fails {' '.join(tests)} (pytest exit {code})", file=sys.stderr)
        return 2
    print(f"unpatched: {' '.join(tests)} pass ({seconds:.1f} s)")
    width = max(len(m.name) for m in chosen)
    print(f"{'mutant':<{width}}  result    time  tests")
    survived = 0
    for m in chosen:
        code, seconds = run(m.tests, m)
        # 1: a test failed; 2: collection failed, as when the mutant breaks an import
        result = "killed" if code in (1, 2) else "SURVIVED" if code == 0 else f"exit {code}"
        survived += result != "killed"
        print(f"{m.name:<{width}}  {result:<8} {seconds:5.1f}  {' '.join(m.tests)}")
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
