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


# the verify walk's tests: its unit tests and the pinned failing lists
VERIFY_TESTS = ("tests/test_codes.py::TestVerifyProtection", "tests/test_verify_golden.py")

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
        "declared-taken-for-measured",
        "codes.py",
        "        d_min = gf2.min_distance(self.generator, dual=dual) if verified else declared",
        "        d_min = declared or gf2.min_distance(self.generator, dual=dual) if verified else declared",
        ("tests/test_codes.py::TestInvariants", "tests/test_codes.py::TestCodeFile"),
    ),
    Mutant(
        "declared-lower-bound-dropped",
        "codes.py",
        "        if declared is not None and d_min < declared:",
        "        if False:",
        ("tests/test_codes.py::TestInvariants", "tests/test_codes.py::TestCodeFile"),
    ),
    Mutant(
        "header-flag-comparison-dropped",
        "codes.py",
        "    if (code.d_min, _FLAGS[code.d_min_verified]) != (d_min, head[4]):",
        "    if code.d_min != d_min:",
        ("tests/test_codes.py::TestCodeFile",),
    ),
    Mutant(
        "systematic-form-check-dropped",
        "codes.py",
        "        if any(g & ident != 1 << i for i, g in enumerate(self.generator.row_words)):",
        "        if False:",
        ("tests/test_codes.py::TestInvariants", "tests/test_codes.py::TestCodeFile"),
    ),
    Mutant(
        "derived-check-identity-dropped",
        "gf2.py",
        "    return [w | 1 << (k + j) for j, w in enumerate(_columns([g >> k for g in words], n - k))]",
        "    return list(_columns([g >> k for g in words], n - k))",
        ("tests/test_codes.py::TestDerivedParityCheck",),
    ),
    Mutant(
        "systematic-shortcut-for-every-generator",
        "gf2.py",
        "    if dual is None and not all(w & ((1 << k) - 1) == 1 << i for i, w in enumerate(words)):",
        "    if False:",
        ("tests/test_gf2.py::TestMinDistance",),
    ),
    Mutant(
        "plan-fill-check-dropped",
        "gf2.py",
        "        if xor_rows_by_tables(self.tables, word):\n"
        '            raise Inconsistent("contradictory equations: no solution exists")\n',
        "",
        ("tests/test_codes.py::TestRepairPlanOracle",),
    ),
    Mutant(
        "plan-step-bit-shifted",
        "gf2.py",
        "        self.steps = tuple((row, 1 << p) for row, p in zip(reduced, pivots))",
        "        self.steps = tuple((row, 2 << p) for row, p in zip(reduced, pivots))",
        ("tests/test_codes.py::TestRepairPlanOracle",),
    ),
    Mutant(
        "unrank-scan-one-too-far",
        "protocol.py",
        "        while (below := math.comb(c, i)) > index:",
        "        while (below := math.comb(c, i)) >= index:",
        ("tests/test_protocol.py::TestFailureModels",),
    ),
    Mutant(
        "encode-tables-drop-partial-group",
        "protocol.py",
        "    parity = gf2._column_tables(code.parity_check.row_words)[: (k + 7) // 8]",
        "    parity = gf2._column_tables(code.parity_check.row_words)[: k // 8]",
        ("tests/test_protocol.py::TestPackedEncode",),
    ),
    Mutant(
        "layout-shift-dropped",
        "protocol.py",
        "    shift = offset if base <= n else 0",
        "    shift = 0",
        ("tests/test_protocol.py::TestSchedule",),
    ),
    Mutant(
        "parity-loss-counted-as-data",
        "protocol.py",
        "        if e >= k:",
        "        if e > k:",
        ("tests/test_protocol.py::TestSchedule", "tests/test_protocol.py::TestRecover"),
    ),
    Mutant(
        "offset-range-check-dropped",
        "protocol.py",
        "    if not 0 <= offset < n:",
        "    if False:",
        ("tests/test_protocol.py::TestRecover",),
    ),
    Mutant(
        "one-block-draw-reads-block-r",
        "protocol.py",
        "            return _unrank(n, t, output(r + 1) % count)",
        "            return _unrank(n, t, output(r) % count)",
        ("tests/test_protocol.py::TestFailureModels",),
    ),
    Mutant(
        "fold-new-kind-first-round-dropped",
        "cli.py",
        "            entry = kinds[kind] = [tail, 0]",
        "            entry = kinds[kind] = [tail, -1]",
        ("tests/test_cli.py::TestReportSummary",),
    ),
    Mutant(
        "fold-kind-without-xor-ops",
        "cli.py",
        "        kind = (report.outcome, report.queries_sent, report.xor_operations, report.transmissions)\n"
        "        entry = kind_of(kind)",
        "        kind = (report.outcome, report.queries_sent, 0, report.transmissions)\n"
        "        entry = kind_of(kind)",
        ("tests/test_cli.py::TestReportSummary",),
    ),
    Mutant(
        "capacity-empty-check-dropped",
        "protocol.py",
        "        self._nonempty_rounds()  # an empty fold has no average\n",
        "",
        ("tests/test_protocol.py::TestRunSimulation",),
    ),
    Mutant(
        "capacity-is-parity-share",
        "protocol.py",
        "        return Fraction(self.sched.n - self.sched.m, self.sched.n)",
        "        return Fraction(self.sched.m, self.sched.n)",
        ("tests/test_protocol.py::TestRunSimulation",),
    ),
    Mutant(
        "walk-depth-t-2-skip-on-one-equal-pair",
        "codes.py",
        "len(set(later)) == len(later)",
        "len(set(later)) >= len(later) - 1",
        VERIFY_TESTS,
    ),
    Mutant(
        "walk-orbit-shift-keeps-one-too-many",
        "codes.py",
        "event[0][-1] + a + event[1] < n]",
        "event[0][-1] + a + event[1] <= n]",
        VERIFY_TESTS,
    ),
    Mutant(
        "walk-last-level-ignores-equal-columns",
        "codes.py",
        "0 in leaves or column in leaves",
        "0 in leaves",
        VERIFY_TESTS,
    ),
    Mutant(
        "cyclic-check-reads-rotated-rows-alone",
        "codes.py",
        "        word = (row << 1 | row >> (n - 1)) & ((1 << n) - 1)",
        "        word = row",
        VERIFY_TESTS,
    ),
    Mutant(
        "cyclic-reduction-skips-a-row",
        "codes.py",
        "        for other, bit in steps:",
        "        for other, bit in steps[1:]:",
        ("tests/test_codes.py::TestCyclicity",),
    ),
    Mutant(
        "zero-sums-pair-may-start-at-the-head",
        "codes.py",
        "                if i > a:",
        "                if i >= a:",
        VERIFY_TESTS,
    ),
    Mutant(
        "zero-sums-table-drops-the-last-position",
        "codes.py",
        "    for pair in itertools.combinations(range(n), 2):",
        "    for pair in itertools.combinations(range(n - 1), 2):",
        VERIFY_TESTS,
    ),
    Mutant(
        "zero-sums-without-the-check",
        "codes.py",
        "            if t > 5 or _independent(cols, pairs, n, t - 1):",
        "            if True:",
        VERIFY_TESTS,
    ),
    Mutant(
        "zero-sums-check-at-t-2",
        "codes.py",
        "_independent(cols, pairs, n, t - 1)",
        "_independent(cols, pairs, n, t - 2)",
        VERIFY_TESTS,
    ),
    Mutant(
        "zero-sums-walk-check-at-t-2",
        "codes.py",
        "next(_failure_events(cols, n, t - 1, top if cyclic else top + 1), None)",
        "next(_failure_events(cols, n, t - 2, top if cyclic else top + 2), None)",
        VERIFY_TESTS,
    ),
    Mutant(
        "pair-table-check-without-shared-sums",
        "codes.py",
        "        and (size < 4 or len(pairs) == math.comb(n, 2))\n",
        "",
        VERIFY_TESTS,
    ),
    Mutant(
        "dual-with-pivots-moved-last",
        "gf2.py",
        "[columns[c] for c in pivots + others]",
        "[columns[c] for c in others + pivots]",
        ("tests/test_gf2.py::TestMinDistance",),
    ),
    Mutant(
        "span-split-drops-a-row",
        "gf2.py",
        "    step = [0, *rows[8:]]",
        "    step = [0, *rows[9:]]",
        ("tests/test_gf2.py::TestMinDistance",),
    ),
    Mutant(
        "span-walk-skips-the-first-block",
        "gf2.py",
        "    for i in range(1 << (len(step) - 1)):",
        "    for i in range(1, 1 << (len(step) - 1)):",
        ("tests/test_gf2.py::TestMinDistance",),
    ),
    Mutant(
        "krawtchouk-back-term-sign-flipped",
        "gf2.py",
        "(n - 2 * j) * a - (n - w + 1) * b",
        "(n - 2 * j) * a + (n - w + 1) * b",
        ("tests/test_gf2.py::TestMinDistance",),
    ),
    Mutant(
        "empty-network-accepted",
        "netmodel.py",
        '        if n < 1:\n            raise ValueError("a network needs at least one connection")\n',
        "",
        ("tests/test_netmodel.py",),
    ),
    Mutant(
        "length-bound-off-by-one",
        "codes.py",
        "        if n > LENGTH_LIMIT:",
        "        if n > LENGTH_LIMIT + 1:",
        ("tests/test_codes.py::TestInvariants", "tests/test_cli.py::TestVerify"),
    ),
    Mutant(
        "columns-read-unreversed",
        "gf2.py",
        "    return tuple(int(text[width - 1 - j :: width][::-1], 2) for j in range(width))",
        "    return tuple(int(text[width - 1 - j :: width], 2) for j in range(width))",
        ("tests/test_gf2.py::TestColumns",),
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
