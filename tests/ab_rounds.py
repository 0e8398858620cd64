"""Time the benchmark's commands on this checkout against another.

pytest does not collect this module. Run from any directory:

    python tests/ab_rounds.py PARENT_CHECKOUT [--pairs N] [--rounds R] [--seed S] [--workloads NAME[,NAME]]
    python tests/ab_rounds.py PARENT_CHECKOUT --workloads verify-grid

Both trees' ``src/npcode`` are loaded into this one process, under the
package names ``npcode_parent`` and ``npcode_change``. Each workload of
``bench/workloads.py`` runs in process the command that ``bench/worker.py``
times: ``npcode simulate`` on the [31,21,5] BCH code with no failures and
with 2 random failures a round, with the rounds set to R, and ``npcode
verify --t 5`` on that code; ``--workloads`` picks some of the three, in
their order here (all by default), or ``verify-grid`` below. Each side gets
its own directory, where the workload writes its inputs and prepares once
(for verify, one ``npcode codegen``). One untimed command per side fills
the caches first. Each pair then runs both sides once, the parent first in
even pairs and the change first in odd ones. Every command must pass the
workload's own check, and the two sides' outputs (exit code, stdout, stderr
and report) must be byte-identical. The script prints each side's count of non-blank lines in
``src/npcode`` (the size figure ROADMAP.md tracks), then per workload each
side's median and quartiles in rounds/s (simulate) or patterns/s (verify),
and the number of pairs the change won.

``verify-grid`` judges a verify change across regimes: eight codes, each
side building its own (Hamming mu = 4 and 5; BCH [15,7], [31,21], [63,57]
and [63,51]; [31,21] shortened by two positions; parity n = 100), each at
every 2 <= t <= 8 within the pattern bound, leaving out Hamming mu = 5 at
t = 6 as tests/test_verify_golden.py does. Each pair calls
``verify_protection`` on every case on both sides, in alternating order,
each call timed with the garbage collector off, and the two sides' failing
patterns must be equal. It prints each side's median and quartiles of the
grid's total time, the pairs the change won, the pair-median ratio (parent
time over change time), and the three cases with the lowest such ratio.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/workloads.py)

TIMED = ("sim-bch31-clean", "sim-bch31-t2", "verify-bch31-t5")
NAMES = (*TIMED, "verify-grid")


def load_cli(checkout: Path, name: str):
    """``npcode.cli`` of ``checkout``, imported as ``<name>.cli``."""
    package = checkout / "src" / "npcode"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def src_lines(checkout: Path) -> int:
    """Non-blank lines in ``checkout``'s ``src/npcode/*.py``."""
    files = (checkout / "src" / "npcode").glob("*.py")
    return sum(1 for path in files for line in path.read_text().splitlines() if line.strip())


def run(cli, wl, workdir: Path) -> tuple[float, workloads.Output]:
    """One command: its wall time and its output, which must pass the check."""
    report = wl.report_path(workdir)
    if report is not None:
        report.unlink(missing_ok=True)
    gc.collect()
    start = perf_counter()
    out = workloads.run_cli(cli, wl.argv(workdir), report)
    seconds = perf_counter() - start
    problems = wl.check(out)
    if problems:
        raise SystemExit(f"{wl.name}: {problems[0]}")
    return seconds, out


def compare(sides: dict, wl, pairs: int, workdirs: dict) -> None:
    unit = "rounds/s" if isinstance(wl, workloads.Simulate) else "patterns/s"
    rates = {name: [] for name in sides}
    won = 0
    for name, cli in sides.items():  # untimed: fills each side's caches
        run(cli, wl, workdirs[name])
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        outputs = {}
        for name in order:
            seconds, outputs[name] = run(sides[name], wl, workdirs[name])
            rates[name].append(wl.items() / seconds)
        if outputs["parent"] != outputs["change"]:
            raise SystemExit(f"{wl.name}: the two sides' outputs differ in pair {i}")
        won += rates["change"][-1] > rates["parent"][-1]
    for name, values in rates.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{wl.name:<16} {name:<6} median {median:>10.0f}  quartiles {q1:>10.0f} {q3:>10.0f}  {unit}")
    ratio = statistics.median(c / p for c, p in zip(rates["change"], rates["parent"]))
    print(f"{wl.name:<16} change won {won} of {pairs} pairs; pair-median ratio {ratio:.3f}")


def grid_cases(codes) -> list[tuple[str, object, int]]:
    """The verify grid's (label, code, t), each code built by ``codes``, one
    side's ``npcode.codes``."""
    built = {
        "hamming-mu4": codes.hamming_code(4),
        "hamming-mu5": codes.hamming_code(5),
        "bch-15-7": codes.bch_code(15, 2),
        "bch-31-21": codes.bch_code(31, 2),
        "bch-63-57": codes.bch_code(63, 1),
        "bch-63-51": codes.bch_code(63, 2),
        "bch-31-21-short2": codes.shorten(codes.bch_code(31, 2), {0, 1}),
        "parity-n100": codes.single_parity_code(100),
    }
    return [
        (f"{name}-t{t}", code, t)
        for name, code in built.items()
        for t in range(2, 9)
        if math.comb(code.n, t) <= codes.PATTERN_ENUMERATION_LIMIT and (name, t) != ("hamming-mu5", 6)
    ]


def compare_grid(sides: dict, pairs: int) -> None:
    cases = {name: grid_cases(cli.codes) for name, cli in sides.items()}
    times = {name: [] for name in sides}  # per pair, each case's seconds
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in sides:
            times[name].append([])
        for j, (label, _, t) in enumerate(cases["parent"]):
            failing = {}
            for name in order:
                code = cases[name][j][1]
                gc.collect()
                gc.disable()
                start = perf_counter()
                failing[name] = sides[name].codes.verify_protection(code, t).failing_patterns
                times[name][-1].append(perf_counter() - start)
                gc.enable()
            if failing["parent"] != failing["change"]:
                raise SystemExit(f"verify-grid: the two sides' failing patterns differ on {label} in pair {i}")
    totals = {name: [sum(pair) * 1e3 for pair in values] for name, values in times.items()}
    for name, values in totals.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{'verify-grid':<16} {name:<6} median {median:>10.1f}  quartiles {q1:>10.1f} {q3:>10.1f}  ms total")
    won = sum(c < p for c, p in zip(totals["change"], totals["parent"]))
    ratio = statistics.median(p / c for c, p in zip(totals["change"], totals["parent"]))
    print(f"{'verify-grid':<16} change won {won} of {pairs} pairs; pair-median ratio {ratio:.3f}")
    by_case = {
        label: statistics.median(p[j] / c[j] for p, c in zip(times["parent"], times["change"]))
        for j, (label, _, _) in enumerate(cases["parent"])
    }
    lowest = sorted(by_case, key=by_case.get)[:3]
    print(f"{'verify-grid':<16} lowest case ratios: " + ", ".join(f"{label} {by_case[label]:.3f}" for label in lowest))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose src/npcode is the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=workloads.ROUNDS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", default=",".join(TIMED), help=f"comma-separated, of {', '.join(NAMES)}")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.rounds < 1:
        parser.error("need --pairs >= 2 (for quartiles) and --rounds >= 1")
    chosen = args.workloads.split(",")
    if set(chosen) - set(NAMES):
        parser.error(f"--workloads takes names of {', '.join(NAMES)}, got {args.workloads!r}")
    chosen = [name for name in NAMES if name in chosen]
    sides = {"parent": load_cli(args.parent, "npcode_parent"), "change": load_cli(ROOT, "npcode_change")}
    print(f"parent {args.parent.resolve()}, change {ROOT}; {args.pairs} pairs of {args.rounds} rounds, seed {args.seed}")
    lines = {"parent": src_lines(args.parent), "change": src_lines(ROOT)}
    print(f"src non-blank lines: parent {lines['parent']}, change {lines['change']} ({lines['change'] - lines['parent']:+d})")
    with tempfile.TemporaryDirectory(prefix="npcode-ab-") as tmp:
        for name in chosen:
            if name == "verify-grid":
                compare_grid(sides, args.pairs)
                continue
            wl = workloads.WORKLOADS[name]
            if isinstance(wl, workloads.Simulate):
                # the pinned CSV digest holds only for the workload's own round count
                pinned = wl.csv_sha256 if args.rounds == wl.rounds else None
                wl = dataclasses.replace(wl, rounds=args.rounds, csv_sha256=pinned)
            workdirs = {side: Path(tmp) / name / side for side in sides}
            for side, workdir in workdirs.items():
                workdir.mkdir(parents=True)
                wl.write_inputs(workdir, args.seed)
                wl.prepare(sides[side], workdir)
            compare(sides, wl, args.pairs, workdirs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
