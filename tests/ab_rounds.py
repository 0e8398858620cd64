"""Time the benchmark's two simulate commands on this checkout against another.

pytest does not collect this module. Run from any directory:

    python tests/ab_rounds.py PARENT_CHECKOUT [--pairs N] [--rounds R] [--seed S]

Both trees' ``src/npcode`` are loaded into this one process, under the
package names ``npcode_parent`` and ``npcode_change``. For each simulate
workload of ``bench/workloads.py`` (the [31,21,5] BCH code with no failures,
and with 2 random failures a round) the script writes the workload's config
once and runs ``npcode simulate`` on it in process, the command that
``bench/worker.py`` times, with the rounds set to R. One untimed command per
side fills the caches first. Each pair then runs both sides once, the parent
first in even pairs and the change first in odd ones. Every report must pass
the workload's own check and be byte-identical between the two sides. The
script prints each side's count of non-blank lines in ``src/npcode`` (the
size figure ROADMAP.md tracks), then each side's median and quartiles in
rounds/s, and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/workloads.py)

SIM_WORKLOADS = ("sim-bch31-clean", "sim-bch31-t2")


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


def run(cli, wl, workdir: Path) -> tuple[float, str]:
    """One simulate command: its wall time and its report, which must pass the check."""
    report = wl.report_path(workdir)
    report.unlink(missing_ok=True)
    gc.collect()
    start = perf_counter()
    out = workloads.run_cli(cli, wl.argv(workdir), report)
    seconds = perf_counter() - start
    problems = wl.check(out)
    if problems:
        raise SystemExit(f"{wl.name}: {problems[0]}")
    return seconds, out.report


def compare(sides: dict, wl, pairs: int, workdir: Path) -> None:
    rates = {name: [] for name in sides}
    won = 0
    for cli in sides.values():  # untimed: fills each side's caches
        run(cli, wl, workdir)
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        reports = {}
        for name in order:
            seconds, reports[name] = run(sides[name], wl, workdir)
            rates[name].append(wl.rounds / seconds)
        if reports["parent"] != reports["change"]:
            raise SystemExit(f"{wl.name}: the two reports differ in pair {i}")
        won += rates["change"][-1] > rates["parent"][-1]
    for name, values in rates.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{wl.name:<16} {name:<6} median {median:>10.0f}  quartiles {q1:>10.0f} {q3:>10.0f}  rounds/s")
    ratio = statistics.median(c / p for c, p in zip(rates["change"], rates["parent"]))
    print(f"{wl.name:<16} change won {won} of {pairs} pairs; pair-median ratio {ratio:.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose src/npcode is the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=workloads.ROUNDS)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.rounds < 1:
        parser.error("need --pairs >= 2 (for quartiles) and --rounds >= 1")
    sides = {"parent": load_cli(args.parent, "npcode_parent"), "change": load_cli(ROOT, "npcode_change")}
    print(f"parent {args.parent.resolve()}, change {ROOT}; {args.pairs} pairs of {args.rounds} rounds, seed {args.seed}")
    lines = {"parent": src_lines(args.parent), "change": src_lines(ROOT)}
    print(f"src non-blank lines: parent {lines['parent']}, change {lines['change']} ({lines['change'] - lines['parent']:+d})")
    with tempfile.TemporaryDirectory(prefix="npcode-ab-") as tmp:
        for name in SIM_WORKLOADS:
            full = workloads.WORKLOADS[name]
            # the pinned CSV digest holds only for the workload's own round count
            wl = dataclasses.replace(full, rounds=args.rounds, csv_sha256=full.csv_sha256 if args.rounds == full.rounds else None)
            workdir = Path(tmp) / name
            workdir.mkdir()
            wl.write_inputs(workdir, args.seed)
            compare(sides, wl, args.pairs, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
