"""Time the benchmark's commands on this checkout against another.

pytest does not collect this module. Run from any directory:

    python tests/ab_rounds.py PARENT_CHECKOUT [--pairs N] [--rounds R] [--seed S] [--workloads NAME[,NAME]]

Both trees' ``src/npcode`` are loaded into this one process, under the
package names ``npcode_parent`` and ``npcode_change``. Each workload of
``bench/workloads.py`` runs in process the command that ``bench/worker.py``
times: ``npcode simulate`` on the [31,21,5] BCH code with no failures and
with 2 random failures a round, with the rounds set to R, and ``npcode
verify --t 5`` on that code; ``--workloads`` picks some of the three, in
their order here (all by default). Each side gets its own directory, where the
workload writes its inputs and prepares once (for verify, one ``npcode
codegen``). One untimed command per side fills the caches first. Each pair
then runs both sides once, the parent first in even pairs and the change
first in odd ones. Every command must pass the workload's own check, and
the two sides' outputs (exit code, stdout, stderr and report) must be
byte-identical. The script prints each side's count of non-blank lines in
``src/npcode`` (the size figure ROADMAP.md tracks), then per workload each
side's median and quartiles in rounds/s (simulate) or patterns/s (verify),
and the number of pairs the change won.
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

TIMED = ("sim-bch31-clean", "sim-bch31-t2", "verify-bch31-t5")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose src/npcode is the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=workloads.ROUNDS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workloads", default=",".join(TIMED), help=f"comma-separated, of {', '.join(TIMED)}")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.rounds < 1:
        parser.error("need --pairs >= 2 (for quartiles) and --rounds >= 1")
    chosen = args.workloads.split(",")
    if set(chosen) - set(TIMED):
        parser.error(f"--workloads takes names of {', '.join(TIMED)}, got {args.workloads!r}")
    chosen = [name for name in TIMED if name in chosen]
    sides = {"parent": load_cli(args.parent, "npcode_parent"), "change": load_cli(ROOT, "npcode_change")}
    print(f"parent {args.parent.resolve()}, change {ROOT}; {args.pairs} pairs of {args.rounds} rounds, seed {args.seed}")
    lines = {"parent": src_lines(args.parent), "change": src_lines(ROOT)}
    print(f"src non-blank lines: parent {lines['parent']}, change {lines['change']} ({lines['change'] - lines['parent']:+d})")
    with tempfile.TemporaryDirectory(prefix="npcode-ab-") as tmp:
        for name in chosen:
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
