"""One measurement process of the npcode benchmark; started by ``run.py``.

Modes:
  setup  import npcode from the given source tree and construct the
         workload's code (for verify: run ``codegen``); print the time taken.
  numpy  import numpy alone and print the time taken: the reference that
         set-up times are scaled by.
  run    set up, then run the workload's CLI command in this process for
         ``--seconds`` (at least twice), checking every output.
  trace  set up with construction traced, run untraced commands for
         ``--seconds``, then one traced command to time the tracing overhead
         and one more, without the speed probe, whose spans give the
         per-layer metrics.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads


def import_cli(src: Path):
    """Import ``npcode.cli`` from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import npcode
    import npcode.cli

    if not Path(npcode.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"npcode was imported from {npcode.__file__}, not from {src}")
    return npcode.cli


class Commands:
    """Runs the workload's command repeatedly and records each outcome."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.records: list[dict] = []
        self._first_digest: str | None = None

    def run_once(self, sample_speed: bool = True) -> tuple[dict, workloads.Output | None]:
        """Run the command once; sample the host's speed during it unless told not to."""
        wl, report = self.workload, self.workload.report_path(self.workdir)
        if report is not None:
            report.unlink(missing_ok=True)
        gc.collect()
        argv = wl.argv(self.workdir)
        with speed.SpeedSampler(sample_speed) as timer:
            try:
                out = workloads.run_cli(self.cli, argv, report)
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
        digest = out.digest() if out else None
        if out is None:
            problems = [error]
        else:
            problems = wl.check(out)
            if self._first_digest is None:
                self._first_digest = digest
            elif digest != self._first_digest:
                problems.append("output differs from the first run of the same inputs")
        record = {
            "s": timer.net,
            "ref_s": timer.reference_seconds() if sample_speed else None,
            "items": wl.items(),
            "problems": problems,
            "digest": digest,
            "bytes": out.size() if out else 0,
        }
        self.records.append(record)
        return record, out

    def run_for(self, seconds: float, at_least: int) -> list[dict]:
        """Run commands while the next one is expected to end by the deadline."""
        start = len(self.records)
        now = perf_counter()
        deadline, step = now + seconds, 0.0
        while len(self.records) - start < at_least or now + step <= deadline:
            self.run_once()
            step, now = perf_counter() - now, perf_counter()
        return self.records[start:]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "numpy", "run", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    if args.mode == "numpy":
        t0 = perf_counter()
        import numpy

        print(json.dumps({"setup_s": perf_counter() - t0, "numpy": numpy.__version__}))
        return 0
    wl = workloads.get(args.workload, args.size)

    result: dict = {}
    if args.mode != "trace":
        t0 = perf_counter()
        cli = import_cli(args.src)
        wl.prepare(cli, args.workdir)
        result["setup_s"] = perf_counter() - t0
    else:
        cli = import_cli(args.src)
        prep = tracing.Tracer()
        with tracing.installed(prep):
            wl.prepare(cli, args.workdir)

    if args.mode != "setup":
        commands = Commands(cli, wl, args.workdir)
        untraced = commands.run_for(args.seconds, at_least=1 if args.mode == "trace" else 2)
        if args.mode == "trace":
            # One traced command with the speed probe measures the overhead;
            # a second one without it records the spans the metrics come from.
            with tracing.installed(tracing.Tracer()):
                timed, _ = commands.run_once()
            traced_run = tracing.Tracer()
            with tracing.installed(traced_run):
                traced, out = commands.run_once(sample_speed=False)
            metrics = tracing.layer_metrics(prep, traced_run)
            if not traced["problems"]:
                metrics.update(wl.counters(out))
                metrics["cli.output_bytes"] = traced["bytes"]
            untraced_rate = statistics.median(r["items"] / r["ref_s"] for r in untraced)
            metrics["tracing_overhead"] = 1 - (timed["items"] / timed["ref_s"]) / untraced_rate
            result["layer"] = metrics
            traced_run.write(args.workdir / "spans.csv")
        result["commands"] = commands.records
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    numpy = sys.modules.get("numpy")
    result["numpy"] = getattr(numpy, "__version__", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
