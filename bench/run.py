"""Benchmark of the npcode CLI on the [31,21,5] BCH code.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: npcode is imported from the checkout's
``src/``. The workload's inputs are made from the seed and written under
``.bench_work/<workload>/``. Measurement happens in a fresh worker process
(``worker.py``); set-up is timed in that process and in short-lived probe
processes, each followed by one that times ``import numpy`` alone, all
started one after another.

The last line of stdout is the result: ``correct``, ``attempted`` and
``failed`` count checked CLI commands (the error rate is failed/attempted),
and ``metrics`` holds the end-to-end metrics of BENCHMARK.json with
``--trace 0``, or its per-layer metrics with ``--trace 1``. The line before
it carries the environment, the output digests and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is timed in the worker and in this many extra processes, each
# followed by a process that only imports numpy. The median set-up is scaled
# to a host where that import takes NUMPY_IMPORT_REF_S: the import is most
# of set-up, and its speed drifts with the host's.
SETUP_PROBES = 15
NUMPY_IMPORT_REF_S = 0.07
# Measured processes run with one BLAS/OpenMP thread. npcode calls no BLAS
# routine, but at import OpenBLAS starts a thread per core, which doubled
# the time of a cold ``import numpy`` on a 2-core host.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def call_worker(mode: str, args, workdir: Path) -> dict:
    argv = [
        sys.executable, str(BENCH / "worker.py"), mode,
        "--workload", args.workload, "--size", args.size,
        "--src", str(SRC), "--workdir", str(workdir), "--seconds", str(args.seconds),
    ]
    timeout = WORKER_TIMEOUT_S if mode in ("run", "trace") else PROBE_TIMEOUT_S
    done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                          env=WORKER_ENV)
    if done.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def source_lines() -> int:
    """Non-blank lines of Python under src/."""
    return sum(
        1
        for path in SRC.rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: same checks on a few seconds of work (smoke test)")
    args = parser.parse_args()

    if not (SRC / "npcode" / "__init__.py").is_file():
        print(f"run.py: no npcode source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads.get(args.workload, args.size).write_inputs(workdir, args.seed)

    try:
        result = call_worker("trace" if args.trace else "run", args, workdir)
        setups, imports = [], []
        if not args.trace:
            setups.append(result["setup_s"])
            for _ in range(SETUP_PROBES):
                setups.append(call_worker("setup", args, workdir)["setup_s"])
                imports.append(call_worker("numpy", args, workdir)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    commands = result["commands"]
    failed = [c for c in commands if c["problems"]]
    if args.trace:
        measured = result["layer"]
    else:
        measured = {
            "items_per_s": statistics.median(c["items"] / c["ref_s"] for c in commands),
            "setup_s": statistics.median(setups) * NUMPY_IMPORT_REF_S / statistics.median(imports),
            "peak_rss_mib": result["peak_rss_mib"],
        }
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in measured
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "commands": len(commands),
        "items_per_command": commands[0]["items"],
        "command_s": [round(c["s"], 6) for c in commands],
        "wall_items_per_s": statistics.median(c["items"] / c["s"] for c in commands),
        "wall_setup_s": statistics.median(setups) if setups else None,
        "setup_s": [round(s, 6) for s in setups],
        "numpy_import_s": [round(s, 6) for s in imports],
        "output_sha256": sorted({c["digest"] for c in commands if c["digest"]}),
        "problems": [p for c in failed for p in c["problems"]][:10],
        "absent": [m["name"] for m in wanted if m["name"] not in measured],
        "env": {
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "src_nonblank_lines": source_lines(),
        },
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
