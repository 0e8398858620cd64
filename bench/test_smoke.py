"""Smoke test of the benchmark harness: each workload runs once at a tiny size,
untraced and traced, through the same correctness checks as the full runs.
No timing is asserted.

    PYTHONPATH=src python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.TINY) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_check(workload, trace):
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_run_without_program_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "sim-bch31-clean", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""


def _tiny_output(name: str, tmp_path: Path):
    from npcode import cli

    wl = workloads.get(name, "tiny")
    wl.write_inputs(tmp_path, 5)
    wl.prepare(cli, tmp_path)
    return wl, workloads.run_cli(cli, wl.argv(tmp_path), wl.report_path(tmp_path))


def test_simulate_check_rejects_changed_reports(tmp_path):
    wl, out = _tiny_output("sim-bch31-t2", tmp_path)
    assert wl.check(out) == []
    row = next(r for r in out.report.splitlines() if "FullRecovery" in r)
    fields = row.split(",")
    for i, value in ((3, "27"), (4, "0"), (5, "30"), (6, "20/31")):
        changed = ",".join(fields[:i] + [value] + fields[i + 1:])
        assert wl.check(replace(out, report=out.report.replace(row, changed))), changed
    assert wl.check(replace(out, exit_code=2))
    pinned = replace(wl, csv_sha256="0" * 64)
    assert pinned.check(out)


def test_verify_check_rejects_changed_failing_lists(tmp_path):
    wl, out = _tiny_output("verify-bch31-t5", tmp_path)
    assert wl.check(out) == []
    lines = out.stdout.splitlines()
    assert wl.check(replace(out, stdout="\n".join(lines[1:]) + "\n"))
    assert wl.check(replace(out, stdout="\n".join(lines[::-1]) + "\n"))
    assert wl.check(replace(out, exit_code=0))


def test_tracer_degrades_when_signatures_change():
    tracer = tracing.Tracer()
    decode = tracing._wrap(tracer, tracing.DECODE, lambda *args: None)
    decode("code", [1, None])  # no argument carries ``.erased``
    rounds = tracing._wrap_rounds(tracer, lambda: [1, 2])  # a list, not a generator
    assert list(rounds()) == [1, 2]
    tracer.wrapped |= {tracing.DECODE, tracing.ROUND}
    metrics = tracing.layer_metrics(tracing.Tracer(), tracer)
    assert metrics[f"{tracing.DECODE}.calls"] == 1
    assert metrics[f"{tracing.ROUND}.samples"] == 2
    assert f"{tracing.DECODE}.distinct_patterns" not in metrics
    assert f"{tracing.DECODE}.pattern_reuse" not in metrics
