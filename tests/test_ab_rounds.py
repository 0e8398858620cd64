"""``tests/ab_rounds.py`` runs end to end: this checkout against itself, with
2 pairs of 200 rounds on each simulate workload and 2 pairs of the verify
workload, after the two sides' ``src`` line counts; ``--workloads`` runs
only the workloads it names, the verify grid among them."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ab_rounds(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_rounds.py"), str(ROOT), "--pairs", "2", *args],
        capture_output=True, text=True, timeout=60,
    )


def test_against_itself():
    done = ab_rounds("--rounds", "200")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].endswith("; 2 pairs of 200 rounds, seed 11")
    assert re.fullmatch(r"src non-blank lines: parent (\d+), change \1 \(\+0\)", lines[1])
    for name, at, unit in (("sim-bch31-clean", 2, "rounds"), ("sim-bch31-t2", 5, "rounds"), ("verify-bch31-t5", 8, "patterns")):
        side = rf" +median +\d+ +quartiles +\d+ +\d+ +{unit}/s"
        assert re.fullmatch(rf"{name} +parent{side}", lines[at])
        assert re.fullmatch(rf"{name} +change{side}", lines[at + 1])
        assert re.fullmatch(rf"{name} +change won [012] of 2 pairs; pair-median ratio \d+\.\d{{3}}", lines[at + 2])
    assert len(lines) == 11


def test_named_workloads_only():
    done = ab_rounds("--workloads", "verify-bch31-t5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines[2:]] == [["verify-bch31-t5", w] for w in ("parent", "change", "change")]
    done = ab_rounds("--rounds", "200", "--workloads", "verify-bch31-t5,sim-bch31-clean")
    assert done.returncode == 0, done.stderr
    names = [line.split()[0] for line in done.stdout.splitlines()[2:]]
    assert names == ["sim-bch31-clean"] * 3 + ["verify-bch31-t5"] * 3


def test_unknown_workload_is_refused():
    done = ab_rounds("--workloads", "verify-bch31-t5,sim-bch31-t3")
    assert done.returncode == 2
    assert "--workloads takes names of sim-bch31-clean, sim-bch31-t2, verify-bch31-t5, verify-grid, got 'verify-bch31-t5,sim-bch31-t3'" in done.stderr
    assert not done.stdout


def test_verify_grid():
    done = ab_rounds("--workloads", "verify-grid")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    for side, line in zip(("parent", "change"), lines[2:4]):
        assert re.fullmatch(rf"verify-grid +{side} +median +\d+\.\d +quartiles +\d+\.\d +\d+\.\d +ms total", line)
    assert re.fullmatch(r"verify-grid +change won [012] of 2 pairs; pair-median ratio \d+\.\d{3}", lines[4])
    case = r"(hamming-mu[45]|bch-(15-7|31-21|63-57|63-51|31-21-short2)|parity-n100)-t[2-8] \d+\.\d{3}"
    assert re.fullmatch(rf"verify-grid +lowest case ratios: {case}, {case}, {case}", lines[5])
