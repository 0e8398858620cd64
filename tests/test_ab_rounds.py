"""``tests/ab_rounds.py`` runs end to end: this checkout against itself, with
2 pairs of 200 rounds on each simulate workload and 2 pairs of the verify
workload, after the two sides' ``src`` line counts."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_rounds.py"), str(ROOT), "--pairs", "2", "--rounds", "200"],
        capture_output=True, text=True, timeout=60,
    )
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
