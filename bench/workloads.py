"""The benchmark's workloads: the inputs each makes from a seed, the CLI
command that runs it, and the check every command's output must pass.

All three workloads use the paper's [31,21,5] BCH code, ``bch_code(31, 2)``.
The ``tiny`` variants keep every check but shrink the work so the smoke test
runs in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

CSV_HEADER = "round,failed,outcome,queries,xor_ops,transmissions,capacity"


@dataclass(frozen=True)
class Output:
    """What one CLI command left behind."""

    exit_code: int
    stdout: str
    stderr: str
    report: str  # the CSV a simulate command wrote; "" for verify

    def digest(self) -> str:
        """sha256 of the command's result: the CSV for simulate, the failing list for verify."""
        return hashlib.sha256((self.report or self.stdout).encode()).hexdigest()

    def size(self) -> int:
        return len(self.report.encode()) + len(self.stdout.encode()) + len(self.stderr.encode())


def run_cli(cli, argv: list[str], report_path: Path | None = None) -> Output:
    """Run ``npcode <argv>`` in this process, capturing what it prints."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    report = report_path.read_text() if report_path and report_path.exists() else ""
    return Output(code, stdout.getvalue(), stderr.getvalue(), report)


def _fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Simulate:
    """``npcode simulate`` on a generated config; one item is one round."""

    name: str
    n: int
    design_t: int
    k: int
    rounds: int
    failure_model: str  # "none" or "random"
    t: int = 0
    csv_sha256: str | None = None  # pinned only where the bytes do not depend on the seed

    def write_inputs(self, workdir: Path, seed: int) -> None:
        lines = [
            "code_family = bch",
            f"n = {self.n}",
            f"design_t = {self.design_t}",
            f"rounds = {self.rounds}",
            f"failure_model = {self.failure_model}",
            f"seed = {seed}",
        ]
        if self.failure_model == "random":
            lines.append(f"t = {self.t}")
        (workdir / "scenario.cfg").write_text("\n".join(lines) + "\n")

    def prepare(self, cli, workdir: Path) -> None:
        cli.build_code("bch", n=self.n, design_t=self.design_t)

    def report_path(self, workdir: Path) -> Path:
        return workdir / "report.csv"

    def argv(self, workdir: Path) -> list[str]:
        return ["simulate", str(workdir / "scenario.cfg"), "--out", str(self.report_path(workdir))]

    def items(self) -> int:
        return self.rounds

    def counters(self, out: Output) -> dict[str, int]:
        """The paper's repair-cost totals from the report's summary line."""
        fields = dict(
            part.split("=", 1) for part in out.report.splitlines()[-1].split(",")[1:]
        )
        return {"protocol.xor_ops": int(fields["xor_ops"]), "protocol.queries": int(fields["queries"])}

    def check(self, out: Output) -> list[str]:
        """Every row and the summary must match the protocol's exact accounting."""
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}, expected 0: {out.stderr.strip()[:200]}"]
        lines = out.report.splitlines()
        if len(lines) != self.rounds + 2 or lines[0] != CSV_HEADER:
            return [f"report has {len(lines)} lines, expected header, {self.rounds} rows, summary"]
        capacity = _fraction_text(Fraction(self.k, self.n))
        repair_queries = str(self.n - self.t - 1)
        problems = []
        queries = xor_ops = full = no_action = 0
        for index, row in enumerate(lines[1:-1]):
            fields = row.split(",")
            if len(fields) != 7:
                problems.append(f"row {index}: {row!r}")
                continue
            r, failed, outcome, q, x, tx, cap = fields
            lost = set() if failed == "-" else set(failed.split(";"))
            valid = (
                r == str(index)
                and len(lost) == self.t
                and all(c.isdigit() and int(c) < self.n for c in lost)
                and q.isdigit()
                and x.isdigit()
                and tx == str(self.n)
                and cap == capacity
            )
            if valid and outcome == "FullRecovery" and q == repair_queries:
                full += 1
            elif valid and outcome == "NoActionNeeded" and q == "0" and x == "0":
                no_action += 1
            else:
                problems.append(f"row {index}: {row!r}")
                continue
            queries += int(q)
            xor_ops += int(x)
        summary = (
            f"summary,rounds={self.rounds},transmissions={self.rounds * self.n},"
            f"queries={queries},xor_ops={xor_ops},full_recovery={full},"
            f"no_action={no_action},unrecoverable=0,avg_capacity={capacity},"
            "recovery_rate=1/1"
        )
        if lines[-1] != summary:
            problems.append(f"summary {lines[-1]!r}, expected {summary!r}")
        if self.csv_sha256 and out.digest() != self.csv_sha256:
            problems.append(f"report sha256 {out.digest()}, pinned {self.csv_sha256}")
        return problems


@dataclass(frozen=True)
class Verify:
    """``npcode codegen`` then ``npcode verify --t``; one item is one erasure pattern.

    The code is fixed, so the seed does not change this workload's input.
    """

    name: str
    n: int
    design_t: int
    k: int
    d_min: int
    t: int
    failing: int  # unrecoverable t-subsets; at t = d_min this is A_d
    failing_sha256: str | None = None

    def write_inputs(self, workdir: Path, seed: int) -> None:
        pass

    def prepare(self, cli, workdir: Path) -> None:
        out = run_cli(
            cli,
            ["codegen", "--family", "bch", "--n", str(self.n),
             "--design-t", str(self.design_t), "--out", str(workdir / "code.npc")],
        )
        expected = f"{self.n} {self.k} {self.d_min} verified\n"
        if out.exit_code != 0 or out.stdout != expected:
            raise RuntimeError(f"codegen printed {out.stdout!r} (exit {out.exit_code}), expected {expected!r}")

    def report_path(self, workdir: Path) -> None:
        return None

    def argv(self, workdir: Path) -> list[str]:
        return ["verify", str(workdir / "code.npc"), "--t", str(self.t)]

    def items(self) -> int:
        return math.comb(self.n, self.t)

    def counters(self, out: Output) -> dict[str, int]:
        return {"protocol.xor_ops": 0, "protocol.queries": 0}

    def check(self, out: Output) -> list[str]:
        """Exit 1, the summary line, and a sorted list of distinct t-subsets."""
        problems = []
        if out.exit_code != 1:
            problems.append(f"exit code {out.exit_code}, expected 1")
        line = f"failed: {self.failing} of {self.items()} patterns unrecoverable"
        if out.stderr.splitlines() != [line]:
            problems.append(f"stderr {out.stderr.strip()[:200]!r}, expected {line!r}")
        patterns = []
        for row in out.stdout.splitlines():
            parts = row.split(",")
            if not all(p.isdigit() for p in parts):
                problems.append(f"failing pattern {row!r} is not a list of positions")
                continue
            patterns.append(tuple(int(p) for p in parts))
        if len(patterns) != self.failing:
            problems.append(f"{len(patterns)} failing patterns listed, expected {self.failing}")
        if patterns != sorted(set(patterns)):
            problems.append("failing patterns are not distinct and in order")
        if any(len(p) != self.t or list(p) != sorted(set(p)) or p[-1] >= self.n for p in patterns):
            problems.append(f"a failing pattern is not an ascending {self.t}-subset of range({self.n})")
        if self.failing_sha256 and out.digest() != self.failing_sha256:
            problems.append(f"failing-list sha256 {out.digest()}, pinned {self.failing_sha256}")
        return problems


# Rounds per simulate command: enough that the fixed cost of parsing the config
# and constructing the code stays near 1% of the command.
ROUNDS = 5000

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Simulate(
            name="sim-bch31-clean",
            n=31, design_t=2, k=21, rounds=ROUNDS, failure_model="none",
            csv_sha256="9ffa2364dcca2039b6999095699728af6c60d1af79da08e19e3058f97b6b3449",
        ),
        Simulate(
            name="sim-bch31-t2",
            n=31, design_t=2, k=21, rounds=ROUNDS, failure_model="random", t=2,
        ),
        Verify(
            name="verify-bch31-t5",
            n=31, design_t=2, k=21, d_min=5, t=5, failing=186,
            failing_sha256="1b380abd4d1cb72615b89bf2006ce5beeeaf6440b6996459dc29071b9a68c86b",
        ),
    )
}

TINY = {
    "sim-bch31-clean": replace(WORKLOADS["sim-bch31-clean"], rounds=200, csv_sha256=None),
    "sim-bch31-t2": replace(WORKLOADS["sim-bch31-t2"], rounds=200),
    # [15,7,5] at t = 5: C(15, 5) = 3003 patterns, A_5 = 18 of them fail
    "verify-bch31-t5": replace(
        WORKLOADS["verify-bch31-t5"], n=15, k=7, failing=18, failing_sha256=None
    ),
}


def get(name: str, size: str = "full"):
    return (TINY if size == "tiny" else WORKLOADS)[name]
