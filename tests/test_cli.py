import argparse
import collections
import hashlib
import io
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from npcode import cli, codes, gf2, netmodel, protocol
from npcode.cli import ConfigError, build_code, main, make_parser, parse_config, render_report

PARITY_CONFIG = """\
# five connections, one parity, no failures
code_family = parity
n = 5
rounds = 10
failure_model = none
seed = 1
"""

HAMMING_RANDOM_CONFIG = """\
code_family = hamming
mu = 3
rounds = 25
failure_model = random
t = 2
seed = 1
"""

# sha256 of the simulate report for each config; a refactor of the round
# path must keep every byte
GOLDEN_REPORTS = {
    "hamming-random-t2": (
        HAMMING_RANDOM_CONFIG,
        "1fdd8db4718e8e6e154ae6beb9daa622f67e25a6fa555447021c6f7da54f8aac",
    ),
    "parity-fixed": (
        "code_family = parity\nn = 5\nrounds = 5\nfailure_model = fixed\nfailed = 2\n",
        "34d8b3428ab5eab02c8bf117bab2bdedccc9bbe0dc5b96b4ae59df95d366b3c8",
    ),
    "parity-all-unrecoverable": (
        "code_family = parity\nn = 6\nrounds = 30\nfailure_model = random\nt = 2\nseed = 4\n",
        "1856df10494f0e81a38dd9e041c538f62976637fdf093bc1202537e8f9e075d2",
    ),
    "bch15-random-t5": (
        "code_family = bch\nn = 15\ndesign_t = 2\nrounds = 60\n"
        "failure_model = random\nt = 5\nseed = 9\n",
        "db3ddcfe1f68ed360fb74e34016d9044ec1f49b71c89792fe23e8b12ccac6f13",
    ),
}


def unbuildable(*args):
    """Stands in for ``codes._build`` where a code must not be built."""
    raise AssertionError("a code past the length bound was built")


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCodegen:
    def test_parity_summary_and_file(self, tmp_path, capsys):
        out = tmp_path / "parity.npc"
        rc = main(["codegen", "--family", "parity", "--n", "5", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "5 4 2 verified"
        code = codes.parse_code_file(out.read_text())
        assert (code.n, code.k, code.d_min) == (5, 4, 2)

    def test_hamming_summary(self, tmp_path, capsys):
        out = tmp_path / "h.npc"
        rc = main(["codegen", "--family", "hamming", "--mu", "3", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "7 4 3 verified"

    def test_bch63_verified(self, tmp_path, capsys):
        out = tmp_path / "b.npc"
        rc = main(["codegen", "--family", "bch", "--n", "63", "--design-t", "2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "63 51 5 verified"
        code = codes.parse_code_file(out.read_text())
        assert (code.n, code.k, code.d_min, code.d_min_verified) == (63, 51, 5, True)

    def test_runtime_does_not_import_numpy(self, tmp_path):
        # Building and measuring a code and writing its file run in pure
        # Python, in a fresh interpreter that sees only this checkout's src/.
        out = str(tmp_path / "b.npc")
        script = (
            "import sys\n"
            "import npcode.cli\n"
            "from npcode import codes\n"
            "codes.bch_code(31, 2)\n"
            f"assert npcode.cli.main(['codegen', '--family', 'bch', '--n', '31', '--design-t', '2', '--out', {out!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "31 21 5 verified"

    def test_invalid_length_fails(self, tmp_path, capsys):
        rc = main(["codegen", "--family", "parity", "--n", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_oversize_n_exits_2(self, tmp_path, capsys):
        # 2**64 does not fit an index, so this fails before any allocation
        rc = main(["codegen", "--family", "parity", "--n", str(2**64), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    def test_parity_past_the_length_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # the build is stubbed out, so a missing bound fails the test
        # instead of building n^2 bits
        monkeypatch.setattr(codes, "_build", unbuildable)
        n = codes.PARITY_LENGTH_LIMIT + 1
        rc = main(["codegen", "--family", "parity", "--n", str(n), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    def test_missing_family_parameter(self, tmp_path, capsys):
        rc = main(["codegen", "--family", "bch", "--n", "15", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: the bch family needs n and design_t\n"

    def test_unread_parameter_exits_2(self, tmp_path, capsys):
        # the parity family reads n alone; codegen and simulate share the check
        out = tmp_path / "x"
        rc = main(["codegen", "--family", "parity", "--n", "5", "--design-t", "9", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: the parity family does not read design_t\n"
        assert not out.exists()
        with pytest.raises(ConfigError, match="the hamming family does not read n"):
            build_code("hamming", mu=3, n=7)

    def test_family_choices_are_the_table(self, capsys):
        # codegen builds every family that has a default file name
        for name, row in cli.FAMILIES.items():
            if row.codegen_out:
                assert make_parser().parse_args(["codegen", "--family", name]).family == name
            else:
                with pytest.raises(SystemExit):
                    make_parser().parse_args(["codegen", "--family", name])

    @pytest.mark.parametrize(
        "params",
        [["parity", "--n", "5"]]
        + [["hamming", "--mu", str(mu)] for mu in range(2, 7)]
        + [["bch", "--n", str(n), "--design-t", str(t)] for n in (7, 15, 31, 63) for t in (1, 2)],
        ids=" ".join,
    )
    def test_written_file_loads(self, tmp_path, capsys, params):
        out = tmp_path / "c.npc"
        assert main(["codegen", "--family", *params, "--out", str(out)]) == 0
        n, k, d_min, flag = capsys.readouterr().out.split()
        code = codes.parse_code_file(out.read_text())
        assert (code.n, code.k, code.d_min) == (int(n), int(k), int(d_min))
        assert code.d_min_verified == (flag == "verified")

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["codegen", "--family", "parity", "--n", "4"])
        assert rc == 0
        assert (tmp_path / "parity-n4.npc").exists()

    @pytest.mark.parametrize(
        "params, name",
        [(["hamming", "--mu", "3"], "hamming-mu3.npc"), (["bch", "--n", "15", "--design-t", "2"], "bch-n15-t2.npc")],
    )
    def test_default_output_name_per_family(self, tmp_path, monkeypatch, capsys, params, name):
        monkeypatch.chdir(tmp_path)
        assert main(["codegen", "--family", *params]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestVerify:
    def make_code_file(self, tmp_path, family, **params):
        args = ["codegen", "--family", family]
        for key, value in params.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        out = tmp_path / "code.npc"
        args += ["--out", str(out)]
        assert main(args) == 0
        return out

    def test_hamming_two_erasures_ok(self, tmp_path, capsys):
        path = self.make_code_file(tmp_path, "hamming", mu=3)
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "2"]) == 0
        assert capsys.readouterr().out == ""

    def test_hamming_three_erasures_fails(self, tmp_path, capsys):
        path = self.make_code_file(tmp_path, "hamming", mu=3)
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "3"]) == 1
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 7
        assert "0,1,2" in out_lines

    def test_parity_single_erasure_ok(self, tmp_path):
        path = self.make_code_file(tmp_path, "parity", n=5)
        assert main(["verify", str(path), "--t", "1"]) == 0

    def test_agrees_with_library(self, tmp_path, capsys):
        # [7,4,3] is walked in full; [31,21,5] is cyclic, walked by orbit
        for family, params, ts in [
            ("hamming", {"mu": 3}, (1, 2, 3, 4)),
            ("bch", {"n": 31, "design_t": 2}, (5, 6)),
        ]:
            path = self.make_code_file(tmp_path, family, **params)
            code = codes.parse_code_file(path.read_text())
            capsys.readouterr()
            for t in ts:
                rc = main(["verify", str(path), "--t", str(t)])
                captured = capsys.readouterr()
                report = codes.verify_protection(code, t)
                assert (rc == 0) == report.recoverable
                got = [
                    tuple(int(x) for x in line.split(","))
                    for line in captured.out.splitlines()
                ]
                assert got == list(report.failing_patterns)

    def test_false_distance_claim_exits_2(self, tmp_path, capsys):
        # the [7,4,3] generator under a header that claims d_min = 5
        path = self.make_code_file(tmp_path, "hamming", mu=3)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["NPC 7 4 5 verified"] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_non_ascii_digits_exit_2(self, tmp_path, capsys):
        # int() reads any Unicode digit, so the header check must ask for ASCII
        path = tmp_path / "digits.npc"
        path.write_text("NPC \u0663 2 2 verified\n2 3\n101\n011\n")
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.npc"
        bad.write_text("not a code file\n")
        assert main(["verify", str(bad), "--t", "1"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.npc"), "--t", "1"]) == 2

    def test_bch31_t5_failing_list_pinned(self, tmp_path, capsys):
        # the benchmark's verify-bch31-t5 command: its 186 failing patterns
        # are the supports of the weight-5 codewords, listed byte for byte
        path = self.make_code_file(tmp_path, "bch", n=31, design_t=2)
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "failed: 186 of 169911 patterns unrecoverable\n"
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "1b380abd4d1cb72615b89bf2006ce5beeeaf6440b6996459dc29071b9a68c86b"
        )

    def test_pattern_bound_exits_2(self, tmp_path):
        path = self.make_code_file(tmp_path, "bch", n=63, design_t=1)
        assert main(["verify", str(path), "--t", "31"]) == 2

    @pytest.mark.parametrize("family, params, t", [("hamming", {"mu": 6}, 64), ("bch", {"n": 63, "design_t": 2}, 5)])
    def test_bounds_are_checked_before_any_line(self, tmp_path, capsys, family, params, t):
        # t past n, and C(n, t) past the enumeration bound, exit 2 before
        # the failures stream starts
        path = self.make_code_file(tmp_path, family, **params)
        capsys.readouterr()
        assert main(["verify", str(path), "--t", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        used = []
        parse = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda self, *a: used.append(self) or parse(self, *a))
        path = self.make_code_file(tmp_path, "parity", n=5)
        assert main(["verify", str(path), "--t", "1"]) == 0
        assert main(["verify", str(path), "--t", "1"]) == 0
        assert len(used) == 3 and all(p is used[0] for p in used)

    @pytest.mark.parametrize("bad", [["verify", "{path}"], ["verify", "{path}", "--t", "x"], ["nope"]])
    def test_usage_error_leaves_the_parser_whole(self, tmp_path, capsys, bad):
        # the parser is shared between calls, so a call that argparse ends
        # must leave nothing behind for the next one
        path = self.make_code_file(tmp_path, "hamming", mu=3)
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "3"]) == 1
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([arg.format(path=path) for arg in bad])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["verify", str(path), "--t", "3"]) == 1
        assert capsys.readouterr() == expected


class TestConfigParsing:
    @pytest.mark.parametrize(
        "args",
        [
            ["codegen", "--family", "parity", "--n", "1_0"],
            ["codegen", "--family", "hamming", "--mu", "\uff13"],
            ["codegen", "--family", "bch", "--n", "+7", "--design-t", "1"],
            ["verify", "{path}", "--t", "+1"],
            ["verify", "{path}", "--t", "\u0662"],
        ],
        ids=["underscore", "fullwidth-digit", "plus", "verify-plus", "verify-arabic-indic-digit"],
    )
    def test_integer_flags_read_like_config_integers(self, tmp_path, monkeypatch, capsys, args):
        # int() alone would take each of these; a config's integers do not
        path = tmp_path / "code.npc"
        path.write_text(codes.format_code_file(codes.hamming_code(3)))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(path=path) for arg in args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid integer value" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["code.npc"]

    def test_full_roundtrip(self):
        cfg = parse_config(PARITY_CONFIG)
        assert cfg.code_family == "parity"
        assert cfg.n == 5 and cfg.rounds == 10 and cfg.seed == 1
        assert cfg.failure_model == "none"

    def test_fixed_failures_list(self):
        cfg = parse_config("code_family = parity\nn = 5\nrounds = 2\nfailure_model = fixed\nfailed = 1,3\n")
        assert cfg.failed == (1, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "n = 5\n",  # missing family
            "code_family = parity\nwat = 1\n",
            "code_family = parity\nn = x\n",
            "code_family = parity\nn = 5\nn = 6\n",
            "code_family = parity\nrounds = 0\n",
            "code_family = parity\nfailure_model = sometimes\n",
            "code_family = golay\nn = 5\n",
            "code_family = parity\njust a line\n",
            # int() reads each of these; a config, like a code file, takes ASCII digits only
            "code_family = parity\nn = \uff15\n",
            "code_family = parity\nn = \u0663\n",
            "code_family = parity\nrounds = 1_000\n",
            "code_family = parity\nt = +3\n",
            "code_family = parity\nseed = -\n",
            "code_family = parity\nfailed = 1, \u0663\n",
            "code_family = parity\nfailed = 1_0\n",
            "code_family = parity\nfailed = +1\n",
            # an empty entry is not a connection
            "code_family = parity\nfailed = 1,,2\n",
            "code_family = parity\nfailed = 1,\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)


class TestSimulate:
    def test_parity_footer_capacity(self, tmp_path):
        cfg = write_config(tmp_path, PARITY_CONFIG)
        out = tmp_path / "report.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "round,failed,outcome,queries,xor_ops,transmissions,capacity"
        assert len(lines) == 12  # header + 10 rounds + summary
        assert "avg_capacity=4/5" in lines[-1]
        assert "transmissions=50" in lines[-1]

    def test_hamming_random_outcomes_all_recoverable(self, tmp_path):
        cfg = write_config(tmp_path, HAMMING_RANDOM_CONFIG)
        out = tmp_path / "report.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        for line in lines[1:-1]:
            outcome = line.split(",")[2]
            assert outcome in ("FullRecovery", "NoActionNeeded")
        assert "unrecoverable=0" in lines[-1]
        assert "recovery_rate=1/1" in lines[-1]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, HAMMING_RANDOM_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_sum_to_footer(self, tmp_path):
        cfg = write_config(tmp_path, HAMMING_RANDOM_CONFIG)
        out = tmp_path / "report.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:-1]]
        footer = dict(part.split("=") for part in lines[-1].split(",")[1:])
        assert sum(int(r[3]) for r in rows) == int(footer["queries"])
        assert sum(int(r[4]) for r in rows) == int(footer["xor_ops"])
        assert sum(int(r[5]) for r in rows) == int(footer["transmissions"])

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PARITY_CONFIG)
        assert main(["simulate", str(cfg)]) == 0
        assert "avg_capacity=4/5" in capsys.readouterr().out

    def test_out_key_in_config(self, tmp_path):
        target = tmp_path / "from-config.csv"
        cfg = write_config(tmp_path, PARITY_CONFIG + f"out = {target}\n")
        assert main(["simulate", str(cfg)]) == 0
        assert target.exists()

    def test_fixed_failure_scenario(self, tmp_path):
        text = "code_family = parity\nn = 5\nrounds = 5\nfailure_model = fixed\nfailed = 2\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "r.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(line.split(",")[1] == "2" for line in lines[1:-1])
        # round 2 schedules connection 2 as parity: no action needed there
        outcomes = [line.split(",")[2] for line in lines[1:-1]]
        assert outcomes.count("NoActionNeeded") == 1
        assert outcomes.count("FullRecovery") == 4

    def test_rounds_zero_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "code_family = parity\nn = 5\nrounds = 0\n")
        assert main(["simulate", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_oversize_n_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"code_family = parity\nn = {2**64}\nrounds = 2\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_parity_past_the_length_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(codes, "_build", unbuildable)
        n = codes.PARITY_LENGTH_LIMIT + 1
        cfg = write_config(tmp_path, f"code_family = parity\nn = {n}\nrounds = 2\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "r.csv").exists()

    def test_a_round_that_raises_ends_the_run_with_an_incomplete_report(self, tmp_path, capsys, monkeypatch):
        # the third repair plan fills a word that H rejects: the command
        # exits 2 with the error, and the report holds the header and the
        # rows of the rounds before, with no summary line
        cfg = write_config(tmp_path, HAMMING_RANDOM_CONFIG)
        full = tmp_path / "full.csv"
        assert main(["simulate", str(cfg), "--out", str(full)]) == 0
        lines = full.read_text().splitlines(keepends=True)
        planned = [i for i, line in enumerate(lines[1:-1], 1) if ",NoActionNeeded," not in line]

        def inconsistent(word):
            raise gf2.Inconsistent("contradictory equations: no solution exists")

        plans = []
        repair_plan = codes.repair_plan

        def third_plan_broken(rows, erased):
            plans.append(erased)
            return types.SimpleNamespace(apply=inconsistent) if len(plans) == 3 else repair_plan(rows, erased)

        monkeypatch.setattr(codes, "repair_plan", third_plan_broken)
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: contradictory equations: no solution exists\n")
        assert len(plans) == 3 and planned[2] < len(lines) - 1
        assert out.read_text() == "".join(lines[: planned[2]])

    def test_rerun_with_a_fresh_code_adds_no_plans(self, tmp_path):
        # each command builds its own code object; plans are keyed by the
        # code's content, so the second command finds every plan it needs
        cfg = write_config(tmp_path, GOLDEN_REPORTS["bch15-random-t5"][0])
        codes.repair_plan.cache_clear()
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        first = codes.repair_plan.cache_info()
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        second = codes.repair_plan.cache_info()
        assert first.currsize > 0
        assert (second.currsize, second.misses) == (first.currsize, first.misses)
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_bad_fixed_index_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "code_family = parity\nn = 5\nrounds = 1\nfailure_model = fixed\nfailed = 9\n",
        )
        assert main(["simulate", str(cfg)]) == 2

    def test_repeated_fixed_connection_exits_2(self, tmp_path, capsys):
        text = "code_family = parity\nn = 5\nrounds = 1\nfailure_model = fixed\nfailed = 1,3,1\n"
        with pytest.raises(ConfigError, match="connection 1 more than once"):
            parse_config(text)
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: key 'failed' lists connection 1")
        assert not out.exists()

    def test_bad_config_writes_no_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "code_family = parity\nn = 5\nrounds = 1\nfailure_model = fixed\nfailed = 9\n",
        )
        out = tmp_path / "r.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_seed_exits_2_and_writes_no_report(self, tmp_path, capsys):
        text = HAMMING_RANDOM_CONFIG.replace("seed = 1", "seed = -1")
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            parse_config(text)
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", [8, -1])
    def test_t_outside_the_links_exits_2_and_writes_no_report(self, tmp_path, capsys, t):
        # the failure model rejects t outside [0, n] before the report opens
        text = HAMMING_RANDOM_CONFIG.replace("t = 2", f"t = {t}")
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: t must be in [0, 7], got {t}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (HAMMING_RANDOM_CONFIG.replace("t = 2\n", ""), "the random failure model needs t"),
            ("code_family = parity\nn = 5\nrounds = 3\nfailure_model = fixed\n", "the fixed failure model needs failed"),
        ],
    )
    def test_missing_model_key_exits_2_and_writes_no_report(self, tmp_path, capsys, text, message):
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_explicit_t_zero_runs(self, tmp_path):
        text = HAMMING_RANDOM_CONFIG.replace("t = 2", "t = 0").replace("rounds = 25", "rounds = 3")
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        assert [row.split(",")[1:3] for row in out.read_text().splitlines()[1:-1]] == [["-", "NoActionNeeded"]] * 3

    @pytest.mark.parametrize(
        "text, message",
        [
            (PARITY_CONFIG + "mu = 3\n", "the parity family does not read mu"),
            (PARITY_CONFIG + "t = 9\n", "the none failure model does not read t"),
            (HAMMING_RANDOM_CONFIG + "failed = 1,2\n", "the random failure model does not read failed"),
        ],
    )
    def test_unread_key_exits_2_and_writes_no_report(self, tmp_path, capsys, text, message):
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("code_family = parity\nn = 1\nmu = 3\n", "a parity code needs n >= 2 connections, got 1"),
            ("code_family = parity\nfailure_model = random\n", "the parity family needs n"),
            ("code_family = golay\nmu = 3\nfailure_model = random\n", "unknown code family 'golay'"),
            (
                "code_family = parity\nn = 5\nfailure_model = fixed\nfailed = 9\nt = 3\n",
                "failed connection 9 out of range [0, 5)",
            ),
            (HAMMING_RANDOM_CONFIG.replace("t = 2", "t = 8") + "failed = 1\n", "t must be in [0, 7], got 8"),
        ],
    )
    def test_a_rejected_build_keeps_its_message(self, tmp_path, capsys, text, message):
        # a failure model's keys are checked once the code is built, and
        # unread keys once every build is done, so a config that a build
        # rejects gets the build's message
        assert main(["simulate", str(write_config(tmp_path, text))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_streams_rows(self):
        code = codes.hamming_code(3)
        sched = protocol.build_schedule(code.n, code.m, 20)
        records = protocol.simulate_rounds(
            netmodel.Network.direct(code.n), code, sched,
            protocol.random_failures(code.n, 2, 1), 20, seed=1,
        )
        out = io.StringIO()

        def pulled():
            for rec in records:
                if rec.index > 0:
                    # row i-1 is written before record i is pulled
                    assert out.getvalue().splitlines()[-1].startswith(f"{rec.index - 1},")
                yield rec

        render_report(pulled(), sched, out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 22  # header + 20 rounds + summary
        assert lines[-1].startswith("summary,rounds=20,")

    def test_code_file_family(self, tmp_path):
        code_path = tmp_path / "c.npc"
        assert main(["codegen", "--family", "hamming", "--mu", "3", "--out", str(code_path)]) == 0
        cfg = write_config(
            tmp_path,
            f"code_family = file\ncode_file = {code_path}\nrounds = 7\nfailure_model = none\n",
        )
        out = tmp_path / "r.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert "avg_capacity=4/7" in out.read_text().splitlines()[-1]

    def test_code_file_relative_to_config(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        assert main(["codegen", "--family", "hamming", "--mu", "3", "--out", str(sub / "h.npc")]) == 0
        write_config(
            sub, "code_family = file\ncode_file = h.npc\nrounds = 7\nfailure_model = none\n", "s.cfg"
        )
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["simulate", "sub/s.cfg", "--out", str(out)]) == 0
        assert "avg_capacity=4/7" in out.read_text().splitlines()[-1]

    def test_relative_out_from_working_directory(self, tmp_path, monkeypatch):
        # a relative out in a config is opened from the working directory,
        # while a relative code_file beside it is read from the config's
        sub = tmp_path / "sub"
        sub.mkdir()
        assert main(["codegen", "--family", "hamming", "--mu", "3", "--out", str(sub / "h.npc")]) == 0
        text = "code_family = file\ncode_file = h.npc\nrounds = 7\nfailure_model = none\nout = r.csv\n"
        write_config(sub, text, "s.cfg")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "sub/s.cfg"]) == 0
        assert "avg_capacity=4/7" in (tmp_path / "r.csv").read_text().splitlines()[-1]
        assert not (sub / "r.csv").exists()

    @pytest.mark.parametrize(
        "name", ["hamming-random-t2", "parity-all-unrecoverable", "bch15-random-t5"]
    )
    def test_random_rows_replay_alone(self, tmp_path, name):
        # each row against a fresh failure model called at that round alone,
        # decoded by the uncached solve over the layout's erased coordinates
        text, _ = GOLDEN_REPORTS[name]
        cfg = parse_config(text)
        code = build_code(cfg.code_family, n=cfg.n, mu=cfg.mu, design_t=cfg.design_t)
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        n, k, t = code.n, code.k, cfg.t
        sched = protocol.Schedule(n, code.m, cfg.rounds)
        capacity = Fraction(k, n)
        rows = out.read_text().splitlines()[1:-1]
        assert len(rows) == cfg.rounds
        for r, row in enumerate(rows):
            failed = protocol.random_failures(n, t, cfg.seed)(r)
            assert len(failed) == t
            conn_of = protocol.connection_of_coordinate(sched, r)
            erased = [j for j, c in enumerate(conn_of) if c in failed]
            if all(j >= k for j in erased):
                outcome, queries, ops = "NoActionNeeded", 0, 0
            else:
                queries = n - 1 if code.m == 1 and t == 1 else max(0, n - t - 1)
                try:
                    _, ops = gf2.solve_with_cost(code.parity_check.row_words, erased, 0)
                    outcome = "FullRecovery"
                except gf2.NoUniqueSolution:
                    outcome, ops = "Unrecoverable", 0
            lost = ";".join(str(c) for c in sorted(failed)) or "-"
            assert row == (
                f"{r},{lost},{outcome},{queries},{ops},{n},"
                f"{capacity.numerator}/{capacity.denominator}"
            )

    def test_failed_texts_kept_bounded(self, tmp_path, monkeypatch):
        # a report that outgrows its kept failed-set texts writes the same bytes
        cfg = write_config(tmp_path, GOLDEN_REPORTS["bch15-random-t5"][0])
        full, bounded = tmp_path / "full.csv", tmp_path / "bounded.csv"
        assert main(["simulate", str(cfg), "--out", str(full)]) == 0
        monkeypatch.setattr(cli, "FAILED_TEXTS_KEPT", 2)
        assert main(["simulate", str(cfg), "--out", str(bounded)]) == 0
        assert bounded.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_bytes_pinned(self, tmp_path, name):
        text, sha256 = GOLDEN_REPORTS[name]
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# every golden config, plus a schedule shorter than one rotation (rounds < n)
SUMMARY_CONFIGS = {
    **{name: text for name, (text, _) in GOLDEN_REPORTS.items()},
    "bch15-short": "code_family = bch\nn = 15\ndesign_t = 2\nrounds = 7\nfailure_model = random\nt = 3\nseed = 2\n",
}


def simulation_inputs(text):
    """The schedule and a fresh records stream of a config, as ``simulate`` builds them."""
    cfg = parse_config(text)
    code = build_code(cfg.code_family, **{key: getattr(cfg, key) for key in cli.FAMILIES[cfg.code_family].keys})
    sched = protocol.build_schedule(code.n, code.m, cfg.rounds)
    args = (netmodel.Network.direct(code.n), code, sched, cli.FAILURE_MODELS[cfg.failure_model].build(code, cfg), cfg.rounds)
    return sched, args, cfg.seed


def summary_of(metrics):
    """The summary line from a fold's attributes."""
    outcomes, capacity, rate = metrics.outcomes, metrics.avg_capacity, metrics.recovery_rate
    return (
        f"summary,rounds={metrics.rounds},"
        f"transmissions={metrics.total_transmissions},"
        f"queries={metrics.queries},"
        f"xor_ops={metrics.xor_operations},"
        f"full_recovery={outcomes[protocol.Outcome.FULL_RECOVERY]},"
        f"no_action={outcomes[protocol.Outcome.NO_ACTION_NEEDED]},"
        f"unrecoverable={outcomes[protocol.Outcome.UNRECOVERABLE]},"
        f"avg_capacity={capacity.numerator}/{capacity.denominator},"
        f"recovery_rate={rate.numerator}/{rate.denominator}"
    )


class TestReportSummary:
    @pytest.mark.parametrize("name", sorted(SUMMARY_CONFIGS))
    def test_summary_is_a_recount_of_the_rows(self, tmp_path, name):
        out = tmp_path / "r.csv"
        assert main(["simulate", str(write_config(tmp_path, SUMMARY_CONFIGS[name])), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:-1]]
        outcomes = collections.Counter(row[2] for row in rows)
        capacity = sum(Fraction(row[6]) for row in rows) / len(rows)
        rate = Fraction(len(rows) - outcomes["Unrecoverable"], len(rows))
        assert lines[-1] == (
            f"summary,rounds={len(rows)},"
            f"transmissions={sum(int(row[5]) for row in rows)},"
            f"queries={sum(int(row[3]) for row in rows)},"
            f"xor_ops={sum(int(row[4]) for row in rows)},"
            f"full_recovery={outcomes['FullRecovery']},"
            f"no_action={outcomes['NoActionNeeded']},"
            f"unrecoverable={outcomes['Unrecoverable']},"
            f"avg_capacity={capacity.numerator}/{capacity.denominator},"
            f"recovery_rate={rate.numerator}/{rate.denominator}"
        )

    @pytest.mark.parametrize("name", sorted(SUMMARY_CONFIGS))
    def test_summary_is_run_simulations_fold(self, name):
        sched, args, seed = simulation_inputs(SUMMARY_CONFIGS[name])
        out = io.StringIO()
        rendered = render_report(protocol.simulate_rounds(*args, seed=seed), sched, out)
        folded = protocol.run_simulation(*args, seed=seed)
        assert rendered == folded
        assert out.getvalue().splitlines()[-1] == summary_of(folded)

    @pytest.mark.parametrize("name", sorted(SUMMARY_CONFIGS))
    def test_encoded_counts_of_every_other_record(self, name):
        # indices 0, 2, 4, ...: the offsets a run reaches are not contiguous,
        # yet the report and add fold the same, and the capacity is still
        # (n - m)/n
        sched, args, seed = simulation_inputs(SUMMARY_CONFIGS[name])
        records = list(protocol.simulate_rounds(*args, seed=seed))[::2]
        rendered = render_report(iter(records), sched, io.StringIO())
        added = protocol.SimulationMetrics(sched)
        for rec in records:
            added.add(rec)
        assert rendered == added
        assert rendered.avg_capacity == Fraction(sched.n - sched.m, sched.n)

    def test_empty_stream_raises_value_error_after_the_header(self):
        sched = protocol.build_schedule(7, 3, 5)
        out = io.StringIO()
        with pytest.raises(ValueError, match="the fold is empty"):
            render_report(iter(()), sched, out)
        assert out.getvalue() == "round,failed,outcome,queries,xor_ops,transmissions,capacity\n"
