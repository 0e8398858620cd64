"""Command-line front door: construct codes, verify protection, run simulations.

Exit codes: 0 on success, 1 when a verification property fails, 2 on usage,
parse, or bound errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from . import codes, netmodel, protocol
from .codes import ProtectionCode


class ConfigError(ValueError):
    """A scenario config or command argument set is unusable."""


@dataclass
class ScenarioConfig:
    code_family: str
    n: int | None = None
    mu: int | None = None
    design_t: int | None = None
    code_file: str | None = None
    rounds: int = 1
    failure_model: str = "none"
    failed: tuple[int, ...] = ()
    t: int = 0
    seed: int = 0
    out: str | None = None


_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}
_INT_KEYS = {"n", "mu", "design_t", "rounds", "t", "seed"}


def _integer(text: str) -> int:
    """``text`` read as code-file headers are read: ASCII digits only, where
    int() alone also takes other scripts' digits, "_" and "+". An optional
    "-" stays, so a negative value reaches its own message."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value

    if "code_family" not in values:
        raise ConfigError("missing required key 'code_family'")
    cfg = ScenarioConfig(code_family=values.pop("code_family"))
    for key, value in values.items():
        if key in _INT_KEYS:
            try:
                setattr(cfg, key, _integer(value))
            except ValueError:
                raise ConfigError(f"key {key!r} needs an integer, got {value!r}") from None
        elif key == "failed":
            try:
                cfg.failed = tuple(_integer(part.strip()) for part in value.split(",") if part.strip())
            except ValueError:
                raise ConfigError(f"key 'failed' needs comma-separated integers, got {value!r}") from None
            seen = set()
            for c in cfg.failed:
                if c in seen:
                    raise ConfigError(f"key 'failed' lists connection {c} more than once")
                seen.add(c)
        else:
            setattr(cfg, key, value)

    if cfg.rounds < 1:
        raise ConfigError("rounds must be at least 1")
    if cfg.seed < 0:
        # random.Random would seed with abs(seed), so -5 would replay 5
        raise ConfigError("seed must be at least 0")
    if cfg.failure_model not in ("none", "fixed", "random"):
        raise ConfigError(f"unknown failure_model {cfg.failure_model!r}")
    return cfg


def build_code(family: str, *, n=None, mu=None, design_t=None, code_file=None) -> ProtectionCode:
    if family == "parity":
        if n is None:
            raise ConfigError("the parity family needs n")
        return codes.single_parity_code(n)
    if family == "hamming":
        if mu is None:
            raise ConfigError("the hamming family needs mu")
        return codes.hamming_code(mu)
    if family == "bch":
        if n is None or design_t is None:
            raise ConfigError("the bch family needs n and design_t")
        return codes.bch_code(n, design_t)
    if family == "file":
        if code_file is None:
            raise ConfigError("the file family needs code_file")
        return codes.parse_code_file(Path(code_file).read_text())
    raise ConfigError(f"unknown code family {family!r}")


def _default_code_path(args) -> str:
    if args.family == "parity":
        return f"parity-n{args.n}.npc"
    if args.family == "hamming":
        return f"hamming-mu{args.mu}.npc"
    return f"bch-n{args.n}-t{args.design_t}.npc"


def cmd_codegen(args) -> int:
    code = build_code(
        args.family, n=args.n, mu=args.mu, design_t=args.design_t
    )
    out = args.out or _default_code_path(args)
    Path(out).write_text(codes.format_code_file(code))
    flag = "verified" if code.d_min_verified else "declared"
    print(f"{code.n} {code.k} {code.d_min} {flag}")
    return 0


def cmd_verify(args) -> int:
    code = codes.parse_code_file(Path(args.code_file).read_text())
    patterns = codes.unrecoverable_patterns(code, args.t)
    total = math.comb(code.n, args.t)
    names = [str(i) for i in range(code.n)]
    # each failure is printed as the walk finds it; zip takes from the
    # counter only after a pattern, so what is left in it is the count
    counter = itertools.count()
    sys.stdout.writelines(",".join(map(names.__getitem__, p)) + "\n" for p, _ in zip(patterns, counter))
    failed = next(counter)
    if not failed:
        print(f"ok: all {total} patterns of {args.t} erasure(s) recoverable", file=sys.stderr)
        return 0
    print(f"failed: {failed} of {total} patterns unrecoverable", file=sys.stderr)
    return 1


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# Failed-set texts one report keeps, so its memory does not grow with rounds.
FAILED_TEXTS_KEPT = protocol.DRAW_MEMO_SIZE


def render_report(records, sched: protocol.Schedule, out) -> None:
    """Write a fixed-order CSV to ``out``: one row per round as its record
    arrives, then a summary line.

    Capacities travel as reduced ``p/q`` strings so the file stays exact;
    the summary is the run's :class:`~npcode.protocol.SimulationMetrics`,
    folded from the same records as the rows.
    """
    out.write("round,failed,outcome,queries,xor_ops,transmissions,capacity\n")
    metrics = protocol.SimulationMetrics(sched)
    capacity = _ratio(Fraction(sched.n - sched.m, sched.n))
    # each failed set's text, and each row's text after it, is made once: most
    # rounds repeat an earlier set, and the counters take few values in a run
    texts: dict[frozenset[int], str] = {}
    tails: dict[tuple, str] = {}
    for rec in records:
        metrics.add(rec)
        report = rec.report
        failed = texts.get(rec.failed)
        if failed is None:
            if len(texts) == FAILED_TEXTS_KEPT:  # a long run of distinct sets
                texts.clear()
            failed = texts[rec.failed] = ";".join(str(c) for c in sorted(rec.failed)) or "-"
        counters = (report.outcome, report.queries_sent, report.xor_operations, report.transmissions)
        tail = tails.get(counters)
        if tail is None:
            tail = tails[counters] = ",".join([report.outcome.value, *map(str, counters[1:]), capacity]) + "\n"
        out.write(f"{rec.index},{failed},{tail}")
    out.write(
        "summary,"
        f"rounds={metrics.rounds},"
        f"transmissions={metrics.total_transmissions},"
        f"queries={metrics.queries},"
        f"xor_ops={metrics.xor_operations},"
        f"full_recovery={metrics.outcomes[protocol.Outcome.FULL_RECOVERY]},"
        f"no_action={metrics.outcomes[protocol.Outcome.NO_ACTION_NEEDED]},"
        f"unrecoverable={metrics.outcomes[protocol.Outcome.UNRECOVERABLE]},"
        f"avg_capacity={_ratio(metrics.avg_capacity)},"
        f"recovery_rate={_ratio(metrics.recovery_rate)}\n"
    )


def cmd_simulate(args) -> int:
    config = Path(args.config)
    cfg = parse_config(config.read_text())
    if cfg.code_file is not None:
        # a relative code_file is relative to the config, not the working directory
        cfg.code_file = str(config.parent / cfg.code_file)
    code = build_code(
        cfg.code_family,
        n=cfg.n,
        mu=cfg.mu,
        design_t=cfg.design_t,
        code_file=cfg.code_file,
    )
    if cfg.failure_model == "none":
        model = protocol.no_failures()
    elif cfg.failure_model == "fixed":
        for c in cfg.failed:
            if not 0 <= c < code.n:
                raise ConfigError(f"failed connection {c} out of range [0, {code.n})")
        model = protocol.fixed_failures(cfg.failed)
    else:
        model = protocol.random_failures(code.n, cfg.t, cfg.seed)
    net = netmodel.Network.direct(code.n)
    sched = protocol.build_schedule(code.n, code.m, cfg.rounds)
    records = protocol.simulate_rounds(
        net, code, sched, model, cfg.rounds, seed=cfg.seed
    )
    # the report file is opened only once every input has been checked
    out = args.out or cfg.out
    if out:
        with Path(out).open("w") as f:
            render_report(records, sched, f)
    else:
        render_report(records, sched, sys.stdout)
    return 0


# built once per process: callers such as tests run main many times in one
@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npcode",
        description="Network protection codes: construct, verify, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("codegen", help="construct a code and write its code file")
    p_gen.add_argument("--family", required=True, choices=["parity", "hamming", "bch"])
    p_gen.add_argument("--n", type=int, help="code length (parity, bch)")
    p_gen.add_argument("--mu", type=int, help="parity-bit count (hamming)")
    p_gen.add_argument("--design-t", dest="design_t", type=int, help="designed loss budget (bch)")
    p_gen.add_argument("--out", help="output path (default: derived from the parameters)")
    p_gen.set_defaults(func=cmd_codegen)

    p_ver = sub.add_parser("verify", help="exhaustively check every t-erasure pattern")
    p_ver.add_argument("code_file")
    p_ver.add_argument("--t", type=int, required=True, help="number of simultaneous erasures")
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a scenario config and emit the round report")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", help="report path (overrides the config; default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
