"""Command-line front door: construct codes, verify protection, run simulations.

Exit codes: 0 on success, 1 when a verification property fails, 2 on usage,
parse, or bound errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
from collections import namedtuple
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
    failed: tuple[int, ...] | None = None
    t: int | None = None
    seed: int = 0
    out: str | None = None


def _fixed_failures(code: ProtectionCode, cfg: ScenarioConfig):
    for c in cfg.failed:
        if not 0 <= c < code.n:
            raise ConfigError(f"failed connection {c} out of range [0, {code.n})")
    return protocol.fixed_failures(cfg.failed)


# The code families and failure models the CLI accepts: a row needs each config
# key it reads and rejects any other one set. A family's build takes its keys'
# values in order; codegen_out, formatted with them, is codegen's file name.
Family = namedtuple("Family", "build keys codegen_out")
FailureModel = namedtuple("FailureModel", "keys build")  # build(code, config)
FAMILIES = {
    "parity": Family(codes.single_parity_code, ("n",), "parity-n{n}.npc"),
    "hamming": Family(codes.hamming_code, ("mu",), "hamming-mu{mu}.npc"),
    "bch": Family(codes.bch_code, ("n", "design_t"), "bch-n{n}-t{design_t}.npc"),
    "file": Family(lambda path: codes.parse_code_file(Path(path).read_text()), ("code_file",), None),
}
FAILURE_MODELS = {
    "none": FailureModel((), lambda code, cfg: protocol.no_failures()),
    "fixed": FailureModel(("failed",), _fixed_failures),
    "random": FailureModel(("t",), lambda code, cfg: protocol.random_failures(code.n, cfg.t, cfg.seed)),
}
_FAMILY_KEYS = tuple(dict.fromkeys(key for row in FAMILIES.values() for key in row.keys))

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
                cfg.failed = tuple(_integer(part.strip()) for part in value.split(","))
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
    if cfg.failure_model not in FAILURE_MODELS:
        raise ConfigError(f"unknown failure_model {cfg.failure_model!r}")
    if cfg.code_family not in FAMILIES:
        raise ConfigError(f"unknown code family {cfg.code_family!r}")
    return cfg


def _require(what: str, keys: tuple[str, ...], given: dict) -> None:
    if any(given.get(key) is None for key in keys):
        raise ConfigError(f"the {what} needs {' and '.join(keys)}")


def _reject_unread(what: str, keys: tuple[str, ...], given: dict) -> None:
    for key, value in given.items():
        if value is not None and key not in keys:
            raise ConfigError(f"the {what} does not read {key}")


def build_code(family: str, **params) -> ProtectionCode:
    """The code of ``family`` from exactly the keyword ``params`` it reads."""
    row = FAMILIES[family]
    _require(f"{family} family", row.keys, params)
    code = row.build(*(params[key] for key in row.keys))
    _reject_unread(f"{family} family", row.keys, params)
    return code


def cmd_codegen(args) -> int:
    params = {key: value for key, value in vars(args).items() if key in _FAMILY_KEYS}
    code = build_code(args.family, **params)
    out = args.out or FAMILIES[args.family].codegen_out.format(**params)
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
    family, model = FAMILIES[cfg.code_family], FAILURE_MODELS[cfg.failure_model]
    code = build_code(cfg.code_family, **{key: getattr(cfg, key) for key in family.keys})
    model_params = {key: getattr(cfg, key) for row in FAILURE_MODELS.values() for key in row.keys}
    _require(f"{cfg.failure_model} failure model", model.keys, model_params)
    failures = model.build(code, cfg)
    sched = protocol.build_schedule(code.n, code.m, cfg.rounds)
    records = protocol.simulate_rounds(netmodel.Network.direct(code.n), code, sched, failures, cfg.rounds, seed=cfg.seed)
    # unread keys come last, so an input that a build rejects keeps its message
    _reject_unread(f"{cfg.code_family} family", family.keys, {key: getattr(cfg, key) for key in _FAMILY_KEYS})
    _reject_unread(f"{cfg.failure_model} failure model", model.keys, model_params)
    # the report file is opened only once every input has been checked
    out = args.out or cfg.out
    with Path(out).open("w") if out else contextlib.nullcontext(sys.stdout) as f:
        render_report(records, sched, f)
    return 0


# built once per process: callers such as tests run main many times in one
@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="npcode", description="Network protection codes: construct, verify, simulate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("codegen", help="construct a code and write its code file")
    built = [name for name, row in FAMILIES.items() if row.codegen_out]
    p_gen.add_argument("--family", required=True, choices=built)
    for key, text in (("n", "code length"), ("mu", "parity-bit count"), ("design_t", "designed loss budget")):
        readers = [name for name in built if key in FAMILIES[name].keys]
        p_gen.add_argument("--" + key.replace("_", "-"), dest=key, type=int, help=f"{text} ({', '.join(readers)})")
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
