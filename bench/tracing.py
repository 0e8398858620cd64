"""Per-layer spans for the traced benchmark run, recorded from outside the
program: the public functions of each npcode layer are swapped for timing
wrappers on their modules for the duration of a ``with installed(...)``
block, and restored afterwards.

Spans live in memory as flat arrays (name, parent, start, end) and are
written out once the run ends. A span's self time is its duration minus the
durations of its direct children, which nest strictly because the program is
single-threaded.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module under npcode, class or None, attribute, span name). Calls inside the
# program look these names up on the module or class at call time, so
# replacing the attribute catches them.
TARGETS = (
    ("gf2", None, "solve_with_cost", "gf2.solve_with_cost"),
    ("gf2", None, "mat_vec_mul", "gf2.mat_vec_mul"),
    ("gf2", None, "min_distance", "gf2.min_distance"),
    ("codes", None, "bch_code", "codes.construct"),
    ("codes", None, "encode", "codes.encode"),
    ("codes", None, "erasure_decode_with_cost", "codes.erasure_decode"),
    ("netmodel", "Network", "set_active", "netmodel.set_active"),
    ("protocol", None, "encode_round", "protocol.encode_round"),
    ("protocol", None, "inject_failures", "protocol.inject_failures"),
    ("protocol", None, "recover", "protocol.recover"),
    ("protocol", None, "simulate_rounds", "protocol.round"),
    ("cli", None, "render_report", "cli.render_report"),
)
ROUND = "protocol.round"
DECODE = "codes.erasure_decode"


@dataclass
class Stats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """In-memory span store with an open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.errors: Counter[tuple[str, str]] = Counter()
        self.patterns: set = set()
        self.unpatterned = 0  # decode calls with no argument that has ``.erased``
        self.wrapped: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, Stats]:
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict[str, Stats] = {}
        for i, nid in enumerate(self.name):
            s = stats.setdefault(self.names[nid], Stats())
            d = self.end[i] - self.start[i]
            s.calls += 1
            s.total += d
            s.self_total += d - child[i]
            s.durations.append(d)
        return stats

    def write(self, path: Path) -> None:
        """One CSV line per span, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as f:
            f.write("span,name,parent,start_us,end_us\n")
            for i, nid in enumerate(self.name):
                f.write(
                    f"{i},{self.names[nid]},{self.parent[i]},"
                    f"{(self.start[i] - t0) * 1e6:.3f},{(self.end[i] - t0) * 1e6:.3f}\n"
                )


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    is_decode = name == DECODE

    def wrapper(*args, **kwargs):
        if is_decode:
            # The erasure pattern is whichever argument has ``.erased``; a
            # call without one leaves the pattern metrics absent.
            erased = [a.erased for a in (*args, *kwargs.values()) if hasattr(a, "erased")]
            if erased:
                tracer.patterns.add(erased[0])
            else:
                tracer.unpatterned += 1
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            tracer.errors[name, type(exc).__name__] += 1
            raise
        finally:
            tracer.close(idx)

    return wrapper


def _wrap_rounds(tracer: Tracer, fn):
    """Time each step of the round generator as one ``protocol.round`` span."""
    nid = tracer.name_id(ROUND)
    end_nid = tracer.name_id(ROUND + ".exhausted")

    def wrapper(*args, **kwargs):
        rounds = iter(fn(*args, **kwargs))
        while True:
            idx = tracer.open(nid)
            try:
                record = next(rounds)
            except StopIteration:
                tracer.name[idx] = end_nid
                return
            finally:
                tracer.close(idx)
            yield record

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target that still exists for its wrapper; restore on exit.

    A target that a refactor removed is skipped, and its metrics are left out.
    """
    saved = []
    try:
        for module, cls, attr, name in TARGETS:
            try:
                owner = importlib.import_module(f"npcode.{module}")
                if cls is not None:
                    owner = getattr(owner, cls)
                fn = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                continue
            wrapper = _wrap_rounds(tracer, fn) if name == ROUND else _wrap(tracer, name, fn)
            setattr(owner, attr, wrapper)
            saved.append((owner, attr, fn))
            tracer.wrapped.add(name)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(prep: Tracer, run: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``prep`` holds the set-up spans (code construction), which only feed the
    construction timings.
    """
    s = run.summary()
    empty = Stats()
    m: dict[str, float] = {}

    for name in ("gf2.solve_with_cost", "gf2.mat_vec_mul", "codes.encode", DECODE, "netmodel.set_active"):
        if name in run.wrapped:
            st = s.get(name, empty)
            m[f"{name}.calls"] = st.calls
            m[f"{name}.self_us_per_call"] = st.self_total / st.calls * 1e6 if st.calls else 0.0

    if DECODE in run.wrapped:
        st = s.get(DECODE, empty)
        distinct = len(run.patterns)
        m[f"{DECODE}.ambiguous"] = run.errors[DECODE, "AmbiguousErasure"]
        if not run.unpatterned:
            m[f"{DECODE}.distinct_patterns"] = distinct
            m[f"{DECODE}.pattern_reuse"] = 1 - distinct / st.calls if st.calls else 0.0

    ps = prep.summary()
    for name in ("gf2.min_distance", "codes.construct"):
        if name in run.wrapped:
            calls = s.get(name, empty).calls + ps.get(name, empty).calls
            total = s.get(name, empty).total + ps.get(name, empty).total
            m[f"{name}.s"] = total / calls if calls else 0.0

    if ROUND in run.wrapped:
        rounds = s.get(ROUND, empty).durations
        m[f"{ROUND}_p50_us"] = statistics.median(rounds) * 1e6 if rounds else 0.0
        m[f"{ROUND}_p99_us"] = (
            statistics.quantiles(rounds, n=100)[98] * 1e6 if len(rounds) > 1 else 0.0
        )
        m[f"{ROUND}.samples"] = len(rounds)
        protocol_self = sum(st.self_total for n, st in s.items() if n.startswith("protocol."))
        m[f"{ROUND}.self_us"] = protocol_self / len(rounds) * 1e6 if rounds else 0.0

    if "protocol.recover" in run.wrapped:
        st = s.get("protocol.recover", empty)
        m["protocol.recover.self_us_per_call"] = st.self_total / st.calls * 1e6 if st.calls else 0.0

    if "cli.render_report" in run.wrapped:
        m["cli.render_report.s"] = s.get("cli.render_report", empty).self_total

    return m
