"""The round-based protection protocol.

Each round, m of the n connections carry parity symbols and the role
rotates so no connection permanently gives up capacity. Failures erase
payloads in flight (positions are known to receivers); recovery solves the
parity equations for the lost data symbols and accounts for the queries,
XORs, and transmissions spent doing so.

A round is one codeword packed into an int (bit j = coordinate j), and
:func:`recover_codeword` is the one recovery path; :func:`encode_round`,
:func:`inject_failures` and :func:`recover` view a round as n packets.

Coordinate layout per round r: parity coordinate k+j rides connection
(r + j) mod n, and the data coordinates 0..k-1 fill the remaining
connections in ascending index order. For m = 1 this puts the parity
symbol on connection r, the diagonal rotation.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import codes, gf2
from .codes import ProtectionCode
from .gf2 import BitVector, DimensionMismatch, NoUniqueSolution
from .netmodel import Network, Packet, PacketKind


class Outcome(enum.Enum):
    FULL_RECOVERY = "FullRecovery"
    NO_ACTION_NEEDED = "NoActionNeeded"
    UNRECOVERABLE = "Unrecoverable"


@dataclass(frozen=True)
class Schedule:
    """Rotation of the encoded role: round r assigns it to (r + j) mod n."""

    n: int
    m: int
    rounds: int

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")

    def scheduled(self, r: int) -> tuple[int, ...]:
        """Connections carrying parity in round r, in rotation order."""
        if not 0 <= r < self.rounds:
            raise ValueError(f"round {r} outside [0, {self.rounds})")
        return tuple((r + j) % self.n for j in range(self.m))

    def assignment(self, r: int) -> frozenset[int]:
        return frozenset(self.scheduled(r))


def build_schedule(n: int, m: int, rounds: int) -> Schedule:
    """Rotation schedule; every window of n rounds gives each connection
    the encoded role exactly m times."""
    return Schedule(n, m, rounds)


@dataclass(frozen=True)
class FailureScenario:
    """Set of connections whose payloads are lost this round. Positions are
    always known to the receivers; that is the failure model."""

    failed: frozenset[int]

    def __init__(self, failed: Iterable[int]):
        object.__setattr__(self, "failed", frozenset(failed))


@dataclass
class RecoveryReport:
    """What one round's recovery did and what it cost."""

    recovered: dict[int, int]
    queries_sent: int
    xor_operations: int
    transmissions: int
    outcome: Outcome


def connection_of_coordinate(sched: Schedule, r: int) -> tuple[int, ...]:
    """Entry j: the connection that carries codeword coordinate j in round r."""
    scheduled = sched.scheduled(r)
    return tuple(c for c in range(sched.n) if c not in scheduled) + scheduled


# Coordinate layouts kept by :func:`_layout`: room for every rotation offset
# of a code of length up to 64 (the longest constructions have n = 63).
LAYOUT_MEMO_SIZE = 64


@functools.lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _layout(n: int, m: int, offset: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The coordinate layout of rotation offset ``offset``: the connection of
    each coordinate, and each connection's coordinate as a one-bit mask. The
    dict is shared by every caller and never changed."""
    conn_of = connection_of_coordinate(Schedule(n, m, n), offset)
    return conn_of, {c: 1 << j for j, c in enumerate(conn_of)}


def _require_fit(code: ProtectionCode, sched: Schedule) -> None:
    if code.n != sched.n or code.m != sched.m:
        raise DimensionMismatch(
            f"code [{code.n},{code.k}] does not fit schedule (n={sched.n}, m={sched.m})"
        )


def recover_codeword(
    code: ProtectionCode, offset: int, failed: frozenset[int], codeword: int
) -> RecoveryReport:
    """Rebuild the data symbols lost in one round and account for the work.

    ``offset`` is the round's rotation offset r mod n, ``failed`` the failed
    connections and ``codeword`` the sent codeword packed into an int (bit j
    = coordinate j); the bits on failed connections are never read.

    Failures confined to parity connections need no action. Otherwise a
    receiver gathers the surviving symbols and solves for the lost ones:
    under the single-parity rotation the failed receiver itself queries the
    other n-1 receivers, while with a wider parity budget a surviving
    parity-side receiver sends n-t-1 queries. The solve applies the erased
    set's :func:`~npcode.codes.repair_plan`. Only lost data symbols appear
    in the report; lost parity is not worth rebuilding.
    """
    n, k = code.n, code.k
    conn_of, bit_of = _layout(n, code.m, offset)
    try:
        erased = sum(bit_of[c] for c in failed)
    except KeyError:
        raise ValueError(f"failed connections {sorted(failed)} reach outside [0, {n})") from None
    if not erased & ((1 << k) - 1):
        return RecoveryReport({}, 0, 0, n, Outcome.NO_ACTION_NEEDED)

    t = len(failed)
    if code.m == 1 and t == 1:
        queries = n - 1
    else:
        queries = max(0, n - t - 1)

    plan = codes.repair_plan(code.parity_check, erased)
    try:
        word = plan.apply(codeword)
    except NoUniqueSolution:
        return RecoveryReport({}, queries, 0, n, Outcome.UNRECOVERABLE)
    recovered = {conn_of[j]: word >> j & 1 for _, j in plan.pivots if j < k}
    return RecoveryReport(recovered, queries, plan.ops, n, Outcome.FULL_RECOVERY)


def encode_round(
    sched: Schedule, r: int, code: ProtectionCode, data: BitVector | Sequence[int]
) -> list[Packet]:
    """Emit the n packets of round r: k data symbols in connection order on
    the unscheduled connections, parity symbols on the scheduled ones."""
    _require_fit(code, sched)
    codeword = codes.encode(code, data)
    stamp = divmod(r, sched.n)
    packets = [None] * sched.n
    for j, c in enumerate(connection_of_coordinate(sched, r)):
        kind = PacketKind.ENCODED if j >= code.k else PacketKind.DATA
        packets[c] = Packet(codeword[j], stamp, kind)
    return packets


def inject_failures(packets: Sequence[Packet], scenario: FailureScenario) -> list[Packet]:
    """Erase the payloads on the failed connections; everything else passes."""
    for i in scenario.failed:
        if not 0 <= i < len(packets):
            raise ValueError(f"failed connection {i} out of range")
    return [
        dataclasses.replace(p, payload=None) if c in scenario.failed else p
        for c, p in enumerate(packets)
    ]


def recover(
    code: ProtectionCode,
    surviving: Sequence[Packet],
    scenario: FailureScenario,
    sched: Schedule,
    r: int,
) -> RecoveryReport:
    """Packet view of :func:`recover_codeword` for round r: checks each packet
    against the schedule and the scenario, then packs the survivors."""
    _require_fit(code, sched)
    if len(surviving) != sched.n:
        raise DimensionMismatch(f"expected {sched.n} packets, got {len(surviving)}")
    codeword = 0
    for j, c in enumerate(connection_of_coordinate(sched, r)):
        pkt = surviving[c]
        expected = PacketKind.ENCODED if j >= code.k else PacketKind.DATA
        if pkt.kind is not expected:
            raise ValueError(f"packet {c} kind {pkt.kind} does not match the schedule")
        if (pkt.payload is None) != (c in scenario.failed):
            raise ValueError(f"packet {c} erasure does not match the scenario")
        if pkt.payload not in (None, 0, 1):
            raise ValueError(f"packet {c} payload must be 0, 1, or None, got {pkt.payload!r}")
        if pkt.payload:
            codeword |= 1 << j
    return recover_codeword(code, r % sched.n, scenario.failed, codeword)


def no_failures() -> Callable[[int], FailureScenario]:
    scenario = FailureScenario(())
    return lambda r: scenario


def fixed_failures(failed: Iterable[int]) -> Callable[[int], FailureScenario]:
    scenario = FailureScenario(failed)
    return lambda r: scenario


def random_failures(n: int, t: int, seed: int) -> Callable[[int], FailureScenario]:
    """t distinct failed connections per round, drawn from a seeded stream.

    The model must be called once per round in round order; the seed then
    fully determines every scenario.
    """
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    rng = random.Random(seed)
    return lambda r: FailureScenario(rng.sample(range(n), t))


@dataclass
class RoundRecord:
    """One simulated round: its sent codeword (bit j = coordinate j), scenario and report."""

    index: int
    codeword: int
    scenario: FailureScenario
    report: RecoveryReport


@dataclass
class SimulationMetrics:
    """Totals over the rounds of a run, folded in one record at a time.

    A connection contributes working capacity in a round exactly when the
    schedule gives it a data symbol, so the average capacity is (n - m)/n;
    which connections carry parity depends only on the rotation offset
    r mod n, so the fold counts rounds per offset. Failed links still
    transmit (erasure happens in flight), so transmissions total rounds * n.
    """

    sched: Schedule
    rounds: int = 0
    total_transmissions: int = 0
    queries: int = 0
    xor_operations: int = 0
    outcomes: Counter[Outcome] = field(default_factory=Counter)
    per_offset: list[int] = field(init=False)

    def __post_init__(self):
        self.per_offset = [0] * self.sched.n

    def add(self, record: RoundRecord) -> None:
        self.per_offset[record.index % self.sched.n] += 1
        report = record.report
        self.rounds += 1
        self.total_transmissions += report.transmissions
        self.queries += report.queries_sent
        self.xor_operations += report.xor_operations
        self.outcomes[report.outcome] += 1

    @property
    def per_connection_encoded_counts(self) -> tuple[int, ...]:
        counts = [0] * self.sched.n
        for offset, rounds in enumerate(self.per_offset):
            if rounds:  # an offset no round reached may lie past a short schedule
                for c in self.sched.scheduled(offset):
                    counts[c] += rounds
        return tuple(counts)

    @property
    def avg_capacity(self) -> Fraction:
        slots = self.rounds * self.sched.n
        return Fraction(slots - sum(self.per_connection_encoded_counts), slots)

    @property
    def recovery_rate(self) -> Fraction:
        return Fraction(self.rounds - self.outcomes[Outcome.UNRECOVERABLE], self.rounds)


def simulate_rounds(
    net: Network,
    code: ProtectionCode,
    sched: Schedule,
    failure_model: Callable[[int], FailureScenario],
    rounds: int,
    *,
    seed: int = 0,
) -> Iterator[RoundRecord]:
    """Drive encode -> fail -> recover one round at a time.

    Data symbols come from a stream seeded by ``seed``, so identical
    arguments replay identical rounds. Each round is one packed codeword
    handed to :func:`recover_codeword`.
    """
    _require_fit(code, sched)
    if net.n != code.n:
        raise DimensionMismatch(f"network has {net.n} connections, code has n = {code.n}")
    if not 1 <= rounds <= sched.rounds:
        raise ValueError(f"rounds must be in [1, {sched.rounds}]")
    rng = random.Random(seed)
    generator = code.generator.row_words
    for r in range(rounds):
        scenario = failure_model(r)
        codeword = gf2.xor_rows(generator, rng.getrandbits(code.k))
        report = recover_codeword(code, r % code.n, scenario.failed, codeword)
        yield RoundRecord(r, codeword, scenario, report)


def run_simulation(
    net: Network,
    code: ProtectionCode,
    sched: Schedule,
    failure_model: Callable[[int], FailureScenario],
    rounds: int,
    *,
    seed: int = 0,
) -> SimulationMetrics:
    """Fold a full run into its :class:`SimulationMetrics`."""
    metrics = SimulationMetrics(sched)
    for record in simulate_rounds(net, code, sched, failure_model, rounds, seed=seed):
        metrics.add(record)
    return metrics
