"""The round-based protection protocol.

Each round, m of the n connections carry parity symbols and the role
rotates so no connection permanently gives up capacity. Failures erase
payloads in flight (positions are known to receivers); recovery solves the
parity equations for the lost data symbols and accounts for the queries
and XORs spent doing so.

A round is one codeword packed into an int (bit j = coordinate j), and
:func:`recover_codeword` is the one recovery path; :func:`encode_round`,
:func:`inject_failures` and :func:`recover` view a round as n packets.

Coordinate layout per round r: parity coordinate k+j rides connection
(r + j) mod n, and the data coordinates 0..k-1 fill the remaining
connections in ascending index order. For m = 1 this puts the parity
symbol on connection r, the diagonal rotation. As one expression, with
offset = r mod n, e = (c - offset - m) mod n and shift = offset when the
parity block does not wrap past connection n - 1 (offset + m <= n) and 0
when it does, connection c carries parity coordinate e when e >= k and
data coordinate (e + shift) mod k otherwise: the data coordinates follow
the parity block cyclically.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import random
import types
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
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

    # members are singletons, so identity hashing is sound, and it skips the
    # Python-level Enum.__hash__ each time a round's kind tuple is hashed
    __hash__ = object.__hash__


# each round reads one: a global is cheaper to read than an enum attribute
_FULL_RECOVERY = Outcome.FULL_RECOVERY
_NO_ACTION_NEEDED = Outcome.NO_ACTION_NEEDED
_UNRECOVERABLE = Outcome.UNRECOVERABLE


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


def build_schedule(n: int, m: int, rounds: int) -> Schedule:
    """Rotation schedule; every window of n rounds gives each connection
    the encoded role exactly m times."""
    return Schedule(n, m, rounds)


@dataclass(slots=True)
class RecoveryReport:
    """What one round's recovery did and what it cost."""

    recovered: Mapping[int, int]
    queries_sent: int
    xor_operations: int
    outcome: Outcome


def connection_of_coordinate(sched: Schedule, r: int) -> tuple[int, ...]:
    """Entry j: the connection that carries codeword coordinate j in round r."""
    scheduled = sched.scheduled(r)
    return tuple(c for c in range(sched.n) if c not in scheduled) + scheduled


def _require_fit(code: ProtectionCode, sched: Schedule) -> None:
    if code.n != sched.n or code.m != sched.m:
        raise DimensionMismatch(
            f"code [{code.n},{code.k}] does not fit schedule (n={sched.n}, m={sched.m})"
        )


def recover_codeword(
    code: ProtectionCode, offset: int, failed: frozenset[int], codeword: int
) -> RecoveryReport:
    """Rebuild the data symbols lost in one round and account for the work.

    ``offset`` is the round's rotation offset r mod n, in [0, n); ``failed``
    the failed connections and ``codeword`` the sent codeword packed into an
    int (bit j = coordinate j); the bits on failed connections are never read.

    Failures confined to parity connections need no action. Otherwise a
    receiver gathers the surviving symbols and solves for the lost ones:
    under the single-parity rotation the failed receiver itself queries the
    other n-1 receivers, while with a wider parity budget a surviving
    parity-side receiver sends n-t-1 queries. The solve applies the erased
    set's :func:`~npcode.codes.repair_plan` to the syndrome of the survivors,
    one reduction step per lost symbol. Only lost data symbols appear in the
    report; lost parity is not worth rebuilding.
    """
    n, k, m = code.n, code.k, code.m
    if not 0 <= offset < n:
        raise ValueError(f"offset {offset} outside [0, {n})")
    base = offset + m
    shift = offset if base <= n else 0
    lost = []  # (connection, coordinate) per failed data connection
    erased = 0
    for c in failed:
        if not 0 <= c < n:
            raise ValueError(f"failed connections {sorted(failed)} reach outside [0, {n})")
        # the module docstring's layout rule, written out: this runs every round
        e = (c - base) % n
        if e >= k:
            erased |= 1 << e
        else:
            j = (e + shift) % k
            lost.append((c, j))
            erased |= 1 << j
    if not lost:
        return RecoveryReport({}, 0, 0, _NO_ACTION_NEEDED)

    t = len(failed)
    queries = n - 1 if m == 1 and t == 1 else n - t - 1 if t < n else 0
    plan = codes.repair_plan(code.parity_check.row_words, erased)
    try:
        word = plan.apply(codeword)
    except NoUniqueSolution:
        return RecoveryReport({}, queries, 0, _UNRECOVERABLE)
    recovered = {}  # a loop: on 3.11 a comprehension builds a function each call
    for c, j in lost:
        recovered[c] = word >> j & 1
    return RecoveryReport(recovered, queries, plan.ops, _FULL_RECOVERY)


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


def inject_failures(packets: Sequence[Packet], failed: frozenset[int]) -> list[Packet]:
    """Erase the payloads on the failed connections; everything else passes."""
    for i in failed:
        if not 0 <= i < len(packets):
            raise ValueError(f"failed connection {i} out of range")
    return [
        dataclasses.replace(p, payload=None) if c in failed else p
        for c, p in enumerate(packets)
    ]


def recover(
    code: ProtectionCode,
    surviving: Sequence[Packet],
    failed: frozenset[int],
    sched: Schedule,
    r: int,
) -> RecoveryReport:
    """Packet view of :func:`recover_codeword` for round r: checks each packet
    against the schedule and the failed set, then packs the survivors."""
    _require_fit(code, sched)
    if len(surviving) != sched.n:
        raise DimensionMismatch(f"expected {sched.n} packets, got {len(surviving)}")
    codeword = 0
    for j, c in enumerate(connection_of_coordinate(sched, r)):
        pkt = surviving[c]
        expected = PacketKind.ENCODED if j >= code.k else PacketKind.DATA
        if pkt.kind is not expected:
            raise ValueError(f"packet {c} kind {pkt.kind} does not match the schedule")
        if (pkt.payload is None) != (c in failed):
            raise ValueError(f"packet {c} erasure does not match the failed set")
        if pkt.payload not in (None, 0, 1):
            raise ValueError(f"packet {c} payload must be 0, 1, or None, got {pkt.payload!r}")
        if pkt.payload:
            codeword |= 1 << j
    return recover_codeword(code, r % sched.n, failed, codeword)


# A failure model maps each round to the set of connections whose payloads
# are lost in it. Positions are always known to the receivers.


def no_failures() -> Callable[[int], frozenset[int]]:
    failed = frozenset()
    return lambda r: failed


def fixed_failures(failed: Iterable[int]) -> Callable[[int], frozenset[int]]:
    failed = frozenset(failed)
    return lambda r: failed


def random_failures(n: int, t: int, seed: int) -> Callable[[int], frozenset[int]]:
    """t distinct failed connections per round, a pure function of (seed, r).

    The seed gives a 64-bit key, ``random.Random(seed).getrandbits(64)``.
    Round r takes outputs rB + 1 .. rB + B of the splitmix64 stream that
    starts at the key (Steele, Lea and Flood, OOPSLA 2014): output j is the
    splitmix64 finaliser of key + j * 0x9E3779B97F4A7C15 mod 2^64, so any
    round is drawn without the rounds before it. B is the fewest 64-bit
    blocks that leave 32 bits of margin over C(n, t) (one block below 2^32
    subsets), so the modulo bias stays under 2^-32. The blocks, read as one
    integer mod C(n, t), index a t-subset in colex order (:func:`_unrank`).
    """
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    count = math.comb(n, t)
    blocks = (count.bit_length() + 95) // 64
    key = random.Random(seed).getrandbits(64)

    def output(j: int) -> int:
        # output j of the stream: the splitmix64 finaliser of key + j * gamma
        z = key + j * _GOLDEN_GAMMA & _MASK64
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        return z ^ z >> 31

    if blocks == 1:  # C(n, t) below 2^32, as on every benchmark workload: no loop

        def draw(r: int) -> frozenset[int]:
            return _unrank(n, t, output(r + 1) % count)

        return draw

    def draw_blocks(r: int) -> frozenset[int]:
        word = 0
        for j in range(r * blocks + 1, (r + 1) * blocks + 1):
            word = word << 64 | output(j)
        return _unrank(n, t, word % count)

    return draw_blocks


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Failed sets kept by _unrank: every 2-subset of up to 90 connections fits
# (C(90, 2) = 4,005), so each is one shared object that caches its hash.
DRAW_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=DRAW_MEMO_SIZE)
def _unrank(n: int, t: int, index: int) -> frozenset[int]:
    """The ``index``-th t-subset of range(n) in colex order, for index in
    [0, C(n, t)): by the combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3), index = sum of C(c_i, i) over the members c_1 < ... < c_t, so
    each c_i, largest first, is the largest c with C(c, i) <= what is left
    of the index."""
    members = []
    c = n
    for i in range(t, 0, -1):
        c -= 1
        while (below := math.comb(c, i)) > index:
            c -= 1
        index -= below
        members.append(c)
    return frozenset(members)


@dataclass(slots=True)
class RoundRecord:
    """One simulated round: its sent codeword (bit j = coordinate j), failed
    connections and report."""

    index: int
    codeword: int
    failed: frozenset[int]
    report: RecoveryReport


@dataclass(frozen=True)
class SimulationMetrics:
    """Totals over the rounds of a run, folded by row kind.

    ``n`` and ``m`` are the code's. A round's kind is the tuple (outcome,
    queries, xor_ops) of its report, and a run has few kinds, so the caller
    counts rounds per kind and passes the counts as ``kinds``; the totals are
    summed over the kinds when they are read.

    A connection contributes working capacity in a round exactly when the
    rotation gives it a data symbol, and every round gives m distinct
    connections parity (a code holds 1 <= m < n), so the average capacity is
    (n - m)/n whatever rounds were folded. Failed links still transmit
    (erasure happens in flight), so transmissions total rounds * n.
    """

    n: int
    m: int
    kinds: dict[tuple[Outcome, int, int], int] = field(default_factory=dict)

    def _total(self, i: int) -> int:
        return sum(kind[i] * rounds for kind, rounds in self.kinds.items())

    @property
    def rounds(self) -> int:
        return sum(self.kinds.values())

    @property
    def queries(self) -> int:
        return self._total(1)

    @property
    def xor_operations(self) -> int:
        return self._total(2)

    @property
    def total_transmissions(self) -> int:
        return self.rounds * self.n

    @property
    def outcomes(self) -> Counter[Outcome]:
        outcomes = Counter()
        for kind, rounds in self.kinds.items():
            outcomes[kind[0]] += rounds
        return outcomes

    def _nonempty_rounds(self) -> int:
        rounds = self.rounds
        if not rounds:
            raise ValueError("the fold is empty: no round was added, so it has no average")
        return rounds

    @property
    def avg_capacity(self) -> Fraction:
        self._nonempty_rounds()  # an empty fold has no average
        return Fraction(self.n - self.m, self.n)

    @property
    def recovery_rate(self) -> Fraction:
        rounds = self._nonempty_rounds()
        return Fraction(rounds - self.outcomes[Outcome.UNRECOVERABLE], rounds)


def simulate_rounds(
    code: ProtectionCode,
    failure_model: Callable[[int], frozenset[int]],
    rounds: int,
    *,
    seed: int = 0,
) -> Iterator[RoundRecord]:
    """Drive encode -> fail -> recover one round at a time (``rounds`` < 1 is refused at the call).

    Data symbols come from a stream seeded by ``seed``, so identical
    arguments replay identical rounds. Each round that loses a connection is
    one packed codeword handed to :func:`recover_codeword`; every round that
    loses none takes the run's one ``NoActionNeeded`` report, whose
    ``recovered`` is a read-only empty mapping. Columns j < k of H = [P^T | I_m]
    are the rows of P, so a round's codeword is its data followed by the
    data's syndrome, read from the column tables the repair plans share:
    one lookup per 8 data bits.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    return _rounds(code, failure_model, rounds, seed)


def _rounds(code: ProtectionCode, failure_model: Callable[[int], frozenset[int]], rounds: int, seed: int) -> Iterator[RoundRecord]:
    n, k = code.n, code.k
    parity = gf2._column_tables(code.parity_check.row_words)[: (k + 7) // 8]
    # bound once per run: each round would otherwise look every one of them up
    getrandbits, syndrome = random.Random(seed).getrandbits, gf2.xor_rows_by_tables
    recover_one, record = recover_codeword, RoundRecord
    # read-only: a consumer that writes into it fails instead of changing later rounds
    clean = RecoveryReport(types.MappingProxyType({}), 0, 0, _NO_ACTION_NEEDED)
    for r in range(rounds):
        failed = failure_model(r)
        data = getrandbits(k)
        codeword = data | syndrome(parity, data) << k
        yield record(r, codeword, failed, recover_one(code, r % n, failed, codeword) if failed else clean)


def run_simulation(
    net: Network,
    code: ProtectionCode,
    sched: Schedule,
    failure_model: Callable[[int], frozenset[int]],
    rounds: int,
    *,
    seed: int = 0,
) -> SimulationMetrics:
    """Check ``net`` and ``sched`` against the code, then count the run's row kinds into its metrics."""
    _require_fit(code, sched)
    if net.n != code.n:
        raise DimensionMismatch(f"network has {net.n} connections, code has n = {code.n}")
    if not 1 <= rounds <= sched.rounds:
        raise ValueError(f"rounds must be in [1, {sched.rounds}]")
    reports = (rec.report for rec in simulate_rounds(code, failure_model, rounds, seed=seed))
    kinds = Counter((r.outcome, r.queries_sent, r.xor_operations) for r in reports)
    return SimulationMetrics(code.n, code.m, dict(kinds))
