"""Construction, encoding, and erasure decoding of network protection codes.

A protection code lays an [n, k, d_min] systematic binary code across n
disjoint connections: k of them carry plain data, the remaining m = n - k
carry parity symbols, and any d_min - 1 lost connections can be rebuilt
from the survivors.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from . import gf2
from .gf2 import BitMatrix, BitVector, DimensionMismatch, Inconsistent

PATTERN_ENUMERATION_LIMIT = 10**6

# Repair plans kept by :func:`repair_plan`, least recently used dropped
# first: room for all 1,941 sets of at most 4 erasures of [15,7,5], and for
# the C(31, 2) = 465 double-erasure sets of [31,21,5] four times over. A plan
# of that code takes 0.5 KB (2 erasures) to 0.8 KB (5), so at most 1.6 MiB.
PLAN_MEMO_SIZE = 2048

# The longest parity code built. Its generator is n - 1 rows of n bits, so
# the bits grow as n squared: about 2 MiB at this length, where `npcode
# codegen` writes a 16 MiB code file and peaks near 70 MiB.
PARITY_LENGTH_LIMIT = 4096


class AmbiguousErasure(ValueError):
    """More symbols were lost than the parity equations can pin down."""


class TooManyPatterns(ValueError):
    """Exhaustive pattern enumeration would exceed the supported bound."""


@dataclass(frozen=True)
class ErasurePattern:
    """Known positions of lost symbols in a length-n word."""

    n: int
    erased: frozenset[int]

    def __init__(self, n: int, erased: Iterable[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "erased", frozenset(erased))
        if self.n < 1:
            raise ValueError("pattern length must be positive")
        for p in self.erased:
            if not 0 <= p < self.n:
                raise ValueError(f"erased position {p} out of range [0, {self.n})")


@dataclass(frozen=True)
class ProtectionCode:
    """An [n, k, d_min] systematic code over the two-element field.

    The generator has the form [I_k | P]; the parity check is [P^T | I_m].
    ``d_min_verified`` records whether d_min was confirmed by exhaustive
    search or merely declared by the construction, as it must be when both
    k and m exceed ``gf2.MIN_DISTANCE_ROW_LIMIT``.
    """

    n: int
    k: int
    m: int
    generator: BitMatrix
    parity_check: BitMatrix
    d_min: int
    d_min_verified: bool

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if self.m != self.n - self.k:
            raise ValueError("m must equal n - k")
        if (self.generator.rows, self.generator.cols) != (self.k, self.n):
            raise ValueError("generator shape must be k x n")
        if (self.parity_check.rows, self.parity_check.cols) != (self.m, self.n):
            raise ValueError("parity check shape must be m x n")
        if not 1 <= self.d_min <= self.n:
            raise ValueError("d_min out of range")
        ident = (1 << self.k) - 1
        gen, chk = self.generator.row_words, self.parity_check.row_words
        if any(g & ident != 1 << i for i, g in enumerate(gen)):
            raise ValueError("generator is not in systematic form")
        if any((g & h).bit_count() & 1 for g in gen for h in chk):
            raise ValueError("generator and parity check are not orthogonal")
        if self.d_min_verified and min(self.k, self.m) > gf2.MIN_DISTANCE_ROW_LIMIT:
            raise ValueError(f"min(k, n - k) = {min(self.k, self.m)} is too large to verify the distance by enumeration")


@dataclass(frozen=True)
class ProtectionReport:
    """Outcome of exhaustively checking every t-erasure pattern."""

    recoverable: bool
    failing_patterns: tuple[tuple[int, ...], ...]
    patterns_checked: int


def _assemble(parity_rows: Sequence[int], k: int, m: int) -> tuple[BitMatrix, BitMatrix]:
    """[I_k | P] and [P^T | I_m] from packed P rows (bit j = parity column j)."""
    gen = BitMatrix.from_row_words(((1 << i) | (parity_rows[i] << k) for i in range(k)), k + m)
    p_t = gf2._columns(parity_rows, m)
    return gen, BitMatrix.from_row_words((w | 1 << (k + j) for j, w in enumerate(p_t)), k + m)


def _build(
    parity_rows: Sequence[int], k: int, m: int, d_min: int | None = None, verified: bool = True
) -> ProtectionCode:
    """The code with parity part ``parity_rows``; with no ``d_min`` given,
    the distance is measured by :func:`gf2.min_distance` and flagged verified."""
    gen, chk = _assemble(parity_rows, k, m)
    if d_min is None:
        d_min = gf2.min_distance(gen)
    return ProtectionCode(k + m, k, m, gen, chk, d_min, verified)


def single_parity_code(n: int) -> ProtectionCode:
    """The [n, n-1, 2] code: one connection carries the XOR of all the others."""
    if n < 2:
        raise ValueError(f"a parity code needs n >= 2 connections, got {n}")
    if n > PARITY_LENGTH_LIMIT:
        raise ValueError(
            f"a parity code of n = {n} connections has too many rows to build "
            f"(at most {PARITY_LENGTH_LIMIT} connections)"
        )
    return _build([1] * (n - 1), n - 1, 1, 2, True)


def hamming_code(mu: int) -> ProtectionCode:
    """The systematic [2^mu - 1, 2^mu - 1 - mu, 3] Hamming code.

    Parity-check columns enumerate every nonzero mu-bit pattern: the
    weight->=2 patterns in ascending order form the data columns, the
    weight-1 patterns form the identity tail. The distance is confirmed by
    exhaustive search for every mu, over at most 2^mu words (of the dual).
    """
    if not 2 <= mu <= 6:
        raise ValueError(f"mu must be in [2, 6], got {mu}")
    n = (1 << mu) - 1
    parity_rows = [v for v in range(1, n + 1) if v & (v - 1)]
    return _build(parity_rows, len(parity_rows), mu)


# Primitive polynomials for the extension fields backing the BCH constructions,
# packed with bit d = coefficient of x^d.
_PRIMITIVE_POLY = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def bch_code(n: int, design_t: int) -> ProtectionCode:
    """Primitive narrow-sense BCH code of length n = 2^m - 1.

    The code is every word c with c(a^i) = 0 for the first 2*design_t
    powers of the field generator a, which guarantees a distance of at
    least 2*design_t + 1. Each root gives m parity-check rows, one per bit
    of the field element; one elimination reduces them, and the message
    length k = n - rank falls out of it: it is not a free parameter. The
    stored d_min is the measured distance (every supported length has
    n - k <= 12, well inside the enumeration bound).
    """
    if n not in (7, 15, 31, 63) or design_t not in (1, 2):
        raise ValueError(
            f"unsupported parameters: n must be 2^m - 1 with m in [3, 6] "
            f"and design_t in {{1, 2}}, got n={n}, design_t={design_t}"
        )
    m = n.bit_length()
    power = [1]  # power[j] = a^j, packed with bit b = coefficient of a^b
    for _ in range(n - 1):
        shifted = power[-1] << 1
        power.append(shifted ^ _PRIMITIVE_POLY[m] if shifted >> m else shifted)
    # c(a^2i) = c(a^i)^2, so the even powers add no rows; root a^i gives the bit columns of a^(i*j).
    roots = range(1, 2 * design_t, 2)
    rows = [row for i in roots for row in gf2._columns([power[i * j % n] for j in range(n)], m)]
    words, pivots, _ = gf2._eliminate(rows, range(n - 1, -1, -1))
    k = n - len(pivots)
    # Any n - k consecutive positions of a cyclic code are a check set, so
    # the pivots are the last n - k columns and the rows reduce to [P^T | I].
    if pivots != list(range(n - 1, k - 1, -1)):
        raise RuntimeError("the parity check did not reduce to systematic form")
    return _build(gf2._columns([w & ((1 << k) - 1) for w in reversed(words[: n - k])], k), k, n - k)


def shorten(code: ProtectionCode, drop: Iterable[int]) -> ProtectionCode:
    """Remove message positions by pinning them to zero and deleting them.

    Unlike puncturing, shortening never decreases the minimum distance, so
    the shortened code keeps the protection promise of the original.
    """
    dropped = frozenset(drop)
    if not dropped:
        return code
    for p in dropped:
        if not 0 <= p < code.k:
            raise ValueError(f"drop position {p} is not a message coordinate")
    if len(dropped) >= code.k:
        raise ValueError("at least one message position must remain")
    keep = [i for i in range(code.k) if i not in dropped]
    parity_rows = [code.generator.row_words[i] >> code.k for i in keep]
    k2 = len(keep)
    if min(k2, code.m) > gf2.MIN_DISTANCE_ROW_LIMIT:
        return _build(parity_rows, k2, code.m, code.d_min, code.d_min_verified)
    return _build(parity_rows, k2, code.m)


def encode(code: ProtectionCode, message: BitVector | Sequence[int]) -> BitVector:
    """Codeword for a k-symbol message; the first k symbols are the message."""
    vec = message if isinstance(message, BitVector) else BitVector(message)
    if len(vec) != code.k:
        raise DimensionMismatch(f"message length {len(vec)} != k = {code.k}")
    return gf2.mat_vec_mul(code.generator, vec)


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def repair_plan(rows: tuple[int, ...], erased: int) -> gf2.SolvePlan:
    """The solve plan of the parity-check ``rows`` (a matrix's ``row_words``)
    for the coordinates set in the mask ``erased``: what decoding any word
    with those erasures needs, worked out once.

    Plans are memoised by the row words and the mask, a key that hashes and
    compares as plain ints, so every code object with the same parity check
    shares them; what the memo holds changes how long a call takes, never
    what it returns. The decoder and the simulator share it;
    :func:`verify_protection` needs no plans.
    """
    return gf2.SolvePlan(rows, [j for j in range(erased.bit_length()) if erased >> j & 1])


def erasure_decode_with_cost(
    code: ProtectionCode,
    received: Sequence[int | None],
    pattern: ErasurePattern,
) -> tuple[BitVector, int]:
    """Recover the message from a word with erased slots, counting symbol XORs.

    Decoding applies the erased set's :func:`repair_plan`: one solve of the
    parity-check rows with the erased positions as the unknowns. The count
    covers the XORs that accumulate the parity sums of the surviving symbols
    plus those spent combining equations while solving for the lost symbols;
    it depends only on the code and the pattern, never on the data.
    """
    n, k = code.n, code.k
    if pattern.n != n:
        raise DimensionMismatch(f"pattern length {pattern.n} != n = {n}")
    if len(received) != n:
        raise DimensionMismatch(f"received length {len(received)} != n = {n}")
    erased = pattern.erased
    blank = value_word = 0
    for j, sym in enumerate(received):
        if sym is None:
            if j not in erased:
                raise ValueError(f"slot {j} is erased but not in the pattern")
            blank |= 1 << j
        elif j in erased:
            raise ValueError(f"slot {j} is in the pattern but carries a value")
        elif sym == 1:
            value_word |= 1 << j
        elif sym != 0:
            raise ValueError(f"symbols must be 0, 1, or None, got {sym!r}")

    plan = repair_plan(code.parity_check.row_words, blank)
    try:
        word = plan.apply(value_word)
    except gf2.NoUniqueSolution as exc:
        raise AmbiguousErasure(
            f"erasures at {tuple(sorted(pattern.erased))} are not uniquely decodable"
        ) from exc
    return BitVector.from_int(word & ((1 << k) - 1), k), plan.ops


def erasure_decode(
    code: ProtectionCode,
    received: Sequence[int | None],
    pattern: ErasurePattern,
) -> BitVector:
    """Recover the full message from a word with erased slots.

    Succeeds exactly when the erased columns of the parity check are
    linearly independent; raises AmbiguousErasure otherwise, and
    Inconsistent if the surviving symbols fit no codeword at all.
    """
    message, _ = erasure_decode_with_cost(code, received, pattern)
    return message


def _is_cyclic(parity_check: BitMatrix) -> bool:
    """Whether rotating the coordinates by one maps the code ker H onto
    itself: exactly when H's rows and their rotations by one have the rank
    of H's rows alone, full or not. It reads H alone, so it is exact for any generator."""
    n = parity_check.cols
    rows = list(parity_check.row_words)
    rotated = [(h << 1 | h >> (n - 1)) & ((1 << n) - 1) for h in rows]
    rank = len(gf2._eliminate(rows + rotated, range(n))[1])
    return rank == len(gf2._eliminate(rows, range(n))[1])


def _failure_events(cols: list[int], n: int, t: int, top: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The failure events of the t-subsets that start below ``top``, in
    lexicographic order, from H's columns ``cols``.

    Event ``(head, r)`` stands for the failures head + s, for every r-subset
    s of the positions after head[-1]. A pattern is recoverable exactly when
    its columns of H are independent. The walk goes depth first, and each
    node keeps the columns after its prefix reduced against the prefix's
    columns, one step per column per push, so its whole subtree shares that
    reduction. A column that reduces to zero fails every extension of its
    prefix unchecked, as one event (a failing leaf, r = 0, at depth t). The
    stack is explicit so that a deep walk runs under any recursion limit. A
    node at depth t - 1 pushes no frame: its leaf i fails exactly when i's
    reduced column is zero or is the node's last column, so one membership
    scan finds whether any fails; when all do, the node is one event with
    r = 1. A node v at depth t - 2 (t >= 3) is decided whole: (*v, i, l)
    fails exactly when i's or l's reduced column is zero or the two are
    equal, so when one set built in C finds them nonzero and pairwise
    distinct the subtree is skipped.
    """
    # A frame: the prefix; the columns after it reduced against it (each
    # zero at every pivot of the prefix); the positions still to try.
    stack = [((), cols, iter(range(top)))] if t else []
    while stack:
        prefix, rest, positions = stack[-1]
        depth = len(prefix) + 1
        start = n - len(rest)
        for j in positions:
            column = rest[j - start]
            if not column:
                yield (*prefix, j), t - depth
                continue
            if depth == t - 1:
                leaves = rest[j - start + 1 :]
                if 0 in leaves or column in leaves:
                    head = (*prefix, j)
                    if leaves.count(0) + leaves.count(column) == len(leaves):
                        yield head, 1
                    else:
                        yield from (((*head, i), 0) for i, w in enumerate(leaves, j + 1) if w == 0 or w == column)
                continue
            if depth == t:
                continue
            pivot = column & -column
            later = [w ^ column if w & pivot else w for w in rest[j - start + 1 :]]
            if depth == t - 2 and 0 not in later and len(set(later)) == len(later):
                # leaf (*prefix, j, i, l) fails exactly when i's or l's
                # column in ``later`` is 0 or the two are equal: none fails
                continue
            stack.append(((*prefix, j), later, iter(range(j + 1, n - t + depth + 1))))
            break
        else:
            stack.pop()


def _expansions(events: Iterable[tuple[tuple[int, ...], int]], n: int, shifts: int) -> Iterator[Iterable[tuple[int, ...]]]:
    """Each event's failures in turn, at shifts a = 0 .. shifts - 1: event
    (head, r) at shift a is head + a followed by every r-subset of the
    positions after its last, while that fits in range(n). Shifting is
    monotone, so the position-0 events of a cyclic code list every failure
    in lexicographic order, those with least element a at shift a."""
    if shifts > 1:
        events = list(events)
    for a in range(shifts):
        if a:
            events = [(tuple(map((1).__add__, head)), r) for head, r in events if head[-1] + r < n - 1]
        for head, r in events:
            yield map(head.__add__, itertools.combinations(range(head[-1] + 1, n), r)) if r else (head,)


def unrecoverable_patterns(code: ProtectionCode, t: int) -> Iterator[tuple[int, ...]]:
    """Every unrecoverable t-subset of erased positions, in lexicographic
    order, listed lazily as :func:`_failure_events` finds them.

    The range of t and the pattern bound are checked at the call. When H
    is cyclic (:func:`_is_cyclic`, asked only for t >= 2), a pattern fails
    exactly when its rotations do: only the subsets that contain position
    0 are walked, and their events are held and shifted.
    """
    if not 0 <= t <= code.n:
        raise ValueError(f"t must be in [0, {code.n}], got {t}")
    total = math.comb(code.n, t)
    if total > PATTERN_ENUMERATION_LIMIT:
        raise TooManyPatterns(
            f"C({code.n}, {t}) = {total} exceeds {PATTERN_ENUMERATION_LIMIT}"
        )
    n = code.n
    cols = gf2._columns(code.parity_check.row_words, n)
    shifts = n - t + 1 if t > 1 and _is_cyclic(code.parity_check) else 1
    events = _failure_events(cols, n, t, 1 if shifts > 1 else n - t + 1)
    return itertools.chain.from_iterable(_expansions(events, n, shifts))


def verify_protection(code: ProtectionCode, t: int) -> ProtectionReport:
    """Check every t-subset of erased positions; list the failures in order
    (:func:`unrecoverable_patterns`)."""
    failing = list(unrecoverable_patterns(code, t))
    return ProtectionReport(not failing, tuple(failing), math.comb(code.n, t))


def format_code_file(code: ProtectionCode) -> str:
    """Serialize: an ``NPC n k d_min verified|declared`` header, then the generator."""
    flag = "verified" if code.d_min_verified else "declared"
    return f"NPC {code.n} {code.k} {code.d_min} {flag}\n" + code.generator.to_text()


def parse_code_file(text: str) -> ProtectionCode:
    """Parse :func:`format_code_file` output, rejecting mismatched dimensions.

    The header's distance is measured whenever min(k, n - k) fits the
    enumeration bound; past it, :class:`ProtectionCode` refuses ``verified``.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split(" ")
    if len(head) != 5 or head[0] != "NPC":
        raise ValueError(f"malformed code file header: {lines[0]!r}")
    if not all(part.isascii() and part.isdigit() for part in head[1:4]):
        raise ValueError(f"malformed code file header: {lines[0]!r}")
    n, k, d_min = int(head[1]), int(head[2]), int(head[3])
    if head[4] not in ("verified", "declared"):
        raise ValueError(f"unknown distance flag: {head[4]!r}")
    gen = BitMatrix.from_text("\n".join(lines[1:]) + "\n")
    if (gen.rows, gen.cols) != (k, n):
        raise ValueError(
            f"header claims {k} x {n} but the matrix is {gen.rows} x {gen.cols}"
        )
    _, chk = _assemble([w >> k for w in gen.row_words], k, n - k)
    code = ProtectionCode(n, k, n - k, gen, chk, d_min, head[4] == "verified")
    if min(k, n - k) <= gf2.MIN_DISTANCE_ROW_LIMIT:
        measured = gf2.min_distance(gen)
        if measured != d_min:
            raise ValueError(f"header claims d_min = {d_min} but the code has d_min = {measured}")
    return code
