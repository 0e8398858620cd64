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
import random
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import gf2
from .gf2 import BitMatrix, BitVector, DimensionMismatch, Inconsistent

PATTERN_ENUMERATION_LIMIT = 10**6

# Repair plans kept by :func:`repair_plan`, least recently used dropped
# first: room for all 1,941 sets of at most 4 erasures of [15,7,5], and for
# the C(31, 2) = 465 double-erasure sets of [31,21,5] four times over. A plan
# of that code takes 0.8 KB (2 erasures) to 1 KB (5), so at most about 2 MiB.
PLAN_MEMO_SIZE = 2048


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
    search or merely declared by the construction.
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


@dataclass(frozen=True)
class ProtectionReport:
    """Outcome of exhaustively checking every t-erasure pattern."""

    recoverable: bool
    failing_patterns: tuple[tuple[int, ...], ...]
    patterns_checked: int


def _assemble(parity_rows: Sequence[int], k: int, m: int) -> tuple[BitMatrix, BitMatrix]:
    """[I_k | P] and [P^T | I_m] from packed P rows (bit j = parity column j)."""
    gen = BitMatrix.from_row_words(
        ((1 << i) | (parity_rows[i] << k) for i in range(k)), k + m
    )
    p_t = BitMatrix.from_row_words(parity_rows, m).transpose().row_words
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
    if n > sys.maxsize:
        raise ValueError(f"a parity code of n = {n} connections has too many rows to build")
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
    # c(a^2i) = c(a^i)^2, so the even powers add no rows.
    rows = [
        sum((power[i * j % n] >> b & 1) << j for j in range(n))
        for i in range(1, 2 * design_t, 2)
        for b in range(m)
    ]
    words, pivots, _ = gf2._eliminate(rows, range(n - 1, -1, -1))
    k = n - len(pivots)
    # Any n - k consecutive positions of a cyclic code are a check set, so
    # the pivots are the last n - k columns and the rows reduce to [P^T | I].
    if pivots != list(range(n - 1, k - 1, -1)):
        raise RuntimeError("the parity check did not reduce to systematic form")
    checks = BitMatrix.from_row_words([w & ((1 << k) - 1) for w in reversed(words[: n - k])], k)
    return _build(checks.transpose().row_words, k, n - k)


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
def repair_plan(parity_check: BitMatrix, erased: int) -> gf2.SolvePlan:
    """The solve plan of the parity-check rows for the coordinates set in the
    mask ``erased``: what decoding any word with those erasures needs, found
    by one elimination.

    Plans are memoised by the matrix's content and the mask, so every code
    object with the same parity check shares them; what the memo holds
    changes how long a call takes, never what it returns. The decoder and
    the simulator share it; :func:`verify_protection` needs no plans.
    """
    unknowns = []  # ascending, one step per erased bit
    while erased:
        low = erased & -erased
        unknowns.append(low.bit_length() - 1)
        erased ^= low
    return gf2.SolvePlan(parity_check.row_words, unknowns)


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

    plan = repair_plan(code.parity_check, blank)
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


def verify_protection(code: ProtectionCode, t: int) -> ProtectionReport:
    """Check every t-subset of erased positions; list the failures in order.

    A pattern is recoverable exactly when its columns of the parity check
    are independent. The walk goes depth first over an explicit stack, and
    each node keeps the columns after its prefix reduced against the
    prefix's columns, one step per column per push: a column that reduces
    to zero fails every extension of its prefix unchecked. At every other
    leaf the columns must rebuild a probe codeword from its surviving
    symbols, a round trip that guards the reduction; reduction is linear,
    so each node derives the probe's state from its parent's in one step.
    """
    if not 0 <= t <= code.n:
        raise ValueError(f"t must be in [0, {code.n}], got {t}")
    total = math.comb(code.n, t)
    if total > PATTERN_ENUMERATION_LIMIT:
        raise TooManyPatterns(
            f"C({code.n}, {t}) = {total} exceeds {PATTERN_ENUMERATION_LIMIT}"
        )
    rng = random.Random(0x4E5043)
    message = sum(rng.randrange(2) << i for i in range(code.k))
    probe = gf2.xor_rows(code.generator.row_words, message)
    n, m = code.n, code.m
    syndrome_bits = (1 << m) - 1
    # Column j of H below bit m and bit j of a position mask above it, so an
    # XOR of such words is a sum of columns beside the positions summed.
    cols = [c | 1 << m + j for j, c in enumerate(code.parity_check.transpose().row_words)]
    erased_bits = [1 << m + j if probe >> j & 1 else 0 for j in range(n)]
    # The probe's state starts as the syndrome of the whole probe with an
    # empty mask. It is zero for a codeword; any other probe fails every
    # pattern, the empty one included.
    root = gf2.xor_rows(cols, probe) & syndrome_bits
    failing = [()] if t == 0 and root else []
    # A frame: the prefix; the probe's state (the reduced syndrome of the
    # surviving symbols below bit m, the mask of the positions whose columns
    # explained the rest above it); the probe's erased bits as the mask it
    # must come out with; the columns after the prefix reduced against it
    # (each zero at every pivot of the prefix); the positions still to try.
    stack = [((), root, 0, cols, iter(range(n - t + 1)))] if t else []
    while stack:
        prefix, syndrome, expected, rest, positions = stack[-1]
        depth = len(prefix) + 1
        start = n - len(rest)
        for j in positions:
            column = rest[j - start]
            if not column & syndrome_bits:
                tails = itertools.combinations(range(j + 1, n), t - depth)
                failing.extend(map((*prefix, j).__add__, tails))
                continue
            pivot = column & -column
            bit = erased_bits[j]
            # Erasing j takes its column out of the syndrome where the probe
            # has a 1; the column, reduced against the prefix, then reduces
            # the syndrome by one more step.
            child = syndrome ^ column ^ bit if bit else syndrome
            if child & pivot:
                child ^= column
            if depth == t:
                if child != expected | bit:
                    failing.append((*prefix, j))
                continue
            later = [w ^ column if w & pivot else w for w in rest[j - start + 1 :]]
            stack.append(
                ((*prefix, j), child, expected | bit, later, iter(range(j + 1, n - t + depth + 1)))
            )
            break
        else:
            stack.pop()
    return ProtectionReport(not failing, tuple(failing), total)


def format_code_file(code: ProtectionCode) -> str:
    """Serialize: an ``NPC n k d_min verified|declared`` header, then the generator."""
    flag = "verified" if code.d_min_verified else "declared"
    return f"NPC {code.n} {code.k} {code.d_min} {flag}\n" + code.generator.to_text()


def parse_code_file(text: str) -> ProtectionCode:
    """Parse :func:`format_code_file` output, rejecting mismatched dimensions.

    The header's distance is measured whenever min(k, n - k) fits the
    enumeration bound, and a ``verified`` flag above that bound is rejected.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split(" ")
    if len(head) != 5 or head[0] != "NPC":
        raise ValueError(f"malformed code file header: {lines[0]!r}")
    if not all(part.isdigit() for part in head[1:4]):
        raise ValueError(f"malformed code file header: {lines[0]!r}")
    n, k, d_min = int(head[1]), int(head[2]), int(head[3])
    if head[4] not in ("verified", "declared"):
        raise ValueError(f"unknown distance flag: {head[4]!r}")
    gen = BitMatrix.from_text("\n".join(lines[1:]) + "\n")
    if (gen.rows, gen.cols) != (k, n):
        raise ValueError(
            f"header claims {k} x {n} but the matrix is {gen.rows} x {gen.cols}"
        )
    verified = head[4] == "verified"
    _, chk = _assemble([w >> k for w in gen.row_words], k, n - k)
    code = ProtectionCode(n, k, n - k, gen, chk, d_min, verified)
    if min(k, n - k) <= gf2.MIN_DISTANCE_ROW_LIMIT:
        measured = gf2.min_distance(gen)
        if measured != d_min:
            raise ValueError(f"header claims d_min = {d_min} but the code has d_min = {measured}")
    elif verified:
        raise ValueError(f"min(k, n - k) = {min(k, n - k)} is too large to verify the distance by enumeration")
    return code
