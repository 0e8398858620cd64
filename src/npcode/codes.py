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
from .gf2 import BitMatrix, BitVector, DimensionMismatch, Inconsistent, TooLarge

__all__ = [
    "AmbiguousErasure",
    "ErasurePattern",
    "Inconsistent",
    "ProtectionCode",
    "ProtectionReport",
    "TooManyPatterns",
    "bch_code",
    "encode",
    "erasure_decode",
    "erasure_decode_with_cost",
    "format_code_file",
    "hamming_code",
    "parse_code_file",
    "repair_plan",
    "shorten",
    "single_parity_code",
    "verify_protection",
]

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

    def __str__(self) -> str:
        flag = "verified" if self.d_min_verified else "declared"
        return f"[{self.n},{self.k},{self.d_min}] ({flag})"


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
    h_words = []
    for j in range(m):
        w = 1 << (k + j)
        for i in range(k):
            if (parity_rows[i] >> j) & 1:
                w |= 1 << i
        h_words.append(w)
    return gen, BitMatrix.from_row_words(h_words, k + m)


def _build(parity_rows: Sequence[int], k: int, m: int, d_min: int, verified: bool) -> ProtectionCode:
    gen, chk = _assemble(parity_rows, k, m)
    return ProtectionCode(k + m, k, m, gen, chk, d_min, verified)


def _measured_distance(parity_rows: Sequence[int], k: int, m: int) -> int | None:
    """Exhaustive minimum distance, or None above the enumeration bound."""
    if k > gf2.MIN_DISTANCE_ROW_LIMIT:
        return None
    gen, _ = _assemble(parity_rows, k, m)
    return gf2.min_distance(gen)


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
    exhaustive search for mu <= 5 and declared for mu = 6.
    """
    if not 2 <= mu <= 6:
        raise ValueError(f"mu must be in [2, 6], got {mu}")
    n = (1 << mu) - 1
    parity_rows = [v for v in range(1, n + 1) if v & (v - 1)]
    k = len(parity_rows)
    measured = _measured_distance(parity_rows, k, mu)
    if measured is None:
        return _build(parity_rows, k, mu, 3, False)
    return _build(parity_rows, k, mu, measured, True)


# Primitive polynomials for the extension fields backing the BCH constructions,
# packed with bit d = coefficient of x^d.
_PRIMITIVE_POLY = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def _field_tables(m: int) -> tuple[list[int], dict[int, int]]:
    """Discrete exp/log tables for the 2^m-element field."""
    prim = _PRIMITIVE_POLY[m]
    size = 1 << m
    exp = []
    cur = 1
    for _ in range(size - 1):
        exp.append(cur)
        cur <<= 1
        if cur & size:
            cur ^= prim
    log = {v: i for i, v in enumerate(exp)}
    return exp, log


def _minimal_polynomial(coset: Sequence[int], exp: list[int], log: dict[int, int]) -> int:
    """Product of (x + a^s) over a conjugacy class; the result has 0/1 coefficients."""
    order = len(exp)
    poly = [1]
    for s in coset:
        root = exp[s % order]
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] ^= c
            if c:
                nxt[d] ^= exp[(log[c] + log[root]) % order]
        poly = nxt
    packed = 0
    for d, c in enumerate(poly):
        if c == 1:
            packed |= 1 << d
        elif c:
            raise RuntimeError("minimal polynomial has a coefficient outside {0, 1}")
    return packed


def _poly_mul(a: int, b: int) -> int:
    """Carry-less product of packed binary polynomials."""
    out = 0
    while a:
        if a & 1:
            out ^= b
        a >>= 1
        b <<= 1
    return out


def _bch_generator_poly(n: int, design_t: int) -> int:
    m = n.bit_length()
    exp, log = _field_tables(m)
    g = 1
    seen = set()
    for i in range(1, 2 * design_t + 1):
        coset = frozenset((i << j) % n for j in range(m))
        if coset in seen:
            continue
        seen.add(coset)
        g = _poly_mul(g, _minimal_polynomial(sorted(coset), exp, log))
    return g


def bch_code(n: int, design_t: int) -> ProtectionCode:
    """Primitive narrow-sense BCH code of length n = 2^m - 1.

    The generator polynomial is the product of the minimal polynomials of
    the first 2*design_t powers of the field generator, which guarantees a
    distance of at least 2*design_t + 1. The stored d_min is the measured
    distance when the message space fits the enumeration bound, otherwise
    the declared design value. The message length k falls out of the
    generator-polynomial degree; it is not a free parameter.
    """
    if n not in (7, 15, 31, 63) or design_t not in (1, 2):
        raise ValueError(
            f"unsupported parameters: n must be 2^m - 1 with m in [3, 6] "
            f"and design_t in {{1, 2}}, got n={n}, design_t={design_t}"
        )
    g = _bch_generator_poly(n, design_t)
    k = n - (g.bit_length() - 1)
    # Rows x^i * g(x) have their leading term on the diagonal, so reduction
    # always lands in systematic form.
    words, pivots, _ = gf2._eliminate([g << i for i in range(k)], range(n))
    if list(pivots) != list(range(k)):
        raise RuntimeError("cyclic generator rows did not reduce to systematic form")
    parity_rows = [w >> k for w in words]
    measured = _measured_distance(parity_rows, k, n - k)
    if measured is None:
        return _build(parity_rows, k, n - k, 2 * design_t + 1, False)
    return _build(parity_rows, k, n - k, measured, True)


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
    parity_rows = [code.generator.row_word(i) >> code.k for i in keep]
    k2 = len(keep)
    measured = _measured_distance(parity_rows, k2, code.m)
    if measured is None:
        return _build(parity_rows, k2, code.m, code.d_min, code.d_min_verified)
    return _build(parity_rows, k2, code.m, measured, True)


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
    the simulator share it; only :func:`verify_protection` builds its plans
    without the memo: it solves each pattern once, so a memo would only cost
    it time and memory.
    """
    unknowns = [j for j in range(parity_check.cols) if erased >> j & 1]
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
    value_word = erased = 0
    for j, sym in enumerate(received):
        if sym is None:
            if j not in pattern.erased:
                raise ValueError(f"slot {j} is erased but not in the pattern")
            erased |= 1 << j
        elif j in pattern.erased:
            raise ValueError(f"slot {j} is in the pattern but carries a value")
        elif sym == 1:
            value_word |= 1 << j
        elif sym != 0:
            raise ValueError(f"symbols must be 0, 1, or None, got {sym!r}")

    plan = repair_plan(code.parity_check, erased)
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
    """Try to decode every t-subset of erased positions; list the failures."""
    if not 0 <= t <= code.n:
        raise ValueError(f"t must be in [0, {code.n}], got {t}")
    total = math.comb(code.n, t)
    if total > PATTERN_ENUMERATION_LIMIT:
        raise TooManyPatterns(
            f"C({code.n}, {t}) = {total} exceeds {PATTERN_ENUMERATION_LIMIT}"
        )
    # Decodability never depends on the data, so one generic probe codeword is
    # enough. A pattern fails when its plan leaves an unknown free; giving
    # back the probe is the round-trip guard on the solver itself.
    rng = random.Random(0x4E5043)
    message = sum(rng.randrange(2) << i for i in range(code.k))
    probe = gf2.xor_rows(code.generator.row_words, message)
    rows = code.parity_check.row_words
    failing = []
    for pat in itertools.combinations(range(code.n), t):
        plan = gf2.SolvePlan(rows, pat)
        if plan.free or plan.apply(probe) != probe:
            failing.append(pat)
    return ProtectionReport(not failing, tuple(failing), total)


def format_code_file(code: ProtectionCode) -> str:
    """Serialize: an ``NPC n k d_min verified|declared`` header, then the generator."""
    flag = "verified" if code.d_min_verified else "declared"
    return f"NPC {code.n} {code.k} {code.d_min} {flag}\n" + code.generator.to_text()


def parse_code_file(text: str) -> ProtectionCode:
    """Parse :func:`format_code_file` output, rejecting mismatched dimensions.

    The header's distance is measured whenever k fits the enumeration bound,
    and a ``verified`` flag above that bound is rejected.
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
    parity_rows = [w >> k for w in gen.row_words]
    _, chk = _assemble(parity_rows, k, n - k)
    code = ProtectionCode(n, k, n - k, gen, chk, d_min, verified)
    measured = _measured_distance(parity_rows, k, n - k)
    if measured is None and verified:
        raise ValueError(f"k = {k} is too large to verify the distance by enumeration")
    if measured is not None and measured != d_min:
        raise ValueError(f"header claims d_min = {d_min} but the code has d_min = {measured}")
    return code
