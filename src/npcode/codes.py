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
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import InitVar, dataclass, field

from . import gf2
from .gf2 import BitMatrix, BitVector, DimensionMismatch, Inconsistent

PATTERN_ENUMERATION_LIMIT = 10**6

# Repair plans kept by :func:`repair_plan`, least recently used dropped
# first: room for all 1,941 sets of at most 4 erasures of [15,7,5], and for
# the C(31, 2) = 465 double-erasure sets of [31,21,5] four times over. A plan
# of that code takes 0.5 KB (2 erasures) to 0.8 KB (5), so at most 1.6 MiB.
PLAN_MEMO_SIZE = 2048

# The longest code built or loaded. What a code derives grows as n squared:
# a parity generator is n - 1 rows of n bits, about 2 MiB at this length,
# where `npcode codegen` writes a 16 MiB code file and peaks near 70 MiB.
LENGTH_LIMIT = 4096


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

    The generator [I_k | P] is the only matrix a code is given: n and k are
    its shape (n at most ``LENGTH_LIMIT``), m = n - k, and the parity check
    [P^T | I_m] is built from P, so it has full rank and annihilates the
    generator by construction.
    d_min is measured (``d_min_verified``) whenever min(k, m) fits
    ``gf2.MIN_DISTANCE_ROW_LIMIT``, and past it is the required ``declared``
    distance: a lower bound the construction guarantees, so a measured
    distance below it is refused and one above it is kept.
    """

    n: int = field(init=False)
    k: int = field(init=False)
    m: int = field(init=False)
    generator: BitMatrix
    parity_check: BitMatrix = field(init=False)
    d_min: int = field(init=False)
    d_min_verified: bool = field(init=False)
    declared: InitVar[int | None] = None

    def __post_init__(self, declared):
        k, n = self.generator.rows, self.generator.cols
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        if n > LENGTH_LIMIT:
            raise ValueError(f"a code of n = {n} connections is too long (at most {LENGTH_LIMIT} connections)")
        if declared is not None and not 1 <= declared <= n:
            raise ValueError("d_min out of range")
        ident = (1 << k) - 1
        if any(g & ident != 1 << i for i, g in enumerate(self.generator.row_words)):
            raise ValueError("generator is not in systematic form")
        verified = min(k, n - k) <= gf2.MIN_DISTANCE_ROW_LIMIT
        if not verified and declared is None:
            raise ValueError(f"min(k, n - k) = {min(k, n - k)} is too large to verify the distance by enumeration: declare it")
        # H's rows, derived once: the dual the distance is measured on
        dual = gf2._systematic_dual(self.generator.row_words, k, n)
        d_min = gf2.min_distance(self.generator, dual=dual) if verified else declared
        if declared is not None and d_min < declared:
            raise ValueError(f"declared d_min = {declared} but the code has d_min = {d_min}")
        chk = BitMatrix.from_row_words(dual, n)
        for name, value in dict(n=n, k=k, m=n - k, parity_check=chk, d_min=d_min, d_min_verified=verified).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ProtectionReport:
    """Outcome of exhaustively checking every t-erasure pattern."""

    recoverable: bool
    failing_patterns: tuple[tuple[int, ...], ...]
    patterns_checked: int


def _build(parity_rows: Sequence[int], k: int, m: int, declared: int | None = None) -> ProtectionCode:
    """The code with parity part ``parity_rows`` (bit j = parity column j),
    its distance measured or ``declared`` as :class:`ProtectionCode` decides."""
    gen = BitMatrix.from_row_words(((1 << i) | (parity_rows[i] << k) for i in range(k)), k + m)
    return ProtectionCode(gen, declared)


def single_parity_code(n: int) -> ProtectionCode:
    """The [n, n-1, 2] code: one connection carries the XOR of all the others."""
    if n < 2:
        raise ValueError(f"a parity code needs n >= 2 connections, got {n}")
    if n > LENGTH_LIMIT:
        raise ValueError(
            f"a parity code of n = {n} connections has too many rows to build "
            f"(at most {LENGTH_LIMIT} connections)"
        )
    return _build([1] * (n - 1), n - 1, 1)


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
    return _build(parity_rows, len(keep), code.m, code.d_min)


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
    itself: exactly when it maps H's row space onto itself. For H = [P^T | I_m]
    a word lies in the row space exactly when it is the XOR of the rows that
    its last m bits select: one row product per rotated row. On an H of any
    other form those sums still prove every "cyclic", though some cyclic H
    are missed."""
    rows, n = parity_check.row_words, parity_check.cols
    k = n - len(rows)
    rotated = ((w << 1 | w >> (n - 1)) & ((1 << n) - 1) for w in rows)
    return all(w == gf2.xor_rows(rows, w >> k) for w in rotated)


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


def _pair_sums(cols: Sequence[int], n: int) -> dict[int, list[tuple[int, int]]]:
    """Each XOR of two of the columns ``cols`` mapped to its pairs (i, l),
    i < l, in lexicographic order."""
    pairs: dict[int, list[tuple[int, int]]] = {}
    for pair in itertools.combinations(range(n), 2):
        pairs.setdefault(cols[pair[0]] ^ cols[pair[1]], []).append(pair)
    return pairs


def _independent(cols: Sequence[int], pairs: dict, n: int, size: int) -> bool:
    """Whether no ``size`` (at most 4) of the columns ``cols`` are dependent,
    read from their :func:`_pair_sums` ``pairs`` by the first ``size`` of four
    tests, each made in C: no zero column; no zero pair sum (two equal
    columns); no column equal to a pair sum (three dependent columns); no
    sum shared by two pairs (four). When the tests before it pass, test j
    fails exactly when some j columns are dependent."""
    return (
        0 not in cols
        and (size < 2 or 0 not in pairs)
        and (size < 3 or pairs.keys().isdisjoint(cols))
        and (size < 4 or len(pairs) == math.comb(n, 2))
    )


def _zero_sums(cols: Sequence[int], pairs: dict, n: int, t: int, top: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The t-subsets (t >= 3) that start below ``top`` and whose columns
    ``cols`` XOR to zero, in lexicographic order, as events ``(pattern, 0)``.

    They are met in the middle: each head of t - 2 positions takes the pairs
    after it under its own XOR in ``pairs``, the columns' :func:`_pair_sums`.
    A head is a prefix of t - 3 positions, the first below ``top``, then the
    innermost loop's a, so its XOR is one XOR from its prefix's.
    """
    prefixes = [()] if t == 3 else (
        (first, *mid) for first in range(top) for mid in itertools.combinations(range(first + 1, n - 3), t - 4)
    )
    for prefix in prefixes:
        p = functools.reduce(operator.xor, map(cols.__getitem__, prefix), 0)
        for a in range(prefix[-1] + 1, n - 2) if prefix else range(top):
            for i, l in pairs.get(p ^ cols[a], ()):
                if i > a:
                    yield (*prefix, a, i, l), 0


def _expansions(events: Iterable[tuple[tuple[int, ...], int]], n: int, shifts: int) -> Iterator[Iterable[tuple[int, tuple[int, ...]]]]:
    """Each event's failures in turn, at shifts a = 0 .. shifts - 1, as
    pairs (a, p): the failure is p with a added to each position. Event
    (head, r) stands for head followed by every r-subset of the positions
    after its last, and at shift a for those that fit in range(n): while
    head[-1] + a + r < n, head shifted by a and the r-subsets of the
    positions after it, listed in place (a = 0). A failing leaf (r = 0) keeps
    its head and travels with a. Shifting is monotone, so the position-0
    events of a cyclic code list every failure in lexicographic order, those
    with least element a at shift a."""
    if shifts > 1:
        events = list(events)
    for a in range(shifts):
        if a:
            events = [event for event in events if event[0][-1] + a + event[1] < n]
        for head, r in events:
            if r and a:
                head = tuple(map(a.__add__, head))
            yield zip(itertools.repeat(0), map(head.__add__, itertools.combinations(range(head[-1] + 1, n), r))) if r else ((a, head),)


def unrecoverable_patterns(code: ProtectionCode, t: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every unrecoverable t-subset of erased positions, in lexicographic
    order, listed lazily as :func:`_failure_events` or :func:`_zero_sums`
    finds them, each as a pair (a, p) from :func:`_expansions`: the subset
    is p with a added to each position (a = 0 unless H is cyclic).

    The range of t and the pattern bound are checked at the call. When H
    is cyclic (:func:`_is_cyclic`, asked only for t >= 2), a pattern fails
    exactly when its rotations do: only the subsets that contain position
    0 are searched, and their events are held and shifted.

    Up to the distance (3 <= t <= d_min), where it is less work, the
    failures are listed with no walk to depth t: when no t - 1 columns of H
    are dependent, :func:`_zero_sums` lists them, the t-subsets whose
    columns XOR to zero. For t <= 5 the listing's pair table decides that
    (:func:`_independent`); past it, a walk at t - 1 is asked for one
    failure. d_min only picks the method: both read H, so a wrong d_min
    changes no output.
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
    cyclic = t > 1 and _is_cyclic(code.parity_check)
    top = 1 if cyclic else n - t + 1
    events = _failure_events(cols, n, t, top)
    if 3 <= t <= code.d_min:
        # Work on the subsets below top: the listing's C(n, 2) table entries
        # plus at most t - 2 XORs per head, against the walk's step per
        # (t - 1)-subset, or per t-subset at the distance, where it meets failures.
        def below_top(size: int) -> int:
            return math.comb(n, size) - math.comb(n - top, size)

        listing = math.comb(n, 2) + (t - 2) * below_top(t - 2)
        walk = below_top(t if t == code.d_min else t - 1)
        # the listing needs no t - 1 dependent columns: up to t = 5 its pair
        # table tells, and past it a walk at t - 1 does, before the table
        if listing < walk and (t <= 5 or next(_failure_events(cols, n, t - 1, top if cyclic else top + 1), None) is None):
            pairs = _pair_sums(cols, n)
            if t > 5 or _independent(cols, pairs, n, t - 1):
                events = _zero_sums(cols, pairs, n, t, top)
    return itertools.chain.from_iterable(_expansions(events, n, n - t + 1 if cyclic else 1))


def verify_protection(code: ProtectionCode, t: int) -> ProtectionReport:
    """Check every t-subset of erased positions; list the failures in order
    (:func:`unrecoverable_patterns`), each shifted into place: the failures
    of one shift a come in one run, whose patterns are shifted in C."""
    failing = []
    for a, run in itertools.groupby(unrecoverable_patterns(code, t), operator.itemgetter(0)):
        patterns = map(operator.itemgetter(1), run)
        failing += map(tuple, map(map, itertools.repeat(a.__add__), patterns)) if a else patterns
    return ProtectionReport(not failing, tuple(failing), math.comb(code.n, t))


_FLAGS = ("declared", "verified")  # a header's distance flag, by d_min_verified


def format_code_file(code: ProtectionCode) -> str:
    """Serialize: an ``NPC n k d_min verified|declared`` header, then the generator."""
    return f"NPC {code.n} {code.k} {code.d_min} {_FLAGS[code.d_min_verified]}\n" + code.generator.to_text()


def parse_code_file(text: str) -> ProtectionCode:
    """Parse :func:`format_code_file` output, rejecting mismatched dimensions.

    A ``verified`` header has the distance measured and a ``declared`` one
    declares it; the code built must carry the header's d_min and flag.
    """
    # The header is the first line as str.splitlines reads it, with its end.
    first = text[: text.find("\n") + 1 or None].splitlines(keepends=True)
    if not first:
        raise ValueError("empty code file")
    line = first[0].splitlines()[0]
    head = line.split(" ")
    if len(head) != 5 or head[0] != "NPC":
        raise ValueError(f"malformed code file header: {line!r}")
    if not all(part.isascii() and part.isdigit() for part in head[1:4]):
        raise ValueError(f"malformed code file header: {line!r}")
    n, k, d_min = int(head[1]), int(head[2]), int(head[3])
    if head[4] not in _FLAGS:
        raise ValueError(f"unknown distance flag: {head[4]!r}")
    # A header alone leaves a blank matrix header, not an empty matrix text.
    gen = BitMatrix.from_text(text[len(first[0]) :] or "\n")
    if (gen.rows, gen.cols) != (k, n):
        raise ValueError(
            f"header claims {k} x {n} but the matrix is {gen.rows} x {gen.cols}"
        )
    code = ProtectionCode(gen, None if head[4] == "verified" else d_min)
    if (code.d_min, _FLAGS[code.d_min_verified]) != (d_min, head[4]):
        raise ValueError(f"header claims d_min = {d_min} {head[4]} but the code has d_min = {code.d_min} {_FLAGS[code.d_min_verified]}")
    return code
