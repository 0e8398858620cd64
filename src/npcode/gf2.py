"""Exact linear algebra over the two-element field.

Vectors and matrices keep their entries packed into Python integers
(bit ``j`` of a row word is column ``j``), so a row operation is a single
XOR regardless of width.  Both are frozen dataclasses, so immutability is
enforced: assigning to a field raises, and values are safe to share.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

# The minimum-distance search enumerates 2^min(k, n - k) words, of the code
# or of its dual; at the bound of 20 that is about 0.2 s of pure Python.
MIN_DISTANCE_ROW_LIMIT = 20


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class NoUniqueSolution(ValueError):
    """The linear system is rank-deficient in the unknowns."""


class Inconsistent(ValueError):
    """The linear system has no solution."""


class TooLarge(ValueError):
    """Exhaustive enumeration would exceed the supported bound."""


def _pack(entries: Iterable[int]) -> tuple[int, int]:
    """(word, length) of a sequence of 0/1 entries, entry i at bit i."""
    word = 0
    length = 0
    for e in entries:
        if e == 1:
            word |= 1 << length
        elif e != 0:
            raise ValueError(f"entries must be 0 or 1, got {e!r}")
        length += 1
    return word, length


def _columns(words: Sequence[int], width: int) -> tuple[int, ...]:
    """The ``width`` columns of the rows ``words`` (each below 2**width), bit i of column j
    being bit j of ``words[i]``: every row is written once as text, each column is one slice of it."""
    text = "".join(format(w, f"0{width}b") for w in words)
    return tuple(int(text[width - 1 - j :: width][::-1], 2) for j in range(width))


def _systematic_dual(words: Sequence[int], k: int, n: int) -> list[int]:
    """The rows of [P^T | I_m], m = n - k, for the rows ``words`` of a
    generator [I_k | P]: a basis of the dual code, and the parity check
    every ``ProtectionCode`` derives. P^T's rows are P's :func:`_columns`."""
    return [w | 1 << (k + j) for j, w in enumerate(_columns([g >> k for g in words], n - k))]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class BitVector:
    """Immutable vector over {0, 1} with XOR addition; ``bits`` holds entry i at bit i."""

    bits: int
    _length: int

    def __init__(self, entries: Iterable[int]):
        bits, length = _pack(entries)
        if length == 0:
            raise ValueError("a vector must have at least one entry")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_length", length)

    @classmethod
    def from_int(cls, bits: int, length: int) -> "BitVector":
        """Build a vector of ``length`` entries from a packed word (bit i = entry i)."""
        if length < 1:
            raise ValueError("a vector must have at least one entry")
        if not 0 <= bits < (1 << length):
            raise ValueError("packed word does not fit the requested length")
        v = object.__new__(cls)
        object.__setattr__(v, "bits", bits)
        object.__setattr__(v, "_length", length)
        return v

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("vector index out of range")
        return (self.bits >> i) & 1

    def __iter__(self):
        bits = self.bits
        for _ in range(self._length):
            yield bits & 1
            bits >>= 1

    def __repr__(self) -> str:
        return f"BitVector({list(self)!r})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class BitMatrix:
    """Immutable dense matrix over {0, 1}; ``row_words`` packs each row, bit j = column j."""

    row_words: tuple[int, ...]
    cols: int

    def __init__(self, rows: Iterable[Iterable[int]]):
        words: list[int] = []
        ncols: int | None = None
        for row in rows:
            word, width = _pack(row)
            if ncols is None:
                ncols = width
            elif width != ncols:
                raise ValueError("all rows must have the same length")
            words.append(word)
        if not words or not ncols:
            raise ValueError("a matrix must have at least one row and one column")
        object.__setattr__(self, "row_words", tuple(words))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def from_row_words(cls, words: Iterable[int], cols: int) -> "BitMatrix":
        """Build a matrix from packed row words (bit j of a word = column j)."""
        words = tuple(words)
        if cols < 1 or not words:
            raise ValueError("a matrix must have at least one row and one column")
        limit = 1 << cols
        for w in words:
            if not 0 <= w < limit:
                raise ValueError("row word does not fit the requested width")
        m = object.__new__(cls)
        object.__setattr__(m, "row_words", words)
        object.__setattr__(m, "cols", cols)
        return m

    @property
    def rows(self) -> int:
        return len(self.row_words)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not 0 <= i < len(self.row_words):
            raise IndexError("row index out of range")
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return (self.row_words[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        """The matrix whose row j is column j of this one (see :func:`_columns`)."""
        return BitMatrix.from_row_words(_columns(self.row_words, self.cols), self.rows)

    def is_zero(self) -> bool:
        return not any(self.row_words)

    def to_text(self) -> str:
        """Serialize as ``rows cols`` header plus one 0/1 line per row."""
        # bit j is character j: the binary form, padded and reversed
        width = f"0{self.cols}b"
        lines = [f"{self.rows} {self.cols}"]
        lines += (format(w, width)[::-1] for w in self.row_words)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse the :meth:`to_text` format (a row is read reversed, in base 2); rejects anything malformed."""
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty matrix text")
        head = lines[0].split(" ")
        if len(head) != 2 or not all(part.isascii() and part.isdigit() for part in head):
            raise ValueError(f"malformed matrix header: {lines[0]!r}")
        nrows, ncols = int(head[0]), int(head[1])
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(lines) != nrows + 1:
            raise ValueError(f"expected {nrows} rows, found {len(lines) - 1}")
        for line in lines[1:]:
            if len(line) != ncols or set(line) - {"0", "1"}:
                raise ValueError(f"malformed matrix row: {line!r}")
        return cls.from_row_words((int(line[::-1], 2) for line in lines[1:]), ncols)

    def __repr__(self) -> str:
        return f"<BitMatrix {self.rows}x{self.cols}>"


def xor_rows(words: Sequence[int], selector: int) -> int:
    """XOR of the row words picked by the set bits of ``selector`` (bit i
    picks ``words[i]``): the row vector ``selector`` times the matrix."""
    acc = 0
    while selector:
        low = selector & -selector
        acc ^= words[low.bit_length() - 1]
        selector ^= low
    return acc


def _span(rows: Iterable[int]) -> list[int]:
    """The :func:`xor_rows` of every subset of ``rows``, indexed by the subset's bits."""
    span = [0]
    for row in rows:
        span += [w ^ row for w in span]
    return span


def subset_tables(words: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per group of 8 rows, the :func:`_span` of the group: what
    :func:`xor_rows_by_tables` reads (the method of Four Russians)."""
    return tuple(tuple(_span(words[i : i + 8])) for i in range(0, len(words), 8))


def xor_rows_by_tables(tables: Sequence[Sequence[int]], selector: int) -> int:
    """``xor_rows(words, selector)`` for ``tables = subset_tables(words)``:
    one lookup per 8 bits of ``selector``, which must not reach past the rows."""
    acc = 0
    for table in tables:
        acc ^= table[selector & 0xFF]
        selector >>= 8
    return acc


def mat_vec_mul(m: BitMatrix, v: BitVector | Sequence[int]) -> BitVector:
    """Row-vector times matrix: ``v @ m`` over the two-element field.

    Entry j of the result is the XOR over i of ``v[i] & m[i, j]``, i.e. the
    XOR of the matrix rows selected by v.
    """
    vec = v if isinstance(v, BitVector) else BitVector(v)
    if len(vec) != m.rows:
        raise DimensionMismatch(f"vector length {len(vec)} != matrix rows {m.rows}")
    return BitVector.from_int(xor_rows(m.row_words, vec.bits), m.cols)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product ``a @ b`` over the two-element field."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions differ: {a.cols} != {b.rows}")
    return BitMatrix.from_row_words((xor_rows(b.row_words, w) for w in a.row_words), b.cols)


def _eliminate(words: list[int], columns: Iterable[int]) -> tuple[list[int], list[int], int]:
    """In-place Gauss-Jordan on packed rows, pivoting on ``columns`` in the
    given order (all other bits ride along); each pivot is the topmost
    remaining row with the column set. Returns (words, pivot column list,
    number of row combinations executed)."""
    pivots: list[int] = []
    ops = 0
    r = 0
    for col in columns:
        mask = 1 << col
        for pivot in range(r, len(words)):
            if words[pivot] & mask:
                break
        else:
            continue
        top = words[pivot]
        words[pivot] = words[r]
        words[r] = top
        for i, w in enumerate(words):
            if w & mask and i != r:
                words[i] = w ^ top
                ops += 1
        pivots.append(col)
        r += 1
    return words, pivots, ops


@functools.lru_cache(maxsize=16)
def _column_tables(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """:func:`subset_tables` of the :func:`_columns` of ``rows``, padded with zero
    columns to whole bytes: a word's syndrome by :func:`xor_rows_by_tables`."""
    width = -(-max((row.bit_length() for row in rows), default=0) // 8) * 8
    return subset_tables(_columns(rows, width))


class SolvePlan:
    """The part of :func:`solve_with_cost` that depends only on the rows and
    the (distinct) unknown positions, worked out once so that :meth:`apply`
    can solve any number of words: one Gauss-Jordan elimination of the rows
    on the unknowns, whose reduced rows each pin one unknown to the parity
    of the word over the rest of the row.

    Attributes:
        known: mask of the bits that are not unknowns.
        tables: the rows' column tables, one object shared by all their plans:
            a word's syndrome by :func:`xor_rows_by_tables`.
        steps: (row, bit) per pivot of the elimination: the reduced row and
            the bit of its pivot unknown. A row is zero at every other pivot,
            so the steps apply in any order.
        free: the number of unknowns that no row pins down.
        ops: the XOR count that :func:`solve_with_cost` reports.
    """

    __slots__ = ("known", "tables", "steps", "free", "ops")

    def __init__(self, rows: Sequence[int], unknowns: Sequence[int]):
        rows = tuple(rows)
        self.tables = _column_tables(rows)
        self.known = known = ~functools.reduce(operator.or_, (1 << j for j in unknowns), 0)
        reduced, pivots, combos = _eliminate(list(rows), unknowns)
        self.steps = tuple((row, 1 << p) for row, p in zip(reduced, pivots))
        self.free = len(unknowns) - len(pivots)
        self.ops = sum(max(0, (row & known).bit_count() - 1) for row in rows) + combos

    def apply(self, word: int) -> int:
        """Fill the unknown bits of ``word`` (its bits there are ignored), then
        check the filled word against every row by its syndrome.

        Raises:
            Inconsistent: no filling satisfies every row.
            NoUniqueSolution: the rows are consistent but leave unknowns free.
        """
        word &= self.known
        for row, bit in self.steps:
            if (row & word).bit_count() & 1:
                word |= bit
        if xor_rows_by_tables(self.tables, word):
            raise Inconsistent("contradictory equations: no solution exists")
        if self.free:
            raise NoUniqueSolution(f"{self.free} free unknown(s): solution is not unique")
        return word


def solve_with_cost(
    rows: Sequence[int], unknowns: Sequence[int], word: int
) -> tuple[int, int]:
    """Fill the ``unknowns`` bits of a packed word so that every row has even
    overlap with it: each row is a parity equation over the word's bits.

    The bits of ``word`` at the (distinct) unknown positions are ignored.
    The second return value counts symbol XORs: per row, one for each known
    term after the first (accumulating the row's known sum), plus one per
    row combination while eliminating. It depends only on the rows and the
    unknowns, never on the word: it is the :attr:`SolvePlan.ops` of
    (rows, unknowns).

    Raises:
        Inconsistent: no filling satisfies every row.
        NoUniqueSolution: the rows are consistent but leave unknowns free.
    """
    plan = SolvePlan(rows, unknowns)
    return plan.apply(word), plan.ops


def _span_weights(rows: Sequence[int], n: int) -> list[int]:
    """Weight histogram (index 0..n) of every XOR combination of the rows.
    The :func:`_span` of the first 8 rows is listed once (at most 256 words); the
    combinations of the rest are walked in Gray-code order, each one XOR
    away from the last, and each is counted against every listed word."""
    low = _span(rows[:8])
    step = [0, *rows[8:]]  # step[b + 1] is row 8 + b; the first block takes no step
    hist = [0] * (n + 1)
    word = 0
    for i in range(1 << (len(step) - 1)):
        word ^= step[(i & -i).bit_length()]
        for w in low:
            hist[(word ^ w).bit_count()] += 1
    return hist


def _krawtchouk(n: int, js: Sequence[int]) -> Iterator[list[int]]:
    """Yield, for w = 0, 1, ..., n, the Krawtchouk values [K_w(j) for j in js],
    K_w(j) = sum_s (-1)^s C(j, s) C(n - j, w - s), by the exact three-term
    recurrence (w + 1) K_{w+1}(j) = (n - 2j) K_w(j) - (n - w + 1) K_{w-1}(j).

    Raises:
        RuntimeError: a step does not divide exactly.
    """
    back, lead = [0] * len(js), [1] * len(js)
    yield lead
    for w in range(n):
        step = []
        for j, a, b in zip(js, lead, back):
            value, rest = divmod((n - 2 * j) * a - (n - w + 1) * b, w + 1)
            if rest:
                raise RuntimeError(f"Krawtchouk step to weight {w + 1} at {j} is not exact")
            step.append(value)
        back, lead = lead, step
        yield lead


def _weight_counts(g: BitMatrix, dual: Sequence[int] | None = None) -> Iterator[int]:
    """Yield A_0, A_1, ..., A_n, the number of codewords of each weight in
    the code spanned by the k rows of g, enumerating the code if k <= n - k
    and its dual otherwise. g must be a systematic generator [I_k | P], whose
    dual is [P^T | I_m]: given that dual's rows as ``dual``, neither is
    checked or derived again. From the dual's counts B_j, each A_w is the
    MacWilliams sum 2^-m * sum_j B_j K_w(j), m = n - k (see :func:`_krawtchouk`).

    Raises:
        TooLarge: both k and n - k exceed MIN_DISTANCE_ROW_LIMIT.
        ValueError: g is not in systematic form.
        RuntimeError: a MacWilliams sum is negative or not a multiple of 2^m.
    """
    k, n = g.rows, g.cols
    m = n - k
    if min(k, m) > MIN_DISTANCE_ROW_LIMIT:
        raise TooLarge(f"enumeration supports min(k, n - k) <= {MIN_DISTANCE_ROW_LIMIT}, got {k}, {m}")
    words = g.row_words
    if dual is None and not all(w & ((1 << k) - 1) == 1 << i for i, w in enumerate(words)):
        raise ValueError("generator is not in systematic form")
    if k <= m:
        yield from _span_weights(words, n)
        return
    if dual is None:
        dual = _systematic_dual(words, k, n)
    dual_counts = _span_weights(dual, n)
    js = [j for j, b in enumerate(dual_counts) if b]
    counts = [dual_counts[j] for j in js]
    for w, values in enumerate(_krawtchouk(n, js)):
        total = sum(map(operator.mul, counts, values))
        count, rest = divmod(total, 1 << m)
        if rest or count < 0:
            raise RuntimeError(f"MacWilliams sum {total} for weight {w} is not 2^{m} times a count")
        yield count


def min_distance(g: BitMatrix, *, dual: Sequence[int] | None = None) -> int:
    """True minimum distance of the code spanned by the rows of g = [I_k | P]:
    the first w >= 1 with A_w > 0 (see :func:`_weight_counts`; later A_w are
    not summed). A caller that has checked g's form and derived the rows of
    its dual [P^T | I_m] passes them as ``dual``, and neither is done again.

    Raises:
        TooLarge: both k and n - k exceed MIN_DISTANCE_ROW_LIMIT.
        ValueError: g is not in systematic form.
    """
    counts = _weight_counts(g, dual)
    next(counts)  # A_0, the zero word
    return next(w for w, count in enumerate(counts, 1) if count)
