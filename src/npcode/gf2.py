"""Exact linear algebra over the two-element field.

Vectors and matrices keep their entries packed into Python integers
(bit ``j`` of a row word is column ``j``), so a row operation is a single
XOR regardless of width.  Everything is immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

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


class BitVector:
    """Immutable vector over {0, 1} with XOR addition."""

    __slots__ = ("_length", "_bits")

    def __init__(self, entries: Iterable[int]):
        bits, length = _pack(entries)
        if length == 0:
            raise ValueError("a vector must have at least one entry")
        self._length = length
        self._bits = bits

    @classmethod
    def from_int(cls, bits: int, length: int) -> "BitVector":
        """Build a vector of ``length`` entries from a packed word (bit i = entry i)."""
        if length < 1:
            raise ValueError("a vector must have at least one entry")
        if not 0 <= bits < (1 << length):
            raise ValueError("packed word does not fit the requested length")
        v = object.__new__(cls)
        v._length = length
        v._bits = bits
        return v

    @property
    def bits(self) -> int:
        return self._bits

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("vector index out of range")
        return (self._bits >> i) & 1

    def __iter__(self):
        bits = self._bits
        for _ in range(self._length):
            yield bits & 1
            bits >>= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._length, self._bits))

    def __repr__(self) -> str:
        return f"BitVector({list(self)!r})"


class BitMatrix:
    """Immutable dense matrix over {0, 1}, one packed word per row."""

    __slots__ = ("_nrows", "_ncols", "_words", "_hash")

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
        self._set(tuple(words), ncols)

    def _set(self, words: tuple[int, ...], cols: int) -> None:
        self._nrows = len(words)
        self._ncols = cols
        self._words = words
        self._hash = hash((cols, words))

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
        m._set(words, cols)
        return m

    @property
    def rows(self) -> int:
        return self._nrows

    @property
    def cols(self) -> int:
        return self._ncols

    @property
    def row_words(self) -> tuple[int, ...]:
        """Every packed row word, in row order."""
        return self._words

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not 0 <= j < self._ncols:
            raise IndexError("column index out of range")
        return (self._words[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        return BitMatrix([(w >> j) & 1 for w in self._words] for j in range(self._ncols))

    def is_zero(self) -> bool:
        return not any(self._words)

    def to_text(self) -> str:
        """Serialize as ``rows cols`` header plus one 0/1 line per row."""
        lines = [f"{self._nrows} {self._ncols}"]
        for w in self._words:
            lines.append("".join("1" if (w >> j) & 1 else "0" for j in range(self._ncols)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse the :meth:`to_text` format; rejects anything malformed."""
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty matrix text")
        head = lines[0].split(" ")
        if len(head) != 2 or not head[0].isdigit() or not head[1].isdigit():
            raise ValueError(f"malformed matrix header: {lines[0]!r}")
        nrows, ncols = int(head[0]), int(head[1])
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(lines) != nrows + 1:
            raise ValueError(f"expected {nrows} rows, found {len(lines) - 1}")
        for line in lines[1:]:
            if len(line) != ncols or set(line) - {"0", "1"}:
                raise ValueError(f"malformed matrix row: {line!r}")
        return cls(map(int, line) for line in lines[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._words == other._words

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<BitMatrix {self._nrows}x{self._ncols}>"


def xor_rows(words: Sequence[int], selector: int) -> int:
    """XOR of the row words picked by the set bits of ``selector`` (bit i
    picks ``words[i]``): the row vector ``selector`` times the matrix."""
    acc = 0
    while selector:
        low = selector & -selector
        acc ^= words[low.bit_length() - 1]
        selector ^= low
    return acc


def subset_tables(words: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per group of 8 rows, the :func:`xor_rows` of every subset of the
    group, indexed by the subset's bits: what :func:`xor_rows_by_tables`
    reads (the method of Four Russians)."""
    groups = (words[i : i + 8] for i in range(0, len(words), 8))
    return tuple(tuple(xor_rows(g, s) for s in range(1 << len(g))) for g in groups)


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


class SolvePlan:
    """The part of :func:`solve_with_cost` that depends only on the rows and
    the (distinct) unknown positions, worked out once by one elimination so
    that :meth:`apply` can solve any number of words without eliminating again.

    Attributes:
        known: mask of the bits that are not unknowns.
        residual: the eliminated rows left without a pivot; every solvable
            word has even overlap with each of them.
        pivots: (mask, position) per pinned unknown: the XOR of the word's
            bits under ``mask``, all of them known, is the unknown's value.
        free: the number of unknowns that no row pins down.
        ops: the XOR count that :func:`solve_with_cost` reports.
    """

    __slots__ = ("known", "residual", "pivots", "free", "ops")

    def __init__(self, rows: Sequence[int], unknowns: Sequence[int]):
        mask = 0
        for j in unknowns:
            mask |= 1 << j
        known = ~mask
        eqs, cols, combos = _eliminate(list(rows), unknowns)
        pinned = len(cols)
        self.known = known
        self.residual = tuple(eqs[pinned:])
        self.pivots = tuple(zip([w & known for w in eqs[:pinned]], cols))
        self.free = len(unknowns) - pinned
        self.ops = sum(max(0, (row & known).bit_count() - 1) for row in rows) + combos

    def apply(self, word: int) -> int:
        """Fill the unknown bits of ``word``; its bits there are ignored.

        Raises:
            Inconsistent: no filling satisfies every row.
            NoUniqueSolution: the rows are consistent but leave unknowns free.
        """
        word &= self.known
        for w in self.residual:
            if (w & word).bit_count() & 1:
                raise Inconsistent("contradictory equations: no solution exists")
        if self.free:
            raise NoUniqueSolution(f"{self.free} free unknown(s): solution is not unique")
        filled = word
        for w, col in self.pivots:
            filled |= ((w & word).bit_count() & 1) << col
        return filled


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
    """Weight histogram (index 0..n) of every XOR combination of the rows,
    walked in Gray-code order: each word is one XOR away from the last."""
    hist = [1] + [0] * n
    word = 0
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        hist[word.bit_count()] += 1
    return hist


def _weight_counts(g: BitMatrix) -> Iterator[int]:
    """Yield A_0, A_1, ..., A_n, the number of codewords of each weight in
    the code spanned by the k rows of g, enumerating the code if k <= n - k
    and its dual otherwise. From the dual's counts B_j, each A_w is the
    MacWilliams sum 2^-m * sum_j B_j K_w(j), m = n - k, with the Krawtchouk
    value K_w(j) = sum_s (-1)^s C(j, s) C(n - j, w - s).

    Raises:
        TooLarge: both k and n - k exceed MIN_DISTANCE_ROW_LIMIT.
        ValueError: g does not have full row rank.
        RuntimeError: a MacWilliams sum is negative or not a multiple of 2^m.
    """
    k, n = g.rows, g.cols
    m = n - k
    if min(k, m) > MIN_DISTANCE_ROW_LIMIT:
        raise TooLarge(f"enumeration supports min(k, n - k) <= {MIN_DISTANCE_ROW_LIMIT}, got {k}, {m}")
    words, pivots, _ = _eliminate(list(g.row_words), range(n))
    if len(pivots) != k:
        raise ValueError("generator matrix must have full row rank")
    if k <= m:
        yield from _span_weights(words, n)
        return
    # The dual word of non-pivot column c: bit c plus the pivot of every row with bit c set.
    dual = [
        (1 << c) | sum(1 << p for row, p in zip(words, pivots) if (row >> c) & 1)
        for c in range(n)
        if c not in pivots
    ]
    dual_counts = [(j, b) for j, b in enumerate(_span_weights(dual, n)) if b]
    for w in range(n + 1):
        total = sum(
            b * sum((-1) ** s * math.comb(j, s) * math.comb(n - j, w - s) for s in range(min(j, w) + 1))
            for j, b in dual_counts
        )
        count, rest = divmod(total, 1 << m)
        if rest or count < 0:
            raise RuntimeError(f"MacWilliams sum {total} for weight {w} is not 2^{m} times a count")
        yield count


def min_distance(g: BitMatrix) -> int:
    """True minimum distance of the code spanned by the rows of g: the first
    w >= 1 with A_w > 0 (see :func:`_weight_counts`; later A_w are not summed).

    Raises:
        TooLarge: both k and n - k exceed MIN_DISTANCE_ROW_LIMIT.
        ValueError: g does not have full row rank.
    """
    counts = _weight_counts(g)
    next(counts)  # A_0, the zero word
    return next(w for w, count in enumerate(counts, 1) if count)
