"""Exact linear algebra over the two-element field.

Vectors and matrices keep their entries packed into Python integers
(bit ``j`` of a row word is column ``j``), so a row operation is a single
XOR regardless of width.  Everything is immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

# Exhaustive minimum-distance search enumerates 2^rows codewords; this bound
# keeps the largest supported search (rows = 26) under a few seconds.
MIN_DISTANCE_ROW_LIMIT = 26


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class NoUniqueSolution(ValueError):
    """The linear system is rank-deficient in the unknowns."""


class Inconsistent(ValueError):
    """The linear system has no solution."""


class TooLarge(ValueError):
    """Exhaustive enumeration would exceed the supported bound."""


class BitVector:
    """Immutable vector over {0, 1} with XOR addition."""

    __slots__ = ("_length", "_bits")

    def __init__(self, entries: Iterable[int]):
        bits = 0
        length = 0
        for e in entries:
            if e == 1:
                bits |= 1 << length
            elif e != 0:
                raise ValueError(f"entries must be 0 or 1, got {e!r}")
            length += 1
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

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if other._length != self._length:
            raise DimensionMismatch("vector lengths differ")
        return BitVector.from_int(self._bits ^ other._bits, self._length)

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

    __slots__ = ("_nrows", "_ncols", "_words")

    def __init__(self, rows: Iterable[Iterable[int]]):
        words: list[int] = []
        ncols: int | None = None
        for row in rows:
            word = 0
            width = 0
            for e in row:
                if e == 1:
                    word |= 1 << width
                elif e != 0:
                    raise ValueError(f"entries must be 0 or 1, got {e!r}")
                width += 1
            if ncols is None:
                ncols = width
            elif width != ncols:
                raise ValueError("all rows must have the same length")
            words.append(word)
        if not words or not ncols:
            raise ValueError("a matrix must have at least one row and one column")
        self._nrows = len(words)
        self._ncols = ncols
        self._words = tuple(words)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_row_words((1 << i for i in range(n)), n)

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
        m._nrows = len(words)
        m._ncols = cols
        m._words = words
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

    def row_word(self, i: int) -> int:
        return self._words[i]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not 0 <= j < self._ncols:
            raise IndexError("column index out of range")
        return (self._words[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        words = []
        for j in range(self._ncols):
            w = 0
            for i in range(self._nrows):
                if (self._words[i] >> j) & 1:
                    w |= 1 << i
            words.append(w)
        return BitMatrix.from_row_words(words, self._nrows)

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
        words = []
        for line in lines[1:]:
            if len(line) != ncols or set(line) - {"0", "1"}:
                raise ValueError(f"malformed matrix row: {line!r}")
            word = 0
            for j, ch in enumerate(line):
                if ch == "1":
                    word |= 1 << j
            words.append(word)
        return cls.from_row_words(words, ncols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._words == other._words

    def __hash__(self) -> int:
        return hash((self._ncols, self._words))

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


def row_reduce(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    words, pivots, _ = _eliminate(list(m.row_words), range(m.cols))
    return BitMatrix.from_row_words(words, m.cols), tuple(pivots)


def rank(m: BitMatrix) -> int:
    """Row rank over the two-element field."""
    _, pivots, _ = _eliminate(list(m.row_words), range(m.cols))
    return len(pivots)


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
    """

    __slots__ = ("known", "residual", "pivots", "free", "_rows", "_combos", "_ops")

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
        self._rows = tuple(rows)
        self._combos = combos
        self._ops = None

    @property
    def ops(self) -> int:
        """The XOR count that :func:`solve_with_cost` reports, worked out the
        first time it is read and then kept."""
        if self._ops is None:
            known = self.known
            self._ops = sum(max(0, (row & known).bit_count() - 1) for row in self._rows) + self._combos
        return self._ops

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


def _span_words(rows: Sequence[int]) -> list[int]:
    """All XOR combinations of the given rows, indexed by subset mask."""
    span = [0]
    for row in rows:
        span.extend([t ^ row for t in span])
    return span


def _pack(span: list[int], n_words: int) -> np.ndarray:
    if n_words == 1:
        return np.fromiter(span, dtype=np.uint64, count=len(span))
    mask = (1 << 64) - 1
    return np.array(
        [[(x >> (64 * w)) & mask for w in range(n_words)] for x in span],
        dtype=np.uint64,
    )


def min_distance(g: BitMatrix) -> int:
    """True minimum distance of the code generated by the rows of g.

    Enumerates every nonzero message exactly once (meet-in-the-middle over
    the two halves of the message space) and returns the smallest codeword
    weight found.

    Raises:
        TooLarge: g has more than MIN_DISTANCE_ROW_LIMIT rows.
        ValueError: g does not have full row rank.
    """
    k = g.rows
    if k > MIN_DISTANCE_ROW_LIMIT:
        raise TooLarge(
            f"exhaustive search supports at most {MIN_DISTANCE_ROW_LIMIT} rows, got {k}"
        )
    if rank(g) != k:
        raise ValueError("generator matrix must have full row rank")
    n_words = (g.cols + 63) // 64
    low = _pack(_span_words(g.row_words[: k // 2]), n_words)
    high = _span_words(g.row_words[k // 2 :])
    best = g.cols + 1
    for idx, word in enumerate(high):
        if n_words == 1:
            weights = np.bitwise_count(low ^ np.uint64(word))
        else:
            chunk = np.array(
                [(word >> (64 * w)) & ((1 << 64) - 1) for w in range(n_words)],
                dtype=np.uint64,
            )
            weights = np.bitwise_count(low ^ chunk[None, :]).sum(axis=1)
        if idx == 0:
            if len(weights) == 1:
                continue  # only the all-zero message in this slice
            w = int(weights[1:].min())
        else:
            w = int(weights.min())
        if w < best:
            best = w
    return best
