import itertools
import math
import random

import pytest

from npcode import gf2
from npcode.codes import ProtectionCode
from npcode.gf2 import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    Inconsistent,
    NoUniqueSolution,
    SolvePlan,
    TooLarge,
    mat_mul,
    mat_vec_mul,
    min_distance,
    solve_with_cost,
    subset_tables,
    xor_rows,
    xor_rows_by_tables,
)

from oracles import (
    erasure_fill_naive,
    mat_vec_naive,
    min_distance_naive,
    rank_naive,
    span_weights_naive,
    transpose_naive,
)


def parity_generator(n):
    """[I_{n-1} | all-ones column] as plain lists."""
    return [
        [1 if i == j else 0 for j in range(n - 1)] + [1] for i in range(n - 1)
    ]


def random_bit_matrix(rng, rows, cols):
    return BitMatrix([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])


def as_lists(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def rank(m):
    """Row rank: the pivot count of one elimination over every column."""
    return len(gf2._eliminate(list(m.row_words), range(m.cols))[1])


def random_full_rank(rng, rows, cols):
    while True:
        m = random_bit_matrix(rng, rows, cols)
        if rank(m) == rows:
            return m


def random_systematic(rng, k, m):
    """[I_k | P] with P a random k x m matrix."""
    return BitMatrix.from_row_words([1 << i | rng.getrandbits(m) << k for i in range(k)], k + m)


class TestConstruction:
    def test_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            BitVector([])

    def test_vector_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector([0, 2, 1])

    def test_matrix_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            BitMatrix([])
        with pytest.raises(ValueError):
            BitMatrix([[]])
        with pytest.raises(ValueError):
            BitMatrix([[1, 0], [1]])

    def test_vector_roundtrip(self):
        v = BitVector([1, 0, 1, 1])
        assert len(v) == 4
        assert v.to_tuple() == (1, 0, 1, 1)
        assert v[0] == 1 and v[1] == 0 and v[-1] == 1
        assert v == BitVector.from_int(0b1101, 4)

    def test_every_reader_packs_entry_i_at_bit_i(self):
        # BitVector, BitMatrix rows and from_text lines follow one packing
        # rule, each through its own reader: from_text reads a checked line
        # in base 2, the others go through gf2._pack
        for length in range(1, 9):
            for x in itertools.product((0, 1), repeat=length):
                line = "".join(map(str, x))
                parsed = BitMatrix.from_text(f"1 {length}\n{line}\n").row_words[0]
                assert BitVector(x).bits == BitMatrix([x]).row_words[0] == parsed
                assert parsed == sum(e << i for i, e in enumerate(x))

    @pytest.mark.parametrize("bad", [2, -1, "1"])
    def test_vector_and_matrix_reject_non_bits_alike(self, bad):
        message = f"entries must be 0 or 1, got {bad!r}"
        with pytest.raises(ValueError) as vec:
            BitVector([0, bad, 1])
        with pytest.raises(ValueError) as mat:
            BitMatrix([[1, 0, 1], [0, bad, 1]])
        assert str(vec.value) == str(mat.value) == message

    def test_ragged_rows_rejected_before_a_later_bad_entry(self):
        with pytest.raises(ValueError, match="all rows must have the same length"):
            BitMatrix([[1], [1, 0], [2]])

    def test_matrix_accessors(self):
        m = BitMatrix([[1, 0, 1], [0, 1, 1]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[0, 2] == 1 and m[1, 0] == 0
        assert m.transpose() == BitMatrix([[1, 0], [0, 1], [1, 1]])


class TestMatVecMul:
    def test_identity(self):
        assert mat_vec_mul(BitMatrix([[1, 0], [0, 1]]), BitVector([1, 0])) == BitVector([1, 0])

    def test_xor_of_rows(self):
        m = BitMatrix([[1, 0, 1], [0, 1, 1]])
        assert mat_vec_mul(m, BitVector([1, 1])) == BitVector([1, 1, 0])

    def test_zero_annihilates(self):
        m = BitMatrix([[1, 1], [1, 0], [0, 1]])
        assert mat_vec_mul(m, BitVector([0, 0, 0])) == BitVector([0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec_mul(BitMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), BitVector([1, 0]))

    def test_linearity_random(self):
        rng = random.Random(11)
        for _ in range(200):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            m = random_bit_matrix(rng, rows, cols)
            u = BitVector([rng.randrange(2) for _ in range(rows)])
            v = BitVector([rng.randrange(2) for _ in range(rows)])
            u_plus_v = BitVector.from_int(u.bits ^ v.bits, rows)
            assert mat_vec_mul(m, u_plus_v).bits == mat_vec_mul(m, u).bits ^ mat_vec_mul(m, v).bits

    def test_matches_naive(self):
        rng = random.Random(12)
        for _ in range(100):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            lists = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
            v = [rng.randrange(2) for _ in range(rows)]
            got = mat_vec_mul(BitMatrix(lists), BitVector(v))
            assert list(got) == mat_vec_naive(lists, v)


class TestSubsetTables:
    @pytest.mark.parametrize("rows", range(1, 11))
    def test_every_selector_matches_xor_rows(self, rows):
        # up to 8 rows is one group; 9 and 10 add a partial second group
        rng = random.Random(rows)
        words = [rng.getrandbits(12) for _ in range(rows)]
        tables = subset_tables(words)
        assert [len(t) for t in tables] == [1 << len(words[i : i + 8]) for i in range(0, rows, 8)]
        for selector in range(1 << rows):
            assert xor_rows_by_tables(tables, selector) == xor_rows(words, selector)

    def test_random_wide_rows_match_xor_rows(self):
        rng = random.Random(13)
        for _ in range(60):
            rows, width = rng.randrange(1, 131), rng.randrange(1, 201)
            words = [rng.getrandbits(width) for _ in range(rows)]
            tables = subset_tables(words)
            assert xor_rows_by_tables(tables, 0) == 0
            for _ in range(20):
                selector = rng.getrandbits(rows)
                assert xor_rows_by_tables(tables, selector) == xor_rows(words, selector)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_equal_rows(self):
        assert rank(BitMatrix([[1, 0, 1, 1], [1, 0, 1, 1]])) == 1

    def test_parity_generator_n5(self):
        assert rank(BitMatrix(parity_generator(5))) == 4

    def test_invariant_under_row_ops(self):
        rng = random.Random(13)
        for _ in range(100):
            rows, cols = rng.randrange(2, 7), rng.randrange(1, 7)
            lists = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
            r = rank(BitMatrix(lists))
            perm = lists[:]
            rng.shuffle(perm)
            assert rank(BitMatrix(perm)) == r
            i, j = rng.sample(range(rows), 2)
            added = [row[:] for row in lists]
            added[i] = [x ^ y for x, y in zip(added[i], added[j])]
            assert rank(BitMatrix(added)) == r

    def test_matches_naive(self):
        rng = random.Random(14)
        for _ in range(100):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            lists = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
            assert rank(BitMatrix(lists)) == rank_naive(lists)


def solve_system(a, b):
    """Solve ``a @ x = b`` through the packed solve: row i is a_i | b_i << cols,
    coordinate ``cols`` is a known 1 and columns 0..cols-1 are the unknowns."""
    cols = a.cols
    rows = [a.row_words[i] | (b[i] << cols) for i in range(a.rows)]
    word, ops = solve_with_cost(rows, range(cols), 1 << cols)
    return BitVector.from_int(word & ((1 << cols) - 1), cols), ops


class TestSolve:
    def test_identity_system(self):
        x, ops = solve_system(BitMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), BitVector([1, 0, 1]))
        assert x == BitVector([1, 0, 1])
        assert ops == 0

    def test_inconsistent(self):
        a = BitMatrix([[1, 1], [1, 1]])
        with pytest.raises(Inconsistent):
            solve_system(a, BitVector([1, 0]))

    def test_free_variable(self):
        a = BitMatrix([[1, 1], [0, 0]])
        with pytest.raises(NoUniqueSolution):
            solve_system(a, BitVector([1, 0]))

    def test_unknown_bits_of_word_ignored(self):
        rows = [0b1011, 0b1110, 0b0100]  # x0 + x1 = 1, x1 + x2 = 1, x2 = 0
        clean = solve_with_cost(rows, range(3), 1 << 3)
        assert clean == (0b1010, 3)
        assert solve_with_cost(rows, range(3), (1 << 3) | 0b111) == clean

    def test_no_unknowns_checks_consistency(self):
        assert solve_with_cost([0b011, 0b110], [], 0b111) == (0b111, 2)
        with pytest.raises(Inconsistent):
            solve_with_cost([0b011, 0b110], [], 0b011)

    def test_roundtrip_random_full_column_rank(self):
        rng = random.Random(15)
        done = 0
        while done < 200:
            cols = rng.randrange(1, 7)
            rows = rng.randrange(cols, cols + 4)
            a = random_bit_matrix(rng, rows, cols)
            if rank(a) != cols:
                continue
            x0 = BitVector([rng.randrange(2) for _ in range(cols)])
            b = mat_vec_mul(a.transpose(), x0)  # a @ x0 as a column system
            assert solve_system(a, b)[0] == x0
            done += 1

    def test_a_plan_is_one_elimination_of_the_rows(self, monkeypatch):
        # the plan's steps are the rows reduced on the unknowns: one
        # _eliminate per plan, and every step a row of the original width
        # with the bit of an unknown
        calls = []
        eliminate = gf2._eliminate
        monkeypatch.setattr(gf2, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
        rng = random.Random(57)
        for _ in range(40):
            width = rng.randrange(2, 12)
            rows = [rng.randrange(1 << width) for _ in range(rng.randrange(1, 6))]
            unknowns = rng.sample(range(width), rng.randrange(width + 1))
            calls.clear()
            plan = SolvePlan(rows, unknowns)
            assert len(calls) == 1
            assert all(row >> width == 0 and bit in {1 << j for j in unknowns} for row, bit in plan.steps)

    def test_one_plan_serves_every_word(self):
        # a plan applied to word after word gives what a fresh solve gives
        # each word, errors included: applying never changes the plan; and
        # both give what the naive oracle gives, for unknowns in any order
        rng = random.Random(41)
        for _ in range(40):
            width = rng.randrange(2, 8)
            rows = [rng.randrange(1 << width) for _ in range(rng.randrange(1, 5))]
            unknowns = rng.sample(range(width), rng.randrange(width + 1))
            plan = SolvePlan(rows, unknowns)
            h_rows = [[r >> j & 1 for j in range(width)] for r in rows]
            for word in range(1 << width):
                entries = [word >> j & 1 for j in range(width)]
                try:
                    fresh = solve_with_cost(rows, unknowns, word)
                except (Inconsistent, NoUniqueSolution) as exc:
                    with pytest.raises(type(exc)):
                        plan.apply(word)
                    with pytest.raises(type(exc)):
                        erasure_fill_naive(h_rows, unknowns, entries)
                else:
                    assert (plan.apply(word), plan.ops) == fresh
                    filled = erasure_fill_naive(h_rows, unknowns, entries)
                    assert fresh[0] == sum(b << j for j, b in enumerate(filled))


class TestMinDistance:
    def test_parity_generator_n5(self):
        assert min_distance(BitMatrix(parity_generator(5))) == 2

    def test_hamming_7_4(self):
        p = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
        g = [[1 if i == j else 0 for j in range(4)] + p[i] for i in range(4)]
        assert min_distance(BitMatrix(g)) == 3
        assert min_distance_naive(g) == 3

    def test_repetition(self):
        for n in (1, 2, 5, 70):
            assert min_distance(BitMatrix([[1] * n])) == n

    def test_too_large(self, monkeypatch):
        # [I_21 | 21 random columns]: k and n - k both exceed the bound, and
        # the bound is checked before any elimination or enumeration
        k = gf2.MIN_DISTANCE_ROW_LIMIT + 1
        rng = random.Random(22)
        big = BitMatrix.from_row_words([(1 << i) | (rng.getrandbits(k) << k) for i in range(k)], 2 * k)
        assert rank(big) == k

        def forbidden(*args):
            raise AssertionError("enumeration started above the bound")

        monkeypatch.setattr(gf2, "_eliminate", forbidden)
        monkeypatch.setattr(gf2, "_span_weights", forbidden)
        with pytest.raises(TooLarge):
            min_distance(big)
        with pytest.raises(TooLarge):
            list(gf2._weight_counts(big))

    def test_one_small_side_is_enough(self):
        # k = 40 is twice the bound, but the dual has only 2^4 words
        k = 2 * gf2.MIN_DISTANCE_ROW_LIMIT
        rows = [(1 << i) | (((i % 15) + 1) << k) for i in range(k)]
        assert min_distance(BitMatrix.from_row_words(rows, k + 4)) == 2

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            min_distance(BitMatrix([[1, 0, 1], [1, 0, 1]]))

    def test_non_systematic_generator_is_refused(self, monkeypatch):
        # full rank, but not [I_k | P]: rows out of order, a zero leading
        # column, identity columns last; refused before any elimination
        rng = random.Random(24)
        refused = [
            BitMatrix([[0, 1, 1, 0], [1, 0, 0, 1]]),
            BitMatrix([[0, 1, 0, 1], [0, 0, 1, 1]]),
            BitMatrix([[1, 1, 1, 0], [0, 1, 0, 1]]),
            BitMatrix([[1, 1, 0, 1, 0, 0], [1, 0, 1, 0, 1, 0], [0, 1, 1, 0, 0, 1]]),
        ]
        while len(refused) < 30:
            k = rng.randrange(1, 8)
            g = random_full_rank(rng, k, k + rng.randrange(0, 8))
            if any(w & ((1 << k) - 1) != 1 << i for i, w in enumerate(g.row_words)):
                refused.append(g)

        def eliminate(*args):
            raise AssertionError("eliminated")

        for g in refused:
            assert rank(g) == g.rows
            with pytest.raises(ValueError, match="systematic form"):
                min_distance(g)
            with monkeypatch.context() as patch:
                patch.setattr(gf2, "_eliminate", eliminate)
                with pytest.raises(ValueError, match="systematic form"):
                    list(gf2._weight_counts(g))

    def test_matches_naive_random(self):
        rng = random.Random(16)
        for _ in range(60):
            g = random_systematic(rng, rng.randrange(1, 7), rng.randrange(0, 6))
            assert min_distance(g) == min_distance_naive(as_lists(g))

    def test_wide_matrix_multiword(self):
        # more than 64 columns forces the multi-word packed path
        rng = random.Random(20)
        for _ in range(10):
            k = rng.randrange(1, 6)
            g = random_systematic(rng, k, 70 - k)
            assert min_distance(g) == min_distance_naive(as_lists(g))

    def test_matches_naive_on_both_sides(self, monkeypatch):
        # k <= n - k enumerates the code, k > n - k goes through the dual
        rng = random.Random(23)
        routes = {True: 0, False: 0}
        for _ in range(120):
            k = rng.randrange(1, 9)
            m = rng.randrange(0, 11)
            g = random_systematic(rng, k, m)
            routes[k <= m] += 1
            assert min_distance(g) == min_distance_naive(as_lists(g))
        assert min(routes.values()) >= 30
        # [I_k | P] with k > m is read as it stands, and its dual is the
        # parity check [P^T | I_m] that ProtectionCode derives from it
        spans = []
        span_weights = gf2._span_weights
        for _ in range(40):
            m = rng.randrange(1, 7)
            k = m + rng.randrange(1, 7)
            g = BitMatrix.from_row_words([1 << i | rng.getrandbits(m) << k for i in range(k)], k + m)
            check = ProtectionCode(g).parity_check.row_words
            with monkeypatch.context() as patch:
                patch.setattr(gf2, "_span_weights", lambda rows, n: spans.append(tuple(rows)) or span_weights(rows, n))
                assert min_distance(g) == min_distance_naive(as_lists(g))
            assert spans.pop() == check
            assert not spans

    def test_weight_distribution_matches_naive_histogram(self):
        rng = random.Random(25)
        for _ in range(60):
            k = rng.randrange(1, 8)
            g = random_systematic(rng, k, rng.randrange(0, 7))
            dist = list(gf2._weight_counts(g))
            assert sum(dist) == 1 << k
            assert dist == span_weights_naive(as_lists(g))

    def test_wide_dual_side_direct_sum(self):
        # Six [12, 9] blocks [I_9 | P_b] on disjoint columns, laid out as
        # [I_54 | P]: every block's identity columns first, then every block's
        # P columns. n = 72 spans two 64-bit words and k = 54 > m = 18, so only
        # the dual side is enumerable. Moving columns keeps weights, so the
        # weight distribution is the convolution of the blocks' distributions.
        rng = random.Random(26)
        n_block, k_block, blocks = 12, 9, 6
        m_block = n_block - k_block
        k = k_block * blocks
        rows, want, d_min = [], [1], k + m_block * blocks
        for b in range(blocks):
            block = random_systematic(rng, k_block, m_block)
            hist = span_weights_naive(as_lists(block))
            want = [sum(want[i] * hist[w - i] for i in range(len(want)) if 0 <= w - i < len(hist))
                    for w in range(len(want) + n_block)]
            d_min = min(d_min, min_distance_naive(as_lists(block)))
            rows += [1 << (b * k_block + i) | (w >> k_block) << (k + b * m_block) for i, w in enumerate(block.row_words)]
        g = BitMatrix.from_row_words(rows, k + m_block * blocks)
        assert g.cols == 72
        assert list(gf2._weight_counts(g)) == want
        assert min_distance(g) == d_min

    @pytest.mark.parametrize("n", [1, 31, 64, 72, 300])
    def test_span_weights_match_naive_histogram(self, n):
        # 1..13 rows cross the split after the first 8; zero, repeated and
        # dependent rows make words repeat in the span
        rng = random.Random(27 + n)
        for count in range(1, 14):
            words = [rng.getrandbits(n) for _ in range(count)]
            for _ in range(count // 3):
                i, j, l = (rng.randrange(count) for _ in range(3))
                words[i] = rng.choice([0, words[j], words[j] ^ words[l]])
            lists = [[(w >> c) & 1 for c in range(n)] for w in words]
            assert gf2._span_weights(words, n) == span_weights_naive(lists), (count, words)
        assert gf2._span_weights([0] * 9, n) == [512] + [0] * n
        assert gf2._span_weights([1] * 10, n) == [512, 512] + [0] * (n - 1)

    def test_krawtchouk_recurrence_matches_closed_form(self):
        for n in range(41):
            values = list(gf2._krawtchouk(n, range(n + 1)))
            assert len(values) == n + 1
            for w, row in enumerate(values):
                assert row == [
                    sum((-1) ** s * math.comb(j, s) * math.comb(n - j, w - s) for s in range(min(j, w) + 1))
                    for j in range(n + 1)
                ], (n, w)

    def test_corrupt_dual_count_is_caught(self, monkeypatch):
        # one word too many on the dual side cannot give whole counts
        real = gf2._span_weights

        def off_by_one(rows, n):
            hist = real(rows, n)
            hist[1] += 1
            return hist

        monkeypatch.setattr(gf2, "_span_weights", off_by_one)
        with pytest.raises(RuntimeError, match="MacWilliams"):
            min_distance(BitMatrix(parity_generator(6)))

    def test_bounded_by_min_row_weight(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_systematic(rng, rng.randrange(1, 8), rng.randrange(0, 8))
            assert min_distance(g) <= min(w.bit_count() for w in g.row_words)


class TestTextFormat:
    def test_roundtrip(self):
        m = BitMatrix([[1, 0, 1], [0, 1, 1]])
        t = m.to_text()
        assert t == "2 3\n101\n011\n"
        assert BitMatrix.from_text(t) == m
        assert BitMatrix.from_text(t).to_text() == t

    def test_roundtrip_random(self):
        rng = random.Random(18)
        for _ in range(50):
            m = random_bit_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
            assert BitMatrix.from_text(m.to_text()) == m

    def test_matches_the_per_bit_form(self):
        # one character per bit, bit j of a row word as character j; widths
        # from 1 column past several bytes, most not a multiple of 8
        rng = random.Random(45)
        for cols in [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200]:
            for _ in range(5):
                words = [rng.getrandbits(cols) for _ in range(rng.randrange(1, 6))]
                per_bit = "".join(
                    "".join("1" if w >> j & 1 else "0" for j in range(cols)) + "\n" for w in words
                )
                text = BitMatrix.from_row_words(words, cols).to_text()
                assert text == f"{len(words)} {cols}\n" + per_bit, (cols, words)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n10\n01\n",
            "2 2\n10\n",
            "2 2\n10\n011\n",
            "2 2\n10\n0x\n",
            "a 2\n10\n01\n",
            "2 2\n1 0\n0 1\n",
            "0 0\n",
            "\u0662 \uff13\n101\n011\n",  # Arabic-Indic 2, fullwidth 3
            # rows as wide as the header says that int(row, 2) would accept
            "1 3\n0_1\n",
            "1 3\n10 \n",
            "1 3\n\u0661\u0660\u0661\n",  # Arabic-Indic 1, 0, 1
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            BitMatrix.from_text(text)


def padded_width(rows):
    """The column count of :func:`gf2._column_tables`: the widest row, rounded up to whole bytes."""
    return -(-max((row.bit_length() for row in rows), default=0) // 8) * 8


class TestColumns:
    """``gf2._columns``, ``BitMatrix.transpose`` and ``gf2._column_tables``
    against the list-based :func:`transpose_naive`."""

    def check(self, words, width):
        want = transpose_naive(words, width)
        assert gf2._columns(words, width) == want
        assert BitMatrix.from_row_words(words, width).transpose().row_words == want
        tables = gf2._column_tables.__wrapped__(tuple(words))
        assert tables == subset_tables(transpose_naive(words, padded_width(words)))

    @pytest.mark.parametrize("rows, width", [(1, 1), (1, 4096), (4095, 1)])
    def test_extreme_shapes(self, rows, width):
        rng = random.Random(rows * 7 + width)
        words = [rng.getrandbits(width) for _ in range(rows)]
        words[0] |= 1 << (width - 1)  # a set top bit in each shape
        self.check(words, width)

    @pytest.mark.parametrize("width", [7, 8, 9, 63, 64, 65, 257])
    def test_widths(self, width):
        rng = random.Random(width)
        for rows in [1, 2, 7, 8, 9, 30]:
            self.check([rng.getrandbits(width) for _ in range(rows)], width)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 257])
    def test_all_zero_and_all_one_rows(self, width):
        for rows in [1, 5, 9]:
            zeros, ones = [0] * rows, [(1 << width) - 1] * rows
            self.check(zeros, width)
            self.check(ones, width)
            assert gf2._columns(zeros, width) == (0,) * width
            assert gf2._columns(ones, width) == ((1 << rows) - 1,) * width


def test_mat_mul_against_naive():
    rng = random.Random(19)
    for _ in range(60):
        p, q, r = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(2) for _ in range(q)] for _ in range(p)]
        b = [[rng.randrange(2) for _ in range(r)] for _ in range(q)]
        want = [
            [sum(a[i][t] & b[t][j] for t in range(q)) % 2 for j in range(r)]
            for i in range(p)
        ]
        got = mat_mul(BitMatrix(a), BitMatrix(b))
        assert got == BitMatrix(want)
