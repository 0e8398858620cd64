import random

import pytest

from npcode import gf2
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
    rank,
    row_reduce,
    solve_with_cost,
)

from oracles import mat_vec_naive, min_distance_naive, rank_naive


def parity_generator(n):
    """[I_{n-1} | all-ones column] as plain lists."""
    return [
        [1 if i == j else 0 for j in range(n - 1)] + [1] for i in range(n - 1)
    ]


def random_bit_matrix(rng, rows, cols):
    return BitMatrix([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])


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

    def test_matrix_accessors(self):
        m = BitMatrix([[1, 0, 1], [0, 1, 1]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[0, 2] == 1 and m[1, 0] == 0
        assert m.transpose() == BitMatrix([[1, 0], [0, 1], [1, 1]])


class TestMatVecMul:
    def test_identity(self):
        assert mat_vec_mul(BitMatrix.identity(2), BitVector([1, 0])) == BitVector([1, 0])

    def test_xor_of_rows(self):
        m = BitMatrix([[1, 0, 1], [0, 1, 1]])
        assert mat_vec_mul(m, BitVector([1, 1])) == BitVector([1, 1, 0])

    def test_zero_annihilates(self):
        m = BitMatrix([[1, 1], [1, 0], [0, 1]])
        assert mat_vec_mul(m, BitVector([0, 0, 0])) == BitVector([0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec_mul(BitMatrix.identity(3), BitVector([1, 0]))

    def test_linearity_random(self):
        rng = random.Random(11)
        for _ in range(200):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            m = random_bit_matrix(rng, rows, cols)
            u = BitVector([rng.randrange(2) for _ in range(rows)])
            v = BitVector([rng.randrange(2) for _ in range(rows)])
            assert mat_vec_mul(m, u ^ v) == mat_vec_mul(m, u) ^ mat_vec_mul(m, v)

    def test_matches_naive(self):
        rng = random.Random(12)
        for _ in range(100):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            lists = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
            v = [rng.randrange(2) for _ in range(rows)]
            got = mat_vec_mul(BitMatrix(lists), BitVector(v))
            assert list(got) == mat_vec_naive(lists, v)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

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

    def test_row_reduce_pivots(self):
        m = BitMatrix([[0, 1, 1], [0, 1, 0]])
        reduced, pivots = row_reduce(m)
        assert pivots == (1, 2)
        assert reduced == BitMatrix([[0, 1, 0], [0, 0, 1]])


def solve_system(a, b):
    """Solve ``a @ x = b`` through the packed solve: row i is a_i | b_i << cols,
    coordinate ``cols`` is a known 1 and columns 0..cols-1 are the unknowns."""
    cols = a.cols
    rows = [a.row_word(i) | (b[i] << cols) for i in range(a.rows)]
    word, ops = solve_with_cost(rows, range(cols), 1 << cols)
    return BitVector.from_int(word & ((1 << cols) - 1), cols), ops


class TestSolve:
    def test_identity_system(self):
        x, ops = solve_system(BitMatrix.identity(3), BitVector([1, 0, 1]))
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


    def test_one_plan_serves_every_word(self):
        # a plan applied to word after word gives what a fresh solve gives
        # each word, errors included: applying never changes the plan
        rng = random.Random(41)
        for _ in range(40):
            width = rng.randrange(2, 8)
            rows = [rng.randrange(1 << width) for _ in range(rng.randrange(1, 5))]
            unknowns = rng.sample(range(width), rng.randrange(width + 1))
            plan = SolvePlan(rows, unknowns)
            for word in range(1 << width):
                try:
                    fresh = solve_with_cost(rows, unknowns, word)
                except (Inconsistent, NoUniqueSolution) as exc:
                    with pytest.raises(type(exc)):
                        plan.apply(word)
                else:
                    assert (plan.apply(word), plan.ops) == fresh


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

    def test_too_large(self):
        big = BitMatrix.identity(gf2.MIN_DISTANCE_ROW_LIMIT + 1)
        with pytest.raises(TooLarge):
            min_distance(big)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            min_distance(BitMatrix([[1, 0, 1], [1, 0, 1]]))

    def test_matches_naive_random(self):
        rng = random.Random(16)
        done = 0
        while done < 60:
            rows = rng.randrange(1, 7)
            cols = rng.randrange(rows, rows + 6)
            m = random_bit_matrix(rng, rows, cols)
            if rank(m) != rows:
                continue
            lists = [[m[i, j] for j in range(cols)] for i in range(rows)]
            assert min_distance(m) == min_distance_naive(lists)
            done += 1

    def test_wide_matrix_multiword(self):
        # more than 64 columns forces the multi-word packed path
        rng = random.Random(20)
        done = 0
        while done < 10:
            rows = rng.randrange(1, 6)
            lists = [[rng.randrange(2) for _ in range(70)] for _ in range(rows)]
            m = BitMatrix(lists)
            if rank(m) != rows:
                continue
            assert min_distance(m) == min_distance_naive(lists)
            done += 1

    def test_bounded_by_min_row_weight(self):
        rng = random.Random(17)
        done = 0
        while done < 80:
            rows = rng.randrange(1, 8)
            cols = rng.randrange(rows, rows + 8)
            m = random_bit_matrix(rng, rows, cols)
            if rank(m) != rows:
                continue
            min_row_weight = min(w.bit_count() for w in m.row_words)
            assert min_distance(m) <= min_row_weight
            done += 1


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
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            BitMatrix.from_text(text)


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
