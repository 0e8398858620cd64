import itertools
import math
import random

import pytest

from npcode import codes, gf2
from npcode.codes import (
    AmbiguousErasure,
    ErasurePattern,
    Inconsistent,
    ProtectionCode,
    TooManyPatterns,
    bch_code,
    encode,
    erasure_decode,
    erasure_decode_with_cost,
    format_code_file,
    hamming_code,
    parse_code_file,
    shorten,
    single_parity_code,
    verify_protection,
)
from npcode.gf2 import BitMatrix, BitVector, DimensionMismatch, mat_mul

from oracles import agreeing_messages, encode_naive, min_distance_naive


def as_lists(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def all_codes_small():
    return [
        single_parity_code(2),
        single_parity_code(5),
        single_parity_code(8),
        hamming_code(2),
        hamming_code(3),
        hamming_code(4),
        bch_code(7, 2),
        bch_code(15, 2),
    ]


class TestSingleParity:
    def test_n3_generator(self):
        code = single_parity_code(3)
        assert code.generator == BitMatrix([[1, 0, 1], [0, 1, 1]])
        assert code.parity_check == BitMatrix([[1, 1, 1]])

    def test_n5_parameters(self):
        code = single_parity_code(5)
        assert (code.n, code.k, code.m) == (5, 4, 1)
        assert code.d_min == 2 and code.d_min_verified

    def test_n2_repetition(self):
        code = single_parity_code(2)
        assert code.generator == BitMatrix([[1, 1]])

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            single_parity_code(1)

    def test_rejects_n_beyond_an_index(self):
        # fails before any allocation; a large n that still fits an index
        # would try to allocate its n - 1 generator rows
        with pytest.raises(ValueError, match="too many rows"):
            single_parity_code(2**64)

    def test_distance_matches_exhaustive_search(self):
        for n in range(2, 12):
            code = single_parity_code(n)
            assert gf2.min_distance(code.generator) == 2
            assert min_distance_naive(as_lists(code.generator)) == code.d_min


class TestHamming:
    def test_mu3_parameters(self):
        code = hamming_code(3)
        assert (code.n, code.k, code.m) == (7, 4, 3)
        assert code.d_min == 3 and code.d_min_verified

    def test_mu3_known_parity_block(self):
        # data columns are the ascending weight->=2 patterns 3, 5, 6, 7
        code = hamming_code(3)
        p_rows = [code.generator.row_word(i) >> 4 for i in range(4)]
        assert p_rows == [0b011, 0b101, 0b110, 0b111]

    def test_mu4_parameters(self):
        code = hamming_code(4)
        assert (code.n, code.k, code.m) == (15, 11, 4)
        assert code.d_min == 3 and code.d_min_verified

    def test_mu3_distance_confirmed_by_naive_oracle(self):
        code = hamming_code(3)
        assert min_distance_naive(as_lists(code.generator)) == 3

    def test_parity_columns_cover_all_nonzero_patterns(self):
        for mu in (2, 3, 4):
            code = hamming_code(mu)
            cols = set()
            h = code.parity_check
            for j in range(code.n):
                cols.add(tuple(h[i, j] for i in range(code.m)))
            assert len(cols) == code.n  # all distinct, all nonzero

    def test_mu5_still_verified(self):
        # k = 26 sits exactly at the enumeration bound
        code = hamming_code(5)
        assert (code.n, code.k) == (31, 26)
        assert code.d_min == 3 and code.d_min_verified

    def test_mu6_declared(self):
        code = hamming_code(6)
        assert (code.n, code.k) == (63, 57)
        assert code.d_min == 3 and not code.d_min_verified

    @pytest.mark.parametrize("mu", [1, 7, 0])
    def test_rejects_out_of_range(self, mu):
        with pytest.raises(ValueError):
            hamming_code(mu)


class TestBCH:
    def test_15_1_is_hamming_parameters(self):
        code = bch_code(15, 1)
        assert (code.n, code.k) == (15, 11)
        assert code.d_min == 3 and code.d_min_verified

    def test_15_2(self):
        # the generator polynomial has degree 8, so k = 7 here
        code = bch_code(15, 2)
        assert (code.n, code.k) == (15, 7)
        assert code.d_min == 5 and code.d_min_verified
        assert min_distance_naive(as_lists(code.generator)) == 5

    def test_7_2_is_repetition(self):
        code = bch_code(7, 2)
        assert (code.n, code.k, code.d_min) == (7, 1, 7)
        assert code.d_min_verified

    def test_31_2(self):
        code = bch_code(31, 2)
        assert (code.n, code.k) == (31, 21)
        assert code.d_min == 5 and code.d_min_verified

    def test_63_2_declared(self):
        code = bch_code(63, 2)
        assert (code.n, code.k) == (63, 51)
        assert code.d_min == 5 and not code.d_min_verified

    @pytest.mark.parametrize("n,t", [(8, 1), (15, 3), (3, 1), (127, 1), (15, 0)])
    def test_rejects_unsupported(self, n, t):
        with pytest.raises(ValueError):
            bch_code(n, t)


class TestInvariants:
    def test_orthogonality_all_constructions(self):
        for code in all_codes_small() + [hamming_code(6), bch_code(63, 1), bch_code(63, 2)]:
            product = mat_mul(code.generator, code.parity_check.transpose())
            assert product.is_zero()

    def test_systematic_prefix(self):
        rng = random.Random(21)
        for code in all_codes_small():
            for _ in range(50):
                msg = BitVector([rng.randrange(2) for _ in range(code.k)])
                assert encode(code, msg).to_tuple()[: code.k] == msg.to_tuple()

    def test_verified_distance_matches_enumeration(self):
        for code in all_codes_small():
            assert code.d_min_verified
            assert gf2.min_distance(code.generator) == code.d_min

    def test_constructor_rejects_non_systematic(self):
        with pytest.raises(ValueError):
            ProtectionCode(
                3, 2, 1,
                BitMatrix([[0, 1, 1], [1, 0, 1]]),
                BitMatrix([[1, 1, 1]]),
                2, False,
            )

    def test_constructor_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            ProtectionCode(
                3, 2, 1,
                BitMatrix([[1, 0, 1], [0, 1, 1]]),
                BitMatrix([[1, 0, 1]]),
                2, False,
            )


class TestEncode:
    def test_parity_example(self):
        code = single_parity_code(5)
        assert encode(code, [1, 1, 0, 1]) == BitVector([1, 1, 0, 1, 1])

    def test_zero_message(self):
        for code in (single_parity_code(4), hamming_code(3)):
            assert encode(code, [0] * code.k) == BitVector.from_int(0, code.n)

    def test_hamming_parity_tail(self):
        code = hamming_code(3)
        cw = encode(code, [1, 0, 1, 1])
        assert cw == BitVector([1, 0, 1, 1, 0, 1, 0])
        assert cw.bits.bit_count() >= 3
        assert list(cw) == encode_naive(as_lists(code.generator), [1, 0, 1, 1])

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            encode(single_parity_code(4), [1, 0])


class TestErasureDecode:
    def test_single_loss_on_parity_code(self):
        code = single_parity_code(4)
        received = [1, None, 1, 0]
        msg = erasure_decode(code, received, ErasurePattern(4, {1}))
        assert msg == BitVector([1, 0, 1])

    def test_two_losses_exceed_parity_code(self):
        code = single_parity_code(4)
        with pytest.raises(AmbiguousErasure):
            erasure_decode(code, [None, 0, None, 0], ErasurePattern(4, {0, 2}))

    def test_no_erasures_passthrough(self):
        code = single_parity_code(4)
        cw = encode(code, [1, 1, 0])
        assert erasure_decode(code, list(cw), ErasurePattern(4, ())) == BitVector([1, 1, 0])

    def test_no_erasures_detects_corruption(self):
        code = single_parity_code(4)
        cw = list(encode(code, [1, 1, 0]))
        cw[0] ^= 1
        with pytest.raises(Inconsistent):
            erasure_decode(code, cw, ErasurePattern(4, ()))

    @pytest.mark.parametrize("code", [bch_code(15, 2), hamming_code(4)], ids=["bch15", "hamming4"])
    def test_plan_ops_match_the_eager_count(self, code):
        # every erased set of up to 5 coordinates, ambiguous ones included:
        # the XOR count a plan works out when first read is the count that
        # every plan used to work out up front
        rows = code.parity_check.row_words
        ambiguous = 0
        for t in range(6):
            for erased in itertools.combinations(range(code.n), t):
                mask = sum(1 << j for j in erased)
                combos = gf2._eliminate(list(rows), erased)[2]
                eager = sum(max(0, (row & ~mask).bit_count() - 1) for row in rows) + combos
                plan = codes.repair_plan(code.parity_check, mask)
                assert plan.ops == eager
                ambiguous += plan.free > 0
        assert ambiguous > 0

    def test_pattern_must_match_slots(self):
        code = single_parity_code(4)
        with pytest.raises(ValueError):
            erasure_decode(code, [1, None, 1, 0], ErasurePattern(4, {2}))
        with pytest.raises(ValueError):
            erasure_decode(code, [1, 1, 1, 0], ErasurePattern(4, {2}))

    def test_hamming_all_double_erasures_match_agreement_oracle(self):
        code = hamming_code(3)
        g_lists = as_lists(code.generator)
        for msg in itertools.product((0, 1), repeat=4):
            cw = encode_naive(g_lists, msg)
            for pat in itertools.combinations(range(7), 2):
                received = [None if j in pat else cw[j] for j in range(7)]
                survivors = agreeing_messages(g_lists, received)
                assert survivors == [msg]
                got = erasure_decode(code, received, ErasurePattern(7, pat))
                assert got.to_tuple() == msg

    def test_hamming_every_received_word_matches_agreement_oracle(self):
        # each slot is 0, 1 or erased: all 3^7 words, consistent or not
        code = hamming_code(3)
        g_lists = as_lists(code.generator)
        split = {"decoded": 0, "ambiguous": 0, "inconsistent": 0}
        for received in itertools.product((0, 1, None), repeat=7):
            received = list(received)
            pattern = ErasurePattern(7, (j for j in range(7) if received[j] is None))
            agreeing = agreeing_messages(g_lists, received)
            if not agreeing:
                with pytest.raises(Inconsistent):
                    erasure_decode(code, received, pattern)
                split["inconsistent"] += 1
            elif len(agreeing) == 1:
                assert erasure_decode(code, received, pattern).to_tuple() == agreeing[0]
                split["decoded"] += 1
            else:
                with pytest.raises(AmbiguousErasure):
                    erasure_decode(code, received, pattern)
                split["ambiguous"] += 1
        assert split == {"decoded": 912, "ambiguous": 435, "inconsistent": 840}

    def test_xor_cost_single_parity(self):
        for n in (3, 5, 9, 17):
            code = single_parity_code(n)
            cw = list(encode(code, [1] * (n - 1)))
            cw[1] = None
            _, ops = erasure_decode_with_cost(code, cw, ErasurePattern(n, {1}))
            assert ops == n - 2

    def test_cost_is_data_independent(self):
        rng = random.Random(22)
        code = hamming_code(3)
        pat = ErasurePattern(7, (0, 5))
        costs = set()
        for _ in range(20):
            msg = [rng.randrange(2) for _ in range(4)]
            received = list(encode(code, msg))
            received[0] = received[5] = None
            _, ops = erasure_decode_with_cost(code, received, pat)
            costs.add(ops)
        assert len(costs) == 1

    @pytest.mark.parametrize(
        "family, t, total, ambiguous",
        [
            ("bch15", 0, 30, 0),
            ("bch15", 1, 435, 0),
            ("bch15", 2, 2967, 0),
            ("bch15", 3, 12664, 0),
            ("bch15", 4, 37962, 0),
            ("bch15", 5, 84406, 18),
            ("hamming4", 3, 10574, 35),
        ],
    )
    def test_xor_totals_over_every_pattern(self, family, t, total, ambiguous):
        code = bch_code(15, 2) if family == "bch15" else hamming_code(4)
        cw = list(encode(code, [1] * code.k))
        ops_sum = failures = 0
        for pat in itertools.combinations(range(code.n), t):
            received = [None if j in pat else cw[j] for j in range(code.n)]
            try:
                ops_sum += erasure_decode_with_cost(code, received, ErasurePattern(code.n, pat))[1]
            except AmbiguousErasure:
                failures += 1
        assert (ops_sum, failures) == (total, ambiguous)


def per_pattern_failing(code, t):
    """The failing t-subsets found the slow way: erase each subset from a
    codeword and decode it; an ambiguous pattern or a wrong message fails."""
    rng = random.Random(code.n * 100 + t)
    message = BitVector([rng.randrange(2) for _ in range(code.k)])
    word = list(encode(code, message))
    failing = []
    for pat in itertools.combinations(range(code.n), t):
        received = [None if j in pat else b for j, b in enumerate(word)]
        try:
            ok = erasure_decode(code, received, ErasurePattern(code.n, pat)) == message
        except AmbiguousErasure:
            ok = False
        if not ok:
            failing.append(pat)
    return tuple(failing)


class TestVerifyProtection:
    @pytest.mark.parametrize(
        "code, max_t",
        [
            (single_parity_code(6), 6),
            (hamming_code(3), 7),
            (bch_code(15, 2), 5),
            (hamming_code(4), 5),
        ],
        ids=["parity6", "hamming3", "bch15", "hamming4"],
    )
    def test_matches_per_pattern_decoder(self, code, max_t):
        failed_somewhere = False
        for t in range(max_t + 1):
            expected = per_pattern_failing(code, t)
            report = verify_protection(code, t)
            assert report.failing_patterns == expected, t
            assert report.recoverable == (not expected)
            assert report.patterns_checked == math.comb(code.n, t)
            failed_somewhere |= bool(expected)
        assert failed_somewhere

    def test_round_trip_guard_catches_a_wrong_solver(self, monkeypatch):
        apply = gf2.SolvePlan.apply

        def flip_bit_0(plan, word):
            return apply(plan, word) ^ 1

        monkeypatch.setattr(gf2.SolvePlan, "apply", flip_bit_0)
        for code, t in ((hamming_code(3), 2), (bch_code(15, 2), 4), (single_parity_code(6), 0)):
            report = verify_protection(code, t)
            assert report.failing_patterns == tuple(itertools.combinations(range(code.n), t))

    def test_parity_single_failure(self):
        report = verify_protection(single_parity_code(8), 1)
        assert report.recoverable
        assert report.failing_patterns == ()
        assert report.patterns_checked == 8

    def test_hamming_two_failures(self):
        report = verify_protection(hamming_code(3), 2)
        assert report.recoverable and report.patterns_checked == 21

    def test_hamming_three_failures(self):
        report = verify_protection(hamming_code(3), 3)
        assert not report.recoverable
        # exactly the 3-subsets whose parity-check columns are dependent
        assert len(report.failing_patterns) == 7
        assert (0, 1, 2) in report.failing_patterns

    def test_leaves_the_plan_memo_empty(self):
        codes.repair_plan.cache_clear()
        assert not verify_protection(hamming_code(3), 3).recoverable
        assert verify_protection(bch_code(15, 2), 4).recoverable
        assert codes.repair_plan.cache_info().currsize == 0

    def test_pattern_bound(self):
        with pytest.raises(TooManyPatterns):
            verify_protection(hamming_code(6), 20)

    def test_round_trip_guarantee_vs_exhaustive(self):
        for code in all_codes_small():
            assert verify_protection(code, code.d_min - 1).recoverable
            assert not verify_protection(code, code.d_min).recoverable


class TestShorten:
    def test_noop(self):
        code = hamming_code(3)
        assert shorten(code, ()) is code

    def test_hamming_by_one(self):
        base = hamming_code(3)
        for drop in range(4):
            code = shorten(base, {drop})
            assert (code.n, code.k, code.m) == (6, 3, 3)
            assert code.d_min_verified and code.d_min == 3
            assert min_distance_naive(as_lists(code.generator)) == 3

    def test_hamming_15_by_eight(self):
        code = shorten(hamming_code(4), set(range(8)))
        assert (code.n, code.k) == (7, 3)
        assert code.d_min_verified and code.d_min >= 3

    def test_never_decreases_distance(self):
        rng = random.Random(23)
        for base in (hamming_code(3), hamming_code(4), bch_code(15, 2)):
            for _ in range(10):
                size = rng.randrange(1, base.k)
                drop = set(rng.sample(range(base.k), size))
                code = shorten(base, drop)
                assert code.d_min >= base.d_min

    def test_rejects_bad_positions(self):
        code = hamming_code(3)
        with pytest.raises(ValueError):
            shorten(code, {4})
        with pytest.raises(ValueError):
            shorten(code, {0, 1, 2, 3})


class TestRoundTripProperty:
    def test_exhaustive_small_codes(self):
        for code in (single_parity_code(4), hamming_code(3), bch_code(7, 2)):
            for msg in itertools.product((0, 1), repeat=code.k):
                cw = list(encode(code, msg))
                for t in range(code.d_min):
                    for pat in itertools.combinations(range(code.n), t):
                        received = [None if j in pat else cw[j] for j in range(code.n)]
                        got = erasure_decode(code, received, ErasurePattern(code.n, pat))
                        assert got.to_tuple() == msg

    def test_sampled_larger_codes(self):
        rng = random.Random(24)
        for code in (hamming_code(4), bch_code(31, 2), single_parity_code(33)):
            for _ in range(200):
                msg = tuple(rng.randrange(2) for _ in range(code.k))
                t = rng.randrange(code.d_min)
                pat = tuple(sorted(rng.sample(range(code.n), t)))
                cw = list(encode(code, msg))
                received = [None if j in pat else cw[j] for j in range(code.n)]
                got = erasure_decode(code, received, ErasurePattern(code.n, pat))
                assert got.to_tuple() == msg


class TestCodeFile:
    def test_roundtrip(self):
        for code in all_codes_small():
            text = format_code_file(code)
            loaded = parse_code_file(text)
            assert loaded == code
            assert format_code_file(loaded) == text

    def test_header_shape(self):
        text = format_code_file(single_parity_code(5))
        assert text.splitlines()[0] == "NPC 5 4 2 verified"
        assert text.splitlines()[1] == "4 5"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lines: ["XPC 5 4 2 verified"] + lines[1:],
            lambda lines: ["NPC 5 4 2"] + lines[1:],
            lambda lines: ["NPC 6 4 2 verified"] + lines[1:],
            lambda lines: ["NPC 5 3 2 verified"] + lines[1:],
            lambda lines: ["NPC 5 4 2 maybe"] + lines[1:],
            lambda lines: lines[:2] + lines[3:],
            # distances the [5,4,2] generator does not have
            lambda lines: ["NPC 5 4 3 verified"] + lines[1:],
            lambda lines: ["NPC 5 4 1 declared"] + lines[1:],
        ],
    )
    def test_rejects_corrupted(self, mutate):
        lines = format_code_file(single_parity_code(5)).splitlines()
        with pytest.raises(ValueError):
            parse_code_file("\n".join(mutate(lines)) + "\n")

    def test_rejects_verified_flag_above_enumeration_bound(self):
        text = format_code_file(bch_code(63, 2))
        assert text.startswith("NPC 63 51 5 declared\n")
        assert parse_code_file(text).d_min == 5
        with pytest.raises(ValueError):
            parse_code_file(text.replace("declared", "verified", 1))

    def test_rejects_non_systematic_matrix(self):
        text = "NPC 3 2 2 declared\n2 3\n011\n101\n"
        with pytest.raises(ValueError):
            parse_code_file(text)
