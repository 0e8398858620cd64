import copy
import dataclasses
import functools
import hashlib
import inspect
import itertools
import math
import operator
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from npcode.gf2 import BitMatrix, BitVector, DimensionMismatch, NoUniqueSolution, mat_mul

from oracles import (
    agreeing_messages,
    cyclic_naive,
    encode_naive,
    erasure_fill_naive,
    failure_count_by_weights,
    min_distance_naive,
    rank_naive,
    transpose_naive,
)


def unchecked_copy(code, **changes):
    """``code`` with some fields replaced, skipping ProtectionCode's checks."""
    copy = object.__new__(ProtectionCode)
    for field in dataclasses.fields(code):
        object.__setattr__(copy, field.name, changes.get(field.name, getattr(code, field.name)))
    return copy


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
        # fails before any allocation
        with pytest.raises(ValueError, match="too many rows"):
            single_parity_code(2**64)

    def test_length_bound_is_checked_before_the_build(self, monkeypatch):
        # a missing bound would build n^2 bits; the build is stubbed out, so
        # the test fails instead of exhausting memory
        def build(*args):
            raise AssertionError("built")

        monkeypatch.setattr(codes, "_build", build)
        with pytest.raises(ValueError, match="too many rows"):
            single_parity_code(codes.LENGTH_LIMIT + 1)
        with pytest.raises(AssertionError, match="built"):
            single_parity_code(codes.LENGTH_LIMIT)

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
        p_rows = [code.generator.row_words[i] >> 4 for i in range(4)]
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
        # k = 26 is measured through the 2^5 words of the dual
        code = hamming_code(5)
        assert (code.n, code.k) == (31, 26)
        assert code.d_min == 3 and code.d_min_verified

    def test_mu6_verified(self):
        # k = 57 is far above the enumeration bound, but m = 6 is not
        code = hamming_code(6)
        assert (code.n, code.k) == (63, 57)
        assert code.d_min == 3 and code.d_min_verified

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
        # the parity check has rank 8, so k = 7 here
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

    def test_63_2_verified(self):
        code = bch_code(63, 2)
        assert (code.n, code.k) == (63, 51)
        assert code.d_min == 5 and code.d_min_verified

    @pytest.mark.parametrize("n,t", [(8, 1), (15, 3), (3, 1), (127, 1), (15, 0)])
    def test_rejects_unsupported(self, n, t):
        with pytest.raises(ValueError):
            bch_code(n, t)

    @pytest.mark.parametrize(
        "n,t,k",
        [(7, 1, 4), (7, 2, 1), (15, 1, 11), (15, 2, 7), (31, 1, 26), (31, 2, 21), (63, 1, 57), (63, 2, 51)],
    )
    def test_cyclic_with_tabulated_dimension(self, n, t, k):
        # A BCH code is cyclic: each generator row rotated by one position
        # is again a codeword, so it has even overlap with every check row.
        code = bch_code(n, t)
        assert code.k == k
        full = (1 << n) - 1
        for g in code.generator.row_words:
            rotated = (g << 1 | g >> (n - 1)) & full
            assert not any((rotated & h).bit_count() & 1 for h in code.parity_check.row_words)
        assert codes._is_cyclic(code.parity_check)


# sha256 of format_code_file(code) + code.parity_check.to_text(): each
# construction's generator, parity check, distance and flag, byte for byte.
CONSTRUCTION_PINS = {
    "parity-2": ("df2a2d32b79469cb2696d7371144d6094910c5575d80284e5569af3f73e8c3f0", lambda: single_parity_code(2)),
    "parity-3": ("3c387740e5c50cf6170ccf90af7e21c557d41451322d18b76db0025af1890e00", lambda: single_parity_code(3)),
    "parity-9": ("5c7b4ed6c5d6ca69b5cd20acb3eeabcc0073f763633036eacac39d31769f737c", lambda: single_parity_code(9)),
    "parity-64": ("bd8b276803dc3bec0248218310e97ab51991f35eea7ff1d4b910053f5c686967", lambda: single_parity_code(64)),
    "hamming-2": ("b8385deb0ce8299936eefa186f56dab62c3a93a07446b302f687e809de10d054", lambda: hamming_code(2)),
    "hamming-3": ("5df3e6e32793a0b51ccb7a4600aca90c486952784b3622ec22f13a0550c5c3d6", lambda: hamming_code(3)),
    "hamming-4": ("efe53911bdb64d08f69e3456b36a83062bf6d4c3663969fa48ce93135eab33a8", lambda: hamming_code(4)),
    "hamming-5": ("22abc6cf527b0324cea145bc5e5b95c194535b560d97dc55517222f4689d3d05", lambda: hamming_code(5)),
    "hamming-6": ("80ca0452bceb0b0b3660b0d3fff5870c2e5e4e06a58cdc222ccb1172c6b74cec", lambda: hamming_code(6)),
    "bch-7-1": ("f7da0a3d98ce91cdbb2cc0199e1ab2eeca13dd87df0b873d4ef1675729a676d9", lambda: bch_code(7, 1)),
    "bch-7-2": ("6876dd690eaf9fc571b8fcbb1c577521ff194425d8efabe982325d3170549c82", lambda: bch_code(7, 2)),
    "bch-15-1": ("44ab4954f9c15fff03c6f6966e2faa8f3ff08f20d4b0ef2b4efd49775ca53212", lambda: bch_code(15, 1)),
    "bch-15-2": ("241140835196dda3286fb30966519973d1ee425612e297d6125ca1df65b223f3", lambda: bch_code(15, 2)),
    "bch-31-1": ("bfc5d9561367b49de3d90cd3cfab23809ee243fbbf99ec1a3e6423f5cbc59b24", lambda: bch_code(31, 1)),
    "bch-31-2": ("b4c7911ffc9ed45f967aa5839656d576bb19ae72a2aa34e57fbd4038997956c6", lambda: bch_code(31, 2)),
    "bch-63-1": ("f76f021cadd7ad81dd55c38f4859afbb937fbde824ae958705487d86e5625a5d", lambda: bch_code(63, 1)),
    "bch-63-2": ("0a72df16cc87c29be12b5be8eaf33c2be86a91f1954b6df0fb47626bd0b9dae9", lambda: bch_code(63, 2)),
    "hamming-4-shortened": (
        "0dbe3fd08f9d36041758d00ae5cdfdf8a809820e6ed0daddfc53f36b76da90a6",
        lambda: shorten(hamming_code(4), range(8)),
    ),
    "bch-15-2-shortened": (
        "1eb8240b33bd0c58df4163f159d4f98c551c1aa3ff8b00c12351dd6761e7656f",
        lambda: shorten(bch_code(15, 2), {1, 2}),
    ),
}


@pytest.mark.parametrize("name", CONSTRUCTION_PINS)
def test_construction_pinned(name):
    digest, build = CONSTRUCTION_PINS[name]
    code = build()
    text = format_code_file(code) + code.parity_check.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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

    def test_distance_is_measured_without_eliminating(self, monkeypatch):
        # a generator already [I_k | P] is read as it stands; the
        # non-systematic generators of test_gf2 keep the elimination covered
        small = all_codes_small()
        parity = single_parity_code(codes.LENGTH_LIMIT)
        text = format_code_file(parity)

        def eliminate(*args):
            raise AssertionError("eliminated")

        monkeypatch.setattr(gf2, "_eliminate", eliminate)
        for code in small:
            assert gf2.min_distance(code.generator) == min_distance_naive(as_lists(code.generator))
        assert gf2.min_distance(parity.generator) == 2
        assert parse_code_file(text) == parity

    def test_length_bound_is_checked_before_h_is_derived(self, monkeypatch):
        # one length holds every code: past it the repetition generator
        # [1 ... 1] is refused before H is derived
        def derive(*args):
            raise AssertionError("derived")

        def repetition(n):
            return BitMatrix.from_row_words([(1 << n) - 1], n)

        monkeypatch.setattr(gf2, "_systematic_dual", derive)
        with pytest.raises(ValueError, match="too long"):
            ProtectionCode(repetition(codes.LENGTH_LIMIT + 1))
        with pytest.raises(AssertionError, match="derived"):
            ProtectionCode(repetition(codes.LENGTH_LIMIT))

    def test_constructor_rejects_non_systematic(self):
        with pytest.raises(ValueError, match="not in systematic form"):
            ProtectionCode(BitMatrix([[0, 1, 1], [1, 0, 1]]))

    def test_only_the_generator_is_given(self):
        # H, n, k, m and the distance are derived from G, so no H of another
        # code can be handed in, such as the rank-2 H [h0, h1, h0 ^ h1],
        # under which a "verified" [7,4,3] code would fail 9 double erasures,
        # and no distance the generator does not have
        code = hamming_code(3)
        h0, h1, _ = code.parity_check.row_words
        foreign = BitMatrix.from_row_words([h0, h1, h0 ^ h1], 7)
        fields = (("parity_check", foreign), ("n", 8), ("k", 3), ("m", 2), ("d_min", 5), ("d_min_verified", False))
        for name, value in fields:
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(code, **{name: value})
        with pytest.raises(TypeError):
            ProtectionCode(7, 4, 3, code.generator, foreign, 3, True)
        with pytest.raises(TypeError):
            ProtectionCode(code.generator, 3, True)
        rebuilt = ProtectionCode(code.generator)
        assert rebuilt == code
        assert rank_naive(as_lists(rebuilt.parity_check)) == 3
        assert verify_protection(rebuilt, 2).failing_patterns == ()
        word = [None if j in (0, 3) else b for j, b in enumerate(encode(rebuilt, [1, 0, 1, 1]))]
        assert erasure_decode(rebuilt, word, ErasurePattern(7, {0, 3})) == BitVector([1, 0, 1, 1])
        # a generator with its first two rows exchanged is not [I_k | P]
        g0, g1, *rest = code.generator.row_words
        with pytest.raises(ValueError, match="not in systematic form"):
            ProtectionCode(BitMatrix.from_row_words([g1, g0, *rest], 7))

    def test_constructor_rejects_verified_above_enumeration_bound(self):
        # [I_22 | I_22]: k = m = 22, so no distance of it can be measured
        code = codes._build([1 << i for i in range(22)], 22, 22, 2)
        assert (code.d_min, code.d_min_verified) == (2, False)
        unmeasurable = r"min\(k, n - k\) = 22 is too large to verify the distance by enumeration: declare it"
        with pytest.raises(ValueError, match=unmeasurable):
            ProtectionCode(code.generator)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(code, d_min_verified=True)
        for bad in (0, 45):
            with pytest.raises(ValueError, match="d_min out of range"):
                ProtectionCode(code.generator, bad)

    def test_a_measurable_distance_is_measured(self):
        # a declared distance is a lower bound: the measured one wins when
        # it is larger, and a smaller one is refused
        code = hamming_code(3)
        assert ProtectionCode(code.generator, 2) == code
        assert ProtectionCode(code.generator, 3) == code
        with pytest.raises(ValueError, match="declared d_min = 5 but the code has d_min = 3"):
            ProtectionCode(code.generator, 5)
        for bad in (0, 8):
            with pytest.raises(ValueError, match="d_min out of range"):
                ProtectionCode(code.generator, bad)

    def test_a_declared_code_shortens_to_a_declared_code(self):
        # shortening past the bound keeps the parent's distance unmeasured,
        # so the shortened code is declared and its file loads back
        code = codes._build([1 << i for i in range(22)], 22, 22, 2)
        short = shorten(code, {0})
        assert (short.n, short.k, short.d_min, short.d_min_verified) == (43, 21, 2, False)
        assert parse_code_file(format_code_file(short)) == short


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
                plan = codes.repair_plan(rows, mask)
                assert plan.ops == eager
                ambiguous += plan.free > 0
        assert ambiguous > 0

    def test_pattern_must_match_slots(self):
        code = single_parity_code(4)
        with pytest.raises(ValueError):
            erasure_decode(code, [1, None, 1, 0], ErasurePattern(4, {2}))
        with pytest.raises(ValueError):
            erasure_decode(code, [1, 1, 1, 0], ErasurePattern(4, {2}))

    @pytest.mark.parametrize(
        "received, erased, message",
        [
            ([1, None, 1, 0], {2}, "slot 1 is erased but not in the pattern"),
            ([1, 1, 1, 0], {2}, "slot 2 is in the pattern but carries a value"),
            ([1, 2, 1, None], {3}, "symbols must be 0, 1, or None, got 2"),
            ([None, 2, 1, 0], (), "slot 0 is erased but not in the pattern"),
            ([1, "x", None, 0], (), "symbols must be 0, 1, or None, got 'x'"),
            ([0, 1, 0, 7], {0}, "slot 0 is in the pattern but carries a value"),
            ([0, 1, None, 7], {2}, "symbols must be 0, 1, or None, got 7"),
        ],
    )
    def test_the_first_bad_slot_is_named(self, received, erased, message):
        with pytest.raises(ValueError) as info:
            erasure_decode(single_parity_code(4), received, ErasurePattern(4, erased))
        assert str(info.value) == message

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


def systematic_matrices(k, m, parity_rows):
    """[I_k | P] and [P^T | I_m] for the packed rows of P, built without the
    library's constructors."""
    gen = [(1 << i) | p << k for i, p in enumerate(parity_rows)]
    chk = [
        1 << (k + j) | sum((p >> j & 1) << i for i, p in enumerate(parity_rows))
        for j in range(m)
    ]
    return BitMatrix.from_row_words(gen, k + m), BitMatrix.from_row_words(chk, k + m)


def systematic_code(k, m, parity_rows):
    """The code with generator [I_k | P] for the packed rows of P, built
    without the library's constructors; d_min is measured naively."""
    gen, chk = systematic_matrices(k, m, parity_rows)
    d_min = min_distance_naive(as_lists(gen))
    code = ProtectionCode(gen, d_min)
    assert (code.n, code.k, code.m, code.parity_check, code.d_min, code.d_min_verified) == (k + m, k, m, chk, d_min, True)
    return code


def poly_mod(a, g):
    """a(x) mod g(x) over GF(2), bit d = coefficient of x^d."""
    while a.bit_length() >= g.bit_length():
        a ^= g << (a.bit_length() - g.bit_length())
    return a


def cyclic_parity_rows(n, g):
    """The packed rows of P for the cyclic code of length n whose generator
    polynomial g divides x^n + 1, in a systematic form [I_k | P] that stays
    cyclic in its stored order."""
    m = g.bit_length() - 1
    k = n - m
    # x^(m + i) plus its remainder mod g is a codeword with message bit i at
    # position m + i; rotating by k moves it to position i
    words = [1 << m + i | poly_mod(1 << m + i, g) for i in range(k)]
    return [((w << k | w >> m) & ((1 << n) - 1)) >> k for w in words]


def random_small_codes(rng, count):
    """``count`` seeded systematic codes with n <= 10, made through
    :func:`unchecked_copy` with d_min left unmeasured, which the walk does
    not read: every other one is the cyclic code of a random divisor g of
    x^n + 1, the rest have random P, so zero and repeated columns of H come up."""
    template = single_parity_code(2)
    found = []
    for index in range(count):
        n = rng.randrange(2, 11)
        if index % 2:
            g = rng.choice([g for g in range(3, 1 << n, 2) if poly_mod(1 << n | 1, g) == 0])
            m = g.bit_length() - 1
            k = n - m
            rows = cyclic_parity_rows(n, g)
        else:
            k = rng.randrange(1, n)
            m = n - k
            rows = [rng.getrandbits(m) for _ in range(k)]
        gen, chk = systematic_matrices(k, m, rows)
        found.append(unchecked_copy(template, n=n, k=k, m=m, generator=gen, parity_check=chk))
    return found


@st.composite
def systematic_parity_rows(draw):
    """(k, m, packed rows of P) for k <= 8, m <= 6; zero and repeated
    columns of H come up often at these widths."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=k, max_size=k))
    return k, m, rows


def failing_by_codeword_supports(code):
    """Per t, the t-subsets that contain the support of a nonzero codeword,
    in lexicographic order: exactly the patterns that erase information.
    Every codeword is enumerated naively, and a subset is marked when it or
    one of its subsets one position smaller is."""
    n = code.n
    g_rows = as_lists(code.generator)
    contains_support = bytearray(1 << n)
    for message in itertools.product((0, 1), repeat=code.k):
        if any(message):
            word = encode_naive(g_rows, message)
            contains_support[sum(b << j for j, b in enumerate(word))] = 1
    for subset in range(1 << n):
        if contains_support[subset]:
            for j in range(n):
                contains_support[subset | 1 << j] = 1
    return [
        tuple(
            pat for pat in itertools.combinations(range(n), t)
            if contains_support[sum(1 << j for j in pat)]
        )
        for t in range(n + 1)
    ]


def corrupted_parity_checks(code):
    """Per position j, a copy of ``code`` with bit 0 of column j of H flipped."""
    first, *others = code.parity_check.row_words
    return [
        unchecked_copy(code, parity_check=BitMatrix.from_row_words([first ^ 1 << j, *others], code.n))
        for j in range(code.n)
    ]


def with_columns(code, changes):
    """``code`` with some columns of H replaced, through
    :func:`unchecked_copy`: ``changes`` maps a position to its new column,
    packed with bit i = row i."""
    columns = list(transpose_naive(code.parity_check.row_words, code.n))
    for j, column in changes.items():
        columns[j] = column
    return unchecked_copy(code, parity_check=BitMatrix.from_row_words(transpose_naive(columns, code.m), code.n))


def bch15_with_data_columns_swapped():
    """[15,7,5] with data positions 0 and 1 exchanged: the same distance and
    weights, but no longer cyclic in its stored order."""
    code = bch_code(15, 2)
    rows = [w >> code.k for w in code.generator.row_words]
    rows[0], rows[1] = rows[1], rows[0]
    return systematic_code(code.k, code.m, rows)


def shifted(failures):
    """The patterns of a stream of failures (a, p), as
    :func:`codes.unrecoverable_patterns` yields them: p with a added to each
    position."""
    return (tuple(map(a.__add__, p)) if a else p for a, p in failures)


def bits_of(word, n):
    return [word >> j & 1 for j in range(n)]


def outcome(fill):
    """What ``fill()`` gave: ("filled", entries), or the error type it raised."""
    try:
        return "filled", fill()
    except (Inconsistent, NoUniqueSolution) as exc:
        return type(exc)


def plan_disagreements(code, masks, apply):
    """Every (mask, word) for which ``apply(mask, word)``, a packed fill, and
    the naive oracle differ in the filled word or the error raised. Each mask
    is tried with a codeword, the codeword with one surviving bit flipped,
    and a random word."""
    n = code.n
    h_rows = as_lists(code.parity_check)
    rng = random.Random(n)
    found = []
    for mask in masks:
        erased = [j for j in range(n) if mask >> j & 1]
        codeword = encode(code, BitVector.from_int(rng.getrandbits(code.k), code.k)).bits
        survivors = [j for j in range(n) if not mask >> j & 1]
        corrupted = codeword ^ 1 << rng.choice(survivors) if survivors else codeword
        for word in (codeword, corrupted, rng.getrandbits(n)):
            expected = outcome(lambda: erasure_fill_naive(h_rows, erased, bits_of(word, n)))
            if outcome(lambda: bits_of(apply(mask, word), n)) != expected:
                found.append((mask, word))
    return found


class TestDerivedParityCheck:
    """H and (n, k, m) as :class:`ProtectionCode` derives them, against the
    naive [P^T | I_m] of :func:`systematic_matrices` and the generator's shape."""

    @pytest.mark.parametrize("code", all_codes_small(), ids=lambda c: f"{c.n}-{c.k}-{c.d_min}")
    def test_constructions(self, code):
        g = code.generator
        rows = [w >> g.rows for w in g.row_words]
        assert systematic_matrices(g.rows, g.cols - g.rows, rows) == (g, code.parity_check)
        assert (code.n, code.k, code.m) == (g.cols, g.rows, g.cols - g.rows)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(systematic_parity_rows())
    def test_random_parity_parts(self, drawn):
        k, m, rows = drawn
        gen, chk = systematic_matrices(k, m, rows)
        code = ProtectionCode(gen)
        assert (code.n, code.k, code.m, code.parity_check) == (k + m, k, m, chk)
        assert (code.d_min, code.d_min_verified) == (min_distance_naive(as_lists(gen)), True)


class TestRepairPlanOracle:
    """Repair plans against the naive oracle, which tries every filling."""

    @pytest.mark.parametrize(
        "code, max_weight",
        [
            (single_parity_code(5), 5),
            (hamming_code(3), 7),
            (bch_code(7, 1), 7),
            (bch_code(15, 2), 5),
        ],
        ids=["parity5", "hamming3", "bch7", "bch15"],
    )
    def test_agrees_with_naive_fill(self, code, max_weight):
        rows = code.parity_check.row_words
        masks = [m for m in range(1 << code.n) if m.bit_count() <= max_weight]
        apply = lambda mask, word: codes.repair_plan(rows, mask).apply(word)
        assert plan_disagreements(code, masks, apply) == []

    @pytest.mark.parametrize("drop", range(3))
    def test_plan_missing_a_step_disagrees(self, drop):
        # a plan that skips one of its reduction steps is caught by the oracle
        code = bch_code(15, 2)
        rows = code.parity_check.row_words
        masks = [m for m in range(1 << code.n) if m.bit_count() == 3]

        def apply_mutant(mask, word):
            mutant = copy.copy(codes.repair_plan(rows, mask))
            mutant.steps = mutant.steps[:drop] + mutant.steps[drop + 1 :]
            return mutant.apply(word)

        assert plan_disagreements(code, masks, apply_mutant)

    def test_steps_apply_in_any_order(self):
        # each step's pivot bit is set in its own row alone, so a plan with
        # its steps reversed fills every word as the plan itself does
        code = bch_code(15, 2)
        rows = code.parity_check.row_words
        masks = [m for m in range(1 << code.n) if 3 <= m.bit_count() <= 5]

        def apply_reversed(mask, word):
            plan = codes.repair_plan(rows, mask)
            for _, bit in plan.steps:
                assert sum(1 for row, _ in plan.steps if row & bit) == 1
            reversed_plan = copy.copy(plan)
            reversed_plan.steps = plan.steps[::-1]
            assert outcome(lambda: reversed_plan.apply(word)) == outcome(lambda: plan.apply(word))
            return reversed_plan.apply(word)

        assert plan_disagreements(code, masks, apply_reversed) == []

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_a_corrupted_step_raises_rather_than_fill_a_wrong_word(self, t):
        # every set of t < d erasures of [31,21,5] decodes uniquely, so once
        # the filled word is checked against H a plan with one step corrupted
        # (its bit moved to another erased position, one known bit of its row
        # flipped, or the step dropped) fills the oracle's word or raises
        code = bch_code(31, 2)
        rows, n = code.parity_check.row_words, code.n
        h_rows = as_lists(code.parity_check)
        rng = random.Random(t)
        raised = tried = 0
        for _ in range(1000):
            erased = rng.sample(range(n), t)
            mask = sum(1 << j for j in erased)
            plan = codes.repair_plan(rows, mask)
            i = rng.randrange(len(plan.steps))
            row, bit = plan.steps[i]
            moved = (row, 1 << rng.choice([j for j in erased if 1 << j != bit]))
            flipped = (row ^ 1 << rng.choice([j for j in range(n) if not mask >> j & 1]), bit)
            codeword = encode(code, BitVector.from_int(rng.getrandbits(code.k), code.k)).bits
            for word in (codeword, rng.getrandbits(n)):
                filled = outcome(lambda: erasure_fill_naive(h_rows, erased, bits_of(word, n)))
                for corrupt in ((moved,), (flipped,), ()):
                    mutant = copy.copy(plan)
                    mutant.steps = plan.steps[:i] + corrupt + plan.steps[i + 1 :]
                    got = outcome(lambda: bits_of(mutant.apply(word), n))
                    assert got == filled or got is Inconsistent
                    raised += got is Inconsistent and filled is not Inconsistent
                    tried += 1
        assert raised > tried // 8


def random_parity_checks(rng, count):
    """``count`` parity checks with n <= 9: random rows, rows with a
    duplicate, a zero row or a sum of two rows added (rank-deficient), and
    rows that rotate one word by some of the n amounts, or by all of them."""
    checks = []
    for i in range(count):
        n = rng.randrange(2, 10)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, n + 1))]
        kind = i % 4
        if kind == 1:
            rows.append(rng.choice([0, rng.choice(rows), rng.choice(rows) ^ rng.choice(rows)]))
            rng.shuffle(rows)
        elif kind >= 2:
            word = rows[0]
            shifts = range(n) if kind == 3 else rng.sample(range(n), rng.randrange(1, n + 1))
            rows = [(word << s | word >> (n - s)) & ((1 << n) - 1) for s in shifts]
        checks.append(BitMatrix.from_row_words(rows, n))
    return checks


class TestCyclicity:
    def test_agrees_with_kernel_oracle(self):
        checks = random_parity_checks(random.Random(2890), 2400)
        cyclic = [codes._is_cyclic(h) for h in checks]
        assert cyclic == [cyclic_naive(as_lists(h)) for h in checks]
        assert 200 < sum(cyclic) < len(checks) - 200

    def test_agrees_with_kernel_oracle_on_codes(self):
        # each small code; a copy with the columns of H moved, which is
        # cyclic only by chance; and rank-deficient copies of H, with a zero
        # row or the sum of two rows added, which span the same code
        rng = random.Random(3434)
        checks = []
        for code in all_codes_small():
            h = code.parity_check
            n, rows = h.cols, h.row_words
            order = rng.sample(range(n), n)
            columns = transpose_naive(rows, n)
            moved = transpose_naive([columns[c] for c in order], h.rows)
            checks += [h, BitMatrix.from_row_words(moved, n), BitMatrix.from_row_words([*rows, 0], n)]
            checks.append(BitMatrix.from_row_words([rows[0] ^ rows[-1], *rows], n))
        cyclic = [codes._is_cyclic(h) for h in checks]
        assert cyclic == [cyclic_naive(as_lists(h)) for h in checks]
        assert 8 <= sum(cyclic) <= len(checks) - 8

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 64])
    def test_every_parity_code_is_cyclic(self, n):
        assert codes._is_cyclic(single_parity_code(n).parity_check)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: hamming_code(3),
            lambda: hamming_code(4),
            lambda: shorten(bch_code(15, 2), {0}),
            bch15_with_data_columns_swapped,
        ],
        ids=["hamming3", "hamming4", "shortened-bch15", "bch15-swapped"],
    )
    def test_not_cyclic_in_stored_order(self, build):
        assert not codes._is_cyclic(build().parity_check)

    @pytest.mark.parametrize("code", [hamming_code(3), bch_code(15, 2)], ids=["hamming3", "bch15"])
    def test_no_corrupted_parity_check_is_cyclic(self, code):
        assert not any(codes._is_cyclic(c.parity_check) for c in corrupted_parity_checks(code))

    def test_swapped_columns_keep_the_full_walk(self):
        # a check that took this code for cyclic would rotate [15,7,5]'s
        # failures onto the wrong positions
        code = bch15_with_data_columns_swapped()
        assert code.d_min == 5
        expected = failing_by_codeword_supports(code)
        for t in range(code.n + 1):
            assert verify_protection(code, t).failing_patterns == expected[t], t


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

    @pytest.mark.parametrize("code", [hamming_code(3), bch_code(15, 2)], ids=["hamming3", "bch15"])
    def test_a_corrupted_parity_check_fails_exactly_its_dependent_patterns(self, code):
        # verify reads H alone: whatever G holds, exactly the patterns whose
        # columns of the corrupted H are dependent fail
        for c in corrupted_parity_checks(code):
            columns = [[c.parity_check[i, j] for i in range(c.m)] for j in range(c.n)]
            for t in range(6):
                dependent = tuple(
                    p for p in itertools.combinations(range(c.n), t) if p and rank_naive([columns[j] for j in p]) < t
                )
                assert verify_protection(c, t).failing_patterns == dependent, t

    @pytest.mark.parametrize("code", all_codes_small(), ids=lambda c: f"{c.n}-{c.k}-{c.d_min}")
    def test_reads_the_parity_check_alone(self, code):
        # a copy with no generator at all verifies the same, and so do copies
        # whose d_min is wrong: d_min only picks the walk or the listing
        blind = unchecked_copy(code, generator=None)
        wrong = [unchecked_copy(code, generator=None, d_min=d) for d in (1, code.n)]
        for t in range(min(code.d_min + 1, code.n) + 1):
            report = verify_protection(code, t)
            assert verify_protection(blind, t) == report, t
            assert [verify_protection(c, t) for c in wrong] == [report, report], t

    def test_zero_sums_are_the_subsets_whose_columns_add_to_zero(self):
        # the listing alone, on any columns, zero and repeated ones included:
        # every t-subset that starts below top and whose columns XOR to zero
        cases = [
            *(c for c in all_codes_small() if c.n <= 10),
            *random_small_codes(random.Random(33), 40),
            *corrupted_parity_checks(hamming_code(3)),
        ]
        listed_any = 0
        for code in cases:
            n = code.n
            cols = gf2._columns(code.parity_check.row_words, n)
            for t in range(3, n + 1):
                zero = [p for p in itertools.combinations(range(n), t) if not functools.reduce(operator.xor, map(cols.__getitem__, p))]
                for top in {1, n - t + 1}:
                    listed = list(codes._zero_sums(cols, codes._pair_sums(cols, n), n, t, top))
                    assert listed == [(p, 0) for p in zero if p[0] < top], (code.parity_check, t, top)
                    listed_any += bool(listed)
        assert listed_any > 100

    def test_listing_after_a_passing_check_is_the_walk(self):
        # where no (t - 1)-subset fails, the listing's failures are the
        # walk's and the dependent t-subsets; each is its own witness, a word
        # of ker H that is nonzero and inside the pattern
        cases = [
            *all_codes_small(),
            *random_small_codes(random.Random(34), 40),
            *corrupted_parity_checks(hamming_code(3)),
            shorten(bch_code(15, 2), range(5)),
            shorten(bch_code(31, 2), {0, 1}),
        ]
        taken = 0
        for code in cases:
            n = code.n
            cols = gf2._columns(code.parity_check.row_words, n)
            rows = as_lists(code.parity_check)
            columns = list(zip(*rows))
            cyclic = codes._is_cyclic(code.parity_check)
            for t in range(3, n + 1):
                top = 1 if cyclic else n - t + 1
                if math.comb(n, t) > codes.PATTERN_ENUMERATION_LIMIT:
                    continue
                if next(codes._failure_events(cols, n, t - 1, top if cyclic else top + 1), None) is not None:
                    continue
                listed, walked = (
                    list(shifted(itertools.chain.from_iterable(codes._expansions(events, n, n - t + 1 if cyclic else 1))))
                    for events in (codes._zero_sums(cols, codes._pair_sums(cols, n), n, t, top), codes._failure_events(cols, n, t, top))
                )
                assert listed == walked, (code.parity_check, t)
                if n <= 10:
                    dependent = [p for p in itertools.combinations(range(n), t) if rank_naive([columns[j] for j in p]) < t]
                    assert listed == dependent, (code.parity_check, t)
                assert not any(sum(row[j] for j in p) % 2 for p in listed for row in rows)
                taken += 1
        assert taken >= 50

    def test_listing_runs_only_past_a_passing_check(self, monkeypatch):
        calls = []
        zero_sums = codes._zero_sums
        monkeypatch.setattr(
            codes, "_zero_sums", lambda cols, pairs, n, t, top: calls.append((n, t)) or zero_sums(cols, pairs, n, t, top)
        )
        assert len(verify_protection(bch_code(31, 2), 5).failing_patterns) == 186
        assert calls == [(31, 5)]
        calls.clear()
        # t <= 2: the pair table of a long parity code would be its whole
        # work, even with a d_min that allows the listing
        parity = unchecked_copy(single_parity_code(100), d_min=100)
        assert [verify_protection(parity, t).recoverable for t in (1, 2)] == [True, False]
        # the pair table's (t - 1) check finds the weight-3 words of [15,11,3]
        hamming = unchecked_copy(hamming_code(4), d_min=15)
        assert verify_protection(hamming, 4) == verify_protection(hamming_code(4), 4)
        # [100,1,100] at t = 99: the rule counts up to 97 XORs for each of
        # C(99, 96) = 156,849 heads, plus 4,950 table entries, against the
        # walk's C(99, 97) = 4,851 subsets of 98 positions
        repetition = parse_code_file("NPC 100 1 100 verified\n1 100\n" + "1" * 100)
        assert verify_protection(repetition, 99).recoverable
        assert calls == []

    def test_pair_table_check_is_the_rank_oracle(self):
        # for t = 3, 4 and 5 the table's check says whether no t - 1 columns
        # of H are dependent, as the ranks of every (t - 1)-subset say; the
        # copies of [15,7,5] (d = 5) have their least dependent set made of
        # 1, 2, 3 and 4 columns, and claim d = 15, so the listing is asked
        # for and must give way to the walk where the check fails
        bch = bch_code(15, 2)
        c = transpose_naive(bch.parity_check.row_words, bch.n)
        built = {
            1: with_columns(bch, {3: 0}),
            2: with_columns(bch, {5: c[2]}),
            3: with_columns(bch, {6: c[0] ^ c[1]}),
            4: with_columns(bch, {0: c[1] ^ c[2] ^ c[4]}),
        }
        for size, code in [*((None, c) for c in all_codes_small()), *built.items()]:
            n = code.n
            cols = gf2._columns(code.parity_check.row_words, n)
            columns = list(zip(*as_lists(code.parity_check)))
            pairs = codes._pair_sums(cols, n)
            # whether no s columns are dependent, for s = 1 .. 4
            independent = {
                s: all(rank_naive([columns[j] for j in p]) == s for p in itertools.combinations(range(n), s))
                for s in range(1, 5)
            }
            for t in (t for t in (3, 4, 5) if t <= n):  # verify asks no t past n
                assert codes._independent(cols, pairs, n, t - 1) == independent[t - 1], (code.parity_check, t)
            if size is not None:
                assert min(s for s, ok in independent.items() if not ok) == size
        for size, code in built.items():
            claimed = unchecked_copy(code, d_min=code.n)
            columns = list(zip(*as_lists(code.parity_check)))
            for t in (3, 4, 5):
                dependent = tuple(
                    p for p in itertools.combinations(range(code.n), t) if rank_naive([columns[j] for j in p]) < t
                )
                assert verify_protection(claimed, t).failing_patterns == dependent, (size, t)

    def test_listing_past_five_runs_after_a_walk_at_t_1(self, monkeypatch):
        # past t = 5 the pair table cannot tell whether t - 1 columns are
        # dependent: a walk at t - 1 decides. The [23,12,7] Golay code is
        # cyclic, and at t = 6 and 7 its listing is less work than the walk
        golay = ProtectionCode(systematic_matrices(12, 11, cyclic_parity_rows(23, 0b110001110101))[0])
        assert (golay.d_min, codes._is_cyclic(golay.parity_check)) == (7, True)
        calls = []
        zero_sums = codes._zero_sums
        monkeypatch.setattr(
            codes, "_zero_sums", lambda cols, pairs, n, t, top: calls.append(t) or zero_sums(cols, pairs, n, t, top)
        )
        walked = unchecked_copy(golay, d_min=1)
        reports = [verify_protection(golay, t) for t in (6, 7)]
        assert calls == [6, 7]
        calls.clear()
        assert reports == [verify_protection(walked, t) for t in (6, 7)]
        # A_7 = 253: the weight-7 words of the Golay code
        assert [len(r.failing_patterns) for r in reports] == [0, 253]
        # [31,21,5] claiming d = 31: the walk at t - 1 = 5 meets its
        # weight-5 words, so t = 6 is walked, not listed
        code = bch_code(31, 2)
        assert verify_protection(unchecked_copy(code, d_min=31), 6) == verify_protection(code, 6)
        assert calls == []

    def test_matches_codeword_supports_on_small_random_codes(self):
        # every t: t = 1 scans the root's leaves with no cyclicity check;
        # t = 2 (the leaves of a node at depth 1) and t = 3 (a node at depth
        # 1, under the orbit walk's root, decided by one distinctness check
        # of its reduced columns) run on the full walk and on the orbit walk
        small = random_small_codes(random.Random(19), 40)
        assert 10 <= sum(codes._is_cyclic(c.parity_check) for c in small) <= 30
        for code in small:
            expected = failing_by_codeword_supports(code)
            for t in range(code.n + 1):
                assert verify_protection(code, t).failing_patterns == expected[t], (code.generator, t)

    def test_cyclicity_is_checked_only_past_one_erasure(self, monkeypatch):
        # at t <= 1 the orbit walk would save no more than one scan of the
        # columns, less than the elimination of the check
        calls = []
        is_cyclic = codes._is_cyclic
        monkeypatch.setattr(codes, "_is_cyclic", lambda h: calls.append(h) or is_cyclic(h))
        code = bch_code(15, 2)
        for t in (0, 1):
            assert verify_protection(code, t).recoverable
        assert calls == []
        assert verify_protection(code, 2).recoverable
        assert calls == [code.parity_check]

    def test_cyclic_prune_lists_every_pattern_past_the_rank(self):
        # [63,51,5] is cyclic and m = 12: the orbit walk prunes every
        # pattern that contains position 0, and their shifts are the rest
        report = verify_protection(bch_code(63, 2), 60)
        assert report.patterns_checked == len(report.failing_patterns) == math.comb(63, 60) == 39711
        everything = itertools.combinations(range(63), 60)
        assert all(map(tuple.__eq__, report.failing_patterns, everything))

    @pytest.mark.parametrize(
        "code",
        [single_parity_code(6), single_parity_code(9)] + [bch_code(n, d) for n in (7, 15, 31) for d in (1, 2)],
        ids=["parity6", "parity9", "bch7-4", "bch7-1", "bch15-11", "bch15-7", "bch31-26", "bch31-21"],
    )
    def test_orbit_lists_what_the_full_walk_lists(self, code, monkeypatch):
        # every t within the bound, those past the rank included, where the
        # shifted events are prunes; the two streams are compared pattern by
        # pattern, so neither list is held
        assert codes._is_cyclic(code.parity_check)
        for t in range(code.n + 1):
            if math.comb(code.n, t) > codes.PATTERN_ENUMERATION_LIMIT:
                continue
            orbit = shifted(codes.unrecoverable_patterns(code, t))
            with monkeypatch.context() as m:
                m.setattr(codes, "_is_cyclic", lambda h: False)
                full = shifted(codes.unrecoverable_patterns(code, t))
            assert all(itertools.starmap(operator.eq, itertools.zip_longest(orbit, full))), t

    @pytest.mark.parametrize("build", [lambda: hamming_code(6), lambda: bch_code(63, 2)], ids=["hamming6", "bch63-51"])
    def test_failures_stream_as_they_are_found(self, build):
        # all C(63, 59) = 595,665 patterns fail; listing them all peaks near
        # 300 MiB, so a bounded peak for the first thousand shows they were
        # not all built first (for the cyclic code, only its events are held)
        code = build()
        tracemalloc.start()
        try:
            first = list(itertools.islice(shifted(codes.unrecoverable_patterns(code, 59)), 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == list(itertools.islice(itertools.combinations(range(63), 59), 1000))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "code, t, error",
        [(hamming_code(6), 64, ValueError), (hamming_code(6), 20, TooManyPatterns), (bch_code(63, 2), 5, TooManyPatterns)],
        ids=["past-n", "past-the-bound", "cyclic-past-the-bound"],
    )
    def test_stream_bounds_are_checked_at_the_call(self, code, t, error):
        # no iteration: the call itself raises
        with pytest.raises(error):
            codes.unrecoverable_patterns(code, t)

    @pytest.mark.parametrize("t", [59, 60])
    def test_prune_lists_every_pattern_past_the_rank(self, t):
        # m = 6, so every prefix longer than 6 is dependent: the prune lists
        # all C(63, t) patterns before any last level is reached
        report = verify_protection(hamming_code(6), t)
        assert report.patterns_checked == len(report.failing_patterns) == math.comb(63, t)
        everything = itertools.combinations(range(63), t)
        assert all(map(tuple.__eq__, report.failing_patterns, everything))

    @pytest.mark.parametrize(
        "code, t",
        [(hamming_code(3), 3), (hamming_code(3), 4), (bch_code(15, 2), 8), (bch_code(15, 2), 9)],
        ids=["hamming3-t3", "hamming3-t4", "bch15-t8", "bch15-t9"],
    )
    def test_deepest_walk_at_the_rank(self, code, t):
        # t = m and t = m + 1: the deepest prefixes whose columns can still
        # be independent
        assert code.m in (t, t - 1)
        assert verify_protection(code, t).failing_patterns == per_pattern_failing(code, t)

    def test_deep_walk_keeps_a_bounded_stack(self):
        # [100,1,100]: the walk goes 99 levels deep, past what a recursion
        # per level could afford under this limit
        code = parse_code_file("NPC 100 1 100 verified\n1 100\n" + "1" * 100)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            assert verify_protection(code, 99).recoverable
            assert verify_protection(code, 100).failing_patterns == (tuple(range(100)),)
        finally:
            sys.setrecursionlimit(limit)

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

    @pytest.mark.parametrize(
        "code, a_d",
        [
            (bch_code(15, 2), 18),
            (hamming_code(4), 35),
            (hamming_code(3), 7),
            (single_parity_code(6), 15),
        ],
        ids=["bch15", "hamming4", "hamming3", "parity6"],
    )
    def test_matches_codeword_supports(self, code, a_d):
        expected = failing_by_codeword_supports(code)
        for t in range(code.n + 1):
            assert verify_protection(code, t).failing_patterns == expected[t], t
        assert len(expected[code.d_min]) == a_d

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(systematic_parity_rows())
    # a zero column of H (position 0), and columns 1, 2 and k equal
    @example((3, 2, [0, 1, 1]))
    # a zero column at the last data position k - 1
    @example((4, 4, [3, 5, 6, 0]))
    # data column 2 equal to the last parity column n - 1
    @example((4, 4, [3, 5, 8, 6]))
    def test_matches_codeword_supports_on_random_codes(self, drawn):
        k, m, parity_rows = drawn
        code = systematic_code(k, m, parity_rows)
        expected = failing_by_codeword_supports(code)
        for t in range(code.n + 1):
            assert verify_protection(code, t).failing_patterns == expected[t], t

    def test_pattern_bound(self):
        with pytest.raises(TooManyPatterns):
            verify_protection(hamming_code(6), 20)
        # the cyclic walk would cover C(62, 4) patterns, but the bound is
        # judged on all C(63, 5) of them
        with pytest.raises(TooManyPatterns):
            verify_protection(bch_code(63, 2), 5)

    def test_round_trip_guarantee_vs_exhaustive(self):
        for code in all_codes_small():
            assert verify_protection(code, code.d_min - 1).recoverable
            assert not verify_protection(code, code.d_min).recoverable

    # A_d of each code: a d-erasure pattern fails exactly when a weight-d
    # codeword lives on it, and no two share a support. A (d + 1)-set holds
    # at most one support of weight <= d + 1 when d >= 3, since two would
    # differ by a codeword of weight <= 2; so it fails either around a
    # weight-d support plus one of the n - d other positions, or on a
    # weight-(d + 1) support. Cyclic and non-cyclic codes alike.
    @pytest.mark.parametrize(
        "build, params, a_d, run_verify, next_count",
        [
            (bch_code, (15, 2), 18, True, 210),
            (bch_code, (15, 1), 35, True, 525),
            (bch_code, (31, 2), 186, True, 5642),
            (hamming_code, (5,), 155, True, 5425),
            # C(63, 4) patterns of a code that is not cyclic: too slow a walk
            (hamming_code, (6,), 651, True, None),
            # C(63, 5) patterns exceed the enumeration bound of verify
            (bch_code, (63, 2), 1890, False, None),
            (bch_code, (7, 1), 7, True, 35),
            (hamming_code, (3,), 7, True, 35),
            (hamming_code, (4,), 35, True, 525),
            (bch15_with_data_columns_swapped, (), 18, True, 210),
        ],
        ids=[
            "15-7-5", "15-11-3", "31-21-5", "31-26-3", "63-57-3", "63-51-5",
            "7-4-3-bch", "7-4-3-hamming", "15-11-3-hamming", "15-7-5-swapped",
        ],
    )
    def test_lowest_weight_count_is_the_failing_count(self, build, params, a_d, run_verify, next_count):
        code = build(*params)
        d = code.d_min
        dist = list(gf2._weight_counts(code.generator))
        assert dist[:d] == [1] + [0] * (d - 1)
        assert dist[d] == a_d
        assert sum(dist) == 1 << code.k
        if run_verify:
            for t in range(d):
                assert verify_protection(code, t).recoverable, t
            assert len(verify_protection(code, d).failing_patterns) == a_d
        if next_count is not None:
            assert next_count == (code.n - d) * a_d + dist[d + 1]
            assert len(verify_protection(code, d + 1).failing_patterns) == next_count


def golden_grid_codes():
    """The codes of the grid in tests/test_verify_golden.py."""
    return [single_parity_code(6), single_parity_code(9), hamming_code(3), hamming_code(4), hamming_code(5),
            bch_code(7, 1), bch_code(7, 2), bch_code(15, 2), bch_code(31, 2), bch_code(63, 2)]


class TestFailureCountByWeights:
    """Two independent counts of the failing t-sets: F_t from the weight
    counts, which MacWilliams takes from the dual's span, and the number
    that unrecoverable_patterns lists by column sums or by walk."""

    def test_equals_the_listing_below_one_and_a_half_d(self):
        cases = 0
        for code in all_codes_small() + golden_grid_codes():
            weights = list(gf2._weight_counts(code.generator))
            for t in range(code.d_min, min(code.n, (3 * code.d_min - 1) // 2) + 1):
                if math.comb(code.n, t) <= codes.PATTERN_ENUMERATION_LIMIT:
                    listed = sum(1 for _ in codes.unrecoverable_patterns(code, t))
                    assert failure_count_by_weights(weights, t) == listed, (code.n, code.k, t)
                    cases += 1
        # [63,51,5] has no such t within the pattern bound
        assert cases == 28

    @pytest.mark.parametrize(
        "build, t, formula, listed",
        [
            # at the first t >= 1.5 d a t-set can hold two supports
            (lambda: hamming_code(4), 5, 3633, 3003),
            (lambda: single_parity_code(9), 3, 252, 84),
            # the benchmark's verify-bch31-t5, inside the range
            (lambda: bch_code(31, 2), 5, 186, 186),
        ],
        ids=["hamming4-t5", "parity9-t3", "bch31-t5"],
    )
    def test_edge_of_the_range(self, build, t, formula, listed):
        code = build()
        assert failure_count_by_weights(list(gf2._weight_counts(code.generator)), t) == formula
        assert sum(1 for _ in codes.unrecoverable_patterns(code, t)) == listed


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
            # a measurable distance is measured, so it cannot be declared
            lambda lines: ["NPC 5 4 2 declared"] + lines[1:],
            # digits other than ASCII ones, in either header
            lambda lines: ["NPC \u0665 \u0664 \u0662 verified"] + lines[1:],
            lambda lines: lines[:1] + ["\uff14 5"] + lines[2:],
        ],
    )
    def test_rejects_corrupted(self, mutate):
        lines = format_code_file(single_parity_code(5)).splitlines()
        with pytest.raises(ValueError):
            parse_code_file("\n".join(mutate(lines)) + "\n")

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda text: text.replace("\n", "\r\n"), None),
            (lambda text: text.replace("\n", "\r"), None),
            (lambda text: text.replace("\n", "\x85", 1), None),
            (lambda text: text.replace("\n", "\x0b\n", 1), "malformed matrix header: ''"),
            (lambda text: text + "\n", "expected 4 rows, found 5"),
            (lambda text: text.splitlines()[0], "malformed matrix header: ''"),
            (lambda text: text.splitlines()[0] + "\n", "malformed matrix header: ''"),
            (lambda text: text.splitlines()[0] + "\r\n", "malformed matrix header: ''"),
            (lambda text: text.replace(" 4 ", "\x0b4 ", 1), "malformed code file header: 'NPC 5'"),
            (lambda text: text.replace("verified", "veri\x85fied", 1), "unknown distance flag: 'veri'"),
        ],
        ids=["crlf", "cr", "x85-ends-header", "x0b-before-header-newline", "trailing-blank-line",
             "header-only", "header-only-newline", "header-only-crlf", "x0b-in-header", "x85-in-header"],
    )
    def test_lines_end_as_str_splitlines_ends_them(self, edit, error):
        code = single_parity_code(5)
        text = edit(format_code_file(code))
        if error is None:
            assert parse_code_file(text) == code
        else:
            with pytest.raises(ValueError, match=re.escape(error)):
                parse_code_file(text)

    def test_rejects_verified_flag_above_enumeration_bound(self):
        # [I_21 | I_21]: k = m = 21, both above the bound, and d_min = 2
        k = gf2.MIN_DISTANCE_ROW_LIMIT + 1
        rows = ["".join("1" if j % k == i else "0" for j in range(2 * k)) for i in range(k)]
        text = f"NPC {2 * k} {k} 2 declared\n{k} {2 * k}\n" + "\n".join(rows) + "\n"
        code = parse_code_file(text)
        assert (code.n, code.k, code.d_min, code.d_min_verified) == (2 * k, k, 2, False)
        assert format_code_file(code) == text
        with pytest.raises(ValueError, match="too large to verify"):
            parse_code_file(text.replace("declared", "verified", 1))

    def test_63_51_file_is_measured(self):
        # k = 51 but m = 12: the file is measured, so a verified header loads
        # and a wrong distance is caught
        text = format_code_file(bch_code(63, 2))
        assert text.startswith("NPC 63 51 5 verified\n")
        code = parse_code_file(text)
        assert code.d_min == 5 and code.d_min_verified
        for bad in ("NPC 63 51 4 verified", "NPC 63 51 6 declared", "NPC 63 51 5 declared"):
            with pytest.raises(ValueError, match="the code has d_min = 5"):
                parse_code_file(text.replace("NPC 63 51 5 verified", bad, 1))

    def test_one_measurement_per_code(self, monkeypatch):
        # the distance is measured once per built or loaded code: a second
        # measurement would add a whole enumeration to every verify command
        text = format_code_file(bch_code(31, 2))
        calls = []
        measure = gf2.min_distance
        monkeypatch.setattr(gf2, "min_distance", lambda g, **kw: calls.append(g) or measure(g, **kw))
        code = bch_code(31, 2)
        assert calls == [code.generator]
        assert parse_code_file(text) == code
        assert calls == [code.generator] * 2

    @pytest.mark.parametrize("build", [lambda: bch_code(31, 2), lambda: bch_code(15, 2), lambda: hamming_code(3)],
                             ids=["31-21", "15-7", "7-4"])
    def test_one_dual_per_code(self, monkeypatch, build):
        # building or loading a code derives H = [P^T | I_m] once, and the
        # measurement, when it enumerates the dual (k > m), reads those rows
        text = format_code_file(build())
        duals, spans = [], []
        derive, span_weights = gf2._systematic_dual, gf2._span_weights
        monkeypatch.setattr(gf2, "_systematic_dual", lambda *a: duals.append(derive(*a)) or duals[-1])
        monkeypatch.setattr(gf2, "_span_weights", lambda rows, n: spans.append(tuple(rows)) or span_weights(rows, n))
        for make in (build, lambda: parse_code_file(text)):
            code = make()
            assert duals == [list(code.parity_check.row_words)]
            assert spans == [code.parity_check.row_words if code.k > code.m else code.generator.row_words]
            duals.clear()
            spans.clear()

    def test_rejects_non_systematic_matrix(self):
        text = "NPC 3 2 2 declared\n2 3\n011\n101\n"
        with pytest.raises(ValueError):
            parse_code_file(text)
