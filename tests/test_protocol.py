import dataclasses
import functools
import io
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from npcode import codes, gf2, protocol
from npcode.cli import render_report
from npcode.codes import (
    ErasurePattern,
    bch_code,
    encode,
    erasure_decode,
    hamming_code,
    single_parity_code,
    verify_protection,
)
from npcode.gf2 import BitMatrix, BitVector, DimensionMismatch, Inconsistent, NoUniqueSolution
from npcode.netmodel import Network, PacketKind
from npcode.protocol import (
    Outcome,
    RecoveryReport,
    Schedule,
    SimulationMetrics,
    build_schedule,
    _unrank,
    connection_of_coordinate,
    encode_round,
    fixed_failures,
    inject_failures,
    no_failures,
    random_failures,
    recover,
    recover_codeword,
    run_simulation,
    simulate_rounds,
)

from oracles import agreeing_messages, erasure_fill_naive


def splitmix64(state):
    """The splitmix64 generator (Steele, Lea and Flood, OOPSLA 2014) started
    at ``state``: add the golden gamma, then finalise, one output a step."""
    mask = (1 << 64) - 1
    while True:
        state = state + 0x9E3779B97F4A7C15 & mask
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        yield z ^ z >> 31


def test_splitmix64_reference_outputs():
    # the first outputs of the reference generator started at 0
    outputs = splitmix64(0)
    assert [next(outputs) for _ in range(4)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC,
    ]


def one_round(code, n, r=0, rounds=None):
    return build_schedule(n, code.m, rounds or max(r + 1, 1))


class TestSchedule:
    def test_diagonal_rotation_n5(self):
        sched = build_schedule(5, 1, 5)
        assert [frozenset(sched.scheduled(r)) for r in range(5)] == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
        ]

    def test_two_full_rotations(self):
        sched = build_schedule(4, 1, 8)
        counts = [0] * 4
        for r in range(8):
            for c in sched.scheduled(r):
                counts[c] += 1
        assert counts == [2, 2, 2, 2]

    def test_base_case_n7_m3(self):
        sched = build_schedule(7, 3, 1)
        assert frozenset(sched.scheduled(0)) == frozenset({0, 1, 2})

    def test_wraparound(self):
        sched = build_schedule(5, 3, 10)
        assert frozenset(sched.scheduled(4)) == frozenset({4, 0, 1})

    def test_every_round_has_m_indices(self):
        # every round gives parity to m distinct connections of the n, which
        # is what makes SimulationMetrics.avg_capacity exactly (n - m)/n
        for n in range(2, 41):
            for m in range(1, n):
                sched = build_schedule(n, m, 2 * n)
                for r in range(2 * n):
                    scheduled = frozenset(sched.scheduled(r))
                    assert len(scheduled) == m and scheduled <= frozenset(range(n))

    def test_fairness_over_n_rounds(self):
        for n in range(2, 12):
            for m in range(1, n):
                sched = build_schedule(n, m, n)
                counts = [0] * n
                for r in range(n):
                    for c in sched.scheduled(r):
                        counts[c] += 1
                assert counts == [m] * n

    def test_fairness_over_any_window(self):
        sched = build_schedule(7, 3, 28)
        for start in range(21):
            counts = [0] * 7
            for r in range(start, start + 7):
                for c in sched.scheduled(r):
                    counts[c] += 1
            assert counts == [3] * 7

    def test_coordinate_inverts_the_layout(self, monkeypatch):
        # the erased mask recover_codeword hands to its repair plan is the
        # inverse of connection_of_coordinate, for every n <= 40, 1 <= m < n
        # and offset < n (parity blocks that wrap past connection n - 1 and
        # blocks that do not): each single failed data connection, and at
        # n <= 12 every failed pair
        masks = []
        plan = SimpleNamespace(apply=lambda word: 0, ops=0)
        monkeypatch.setattr(codes, "repair_plan", lambda rows, erased: masks.append(erased) or plan)
        for n in range(2, 41):
            for m in range(1, n):
                k = n - m
                code = SimpleNamespace(n=n, k=k, m=m, parity_check=SimpleNamespace(row_words=()))
                sched = Schedule(n, m, n)
                for offset in range(n):
                    conn_of = connection_of_coordinate(sched, offset)
                    coordinate = {c: j for j, c in enumerate(conn_of)}
                    failures = [(c,) for c in conn_of[:k]]
                    if n <= 12:
                        failures += itertools.combinations(range(n), 2)
                    for failed in failures:
                        masks.clear()
                        report = recover_codeword(code, offset, frozenset(failed), 0)
                        erased = sum(1 << coordinate[c] for c in failed)
                        if erased & ((1 << k) - 1):
                            assert masks == [erased]
                            assert report.recovered.keys() == {c for c in failed if coordinate[c] < k}
                        else:
                            assert masks == []
                            assert report.outcome is Outcome.NO_ACTION_NEEDED

    @pytest.mark.parametrize("n,m,rounds", [(5, 0, 1), (5, 5, 1), (1, 1, 1), (5, 1, 0)])
    def test_rejects_bad_parameters(self, n, m, rounds):
        with pytest.raises(ValueError):
            build_schedule(n, m, rounds)

    def test_round_out_of_range(self):
        with pytest.raises(ValueError):
            build_schedule(5, 1, 5).scheduled(5)


class TestEncodeRound:
    def test_parity_on_last_connection(self):
        # round 4 of the n=5 rotation schedules connection 4; the other four
        # carry the message in connection order and the parity is their XOR
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 5)
        data = [1, 1, 0, 1]
        packets = encode_round(sched, 4, code, data)
        assert [p.payload for p in packets[:4]] == data
        assert packets[4].payload == 1  # 1^1^0^1
        assert packets[4].kind is PacketKind.ENCODED
        assert all(p.kind is PacketKind.DATA for p in packets[:4])

    def test_round_zero_rotates_data(self):
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 5)
        data = [1, 0, 0, 1]
        packets = encode_round(sched, 0, code, data)
        assert packets[0].kind is PacketKind.ENCODED
        assert [p.payload for p in packets[1:]] == data

    def test_zero_data_zero_payloads(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        packets = encode_round(sched, 2, code, [0, 0, 0, 0])
        assert all(p.payload == 0 for p in packets)

    def test_matches_direct_encode_any_round(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 14)
        rng = random.Random(31)
        for r in range(14):
            data = [rng.randrange(2) for _ in range(4)]
            packets = encode_round(sched, r, code, data)
            codeword = encode(code, data)
            conn_of = connection_of_coordinate(sched, r)
            for j in range(7):
                assert packets[conn_of[j]].payload == codeword[j]
            for c in sched.scheduled(r):
                assert packets[c].kind is PacketKind.ENCODED

    def test_round_stamp(self):
        code = single_parity_code(3)
        sched = build_schedule(3, 1, 8)
        assert encode_round(sched, 7, code, [0, 1])[0].round_stamp == (2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            encode_round(build_schedule(5, 1, 1), 0, hamming_code(3), [0, 0, 0, 0])


class TestInjectFailures:
    def test_empty_scenario(self):
        code = single_parity_code(4)
        packets = encode_round(build_schedule(4, 1, 1), 0, code, [1, 0, 1])
        assert inject_failures(packets, frozenset(())) == packets

    def test_all_failed(self):
        code = single_parity_code(4)
        packets = encode_round(build_schedule(4, 1, 1), 0, code, [1, 0, 1])
        erased = inject_failures(packets, frozenset(range(4)))
        assert all(p.payload is None for p in erased)
        assert [p.kind for p in erased] == [p.kind for p in packets]

    def test_single_failure(self):
        code = single_parity_code(5)
        packets = encode_round(build_schedule(5, 1, 1), 0, code, [1, 0, 1, 1])
        erased = inject_failures(packets, frozenset({2}))
        assert erased[2].payload is None
        assert sum(p.payload is None for p in erased) == 1

    def test_out_of_range(self):
        code = single_parity_code(4)
        packets = encode_round(build_schedule(4, 1, 1), 0, code, [1, 0, 1])
        with pytest.raises(ValueError):
            inject_failures(packets, frozenset({4}))


def run_one_recovery(code, n, failed, r=0, data=None, seed=5):
    rng = random.Random(seed)
    sched = build_schedule(n, code.m, max(r + 1, 1))
    data = data or [rng.randrange(2) for _ in range(code.k)]
    sent = encode_round(sched, r, code, data)
    scenario = frozenset(failed)
    delivered = inject_failures(sent, scenario)
    return sent, recover(code, delivered, scenario, sched, r)


class TestRecover:
    def test_single_parity_data_failure_counts(self):
        # failed data receiver queries the other n-1 nodes and XORs n-2 times
        sent, report = run_one_recovery(single_parity_code(5), 5, {2})
        assert report.outcome is Outcome.FULL_RECOVERY
        assert report.queries_sent == 4
        assert report.xor_operations == 3
        one = run_simulation(Network.direct(5), single_parity_code(5), build_schedule(5, 1, 1), fixed_failures({2}), 1)
        assert one.total_transmissions == 5
        assert report.recovered == {2: sent[2].payload}

    def test_single_parity_encoded_link_failure(self):
        _, report = run_one_recovery(single_parity_code(5), 5, {0}, r=0)
        assert report.outcome is Outcome.NO_ACTION_NEEDED
        assert report.queries_sent == 0
        assert report.xor_operations == 0
        assert report.recovered == {}

    def test_no_failures(self):
        _, report = run_one_recovery(single_parity_code(5), 5, ())
        assert report.outcome is Outcome.NO_ACTION_NEEDED
        assert report.queries_sent == 0

    def test_multi_failure_query_count(self):
        # [7,4,3]: two failed data links leave a parity receiver to send
        # n - t - 1 = 4 queries
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        data_conns = [c for c in range(7) if c not in sched.scheduled(0)]
        sent, report = run_one_recovery(code, 7, set(data_conns[:2]))
        assert report.outcome is Outcome.FULL_RECOVERY
        assert report.queries_sent == 4

    def test_mixed_failure_recovers_only_data(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        parity_conn = min(sched.scheduled(0))
        data_conn = max(c for c in range(7) if c not in sched.scheduled(0))
        sent, report = run_one_recovery(code, 7, {parity_conn, data_conn})
        assert report.outcome is Outcome.FULL_RECOVERY
        assert set(report.recovered) == {data_conn}
        assert report.recovered[data_conn] == sent[data_conn].payload
        assert report.queries_sent == 7 - 2 - 1

    def test_all_parity_failures_need_nothing(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        _, report = run_one_recovery(code, 7, set(sched.scheduled(0)))
        assert report.outcome is Outcome.NO_ACTION_NEEDED
        assert report.queries_sent == 0

    def test_too_many_failures_unrecoverable(self):
        _, report = run_one_recovery(single_parity_code(5), 5, {1, 2})
        assert report.outcome is Outcome.UNRECOVERABLE
        assert report.recovered == {}

    def test_counters_depend_only_on_shape(self):
        code = single_parity_code(6)
        seen = set()
        for seed in range(10):
            _, report = run_one_recovery(code, 6, {3}, seed=seed)
            seen.add((report.queries_sent, report.xor_operations))
        assert seen == {(5, 4)}

    def test_recovered_values_match_sent(self):
        rng = random.Random(32)
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        for r in range(7):
            data_conns = [c for c in range(7) if c not in sched.scheduled(r)]
            for failed in itertools.combinations(data_conns, 2):
                data = [rng.randrange(2) for _ in range(4)]
                sent = encode_round(sched, r, code, data)
                scenario = frozenset(failed)
                report = recover(code, inject_failures(sent, scenario), scenario, sched, r)
                assert report.outcome is Outcome.FULL_RECOVERY
                assert report.recovered == {c: sent[c].payload for c in failed}

    def test_rejects_mismatched_erasures(self):
        code = single_parity_code(4)
        sched = build_schedule(4, 1, 1)
        sent = encode_round(sched, 0, code, [1, 0, 1])
        with pytest.raises(ValueError):
            recover(code, sent, frozenset({1}), sched, 0)

    def test_rejects_non_binary_payload(self):
        code = single_parity_code(4)
        sched = build_schedule(4, 1, 1)
        sent = encode_round(sched, 0, code, [1, 0, 1])
        sent[1] = dataclasses.replace(sent[1], payload=2)
        with pytest.raises(ValueError):
            recover(code, sent, frozenset(()), sched, 0)

    @pytest.mark.parametrize(
        "code", [single_parity_code(5), hamming_code(3), bch_code(31, 2)], ids=["parity5", "hamming3", "bch31"]
    )
    def test_no_data_lost_needs_no_plan(self, code, monkeypatch):
        # an empty failed set and a set of parity connections only are
        # answered before any repair plan is asked for
        def no_plan(rows, erased):
            raise AssertionError(f"a plan was asked for erased mask {erased:#x}")

        monkeypatch.setattr(codes, "repair_plan", no_plan)
        n = code.n
        sched = build_schedule(n, code.m, n)
        expected = RecoveryReport({}, 0, 0, Outcome.NO_ACTION_NEEDED)
        for offset in range(n):
            parity = sched.scheduled(offset)
            for t in range(min(len(parity), 3) + 1):
                for failed in itertools.combinations(parity, t):
                    assert recover_codeword(code, offset, frozenset(failed), 0) == expected

    @pytest.mark.parametrize("failed", [(), (0,), (4,), (0, 4)])
    @pytest.mark.parametrize("offset", [7, 8, -1])
    def test_rejects_offset_outside_rotation(self, offset, failed):
        # the offset is r mod n: n, n + 1 and -1 are refused, whatever failed
        code = hamming_code(3)
        word = encode(code, BitVector.from_int(0b0010, 4)).bits
        with pytest.raises(ValueError, match=rf"offset {offset} outside \[0, 7\)"):
            recover_codeword(code, offset, frozenset(failed), word)

    @pytest.mark.parametrize("outside", [-1, 5])
    def test_rejects_failed_connection_outside_network(self, outside):
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 1)
        sent = encode_round(sched, 0, code, [1, 0, 1, 1])
        scenario = frozenset({2, outside})
        with pytest.raises(ValueError):
            recover(code, inject_failures(sent, frozenset({2})), scenario, sched, 0)
        with pytest.raises(ValueError):
            next(simulate_rounds(code, lambda r: scenario, 1))


@functools.cache
def entry_lists(rows, n):
    """Packed rows of n entries as 0/1 lists, for the naive oracle."""
    return [[w >> j & 1 for j in range(n)] for w in rows]


def uncached_report(code, offset, failed, codeword):
    """One round's report worked out with no solve plan: the lost bits by
    the naive oracle, which tries every filling, and the XOR count by its
    definition. The reference for the memoised round core."""
    n, k = code.n, code.k
    conn_of = connection_of_coordinate(Schedule(n, code.m, n), offset)
    erased = [j for j, c in enumerate(conn_of) if c in failed]
    if all(j >= k for j in erased):
        return RecoveryReport({}, 0, 0, Outcome.NO_ACTION_NEEDED)
    t = len(failed)
    queries = n - 1 if code.m == 1 and t == 1 else max(0, n - t - 1)
    rows = code.parity_check.row_words
    try:
        word = erasure_fill_naive(entry_lists(rows, n), erased, [codeword >> j & 1 for j in range(n)])
    except NoUniqueSolution:
        return RecoveryReport({}, queries, 0, Outcome.UNRECOVERABLE)
    # per row, one XOR per surviving term after the first; then one per row
    # combination while eliminating on the erased columns in ascending order
    survivors = ~sum(1 << j for j in erased)
    ops = sum(max(0, (w & survivors).bit_count() - 1) for w in rows)
    ops += gf2._eliminate(list(rows), erased)[2]
    recovered = {conn_of[j]: word[j] for j in erased if j < k}
    return RecoveryReport(recovered, queries, ops, Outcome.FULL_RECOVERY)


def corrupt(packets, c):
    flipped = list(packets)
    flipped[c] = dataclasses.replace(packets[c], payload=1 - packets[c].payload)
    return flipped


class TestRepairPlanMemo:
    @pytest.mark.parametrize(
        "code, offsets, max_failures",
        [
            (single_parity_code(5), range(5), 5),
            (hamming_code(3), range(7), 7),
            (bch_code(15, 2), (0, 8), 5),
            (single_parity_code(100), (0, 37, 99), 2),
        ],
        ids=["parity5", "hamming3", "bch15", "parity100"],
    )
    def test_agrees_with_uncached_decoder(self, code, offsets, max_failures):
        # every failure set of up to max_failures connections at each offset,
        # each recovered twice so that the second run reads its plan from the memo
        rng = random.Random(code.n)
        codes.repair_plan.cache_clear()
        decoded = 0
        outcomes = set()
        for offset in offsets:
            for t in range(max_failures + 1):
                for failed in itertools.combinations(range(code.n), t):
                    failed = frozenset(failed)
                    word = encode(code, BitVector.from_int(rng.getrandbits(code.k), code.k)).bits
                    expected = uncached_report(code, offset, failed, word)
                    assert recover_codeword(code, offset, failed, word) == expected
                    assert recover_codeword(code, offset, failed, word) == expected
                    decoded += expected.outcome is not Outcome.NO_ACTION_NEEDED
                    outcomes.add(expected.outcome)
        assert codes.repair_plan.cache_info().hits >= decoded
        assert outcomes == set(Outcome)

    def test_decoder_and_simulator_share_plans(self):
        # a plan the decoder built serves the round core, and the other way
        # round: the second use of each erased set is a memo hit
        code = hamming_code(4)
        n, offset = code.n, 3
        conn_of = connection_of_coordinate(Schedule(n, code.m, n), offset)
        word = encode(code, BitVector.from_int(0b10110011101, code.k)).bits
        for erased in ((1, 6), (0, 13)):
            failed = frozenset(conn_of[j] for j in erased)
            received = [None if j in erased else word >> j & 1 for j in range(n)]
            pattern = ErasurePattern(n, erased)
            decode = lambda: erasure_decode(code, received, pattern)
            core = lambda: recover_codeword(code, offset, failed, word)
            for first, second in ((decode, core), (core, decode)):
                codes.repair_plan.cache_clear()
                first()
                assert codes.repair_plan.cache_info()[:2] == (0, 1)  # (hits, misses)
                second()
                assert codes.repair_plan.cache_info()[:2] == (1, 1)

    def test_corrupted_survivor_is_inconsistent_cold_and_warm(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        r = 3
        sent = encode_round(sched, r, code, [1, 0, 1, 1])
        lost = connection_of_coordinate(sched, r)[1]  # a data connection
        scenario = frozenset({lost})
        delivered = inject_failures(sent, scenario)
        codes.repair_plan.cache_clear()
        for survivor in (c for c in range(7) if c != lost):
            with pytest.raises(Inconsistent):
                recover(code, corrupt(delivered, survivor), scenario, sched, r)
        info = codes.repair_plan.cache_info()
        assert (info.misses, info.hits) == (1, 5)  # one cold miss, then the memo
        report = recover(code, delivered, scenario, sched, r)
        assert report.recovered == {lost: sent[lost].payload}

    def test_inconsistent_comes_before_unrecoverable(self):
        # three lost coordinates whose parity-check columns are dependent:
        # the clean word is Unrecoverable, a corrupted survivor Inconsistent
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        r = 5
        conn_of = connection_of_coordinate(sched, r)
        h_cols = [sum(code.parity_check[i, j] << i for i in range(code.m)) for j in range(7)]
        coords = next(
            trio for trio in itertools.combinations(range(7), 3)
            if trio[0] < code.k and h_cols[trio[0]] ^ h_cols[trio[1]] == h_cols[trio[2]]
        )
        scenario = frozenset(conn_of[j] for j in coords)
        delivered = inject_failures(encode_round(sched, r, code, [0, 1, 1, 0]), scenario)
        survivor = next(c for c in range(7) if c not in scenario)
        codes.repair_plan.cache_clear()
        for _ in range(2):  # cold, then from the memo
            with pytest.raises(Inconsistent):
                recover(code, corrupt(delivered, survivor), scenario, sched, r)
            report = recover(code, delivered, scenario, sched, r)
            assert report.outcome is Outcome.UNRECOVERABLE
        assert codes.repair_plan.cache_info().misses == 1

    def test_equal_matrices_share_one_plan(self):
        # one parity check built from 0/1 rows and from packed row words
        rows = [[1, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 0, 0, 1]]
        by_rows = BitMatrix(rows)
        by_words = BitMatrix.from_row_words([sum(b << j for j, b in enumerate(r)) for r in rows], 7)
        assert by_rows == by_words and hash(by_rows) == hash(by_words)
        codes.repair_plan.cache_clear()
        assert codes.repair_plan(by_rows.row_words, 0b11) is codes.repair_plan(by_words.row_words, 0b11)
        info = codes.repair_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_warm_rounds_hash_no_matrix(self, monkeypatch):
        # a memo hit keys on plain ints: once the plans exist, rounds of a
        # freshly built, equal code neither hash nor compare a BitMatrix
        rounds = 1000

        def run(code):
            sched = build_schedule(31, code.m, rounds)
            return run_simulation(Network.direct(31), code, sched, random_failures(31, 2, seed=9), rounds)

        codes.repair_plan.cache_clear()
        warm = run(bch_code(31, 2))
        fresh = bch_code(31, 2)
        calls = Counter()
        for name in ("__hash__", "__eq__"):
            def counted(*args, name=name, original=getattr(BitMatrix, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(BitMatrix, name, counted)
        before = codes.repair_plan.cache_info()
        again = run(fresh)
        after = codes.repair_plan.cache_info()
        assert calls == Counter()
        assert after.misses == before.misses
        assert after.hits - before.hits == again.outcomes[Outcome.FULL_RECOVERY] > 0
        assert again == warm

    def test_memo_holds_at_most_its_bound(self):
        code = bch_code(31, 2)
        codes.repair_plan.cache_clear()
        rounds = 2500  # about 2,400 distinct erased sets of the C(31, 4) = 31,465
        run_simulation(
            Network.direct(31), code, build_schedule(31, code.m, rounds),
            random_failures(31, 4, seed=12), rounds,
        )
        info = codes.repair_plan.cache_info()
        assert info.misses > codes.PLAN_MEMO_SIZE
        assert info.currsize == codes.PLAN_MEMO_SIZE


class TestEndToEnd:
    def test_exhaustive_small(self):
        # every message, every round, every failure set up to d_min - 1
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        for msg in itertools.product((0, 1), repeat=4):
            for r in range(7):
                sent = encode_round(sched, r, code, msg)
                for t in range(code.d_min):
                    for failed in itertools.combinations(range(7), t):
                        scenario = frozenset(failed)
                        report = recover(
                            code, inject_failures(sent, scenario), scenario, sched, r
                        )
                        assert report.outcome in (
                            Outcome.FULL_RECOVERY,
                            Outcome.NO_ACTION_NEEDED,
                        )
                        for c, value in report.recovered.items():
                            assert value == sent[c].payload

    def test_simulated_rounds_match_oracle(self):
        # every rotation offset of [7,4,3] under every one of the 2^7 failure
        # sets, against brute-force enumeration of the agreeing messages
        code = hamming_code(3)
        g_rows = [[w >> j & 1 for j in range(code.n)] for w in code.generator.row_words]
        sched = build_schedule(7, 3, 7)
        outcomes = set()
        for mask in range(1 << 7):
            failed = {c for c in range(7) if mask >> c & 1}
            for rec in simulate_rounds(code, fixed_failures(failed), 7, seed=mask):
                conn_of = connection_of_coordinate(sched, rec.index)
                sent = [rec.codeword >> j & 1 for j in range(7)]
                received = [None if conn_of[j] in failed else sent[j] for j in range(7)]
                agreeing = agreeing_messages(g_rows, received)
                assert tuple(sent[: code.k]) in agreeing
                data_failed = failed & set(conn_of[: code.k])
                report = rec.report
                if not data_failed:
                    assert report.outcome is Outcome.NO_ACTION_NEEDED
                elif len(agreeing) == 1:
                    assert report.outcome is Outcome.FULL_RECOVERY
                    assert report.recovered == {
                        c: sent[conn_of.index(c)] for c in data_failed
                    }
                else:
                    assert report.outcome is Outcome.UNRECOVERABLE
                outcomes.add(report.outcome)
        assert outcomes == set(Outcome)

    def test_round_outcomes_agree_with_verify(self):
        # protection codes are erasure codes: a round is unrecoverable exactly
        # when verify lists its erased coordinates (mapped through
        # connection_of_coordinate), on the codes of acceptance criterion 6,
        # for every failed set of t <= d_min + 1 connections
        codes_under_test = [single_parity_code(n) for n in range(2, 16)]
        codes_under_test += [hamming_code(2), hamming_code(3), hamming_code(4), bch_code(7, 2), bch_code(15, 2)]
        seen = Counter()
        for code in codes_under_test:
            n, k, m = code.n, code.k, code.m
            sched = build_schedule(n, m, n)
            # every offset up to n = 7; past that, the parity run at either end of
            # the connections (0, n - m), one step in (1) and wrapped round (n - 1)
            offsets = range(n) if n <= 7 else sorted({0, 1, n - m, n - 1})
            for t in range(min(code.d_min + 1, n) + 1):
                failing = set(verify_protection(code, t).failing_patterns)
                for r in offsets:
                    coordinate = {c: j for j, c in enumerate(connection_of_coordinate(sched, r))}
                    for failed in itertools.combinations(range(n), t):
                        erased = tuple(sorted(coordinate[c] for c in failed))
                        outcome = recover_codeword(code, r, frozenset(failed), 0).outcome
                        assert (outcome is Outcome.UNRECOVERABLE) == (erased in failing), (n, k, r, failed)
                        assert (outcome is Outcome.NO_ACTION_NEEDED) == all(j >= k for j in erased), (n, k, r, failed)
                        seen[outcome] += 1
        assert seen.keys() == set(Outcome) and seen.total() == 57_157, seen


class TestFailureModels:
    def test_no_failures(self):
        model = no_failures()
        assert model(0) == frozenset()

    def test_fixed(self):
        model = fixed_failures({1, 3})
        assert model(7) == frozenset({1, 3})

    def test_random_deterministic(self):
        a = random_failures(8, 2, seed=99)
        b = random_failures(8, 2, seed=99)
        seq_a = [a(r) for r in range(50)]
        seq_b = [b(r) for r in range(50)]
        assert seq_a == seq_b
        assert all(len(s) == 2 for s in seq_a)

    def test_random_rejects_bad_t(self):
        for t in (-1, 5):
            with pytest.raises(ValueError, match=rf"t must be in \[0, 4\], got {t}"):
                random_failures(4, t, seed=0)

    def test_unrank_is_colex_order(self):
        # a bijection from range(C(n, t)) onto the t-subsets, in colex order
        # (largest member first), for every n <= 12 and 0 <= t <= n
        for n in range(13):
            for t in range(n + 1):
                colex = sorted(itertools.combinations(range(n), t), key=lambda s: s[::-1])
                assert [_unrank(n, t, i) for i in range(math.comb(n, t))] == [
                    frozenset(s) for s in colex
                ]

    @pytest.mark.parametrize(
        "n, t, blocks",
        [(12, 6, 1), (34, 17, 1), (35, 17, 2), (40, 20, 2), (127, 63, 3)],
    )
    def test_random_reads_the_splitmix64_stream(self, n, t, blocks):
        # round r is outputs rB + 1 .. rB + B of the stream started at the
        # seed's key, mod C(n, t), ranked in the combinatorial number system;
        # B leaves 32 bits over C(n, t): C(34, 17) < 2^32 < C(35, 17)
        count = math.comb(n, t)
        outputs = splitmix64(random.Random(21).getrandbits(64))
        model = random_failures(n, t, seed=21)
        for r in range(50):
            word = 0
            for _ in range(blocks):
                word = word << 64 | next(outputs)
            members = sorted(model(r))
            assert sum(math.comb(c, i) for i, c in enumerate(members, 1)) == word % count

    def test_random_rounds_in_any_order(self):
        in_order = [random_failures(31, 3, seed=5)(r) for r in range(300)]
        model = random_failures(31, 3, seed=5)
        assert [model(r) for r in reversed(range(300))][::-1] == in_order
        shuffled = list(range(300))
        random.Random(0).shuffle(shuffled)
        model = random_failures(31, 3, seed=5)
        assert {r: model(r) for r in shuffled} == dict(enumerate(in_order))

    def test_random_seeds_differ(self):
        runs = {tuple(map(random_failures(31, 2, seed), range(20))) for seed in range(10)}
        assert len(runs) == 10

    def test_random_reaches_every_pair(self):
        model = random_failures(31, 2, seed=3)
        drawn = {model(r) for r in range(50_000)}
        assert drawn == {frozenset(s) for s in itertools.combinations(range(31), 2)}

    def test_random_half_of_127(self):
        # C(127, 63) is near 2^124: the draw spans three 64-bit blocks
        model = random_failures(127, 63, seed=8)
        seen = set()
        for r in range(200):
            failed = model(r)
            assert len(failed) == 63 and failed <= set(range(127))
            seen |= failed
        assert seen == set(range(127))

    @pytest.mark.parametrize("n", [1, 5, 31])
    def test_random_none_or_all(self, n):
        for t, expected in ((0, frozenset()), (n, frozenset(range(n)))):
            model = random_failures(n, t, seed=2)
            assert [model(r) for r in range(5)] == [expected] * 5


class TestRunSimulation:
    def test_capacity_single_parity(self):
        net = Network.direct(5)
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 100)
        metrics = run_simulation(net, code, sched, no_failures(), 100)
        assert metrics.avg_capacity == Fraction(4, 5)
        assert metrics.total_transmissions == 500

    def test_capacity_hamming(self):
        net = Network.direct(7)
        code = hamming_code(3)
        sched = build_schedule(7, 3, 21)
        metrics = run_simulation(net, code, sched, no_failures(), 21)
        assert metrics.avg_capacity == Fraction(4, 7)

    def test_recovery_rate_with_recoverable_failures(self):
        net = Network.direct(7)
        code = hamming_code(3)
        sched = build_schedule(7, 3, 50)
        metrics = run_simulation(net, code, sched, random_failures(7, 2, seed=1), 50)
        assert metrics.recovery_rate == 1

    def test_unrecoverable_rounds_counted(self):
        net = Network.direct(5)
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 10)
        # two data failures every round beat the single parity symbol
        metrics = run_simulation(net, code, sched, fixed_failures({1, 2}), 10)
        assert metrics.recovery_rate < 1

    def test_transmissions_counted_despite_failures(self):
        net = Network.direct(5)
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 10)
        metrics = run_simulation(net, code, sched, fixed_failures({0, 1, 2, 3, 4}), 10)
        assert metrics.total_transmissions == 50

    def test_deterministic_given_seed(self):
        def run():
            return [
                (rec.failed, rec.report.outcome, rec.codeword)
                for rec in simulate_rounds(hamming_code(3), random_failures(7, 2, seed=7), 30, seed=7)
            ]

        assert run() == run()

    def test_any_round_replays_alone(self):
        # each record's round again from a fresh failure model called at that
        # round alone and the record's codeword
        code = bch_code(15, 2)
        n, t, seed, rounds = code.n, 3, 6, 200
        outcomes = set()
        for rec in simulate_rounds(code, random_failures(n, t, seed), rounds, seed=seed):
            failed = random_failures(n, t, seed)(rec.index)
            assert failed == rec.failed
            report = recover_codeword(code, rec.index % n, failed, rec.codeword)
            assert (report.outcome, report.queries_sent, report.xor_operations) == (
                rec.report.outcome, rec.report.queries_sent, rec.report.xor_operations,
            )
            outcomes.add(report.outcome)
        assert outcomes == {Outcome.FULL_RECOVERY, Outcome.NO_ACTION_NEEDED}

    def test_empty_fold_raises_value_error(self):
        # averages over zero rounds are undefined: a ValueError naming the
        # empty fold, which the CLI reports, not a ZeroDivisionError
        metrics = SimulationMetrics(5, 1)
        assert (metrics.rounds, metrics.queries, metrics.outcomes) == (0, 0, Counter())
        for name in ("avg_capacity", "recovery_rate"):
            with pytest.raises(ValueError, match="the fold is empty"):
                getattr(metrics, name)

    def test_fold_by_kind_against_a_recount(self):
        # totals summed over the kinds equal sums over the records, and the
        # kind counts passed to the constructor give the same fold
        code = hamming_code(3)
        args = (code, random_failures(7, 2, seed=3), 30)
        reports = [rec.report for rec in simulate_rounds(*args)]
        folded = run_simulation(Network.direct(7), code, build_schedule(7, 3, 30), *args[1:])
        assert (folded.rounds, folded.queries, folded.xor_operations, folded.total_transmissions) == (
            30,
            sum(r.queries_sent for r in reports),
            sum(r.xor_operations for r in reports),
            30 * 7,
        )
        assert folded.outcomes == Counter(r.outcome for r in reports)
        assert len(folded.outcomes) > 1 and len(folded.kinds) < 30
        assert SimulationMetrics(7, 3, dict(folded.kinds)) == folded

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            run_simulation(
                Network.direct(5),
                hamming_code(3),
                build_schedule(7, 3, 5),
                no_failures(),
                5,
            )

    # run_simulation is the one simulate entry that takes a Network and a
    # Schedule, so it checks both against the code before folding

    @pytest.mark.parametrize("n, m", [(8, 4), (7, 2), (7, 4), (8, 3)])
    def test_schedule_that_does_not_fit_is_refused(self, n, m):
        with pytest.raises(DimensionMismatch, match=rf"code \[7,4\] does not fit schedule \(n={n}, m={m}\)"):
            run_simulation(Network.direct(7), hamming_code(3), build_schedule(n, m, 5), no_failures(), 5)

    def test_rounds_past_the_schedule_are_refused(self):
        code, sched = hamming_code(3), build_schedule(7, 3, 5)
        with pytest.raises(ValueError, match=r"rounds must be in \[1, 5\]"):
            run_simulation(Network.direct(7), code, sched, no_failures(), 6)
        assert run_simulation(Network.direct(7), code, sched, no_failures(), 5).rounds == 5

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_are_refused(self, rounds):
        code = hamming_code(3)
        with pytest.raises(ValueError, match=r"rounds must be in \[1, 5\]"):
            run_simulation(Network.direct(7), code, build_schedule(7, 3, 5), no_failures(), rounds)
        # refused at the call, before any round is pulled
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            simulate_rounds(code, no_failures(), rounds)

    def test_metrics_refuse_assignment(self):
        metrics = run_simulation(Network.direct(7), hamming_code(3), build_schedule(7, 3, 5), no_failures(), 5)
        for f in dataclasses.fields(metrics):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(metrics, f.name, getattr(metrics, f.name))
        assert (metrics.n, metrics.m, metrics.kinds) == (7, 3, {(Outcome.NO_ACTION_NEEDED, 0, 0): 5})


CLEAN_CODES = [single_parity_code(5), hamming_code(3), bch_code(15, 2), bch_code(31, 2)]
CLEAN_IDS = ["parity5", "hamming3", "bch15", "bch31"]


class TestCleanRounds:
    """A round that loses no connection takes the run's one shared report
    and never reaches recovery."""

    @pytest.mark.parametrize("code", CLEAN_CODES, ids=CLEAN_IDS)
    def test_clean_rounds_skip_recovery(self, code, monkeypatch):
        # even rounds lose nothing, odd rounds lose one or two connections;
        # recovery is patched before the run starts, so a call with an empty
        # failed set raises
        n, rounds = code.n, 4 * code.n
        drawn = {t: random_failures(n, t, seed=8) for t in (1, 2)}

        def failures(r):
            return drawn[r % 4 // 2 + 1](r) if r % 2 else frozenset()

        def recover_nonempty(code, offset, failed, codeword):
            if not failed:
                raise AssertionError(f"recovery called on a clean round at offset {offset}")
            return recover_codeword(code, offset, failed, codeword)

        monkeypatch.setattr(protocol, "recover_codeword", recover_nonempty)
        records = list(simulate_rounds(code, failures, rounds, seed=3))
        monkeypatch.undo()
        clean = [rec for rec in records if not rec.failed]
        assert len(clean) == rounds // 2
        assert all(rec.report is clean[0].report for rec in clean)
        for rec in records:
            assert rec.report == recover_codeword(code, rec.index % n, rec.failed, rec.codeword)
        assert {rec.report.outcome for rec in records} >= {Outcome.NO_ACTION_NEEDED, Outcome.FULL_RECOVERY}

    @pytest.mark.parametrize("code", CLEAN_CODES, ids=CLEAN_IDS)
    def test_every_clean_model_gives_the_same_run(self, code):
        n, rounds = code.n, 3 * code.n
        runs = []
        for model in (no_failures(), fixed_failures(()), random_failures(n, 0, seed=5)):
            records = list(simulate_rounds(code, model, rounds, seed=2))
            out = io.StringIO()
            render_report(iter(records), code, out)
            runs.append((records, out.getvalue()))
        assert runs[0] == runs[1] == runs[2]
        assert all(rec.report.outcome is Outcome.NO_ACTION_NEEDED for rec in runs[0][0])

    def test_shared_report_is_read_only(self):
        records = list(simulate_rounds(hamming_code(3), no_failures(), 5))
        shared = records[0].report
        assert all(rec.report is shared for rec in records)
        with pytest.raises(TypeError):
            shared.recovered[0] = 1
        assert shared.recovered == {}


class TestPackedEncode:
    @pytest.mark.parametrize(
        "code",
        [
            single_parity_code(5),
            hamming_code(3),
            bch_code(15, 2),
            # k of 8 and more: one full group of 8 data bits, then several
            single_parity_code(9),
            single_parity_code(10),
            single_parity_code(17),
            single_parity_code(100),
            bch_code(31, 2),
            hamming_code(6),
        ],
        ids=["parity5", "hamming3", "bch15", "parity9", "parity10", "parity17", "parity100",
             "bch31", "hamming6"],
    )
    def test_every_round_sends_the_codeword_of_its_data(self, code):
        rounds = 3 * code.n
        checks = code.parity_check.row_words
        sent = set()
        for rec in simulate_rounds(code, random_failures(code.n, 1, seed=4), rounds, seed=4):
            assert all((rec.codeword & h).bit_count() % 2 == 0 for h in checks)
            data = [rec.codeword >> j & 1 for j in range(code.k)]
            assert rec.codeword == encode(code, data).bits
            sent.add(rec.codeword)
        assert len(sent) > rounds // 2  # the payloads really vary
