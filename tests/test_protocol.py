import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from npcode import codes, gf2
from npcode.codes import (
    ErasurePattern,
    bch_code,
    encode,
    erasure_decode,
    hamming_code,
    single_parity_code,
)
from npcode.gf2 import BitVector, DimensionMismatch, Inconsistent, NoUniqueSolution
from npcode.netmodel import Network, PacketKind
from npcode.protocol import (
    FailureScenario,
    Outcome,
    RecoveryReport,
    Schedule,
    build_schedule,
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

from oracles import agreeing_messages


def one_round(code, n, r=0, rounds=None):
    return build_schedule(n, code.m, rounds or max(r + 1, 1))


class TestSchedule:
    def test_diagonal_rotation_n5(self):
        sched = build_schedule(5, 1, 5)
        assert [sched.assignment(r) for r in range(5)] == [
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
            for c in sched.assignment(r):
                counts[c] += 1
        assert counts == [2, 2, 2, 2]

    def test_base_case_n7_m3(self):
        sched = build_schedule(7, 3, 1)
        assert sched.assignment(0) == frozenset({0, 1, 2})

    def test_wraparound(self):
        sched = build_schedule(5, 3, 10)
        assert sched.assignment(4) == frozenset({4, 0, 1})

    def test_every_round_has_m_indices(self):
        for n, m in [(2, 1), (5, 2), (9, 4)]:
            sched = build_schedule(n, m, 3 * n)
            for r in range(3 * n):
                assert len(sched.assignment(r)) == m

    def test_fairness_over_n_rounds(self):
        for n in range(2, 12):
            for m in range(1, n):
                sched = build_schedule(n, m, n)
                counts = [0] * n
                for r in range(n):
                    for c in sched.assignment(r):
                        counts[c] += 1
                assert counts == [m] * n

    def test_fairness_over_any_window(self):
        sched = build_schedule(7, 3, 28)
        for start in range(21):
            counts = [0] * 7
            for r in range(start, start + 7):
                for c in sched.assignment(r):
                    counts[c] += 1
            assert counts == [3] * 7

    @pytest.mark.parametrize("n,m,rounds", [(5, 0, 1), (5, 5, 1), (1, 1, 1), (5, 1, 0)])
    def test_rejects_bad_parameters(self, n, m, rounds):
        with pytest.raises(ValueError):
            build_schedule(n, m, rounds)

    def test_round_out_of_range(self):
        with pytest.raises(ValueError):
            build_schedule(5, 1, 5).assignment(5)


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
            for c in sched.assignment(r):
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
        assert inject_failures(packets, FailureScenario(())) == packets

    def test_all_failed(self):
        code = single_parity_code(4)
        packets = encode_round(build_schedule(4, 1, 1), 0, code, [1, 0, 1])
        erased = inject_failures(packets, FailureScenario(range(4)))
        assert all(p.payload is None for p in erased)
        assert [p.kind for p in erased] == [p.kind for p in packets]

    def test_single_failure(self):
        code = single_parity_code(5)
        packets = encode_round(build_schedule(5, 1, 1), 0, code, [1, 0, 1, 1])
        erased = inject_failures(packets, FailureScenario({2}))
        assert erased[2].payload is None
        assert sum(p.payload is None for p in erased) == 1

    def test_out_of_range(self):
        code = single_parity_code(4)
        packets = encode_round(build_schedule(4, 1, 1), 0, code, [1, 0, 1])
        with pytest.raises(ValueError):
            inject_failures(packets, FailureScenario({4}))


def run_one_recovery(code, n, failed, r=0, data=None, seed=5):
    rng = random.Random(seed)
    sched = build_schedule(n, code.m, max(r + 1, 1))
    data = data or [rng.randrange(2) for _ in range(code.k)]
    sent = encode_round(sched, r, code, data)
    scenario = FailureScenario(failed)
    delivered = inject_failures(sent, scenario)
    return sent, recover(code, delivered, scenario, sched, r)


class TestRecover:
    def test_single_parity_data_failure_counts(self):
        # failed data receiver queries the other n-1 nodes and XORs n-2 times
        sent, report = run_one_recovery(single_parity_code(5), 5, {2})
        assert report.outcome is Outcome.FULL_RECOVERY
        assert report.queries_sent == 4
        assert report.xor_operations == 3
        assert report.transmissions == 5
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
        data_conns = [c for c in range(7) if c not in sched.assignment(0)]
        sent, report = run_one_recovery(code, 7, set(data_conns[:2]))
        assert report.outcome is Outcome.FULL_RECOVERY
        assert report.queries_sent == 4

    def test_mixed_failure_recovers_only_data(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        parity_conn = min(sched.assignment(0))
        data_conn = max(c for c in range(7) if c not in sched.assignment(0))
        sent, report = run_one_recovery(code, 7, {parity_conn, data_conn})
        assert report.outcome is Outcome.FULL_RECOVERY
        assert set(report.recovered) == {data_conn}
        assert report.recovered[data_conn] == sent[data_conn].payload
        assert report.queries_sent == 7 - 2 - 1

    def test_all_parity_failures_need_nothing(self):
        code = hamming_code(3)
        sched = build_schedule(7, 3, 7)
        _, report = run_one_recovery(code, 7, set(sched.assignment(0)))
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
            data_conns = [c for c in range(7) if c not in sched.assignment(r)]
            for failed in itertools.combinations(data_conns, 2):
                data = [rng.randrange(2) for _ in range(4)]
                sent = encode_round(sched, r, code, data)
                scenario = FailureScenario(failed)
                report = recover(code, inject_failures(sent, scenario), scenario, sched, r)
                assert report.outcome is Outcome.FULL_RECOVERY
                assert report.recovered == {c: sent[c].payload for c in failed}

    def test_rejects_mismatched_erasures(self):
        code = single_parity_code(4)
        sched = build_schedule(4, 1, 1)
        sent = encode_round(sched, 0, code, [1, 0, 1])
        with pytest.raises(ValueError):
            recover(code, sent, FailureScenario({1}), sched, 0)

    def test_rejects_non_binary_payload(self):
        code = single_parity_code(4)
        sched = build_schedule(4, 1, 1)
        sent = encode_round(sched, 0, code, [1, 0, 1])
        sent[1] = dataclasses.replace(sent[1], payload=2)
        with pytest.raises(ValueError):
            recover(code, sent, FailureScenario(()), sched, 0)

    @pytest.mark.parametrize("outside", [-1, 5])
    def test_rejects_failed_connection_outside_network(self, outside):
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 1)
        sent = encode_round(sched, 0, code, [1, 0, 1, 1])
        scenario = FailureScenario({2, outside})
        with pytest.raises(ValueError):
            recover(code, inject_failures(sent, FailureScenario({2})), scenario, sched, 0)
        with pytest.raises(ValueError):
            next(simulate_rounds(Network.direct(5), code, sched, lambda r: scenario, 1))


def uncached_report(code, offset, failed, codeword):
    """One round's report from a cold solve plan built outside the memo: the
    reference for the memoised round core."""
    n, k = code.n, code.k
    conn_of = connection_of_coordinate(Schedule(n, code.m, n), offset)
    erased = [j for j, c in enumerate(conn_of) if c in failed]
    if all(j >= k for j in erased):
        return RecoveryReport({}, 0, 0, n, Outcome.NO_ACTION_NEEDED)
    t = len(failed)
    queries = n - 1 if code.m == 1 and t == 1 else max(0, n - t - 1)
    plan = gf2.SolvePlan(code.parity_check.row_words, erased)
    try:
        word = plan.apply(codeword)
    except NoUniqueSolution:
        return RecoveryReport({}, queries, 0, n, Outcome.UNRECOVERABLE)
    recovered = {conn_of[j]: word >> j & 1 for j in erased if j < k}
    return RecoveryReport(recovered, queries, plan.ops, n, Outcome.FULL_RECOVERY)


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
        ],
        ids=["parity5", "hamming3", "bch15"],
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
        scenario = FailureScenario({lost})
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
        scenario = FailureScenario(conn_of[j] for j in coords)
        delivered = inject_failures(encode_round(sched, r, code, [0, 1, 1, 0]), scenario)
        survivor = next(c for c in range(7) if c not in scenario.failed)
        codes.repair_plan.cache_clear()
        for _ in range(2):  # cold, then from the memo
            with pytest.raises(Inconsistent):
                recover(code, corrupt(delivered, survivor), scenario, sched, r)
            report = recover(code, delivered, scenario, sched, r)
            assert report.outcome is Outcome.UNRECOVERABLE
        assert codes.repair_plan.cache_info().misses == 1

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
                        scenario = FailureScenario(failed)
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
            for rec in simulate_rounds(
                Network.direct(7), code, sched, fixed_failures(failed), 7, seed=mask
            ):
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


class TestFailureModels:
    def test_no_failures(self):
        model = no_failures()
        assert model(0).failed == frozenset()

    def test_fixed(self):
        model = fixed_failures({1, 3})
        assert model(7).failed == frozenset({1, 3})

    def test_random_deterministic(self):
        a = random_failures(8, 2, seed=99)
        b = random_failures(8, 2, seed=99)
        seq_a = [a(r).failed for r in range(50)]
        seq_b = [b(r).failed for r in range(50)]
        assert seq_a == seq_b
        assert all(len(s) == 2 for s in seq_a)

    def test_random_rejects_bad_t(self):
        with pytest.raises(ValueError):
            random_failures(4, 5, seed=0)


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

    def test_encoded_counts_one_rotation(self):
        net = Network.direct(5)
        code = single_parity_code(5)
        sched = build_schedule(5, 1, 5)
        metrics = run_simulation(net, code, sched, no_failures(), 5)
        assert metrics.per_connection_encoded_counts == (1, 1, 1, 1, 1)

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
            net = Network.direct(7)
            sched = build_schedule(7, 3, 30)
            return [
                (rec.scenario.failed, rec.report.outcome, rec.codeword)
                for rec in simulate_rounds(
                    net, hamming_code(3), sched, random_failures(7, 2, seed=7), 30, seed=7
                )
            ]

        assert run() == run()

    @pytest.mark.parametrize("rounds", [1, 3, 7, 10, 22])
    def test_encoded_counts_match_the_schedule(self, rounds):
        # rounds below, at and off a multiple of n = 7, against a direct count
        code = hamming_code(3)
        sched = build_schedule(7, 3, rounds)
        metrics = run_simulation(Network.direct(7), code, sched, no_failures(), rounds)
        expected = [0] * 7
        for r in range(rounds):
            for c in sched.scheduled(r):
                expected[c] += 1
        assert metrics.per_connection_encoded_counts == tuple(expected)
        assert metrics.avg_capacity == Fraction(4, 7)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            run_simulation(
                Network.direct(5),
                hamming_code(3),
                build_schedule(7, 3, 5),
                no_failures(),
                5,
            )


class TestPackedEncode:
    @pytest.mark.parametrize(
        "code", [single_parity_code(5), hamming_code(3), bch_code(15, 2)],
        ids=["parity5", "hamming3", "bch15"],
    )
    def test_every_round_sends_the_codeword_of_its_data(self, code):
        rounds = 3 * code.n
        sched = build_schedule(code.n, code.m, rounds)
        checks = code.parity_check.row_words
        sent = set()
        for rec in simulate_rounds(
            Network.direct(code.n), code, sched, random_failures(code.n, 1, seed=4), rounds, seed=4
        ):
            assert all((rec.codeword & h).bit_count() % 2 == 0 for h in checks)
            data = [rec.codeword >> j & 1 for j in range(code.k)]
            assert rec.codeword == encode(code, data).bits
            sent.add(rec.codeword)
        assert len(sent) > rounds // 2  # the payloads really vary
