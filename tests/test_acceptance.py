"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same tests silently.
"""

import itertools
import random
import time
from fractions import Fraction

from npcode import gf2
from npcode.cli import main as cli_main
from npcode.codes import (
    ErasurePattern,
    bch_code,
    encode,
    erasure_decode,
    hamming_code,
    shorten,
    single_parity_code,
    verify_protection,
)
from npcode.gf2 import BitVector, mat_mul, min_distance
from npcode.netmodel import Network, PacketKind
from npcode.protocol import (
    Outcome,
    build_schedule,
    encode_round,
    fixed_failures,
    inject_failures,
    no_failures,
    random_failures,
    recover,
    run_simulation,
)


def _pass(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def _single_round_recovery(code, failed, r=0):
    sched = build_schedule(code.n, code.m, r + 1)
    rng = random.Random(1000 + code.n)
    data = [rng.randrange(2) for _ in range(code.k)]
    sent = encode_round(sched, r, code, data)
    scenario = frozenset(failed)
    delivered = inject_failures(sent, scenario)
    return sent, recover(code, delivered, scenario, sched, r)


def test_criterion_1_average_capacity_exact():
    start = time.perf_counter()
    parity = run_simulation(
        Network.direct(5), single_parity_code(5), build_schedule(5, 1, 100),
        no_failures(), 100,
    )
    assert parity.avg_capacity == Fraction(4, 5)
    hamming = run_simulation(
        Network.direct(7), hamming_code(3), build_schedule(7, 3, 70),
        no_failures(), 70,
    )
    assert hamming.avg_capacity == Fraction(4, 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"capacity exactly 4/5 (n=5, m=1) and 4/7 (n=7, m=3) in {elapsed:.3f}s")


def test_criterion_2_operation_counts_exact():
    start = time.perf_counter()
    for n in range(3, 65):
        code = single_parity_code(n)
        # round 0 schedules connection 0 for parity; connection 1 carries data
        sent, report = _single_round_recovery(code, {1})
        assert report.outcome is Outcome.FULL_RECOVERY
        assert report.xor_operations == n - 2
        assert report.queries_sent == n - 1
        assert report.recovered == {1: sent[1].payload}
        _, report = _single_round_recovery(code, {0})
        assert report.outcome is Outcome.NO_ACTION_NEEDED
        assert report.queries_sent == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(2, f"single-parity n=3..64: xor=n-2, queries=n-1 on data loss; 0 queries on parity loss ({elapsed:.3f}s)")


def test_criterion_3_multi_failure_query_count():
    code = hamming_code(3)
    checked = 0
    for r in range(7):
        sched = build_schedule(7, 3, 7)
        data_conns = [c for c in range(7) if c not in sched.scheduled(r)]
        for failed in itertools.combinations(data_conns, 2):
            sent, report = _single_round_recovery(code, set(failed), r=r)
            assert report.outcome is Outcome.FULL_RECOVERY
            assert report.queries_sent == 7 - 2 - 1
            checked += 1
    assert checked == 7 * 6
    _pass(3, f"[7,4,3]: every 2-subset of data links needs exactly 4 queries ({checked} cases)")


def test_criterion_4_code_table_reproduction():
    start = time.perf_counter()
    table = [
        (hamming_code(3), 7, 4, 3),
        (hamming_code(4), 15, 11, 3),
        (bch_code(31, 1), 31, 26, 3),
        (bch_code(31, 2), 31, 21, 5),
    ]
    for code, n, k, d in table:
        assert (code.n, code.k) == (n, k)
        assert code.d_min_verified
        assert code.d_min == d
        # independent re-enumeration, not just the constructor's verdict
        assert min_distance(code.generator) == d
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _pass(4, f"[7,4,3], [15,11,3], [31,26,3], [31,21,5] reproduced with enumerated distances in {elapsed:.1f}s")


def test_criterion_5_protection_bound_exhaustive():
    start = time.perf_counter()
    codes_under_test = [
        single_parity_code(8),
        hamming_code(3),
        hamming_code(4),
        bch_code(31, 1),
        bch_code(31, 2),
    ]
    for code in codes_under_test:
        assert code.d_min_verified
        good = verify_protection(code, code.d_min - 1)
        assert good.recoverable and not good.failing_patterns
        bad = verify_protection(code, code.d_min)
        assert not bad.recoverable and len(bad.failing_patterns) >= 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _pass(5, f"all C(n, d-1) patterns recoverable, and d erasures break every verified code, in {elapsed:.1f}s")


def test_criterion_6_end_to_end_round_trip():
    rng = random.Random(606)
    codes_under_test = [single_parity_code(n) for n in range(2, 16)]
    codes_under_test += [hamming_code(2), hamming_code(3), hamming_code(4)]
    codes_under_test += [bch_code(7, 2), bch_code(15, 2)]
    decodes = 0
    for code in codes_under_test:
        assert code.n <= 15
        if code.k <= 12:
            messages = list(itertools.product((0, 1), repeat=code.k))
        else:
            messages = [
                tuple(rng.randrange(2) for _ in range(code.k)) for _ in range(10_000)
            ]
        patterns = [
            pat
            for t in range(code.d_min)
            for pat in itertools.combinations(range(code.n), t)
        ]
        for msg in messages:
            codeword = list(encode(code, msg))
            for pat in patterns:
                received = codeword.copy()
                for p in pat:
                    received[p] = None
                got = erasure_decode(code, received, ErasurePattern(code.n, pat))
                assert got.to_tuple() == msg
                decodes += 1
    _pass(6, f"{decodes} decode round-trips across {len(codes_under_test)} codes, zero mismatches")


def test_criterion_7_schedule_fairness():
    pairs = 0
    for n in range(2, 33):
        for m in range(1, n):
            sched = build_schedule(n, m, n)
            counts = [0] * n
            for r in range(n):
                for c in sched.scheduled(r):
                    counts[c] += 1
            assert counts == [m] * n
            pairs += 1
    assert pairs == sum(n - 1 for n in range(2, 33))
    _pass(7, f"rotation fairness holds for all {pairs} (n, m) pairs with n <= 32")


def test_criterion_8_algebraic_invariants(tmp_path):
    constructed = (
        [single_parity_code(n) for n in (2, 3, 5, 8, 16, 33, 64)]
        + [hamming_code(mu) for mu in range(2, 7)]
        + [bch_code(n, t) for n in (7, 15, 31, 63) for t in (1, 2)]
        + [
            shorten(hamming_code(3), {0}),
            shorten(hamming_code(4), set(range(8))),
            shorten(bch_code(15, 2), {1, 2}),
        ]
    )
    for code in constructed:
        assert mat_mul(code.generator, code.parity_check.transpose()).is_zero()

    rng = random.Random(808)
    for _ in range(10_000):
        code = constructed[rng.randrange(len(constructed))]
        msg = BitVector([rng.randrange(2) for _ in range(code.k)])
        assert encode(code, msg).to_tuple()[: code.k] == msg.to_tuple()

    config = tmp_path / "scenario.cfg"
    config.write_text(
        "code_family = hamming\nmu = 3\nrounds = 40\n"
        "failure_model = random\nt = 2\nseed = 17\n"
    )
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["simulate", str(config), "--out", str(out1)]) == 0
    assert cli_main(["simulate", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _pass(8, "GH^T = 0 for every construction, 10^4 systematic prefixes, byte-identical reruns")
