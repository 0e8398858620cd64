"""Re-measures the orientation figures listed in ROADMAP.md by calling the
library directly (no CLI). Each figure is the median of five repeats.

    python3 bench/baselines.py
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from npcode import (  # noqa: E402
    ErasurePattern, Network, bch_code, build_schedule, encode, erasure_decode,
    hamming_code, no_failures, random_failures, run_simulation, verify_protection,
)

REPEATS = 5


def median_time(fn, number: int, repeats: int = REPEATS) -> float:
    """Median over repeats of the time per call of ``fn``."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - t0) / number)
    return statistics.median(samples)


def main() -> None:
    rng = random.Random(1)
    h15 = hamming_code(4)
    message = [rng.randrange(2) for _ in range(h15.k)]
    word = list(encode(h15, message))
    pattern = ErasurePattern(h15.n, (2, 13))
    received = [None if j in pattern.erased else b for j, b in enumerate(word)]
    us = median_time(lambda: erasure_decode(h15, received, pattern), 20000) * 1e6
    print(f"erasure_decode [15,11,3], 2 erasures: {us:.1f} us/call")
    us = median_time(lambda: encode(h15, message), 50000) * 1e6
    print(f"encode [15,11,3]: {us:.2f} us/call")

    for code, t in ((hamming_code(3), 2), (bch_code(31, 2), 2)):
        rounds = 2000
        for label, model in (("no failures", no_failures), (f"t = {t}", lambda: random_failures(code.n, t, 1))):
            def simulate():
                run_simulation(
                    Network.direct(code.n), code, build_schedule(code.n, code.m, rounds),
                    model(), rounds, seed=1,
                )
            us = median_time(simulate, 1) / rounds * 1e6
            print(f"run_simulation [{code.n},{code.k},{code.d_min}], {label}: {us:.0f} us/round")

    bch31 = bch_code(31, 2)
    for t in (4, 5):
        s = median_time(lambda: verify_protection(bch31, t), 1, repeats=1 if t == 5 else 3)
        print(f"verify_protection(bch_code(31, 2), {t}): {s:.2f} s")


if __name__ == "__main__":
    main()
