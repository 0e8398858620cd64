"""Network protection codes: systematic binary erasure codes spread over
disjoint connections, plus a round-based simulator of the encoding, failure,
and recovery protocol."""

from .codes import (
    AmbiguousErasure,
    ErasurePattern,
    ProtectionCode,
    ProtectionReport,
    TooManyPatterns,
    bch_code,
    encode,
    erasure_decode,
    format_code_file,
    hamming_code,
    parse_code_file,
    shorten,
    single_parity_code,
    verify_protection,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    Inconsistent,
    NoUniqueSolution,
    TooLarge,
    mat_vec_mul,
    min_distance,
    rank,
)
from .netmodel import (
    Connection,
    Network,
    Packet,
    PacketKind,
)
from .protocol import (
    Outcome,
    RecoveryReport,
    Schedule,
    SimulationMetrics,
    build_schedule,
    encode_round,
    fixed_failures,
    inject_failures,
    no_failures,
    random_failures,
    recover,
    run_simulation,
    simulate_rounds,
)

__version__ = "0.1.0"
