"""Connections and packets.

A network is n connections, each a channel that delivers or fails. As in
the paper, the connections are taken to be disjoint; nothing routes them,
so no path or topology is held or checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PacketKind(enum.Enum):
    DATA = "Data"
    ENCODED = "Encoded"


@dataclass(frozen=True)
class Packet:
    """One symbol in flight: payload (None once erased), round stamp, kind.

    The stamp is a (cycle, step) pair; its lexicographic order is the global
    transmission order.
    """

    payload: int | None
    round_stamp: tuple[int, int]
    kind: PacketKind


class Network:
    """n disjoint connections with a per-link active flag.

    Only the active flags mutate after construction, through ``set_active``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("a network needs at least one connection")
        self._active = [True] * n

    @classmethod
    def direct(cls, n: int) -> "Network":
        """n connections, numbered 0 .. n - 1."""
        return cls(n)

    @property
    def n(self) -> int:
        return len(self._active)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self._active):
            raise IndexError(f"connection index {i} out of range")

    def is_active(self, i: int) -> bool:
        self._check_index(i)
        return self._active[i]

    # Nothing in src reads the flags: set_active stays while bench/tracing.py
    # wraps it, until the benchmark is rebuilt (ROADMAP item 1).
    def set_active(self, i: int, active: bool) -> None:
        self._check_index(i)
        self._active[i] = bool(active)
