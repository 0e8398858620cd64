"""Sources, receivers, disjoint connection paths, packets, and capacity.

The topology is declared rather than routed: each connection is an opaque
channel along a fixed edge path, and the only constraint checked is that no
two connections share an edge.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True)
class Connection:
    """A unidirectional path from one source to one receiver."""

    index: int
    source_id: Hashable
    receiver_id: Hashable
    link: tuple[tuple[Hashable, Hashable], ...]

    def __post_init__(self):
        object.__setattr__(self, "link", tuple(tuple(edge) for edge in self.link))
        if not self.link:
            raise ValueError("a connection needs at least one edge")
        for edge in self.link:
            if len(edge) != 2:
                raise ValueError(f"malformed edge {edge!r}")
        if self.link[0][0] != self.source_id:
            raise ValueError("path must start at the source")
        if self.link[-1][1] != self.receiver_id:
            raise ValueError("path must end at the receiver")
        for (_, a), (b, _) in zip(self.link, self.link[1:]):
            if a != b:
                raise ValueError("path edges do not chain")


class Network:
    """n pairwise edge-disjoint connections with a per-link active flag.

    Only the active flags mutate after construction, through ``set_active``,
    ``fail`` and ``repair``.
    """

    def __init__(self, connections: Iterable[Connection]):
        conns = tuple(connections)
        if not conns:
            raise ValueError("a network needs at least one connection")
        for i, c in enumerate(conns):
            if c.index != i:
                raise ValueError(f"connection {i} carries index {c.index}")
        sources = [c.source_id for c in conns]
        receivers = [c.receiver_id for c in conns]
        if len(set(sources)) != len(sources):
            raise ValueError("sources must be distinct")
        if len(set(receivers)) != len(receivers):
            raise ValueError("receivers must be distinct")
        seen_edges: set[tuple[Hashable, Hashable]] = set()
        for c in conns:
            for edge in c.link:
                if edge in seen_edges:
                    raise ValueError(f"connections are not link-disjoint: shared edge {edge!r}")
                seen_edges.add(edge)
        self._connections = conns
        self._active = [True] * len(conns)

    @classmethod
    def direct(cls, n: int) -> "Network":
        """n single-edge connections s0->r0 .. s{n-1}->r{n-1}."""
        return cls(
            Connection(i, f"s{i}", f"r{i}", ((f"s{i}", f"r{i}"),)) for i in range(n)
        )

    @property
    def n(self) -> int:
        return len(self._connections)

    @property
    def connections(self) -> tuple[Connection, ...]:
        return self._connections

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self._connections):
            raise IndexError(f"connection index {i} out of range")

    def is_active(self, i: int) -> bool:
        self._check_index(i)
        return self._active[i]

    def set_active(self, i: int, active: bool) -> None:
        self._check_index(i)
        self._active[i] = bool(active)

    def fail(self, i: int) -> None:
        self.set_active(i, False)

    def repair(self, i: int) -> None:
        self.set_active(i, True)


def link_capacity(net: Network, i: int) -> int:
    """1 while connection i is active, 0 while it is down."""
    return 1 if net.is_active(i) else 0


def average_capacity(net: Network) -> Fraction:
    """Active links over total links, as an exact fraction."""
    return Fraction(sum(link_capacity(net, i) for i in range(net.n)), net.n)


def node_degrees(net: Network) -> dict[Hashable, int]:
    """Distinct-neighbor count for every node that appears in the network."""
    neighbors: dict[Hashable, set[Hashable]] = {}
    for c in net.connections:
        for u, v in c.link:
            neighbors.setdefault(u, set()).add(v)
            neighbors.setdefault(v, set()).add(u)
    return {node: len(adj) for node, adj in neighbors.items()}


def node_degree(net: Network, u: Hashable) -> int:
    """Number of nodes with a direct edge to u; KeyError for unknown nodes."""
    degrees = node_degrees(net)
    if u not in degrees:
        raise KeyError(f"unknown node {u!r}")
    return degrees[u]
