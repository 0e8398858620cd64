from fractions import Fraction

import pytest

from npcode.netmodel import (
    Connection,
    Network,
    Packet,
    PacketKind,
    average_capacity,
    link_capacity,
    node_degree,
    node_degrees,
)


def star_network():
    # two connections through a shared hub node; nodes may be shared,
    # edges may not
    return Network(
        [
            Connection(0, "s1", "r1", (("s1", "h"), ("h", "r1"))),
            Connection(1, "s2", "r2", (("s2", "h"), ("h", "r2"))),
        ]
    )


class TestConnection:
    def test_single_edge(self):
        c = Connection(0, "a", "b", (("a", "b"),))
        assert c.link == (("a", "b"),)

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            Connection(0, "a", "c", (("a", "b"), ("x", "c")))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValueError):
            Connection(0, "a", "b", (("x", "b"),))
        with pytest.raises(ValueError):
            Connection(0, "a", "b", (("a", "x"),))
        with pytest.raises(ValueError):
            Connection(0, "a", "b", ())


class TestNetwork:
    def test_direct_factory(self):
        net = Network.direct(5)
        assert net.n == 5
        assert net.connections[2].source_id == "s2"
        assert all(net.is_active(i) for i in range(5))

    def test_rejects_shared_edge(self):
        with pytest.raises(ValueError):
            Network(
                [
                    Connection(0, "a", "c", (("a", "b"), ("b", "c"))),
                    Connection(1, "x", "c", (("x", "b"), ("b", "c"))),
                ]
            )

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            Network(
                [
                    Connection(0, "s", "r1", (("s", "r1"),)),
                    Connection(1, "s", "r2", (("s", "r2"),)),
                ]
            )

    def test_rejects_misnumbered_connections(self):
        with pytest.raises(ValueError):
            Network([Connection(1, "s", "r", (("s", "r"),))])

    def test_link_state_toggles(self):
        net = Network.direct(3)
        assert link_capacity(net, 2) == 1
        net.fail(2)
        assert link_capacity(net, 2) == 0
        net.repair(2)
        assert link_capacity(net, 2) == 1

    def test_index_out_of_range(self):
        net = Network.direct(3)
        with pytest.raises(IndexError):
            link_capacity(net, 3)
        with pytest.raises(IndexError):
            net.fail(-1)


class TestCapacity:
    def test_all_active(self):
        assert average_capacity(Network.direct(5)) == 1

    def test_one_down_of_five(self):
        net = Network.direct(5)
        net.fail(1)
        assert average_capacity(net) == Fraction(4, 5)

    def test_three_down_of_seven(self):
        net = Network.direct(7)
        for i in (0, 3, 6):
            net.fail(i)
        assert average_capacity(net) == Fraction(4, 7)

    def test_exact_rational_no_float(self):
        net = Network.direct(3)
        net.fail(0)
        cap = average_capacity(net)
        assert isinstance(cap, Fraction)
        assert cap == Fraction(2, 3)


class TestNodeDegree:
    def test_direct_source_degree_one(self):
        assert node_degree(Network.direct(4), "s0") == 1

    def test_hub_counts_all_leaves(self):
        assert node_degree(star_network(), "h") == 4

    def test_degrees_view(self):
        degrees = node_degrees(star_network())
        assert degrees["s1"] == 1 and degrees["r2"] == 1 and degrees["h"] == 4

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            node_degree(Network.direct(2), "nope")


class TestPacket:
    def test_stamp_orders_lexicographically(self):
        early = Packet(1, (0, 4), PacketKind.DATA)
        late = Packet(1, (1, 0), PacketKind.DATA)
        assert early.round_stamp < late.round_stamp

    def test_erased_payload_is_none(self):
        p = Packet(None, (0, 0), PacketKind.ENCODED)
        assert p.payload is None and p.kind is PacketKind.ENCODED
