import pytest

from npcode.netmodel import Connection, Network, Packet, PacketKind


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

    def test_accepts_shared_node(self):
        # two connections through one hub: nodes may be shared, edges may not
        net = Network(
            [
                Connection(0, "s1", "r1", (("s1", "h"), ("h", "r1"))),
                Connection(1, "s2", "r2", (("s2", "h"), ("h", "r2"))),
            ]
        )
        assert net.n == 2

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
        assert net.is_active(2)
        net.set_active(2, False)
        assert not net.is_active(2)
        assert net.is_active(0) and net.is_active(1)
        net.set_active(2, True)
        assert net.is_active(2)

    def test_index_out_of_range(self):
        net = Network.direct(3)
        for i in (-1, 3):
            with pytest.raises(IndexError):
                net.is_active(i)
            with pytest.raises(IndexError):
                net.set_active(i, False)
        assert all(net.is_active(i) for i in range(3))


class TestPacket:
    def test_stamp_orders_lexicographically(self):
        early = Packet(1, (0, 4), PacketKind.DATA)
        late = Packet(1, (1, 0), PacketKind.DATA)
        assert early.round_stamp < late.round_stamp

    def test_erased_payload_is_none(self):
        p = Packet(None, (0, 0), PacketKind.ENCODED)
        assert p.payload is None and p.kind is PacketKind.ENCODED
