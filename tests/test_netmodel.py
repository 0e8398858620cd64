import pytest

from npcode.netmodel import Network, Packet, PacketKind


class TestNetwork:
    def test_direct_factory(self):
        net = Network.direct(5)
        assert net.n == 5
        assert all(net.is_active(i) for i in range(5))

    def test_rejects_an_empty_network(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one connection"):
                Network.direct(n)

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
