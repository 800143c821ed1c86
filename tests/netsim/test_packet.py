"""Packet and header-stack behaviour."""

import pytest

from repro.netsim import EthernetHeader, Ipv4Header, Packet, TcpHeader, UdpHeader


def make_packet(payload_size=100):
    return Packet(
        headers=[EthernetHeader(), Ipv4Header(), UdpHeader()],
        payload_size=payload_size,
    )


def test_size_sums_headers_and_payload():
    p = make_packet(100)
    # eth 14+4, ip 20, udp 8, payload 100
    assert p.size_bytes == 18 + 20 + 8 + 100


def test_payload_bytes_set_size():
    p = Packet(headers=[], payload=b"hello")
    assert p.payload_size == 5
    assert p.size_bytes == 5


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Packet(payload_size=-1)


def test_find_and_require():
    p = make_packet()
    assert isinstance(p.find(Ipv4Header), Ipv4Header)
    assert p.find(TcpHeader) is None
    with pytest.raises(KeyError):
        p.require(TcpHeader)
    assert p.has(UdpHeader)


def test_push_pop_encapsulation():
    p = Packet(headers=[Ipv4Header()])
    p.push(EthernetHeader())
    assert isinstance(p.outermost(), EthernetHeader)
    popped = p.pop()
    assert isinstance(popped, EthernetHeader)
    assert isinstance(p.outermost(), Ipv4Header)


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        Packet().pop()


def test_packet_ids_unique():
    assert make_packet().packet_id != make_packet().packet_id


def test_copy_is_independent():
    p = make_packet()
    p.meta["flow"] = "x"
    clone = p.copy()
    assert clone.packet_id != p.packet_id
    clone.find(Ipv4Header).ttl = 1
    assert p.find(Ipv4Header).ttl == 64
    clone.meta["flow"] = "y"
    assert p.meta["flow"] == "x"


def test_copy_shares_payload_bytes():
    p = Packet(payload=b"data")
    assert p.copy().payload is p.payload


def test_tcp_header_sack_sizing():
    plain = TcpHeader()
    assert plain.size_bytes == 20
    sacked = TcpHeader(sack_blocks=((0, 10), (20, 30)))
    assert sacked.size_bytes == 20 + 2 + 16


def test_iteration_outermost_first():
    p = make_packet()
    names = [h.name for h in p]
    assert names == ["EthernetHeader", "Ipv4Header", "UdpHeader"]


def test_repr_mentions_headers():
    assert "Ipv4Header" in repr(make_packet())


# -- size_bytes follows every header change -----------------------------------
# size_bytes is computed from the headers on demand; these pin that
# every way of changing the stack or a header shows in the size.


def test_size_tracks_structural_mutation():
    p = make_packet(100)
    assert p.size_bytes == 18 + 20 + 8 + 100
    p.push(EthernetHeader())  # O(1) encapsulation
    assert p.size_bytes == 18 + 18 + 20 + 8 + 100
    p.pop()
    assert p.size_bytes == 18 + 20 + 8 + 100
    p.headers.remove(p.find(UdpHeader))  # in-place deque mutation
    assert p.size_bytes == 18 + 20 + 100
    p.headers.append(TcpHeader())
    assert p.size_bytes == 18 + 20 + 20 + 100
    p.headers.clear()
    assert p.size_bytes == 100


def test_size_tracks_size_affecting_field_write():
    p = Packet(headers=[TcpHeader()], payload_size=10)
    assert p.size_bytes == 20 + 10
    # sack_blocks sets the option length: the write must show in the size.
    p.find(TcpHeader).sack_blocks = ((0, 10),)
    assert p.size_bytes == 20 + 2 + 8 + 10


def test_size_survives_value_only_rewrites():
    """Per-hop rewrites of fixed-size fields (TTL, MACs, ports) must
    not change the size."""
    p = make_packet(100)
    before = p.size_bytes
    ip = p.find(Ipv4Header)
    ip.ttl -= 1
    ip.dscp = 46
    p.find(EthernetHeader).dst = "02:00:00:00:00:01"
    assert p.size_bytes == before


def test_size_tracks_setitem_replacement():
    p = make_packet(0)
    p.headers[2] = TcpHeader()
    assert p.size_bytes == 18 + 20 + 20


def test_push_pop_keep_outermost_first_iteration():
    p = Packet(headers=[UdpHeader()])
    p.push(Ipv4Header())
    p.push(EthernetHeader())
    assert [h.name for h in p] == ["EthernetHeader", "Ipv4Header", "UdpHeader"]
    assert [h.name for h in p.headers] == [h.name for h in p]
    assert isinstance(p.pop(), EthernetHeader)
    assert [h.name for h in p] == ["Ipv4Header", "UdpHeader"]


def test_meta_is_lazy():
    p = Packet()
    assert p._meta is None  # no dict allocated until first access
    p.meta["flow"] = 1
    assert p._meta == {"flow": 1}
    assert p.copy().meta == {"flow": 1}
