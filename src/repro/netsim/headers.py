"""Protocol header models for simulated packets.

Headers carry the fields the simulation logic reads plus a byte-accurate
``size_bytes`` so link serialization times and overhead accounting are
faithful. Payload bytes are usually *not* materialized (only counted),
except where a test or codec needs real bytes.

The MMT (multi-modal transport) header lives in :mod:`repro.core.header`;
it subclasses :class:`Header` so it stacks like any other protocol.

Performance notes (see README "Performance"): header dataclasses use
``slots=True`` (packets allocate several headers each, millions per
run) and every header assigns its fields at C speed
(``Header.__setattr__`` is ``object.__setattr__``). Nothing tracks
which fields change: a header's ``size_bytes`` is computed from its
current fields, and :class:`~repro.netsim.packet.Packet` sums them on
demand, so a rewrite — of any field, by anyone — can never leave a
stale size behind. Only within one hop is a size carried: the one the
egress queue admitted (see :mod:`repro.netsim.packet`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum


class EtherType(IntEnum):
    """EtherType values used by the simulation."""

    IPV4 = 0x0800
    ARP = 0x0806
    # The paper's protocol can run directly over L2 (Req 1); we use the
    # IEEE experimental/local EtherType for it.
    MMT = 0x88B5


class IpProto(IntEnum):
    """IPv4 protocol numbers used by the simulation."""

    TCP = 6
    UDP = 17
    # Experimental protocol number for MMT-over-IP.
    MMT = 254


class Header:
    """Base class for protocol headers; subclasses define ``size_bytes``.

    Subclasses are ``@dataclass(slots=True)``; ``size_bytes`` must be a
    pure function of the header's current fields.
    """

    __slots__ = ()

    #: Plain C-speed attribute assignment for every header class. Kept
    #: as an explicit class attribute so instrumentation can wrap all
    #: header writes at this one point.
    __setattr__ = object.__setattr__

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__

    def copy(self) -> "Header":
        """Shallow field-wise copy (headers hold only value types)."""
        return replace(self)


@dataclass(slots=True)
class EthernetHeader(Header):
    """Ethernet II header (14 bytes) plus the 4-byte FCS trailer."""

    src: str = "00:00:00:00:00:00"
    dst: str = "ff:ff:ff:ff:ff:ff"
    ethertype: int = EtherType.IPV4

    HEADER_BYTES = 14
    FCS_BYTES = 4

    @property
    def size_bytes(self) -> int:
        return 18  # HEADER_BYTES + FCS_BYTES

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(src=self.src, dst=self.dst, ethertype=self.ethertype)


# ECN codepoints for :attr:`Ipv4Header.ecn` (RFC 3168 §5).
ECN_NOT_ECT = 0
ECN_ECT1 = 1
ECN_ECT0 = 2
ECN_CE = 3


@dataclass(slots=True)
class Ipv4Header(Header):
    """IPv4 header without options (20 bytes)."""

    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    proto: int = IpProto.UDP
    ttl: int = 64
    dscp: int = 0
    ecn: int = 0
    identification: int = 0

    @property
    def size_bytes(self) -> int:
        return 20

    def copy(self) -> "Ipv4Header":
        return Ipv4Header(
            src=self.src, dst=self.dst, proto=self.proto, ttl=self.ttl,
            dscp=self.dscp, ecn=self.ecn, identification=self.identification,
        )


@dataclass(slots=True)
class UdpHeader(Header):
    """UDP header (8 bytes)."""

    src_port: int = 0
    dst_port: int = 0

    @property
    def size_bytes(self) -> int:
        return 8

    def copy(self) -> "UdpHeader":
        return UdpHeader(src_port=self.src_port, dst_port=self.dst_port)


@dataclass(slots=True)
class TcpHeader(Header):
    """TCP header (20 bytes, no options modelled beyond SACK blocks).

    ``seq`` numbers bytes (as in real TCP); flags are booleans. SACK
    blocks, when present, add 8 bytes each plus 2 bytes of option header,
    mirroring RFC 2018 sizing.
    """

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flag_syn: bool = False
    flag_ack: bool = False
    flag_fin: bool = False
    flag_rst: bool = False
    flag_ece: bool = False
    flag_cwr: bool = False
    window: int = 65535
    sack_blocks: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    @property
    def size_bytes(self) -> int:
        base = 20
        if self.sack_blocks:
            base += 2 + 8 * len(self.sack_blocks)
        return base
