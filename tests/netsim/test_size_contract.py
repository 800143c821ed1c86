"""The per-hop size contract: every byte a port books is the packet's
current wire size.

A hop sizes a packet when the egress queue admits it and carries that
size through release, serialization and delivery (``Packet.hop_bytes``)
instead of re-summing the headers. These runs wrap ``Port.deliver``
and check each delivery's booked ``rx_bytes`` against a fresh
``sum(h.size_bytes for h in packet.headers) + packet.payload_size``,
in the three places where headers change size mid-path: INT
postcards growing in place, TCP SACK blocks appearing, and MMT feature
words rewritten by on-path mode transitions.
"""

from collections import Counter

import pytest

from repro.core import MmtHeader
from repro.dataplane import PilotConfig, PilotTestbed
from repro.faults import ChaosConfig, run_chaos
from repro.integration.incast import IncastConfig, run_incast
from repro.netsim import Simulator
from repro.netsim.headers import TcpHeader
from repro.netsim.link import Port
from repro.netsim.units import MILLISECOND
from repro.telemetry import IntHeader


class SizeAudit:
    """Checks every delivery's booked bytes and tallies which
    size-changing headers were seen on the wire."""

    def __init__(self) -> None:
        self.deliveries = 0
        self.mismatches: list[str] = []
        self.int_postcards = 0
        self.sack_segments = 0
        self.mmt_features: Counter = Counter()

    def observe(self, packet) -> int:
        """Tally ``packet`` and return its size summed afresh."""
        self.deliveries += 1
        for header in packet.headers:
            if isinstance(header, IntHeader) and header.hops:
                self.int_postcards += 1
            elif isinstance(header, TcpHeader) and header.sack_blocks:
                self.sack_segments += 1
            elif isinstance(header, MmtHeader):
                self.mmt_features[int(header.features)] += 1
        return sum(h.size_bytes for h in packet.headers) + packet.payload_size

    def booked(self, port, packet, expected: int, booked: int) -> None:
        if booked != expected:
            self.mismatches.append(
                f"{port!r} booked {booked} B for {packet!r}, headers say {expected} B"
            )


@pytest.fixture
def audit(monkeypatch) -> SizeAudit:
    audit = SizeAudit()
    deliver = Port.deliver

    def checked_deliver(port, packet):
        expected = audit.observe(packet)
        before = port.stats.rx_bytes
        deliver(port, packet)
        audit.booked(port, packet, expected, port.stats.rx_bytes - before)

    monkeypatch.setattr(Port, "deliver", checked_deliver)
    return audit


def test_int_postcards_growing_in_place(audit):
    config = PilotConfig(wan_delay_ns=MILLISECOND, wan_loss_rate=0.01, telemetry=True)
    pilot = PilotTestbed(sim=Simulator(seed=42), config=config)
    pilot.send_stream(200, payload_size=8000, interval_ns=2_000)
    assert pilot.run().complete
    assert audit.int_postcards > 0
    assert audit.deliveries > 0 and audit.mismatches == []


@pytest.mark.parametrize("transport", ["mmt", "tcp"])
def test_incast_cell(audit, transport):
    # ECN off: the fan-in AQM drops instead of marking, so TCP
    # receivers answer the holes with SACK blocks.
    run_incast(IncastConfig(transport=transport, senders=4, seed=7, ecn=False))
    if transport == "tcp":
        assert audit.sack_segments > 0
    assert audit.deliveries > 0 and audit.mismatches == []


def test_mode_rewrite_churn(audit):
    run = run_chaos(ChaosConfig(scenario="mode-rewrite-churn", messages=120, seed=42))
    assert run.report.unrecovered == 0
    assert len(audit.mmt_features) > 1  # the feature word changed on the wire
    assert audit.deliveries > 0 and audit.mismatches == []
