"""Simulated packets: a stack of headers plus a (usually virtual) payload.

A :class:`Packet` is the unit that flows through links, queues, switches,
and dataplane pipelines. Headers are ordered outermost-first. Payload
bytes are represented by ``payload_size`` and only materialized as real
bytes when a component needs them (e.g. codec tests).

``meta`` carries simulation-only bookkeeping (flow id, creation time,
per-hop timestamps); it contributes zero bytes on the wire.

Performance notes (see README "Performance"): packets are allocated and
sized millions of times per run, so

- instances use ``__slots__`` and the ``meta`` dict is allocated lazily
  on first access (control packets often never touch it);
- the header stack is a plain :class:`collections.deque`, so
  :meth:`Packet.push`/:meth:`Packet.pop` (encapsulation at the
  outermost end) are O(1) while iteration stays outermost-first;
- :attr:`Packet.size_bytes` is computed from the headers on every
  call. Nothing is memoized and no header write is tracked, so no
  rewrite can leave a stale size behind. Instead the per-hop path
  sizes a packet rarely: the egress port once for its MTU check and
  the queue once at admission. The queue records the admitted size in
  :attr:`Packet.hop_bytes`, and release, serialization and delivery
  on that hop reuse it. ``hop_bytes`` means nothing outside that
  window.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Iterable, Iterator, TypeVar

from .headers import Header

_packet_ids = itertools.count()

H = TypeVar("H", bound=Header)


class Packet:
    """A packet with an outermost-first header stack and a counted payload.

    ``hop_bytes`` is the size the current hop's egress queue admitted
    (set by the queue, unset until the first admission); see the module
    notes for the window in which it is valid.
    """

    __slots__ = ("_headers", "payload_size", "payload", "_meta", "packet_id",
                 "hop_bytes")

    def __init__(
        self,
        headers: Iterable[Header] | None = None,
        payload_size: int = 0,
        payload: bytes | None = None,
        meta: dict[str, Any] | None = None,
        packet_id: int | None = None,
    ) -> None:
        self._headers = deque(headers or ())
        if payload is not None:
            payload_size = len(payload)
        if payload_size < 0:
            raise ValueError(f"payload_size must be >= 0, got {payload_size}")
        self.payload_size = payload_size
        self.payload = payload
        self._meta = meta
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    @property
    def headers(self) -> deque[Header]:
        """The header stack, outermost-first (deque: O(1) at both ends)."""
        return self._headers

    @property
    def meta(self) -> dict[str, Any]:
        """Simulation-only bookkeeping, allocated on first access."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    @property
    def size_bytes(self) -> int:
        """Total on-wire size: all headers plus payload, computed now."""
        total = self.payload_size
        for header in self._headers:
            total += header.size_bytes
        return total

    def find(self, header_type: type[H]) -> H | None:
        """Return the first (outermost) header of the given type, or None."""
        for header in self._headers:
            if isinstance(header, header_type):
                return header
        return None

    def require(self, header_type: type[H]) -> H:
        """Like :meth:`find` but raises ``KeyError`` when absent."""
        header = self.find(header_type)
        if header is None:
            raise KeyError(f"packet {self.packet_id} has no {header_type.__name__}")
        return header

    def has(self, header_type: type[Header]) -> bool:
        """True when a header of the given type is present."""
        return self.find(header_type) is not None

    def push(self, header: Header) -> None:
        """Add ``header`` as the new outermost header (encapsulation, O(1))."""
        self._headers.appendleft(header)

    def pop(self) -> Header:
        """Remove and return the outermost header (decapsulation, O(1))."""
        if not self._headers:
            raise IndexError(f"packet {self.packet_id} has no headers to pop")
        return self._headers.popleft()

    def outermost(self) -> Header | None:
        """The outermost header, or None for a bare payload."""
        return self._headers[0] if self._headers else None

    def copy(self) -> "Packet":
        """Deep-enough copy for in-network duplication.

        Headers are copied field-wise (so the duplicate can be rewritten
        independently); the payload reference is shared (it is immutable
        bytes); ``meta`` is shallow-copied; the copy gets a fresh id.
        """
        return Packet(
            headers=[h.copy() for h in self._headers],
            payload_size=self.payload_size,
            payload=self.payload,
            meta=dict(self._meta) if self._meta is not None else None,
        )

    def __iter__(self) -> Iterator[Header]:
        return iter(self._headers)

    def __repr__(self) -> str:
        names = "/".join(h.name for h in self._headers) or "raw"
        return f"Packet#{self.packet_id}[{names} +{self.payload_size}B]"
