"""An EJ-FAT-style in-network load balancer.

The pilot's 3-mode setup is "inspired by EJ-FAT" (§5.3) — the
ESnet/JLab FPGA Accelerated Transport load balancer, which spreads a
DAQ stream over a farm of processing nodes by *event tick*, keeping
every fragment of one event on the same node.

:class:`LoadBalancerProgram` reproduces that behaviour on an
FPGA-class element: sequenced DATA packets are grouped into fixed-size
sequence windows (the "tick"); the first packet of a window binds the
window to a backend (least-loaded wins), and every later packet —
including retransmissions — follows the calendar, so event locality
survives loss recovery. Backends report fill levels through a control
callback (EJ-FAT's sync messages) and can be drained for maintenance;
bound windows keep flowing to a draining backend, new windows avoid it.

Tagged traffic keeps a calendar *per flow* — two flows' seq spaces are
independent, so ``(flow, tick)`` is the binding key and untagged
traffic lands on flow 0 exactly as before.

Liveness is a separate axis from draining, mirroring
:class:`~repro.core.retransmit.BufferDirectory`: :meth:`mark_down`
declares a backend crashed — its bound windows are remapped to live
backends on the spot (redirect-on-crash) and it receives nothing until
:meth:`mark_up`. When a packet arrives for a window whose backend died
*between* control-loop updates, the packet rebinds the window to a live
backend: first-transmission DATA because the work is new (nothing was
delivered yet), retransmitted DATA so the repair lands where the rest
of the event will.

Header-only on the wire: steering is an ``ip.dst`` rewrite keyed on
the MMT seq field, well inside the P4 envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.features import Feature, MsgType
from ..core.seqspace import unwrap
from .element import ProgrammableElement
from .pipeline import Action, Metadata, PacketView, Table
from .programs import Program

class LoadBalancerError(RuntimeError):
    """Raised for balancer misconfiguration."""


@dataclass
class BackendState:
    """One processing node behind the balancer."""

    address: str
    #: Last reported fill level (0-100), EJ-FAT sync-message style.
    fill_pct: int = 0
    draining: bool = False
    #: Crashed / marked down: receives nothing, bound windows remapped.
    dead: bool = False
    windows_assigned: int = 0
    packets_steered: int = 0
    bytes_steered: int = 0


@dataclass(frozen=True)
class SteeringRecord:
    """One steering decision, as recorded when ``record_log`` is on."""

    epoch: int
    kind: str  # bind | steer | redirect | retx-rebind
    flow_id: int
    tick: int
    backend: str


class LoadBalancerProgram(Program):
    """Window-sticky, load-aware stream distribution."""

    def __init__(
        self,
        experiment_id: int,
        backends: list[str],
        window: int = 64,
        calendar_horizon: int = 4096,
        record_log: bool = False,
    ) -> None:
        if not backends:
            raise LoadBalancerError("need at least one backend")
        if window <= 0:
            raise LoadBalancerError("window must be positive")
        self.experiment_id = experiment_id
        self.window = window
        self.calendar_horizon = calendar_horizon
        self.backends: dict[str, BackendState] = {
            address: BackendState(address=address) for address in backends
        }
        #: ``(flow_id, tick) → backend address`` — the sticky calendar.
        self._calendar: dict[tuple[int, int], str] = {}
        self._highest_tick: dict[int, int] = {}
        self._highest_seq: dict[int, int] = {}
        self.unsteerable = 0
        #: Table generation: bumps on every binding-affecting control
        #: mutation (drain, liveness marks). Within one epoch the
        #: calendar maps every (flow, seq) to exactly one backend.
        self.epoch = 0
        self.table_updates = 0
        #: Windows remapped because their backend was marked down.
        self.redirects = 0
        #: Retransmissions that triggered a rebind.
        self.retx_rebinds = 0
        #: Chronological :class:`SteeringRecord` list, or None when off.
        self.steering_log: list[SteeringRecord] | None = [] if record_log else None
        #: Causal tracer (repro.trace.Tracer) or None.
        self.tracer = None
        self._element_name = "balancer"

    # -- control plane --------------------------------------------------------

    def report_load(self, backend: str, fill_pct: int) -> None:
        """Backend feedback (EJ-FAT sync): update its fill level."""
        state = self._require(backend)
        state.fill_pct = max(0, min(100, fill_pct))
        self.table_updates += 1

    def drain(self, backend: str) -> None:
        """Stop assigning *new* windows to a backend."""
        state = self._require(backend)
        if not state.draining:
            state.draining = True
            self.epoch += 1
            self.table_updates += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "balancer.drain", self._element_name,
                    backend=backend, epoch=self.epoch,
                )

    def undrain(self, backend: str) -> None:
        state = self._require(backend)
        if state.draining:
            state.draining = False
            self.epoch += 1
            self.table_updates += 1

    def mark_down(self, backend: str) -> list[tuple[int, int]]:
        """Declare a backend dead and remap its bound windows.

        Redirect-on-crash: every window bound to the dead backend is
        rebound to a live one, so in-flight first-pass traffic *and* the
        repair traffic that follows land on the new owner. Returns the
        remapped ``(flow_id, tick)`` keys (empty when nothing moved —
        including the degenerate no-live-backend case, where bindings
        are left in place rather than invented).
        """
        state = self._require(backend)
        if state.dead:
            return []
        state.dead = True
        self.epoch += 1
        self.table_updates += 1
        moved: list[tuple[int, int]] = []
        if any(not s.dead for s in self.backends.values()):
            for key, address in sorted(self._calendar.items()):
                if address == backend:
                    self._rebind(key, kind="redirect")
                    moved.append(key)
        return moved

    def mark_up(self, backend: str) -> None:
        """A backend returns to service (new windows may bind to it)."""
        state = self._require(backend)
        if state.dead:
            state.dead = False
            self.epoch += 1
            self.table_updates += 1

    def add_backend(self, address: str) -> None:
        if address in self.backends:
            raise LoadBalancerError(f"backend {address!r} already registered")
        self.backends[address] = BackendState(address=address)
        self.epoch += 1
        self.table_updates += 1

    def _require(self, backend: str) -> BackendState:
        state = self.backends.get(backend)
        if state is None:
            raise LoadBalancerError(f"unknown backend {backend!r}")
        return state

    # -- installation -----------------------------------------------------------

    def install(self, element: ProgrammableElement) -> None:
        self._element_name = element.name
        table = Table(
            "ejfat_balance", keys=[],
            default_action=Action("balance", self._action),
        )
        element.pipeline.add_table(table)

    # -- dataplane --------------------------------------------------------------

    def _action(self, view: PacketView, _meta: Metadata, _params: dict) -> None:
        header = view.mmt()
        if header.experiment_id != self.experiment_id:
            return
        if header.msg_type not in (MsgType.DATA, MsgType.RETX_DATA):
            return
        if not header.has(Feature.SEQUENCED):
            self.unsteerable += 1
            return
        flow_id = header.flow_id or 0
        backend = self.route(
            flow_id, header.seq, is_retx=header.msg_type == MsgType.RETX_DATA
        )
        state = self.backends[backend]
        state.packets_steered += 1
        state.bytes_steered += view.packet_size_bytes
        if self.tracer is not None:
            self.tracer.emit(
                "balancer.steer", self._element_name,
                header.experiment_id, flow_id, header.seq,
                backend=backend, msg=header.msg_type.name,
            )
        if view.has_header("ip"):
            view.set("ip.dst", backend)

    def route(self, flow_id: int, seq: int, is_retx: bool = False) -> str:
        """The steering decision for one ``(flow, seq)`` — the pure core
        of :meth:`_action`, also driven directly by property tests and
        reconciliation (no packet required)."""
        virtual = unwrap(seq, self._highest_seq.get(flow_id, 0))
        self._highest_seq[flow_id] = max(self._highest_seq.get(flow_id, 0), virtual)
        tick = virtual // self.window
        key = (flow_id, tick)
        backend = self._calendar.get(key)
        if backend is None:
            return self._assign(tick, flow_id)
        if self.backends[backend].dead:
            # The bound backend died between control-loop updates: new
            # work and repairs alike rebind to a live backend.
            return self._rebind(key, kind="retx-rebind" if is_retx else "redirect")
        self._log("steer", flow_id, tick, backend)
        return backend

    def _assign(self, tick: int, flow_id: int = 0) -> str:
        chosen = self._choose()
        self._calendar[(flow_id, tick)] = chosen.address
        chosen.windows_assigned += 1
        self._highest_tick[flow_id] = max(self._highest_tick.get(flow_id, -1), tick)
        self._prune(flow_id)
        self._log("bind", flow_id, tick, chosen.address)
        if self.tracer is not None:
            self.tracer.emit(
                "balancer.bind", self._element_name,
                self.experiment_id, flow_id,
                tick=tick, backend=chosen.address, epoch=self.epoch,
            )
        return chosen.address

    def _rebind(self, key: tuple[int, int], kind: str) -> str:
        flow_id, tick = key
        old = self._calendar[key]
        chosen = self._choose()
        self._calendar[key] = chosen.address
        chosen.windows_assigned += 1
        if kind == "retx-rebind":
            self.retx_rebinds += 1
        else:
            self.redirects += 1
        self._log(kind, flow_id, tick, chosen.address)
        if self.tracer is not None:
            self.tracer.emit(
                "balancer.redirect", self._element_name,
                self.experiment_id, flow_id,
                tick=tick, backend=chosen.address, was=old,
                epoch=self.epoch, cause=kind,
            )
        return chosen.address

    def _choose(self) -> BackendState:
        """Least-loaded live, non-draining backend (degrading gracefully
        when nothing healthy remains): reported fill first, then
        assignment count, address as the deterministic tiebreak."""
        candidates = [
            s for s in self.backends.values() if not s.draining and not s.dead
        ]
        if not candidates:
            candidates = [s for s in self.backends.values() if not s.dead]
        if not candidates:
            candidates = list(self.backends.values())  # everything dead: degrade
        return min(candidates, key=lambda s: (s.fill_pct, s.windows_assigned, s.address))

    def _log(self, kind: str, flow_id: int, tick: int, backend: str) -> None:
        if self.steering_log is not None:
            self.steering_log.append(
                SteeringRecord(self.epoch, kind, flow_id, tick, backend)
            )

    def _prune(self, flow_id: int) -> None:
        floor = self._highest_tick.get(flow_id, -1) - self.calendar_horizon
        if floor <= 0 or len(self._calendar) <= self.calendar_horizon:
            return
        for key in [k for k in self._calendar if k[0] == flow_id and k[1] < floor]:
            del self._calendar[key]

    # -- inspection ----------------------------------------------------------------

    def distribution(self) -> dict[str, int]:
        """Packets steered per backend."""
        return {address: s.packets_steered for address, s in self.backends.items()}

    def backend_for(self, seq: int, flow_id: int = 0) -> str | None:
        """Which backend a (virtual) sequence number is bound to."""
        return self._calendar.get((flow_id, seq // self.window))

    def windows_bound_to(self, backend: str) -> int:
        """How many calendar entries currently point at a backend."""
        return sum(1 for address in self._calendar.values() if address == backend)
