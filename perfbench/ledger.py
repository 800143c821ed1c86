"""Per-layer ledger, measured from outside the program.

Two instruments, each installed on the program's classes for one pass
and removed afterwards, so the end-to-end passes run the unmodified
program:

- :class:`SpanTracer` wraps the public entry points of every layer (and
  every scheduled event callback) in a span: layer, start, end, the
  enclosing span and the cell id. Spans stay in memory; a layer's self
  time is its spans' durations minus their child spans' durations.
- :class:`Counter` keeps every stats-bearing object the scenario
  builds and reads the exact counts from their public stats after the
  run. Where no stats object counts the work it adds counting shims:
  packet size evaluations, header field writes and packet copies (the
  packet layer has no timing), header encodes/decodes/copies, receiver
  ingress, and the engine's peak queue length. It times nothing, so its
  cost lands in no layer.

The program's own sim-clock tracer (``repro.trace``) is one of the
measured layers here, never the instrument.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter_ns

#: Module prefix -> layer; the longest matching prefix wins. Event
#: callbacks are attributed by the module that defines them; modules of
#: the scenario harnesses (pilot, incast, soak, DAQ generators)
#: and anything outside the program fall through to ``scenario``.
MODULE_LAYERS = {
    "repro.netsim.engine": "engine",
    "repro.netsim.queues": "queue",
    "repro.netsim.switch": "switch",
    "repro.netsim.topology": "topology",
    "repro.netsim": "link",
    "repro.core.header": "codec",
    "repro.core.retransmit": "retx",
    "repro.core": "endpoint",
    "repro.dataplane.loadbalancer": "fleet",
    "repro.dataplane.pilot": "scenario",
    "repro.dataplane": "dataplane",
    "repro.baselines.tcp": "tcp",
    "repro.fleet": "fleet",
    "repro.trace": "trace",
    "repro.obs": "obs",
    "repro.telemetry": "obs",
    "repro.faults": "faults",
}

#: Layers with self time, in ledger order.
LAYERS = (
    "engine", "link", "queue", "switch", "codec", "dataplane", "endpoint",
    "retx", "tcp", "fleet", "topology", "trace", "obs", "faults", "scenario",
)
_LAYER_ID = {name: index for index, name in enumerate(LAYERS)}

#: Public entry points timed per layer: (module, class or "*", methods).
#: "*" means every class of the module that defines the method itself.
SPAN_POINTS = (
    ("repro.netsim.engine", "Simulator", ("run", "schedule", "schedule_at")),
    ("repro.netsim.link", "Port", ("send", "deliver")),
    ("repro.netsim.link", "Link", ("propagate",)),
    ("repro.netsim.loss", "*", ("should_drop",)),
    ("repro.netsim.queues", "*", ("enqueue", "dequeue")),
    ("repro.netsim.switch", "*", ("receive",)),
    ("repro.netsim.topology", "Topology",
     ("add", "add_host", "add_switch", "add_router", "connect", "install_routes")),
    ("repro.core.header", "MmtHeader",
     ("copy", "validate", "encode", "encode_into", "decode", "decode_prefix")),
    # ``_receive`` is the handler each stack registers with its host:
    # the endpoint layer's ingress.
    ("repro.core.endpoint", "MmtStack",
     ("create_sender", "bind_receiver", "send_control", "_receive")),
    ("repro.core.endpoint", "MmtSender", ("send",)),
    ("repro.core.endpoint", "MmtReceiver", ("handle", "request_missing", "request_sequences")),
    ("repro.core.retransmit", "RetransmitBuffer", ("store", "fetch", "serve_nak")),
    ("repro.dataplane.element", "ProgrammableElement", ("receive",)),
    ("repro.dataplane.alveo", "AlveoNic", ("receive",)),
    ("repro.dataplane.tofino", "TofinoSwitch", ("receive",)),
    ("repro.dataplane.pipeline", "Pipeline", ("process",)),
    ("repro.dataplane.pipeline", "Table", ("apply",)),
    # ``_action`` is the steering action installed in the balancer table.
    ("repro.dataplane.loadbalancer", "LoadBalancerProgram",
     ("route", "mark_down", "mark_up", "report_load", "_action")),
    ("repro.fleet.control", "FleetController", ("run_until", "mark_node_down", "mark_node_up")),
    ("repro.baselines.tcp", "TcpStack", ("listen", "connect", "_receive")),
    ("repro.baselines.tcp", "TcpConnection", ("send", "send_message", "handle_segment")),
    ("repro.trace.tracer", "Tracer", ("emit", "packet_event", "note_enqueue", "queue_wait")),
    ("repro.obs.sampler", "Sampler", ("sample_now", "record")),
    ("repro.obs.slo", "Watchdog", ("on_sample", "check")),
    ("repro.faults.lossmodels", "*", ("should_drop",)),
)

#: Classes whose instances the counting pass keeps, keyed by class name.
COUNTED_CLASSES = (
    ("repro.netsim.engine", "Simulator"),
    ("repro.netsim.link", "Port"),
    ("repro.netsim.link", "Link"),
    ("repro.netsim.node", "Node"),
    ("repro.netsim.queues", "QueueDiscipline"),
    ("repro.netsim.topology", "Topology"),
    ("repro.dataplane.element", "ProgrammableElement"),
    ("repro.dataplane.pipeline", "Table"),
    ("repro.core.endpoint", "MmtSender"),
    ("repro.core.endpoint", "MmtReceiver"),
    ("repro.core.retransmit", "RetransmitBuffer"),
    ("repro.baselines.tcp", "TcpConnection"),
    ("repro.dataplane.loadbalancer", "LoadBalancerProgram"),
    ("repro.fleet.control", "FleetController"),
    ("repro.trace.tracer", "Tracer"),
    ("repro.obs.sampler", "Sampler"),
    ("repro.obs.slo", "Watchdog"),
    ("repro.faults.plan", "FaultInjector"),
    ("repro.faults.dynamics", "LinkDynamics"),
)


def layer_of_module(module: str | None) -> str:
    """The ledger layer a module belongs to (longest prefix wins)."""
    module = module or ""
    best, layer = -1, "scenario"
    for prefix, name in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best:
            best, layer = len(prefix), name
    return layer


class _Patches:
    """Class attributes replaced for one pass, restored on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def replace(self, owner: type, name: str, value: object) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _classes(module_name: str, class_name: str, method: str) -> list[type]:
    module = importlib.import_module(module_name)
    if class_name != "*":
        return [getattr(module, class_name)]
    return [
        cls for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module_name and method in cls.__dict__
    ]


def _rewrap(original: object, wrap) -> object:
    """Wrap the function inside a plain, class or static method."""
    if isinstance(original, classmethod):
        return classmethod(wrap(original.__func__))
    if isinstance(original, staticmethod):
        return staticmethod(wrap(original.__func__))
    return wrap(original)


class SpanTracer:
    """Span recorder for one traced pass (use as a context manager).

    Spans are parallel arrays indexed by span id: start and end
    (``perf_counter_ns``), parent span id (-1 at top level), layer id,
    and the cell id the benchmark set when the span opened.
    """

    def __init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.layers = array("b")
        self.cells = array("q")
        self.cell = 0
        self._current = -1
        self._patches = _Patches()
        self._callback_layers: dict[str, int] = {}

    def _span(self, layer_id: int, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.starts)
            parent = tracer._current
            tracer.parents.append(parent)
            tracer.layers.append(layer_id)
            tracer.cells.append(tracer.cell)
            tracer.ends.append(0)
            tracer._current = index
            tracer.starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[index] = perf_counter_ns()
                tracer._current = parent

        return traced

    def _callback_span(self, callback):
        """Wrap an event callback in a span of the layer defining it."""
        module = getattr(callback, "__module__", None)
        if module is None:
            module = getattr(getattr(callback, "func", None), "__module__", None)
        layer_id = self._callback_layers.get(module)
        if layer_id is None:
            layer_id = self._callback_layers[module] = _LAYER_ID[layer_of_module(module)]
        return self._span(layer_id, callback)

    def __enter__(self) -> "SpanTracer":
        from repro.netsim.engine import Simulator, Timer

        for module_name, class_name, methods in SPAN_POINTS:
            layer_id = _LAYER_ID[layer_of_module(module_name)]
            for method in methods:
                for cls in _classes(module_name, class_name, method):
                    original = cls.__dict__[method]
                    wrapped = _rewrap(original, lambda fn, l=layer_id: self._span(l, fn))
                    self._patches.replace(cls, method, wrapped)
        # Every event callback runs inside a span of the layer whose
        # module defines it; ``Timer`` callbacks likewise (the timer's
        # own ``_fire`` is engine code, the callback it runs is not).
        traced_schedule_at = Simulator.schedule_at
        callback_span = self._callback_span

        def schedule_at(sim, time_ns, callback, *args):
            return traced_schedule_at(sim, time_ns, callback_span(callback), *args)

        self._patches.replace(Simulator, "schedule_at", schedule_at)
        timer_init = Timer.__init__

        def init(timer, sim, callback):
            timer_init(timer, sim, callback_span(callback))

        self._patches.replace(Timer, "__init__", init)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def ledger(self) -> dict:
        """Self ms per layer, plus topology build ms (top-level
        topology spans, inclusive) and the covered ms (top-level span
        durations, which the self times add up to)."""
        import numpy as np

        n = len(self.starts)
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        layers = np.frombuffer(self.layers, dtype=np.int8).astype(np.int64)
        duration = (ends - starts).astype(np.float64)
        child = np.bincount(parents + 1, weights=duration, minlength=n + 1)[1:]
        self_ns = duration - child
        per_layer = np.bincount(layers, weights=self_ns, minlength=len(LAYERS))
        top = parents < 0
        topology = _LAYER_ID["topology"]
        parent_layer = np.where(top, -1, layers[np.maximum(parents, 0)])
        build = (layers == topology) & (parent_layer != topology)
        return {
            "self_ms": {name: float(per_layer[i]) / 1e6 for i, name in enumerate(LAYERS)},
            "covered_ms": float(duration[top].sum()) / 1e6,
            "topology_build_ms": float(duration[build].sum()) / 1e6,
        }

    def write(self, path: Path) -> None:
        """Dump the spans (one ``.npz`` of parallel arrays)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            layer=np.frombuffer(self.layers, dtype=np.int8),
            cell=np.frombuffer(self.cells, dtype=np.int64),
            layer_names=np.array(LAYERS),
        )


class Counter:
    """Counting pass (use as a context manager): keeps every instance
    of :data:`COUNTED_CLASSES` built during the pass and counts calls
    on the packet, codec and endpoint-ingress boundaries."""

    def __init__(self) -> None:
        self.instances: dict[str, list] = {name: [] for _m, name in COUNTED_CLASSES}
        self.calls = {
            "size_evals": 0, "header_writes": 0, "packet_copies": 0,
            "encodes": 0, "decodes": 0, "header_copies": 0,
            "rx_packets": 0, "rx_data": 0,
        }
        self.peak_pending = 0
        self._patches = _Patches()

    def _keep(self, cls: type, name: str) -> None:
        original = cls.__dict__["__init__"]
        kept = self.instances[name]

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            kept.append(obj)

        self._patches.replace(cls, "__init__", init)

    def _count(self, cls: type, method: str, key: str) -> None:
        calls = self.calls

        def wrap(fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        self._patches.replace(cls, method, _rewrap(cls.__dict__[method], wrap))

    def __enter__(self) -> "Counter":
        from repro.core.endpoint import MmtReceiver
        from repro.core.features import MsgType
        from repro.core.header import MmtHeader
        from repro.netsim.engine import Simulator
        from repro.netsim.headers import Header
        from repro.netsim.packet import Packet

        for module_name, class_name in COUNTED_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._keep(cls, class_name)
        calls = self.calls

        size = Packet.__dict__["size_bytes"]

        def size_bytes(packet):
            calls["size_evals"] += 1
            return size.fget(packet)

        self._patches.replace(Packet, "size_bytes", property(size_bytes))
        header_setattr = Header.__dict__["__setattr__"]

        def setattr_counted(header, name, value):
            calls["header_writes"] += 1
            header_setattr(header, name, value)

        self._patches.replace(Header, "__setattr__", setattr_counted)
        self._count(Packet, "copy", "packet_copies")
        for method in ("encode", "encode_into"):
            self._count(MmtHeader, method, "encodes")
        for method in ("decode", "decode_prefix"):
            self._count(MmtHeader, method, "decodes")
        self._count(MmtHeader, "copy", "header_copies")

        handle = MmtReceiver.__dict__["handle"]
        data_types = (MsgType.DATA, MsgType.RETX_DATA)

        def handle_counted(receiver, packet, header):
            calls["rx_packets"] += 1
            if header.msg_type in data_types:
                calls["rx_data"] += 1
            return handle(receiver, packet, header)

        self._patches.replace(MmtReceiver, "handle", handle_counted)
        schedule_at = Simulator.__dict__["schedule_at"]
        counter = self

        def schedule_at_counted(sim, time_ns, callback, *args):
            event = schedule_at(sim, time_ns, callback, *args)
            pending = sim.pending_events()
            if pending > counter.peak_pending:
                counter.peak_pending = pending
            return event

        self._patches.replace(Simulator, "schedule_at", schedule_at_counted)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def counts(self, messages: int) -> dict[str, float]:
        """Exact per-layer counts, read from the kept stats objects."""
        kept = self.instances
        calls = self.calls
        ports = kept["Port"]
        tx_packets = sum(p.stats.tx_packets for p in ports)
        queues = kept["QueueDiscipline"]
        tables = kept["Table"]
        lookups = sum(t.lookups for t in tables)
        buffers = [b.stats for b in kept["RetransmitBuffer"]]
        fetches = sum(s.hits + s.misses for s in buffers)
        receivers = [r.stats for r in kept["MmtReceiver"]]
        tcp = [c.stats for c in kept["TcpConnection"]]
        balancers = kept["LoadBalancerProgram"]
        controllers = [c.stats for c in kept["FleetController"]]
        nodes = kept["Node"]
        events = sum(s.events_processed for s in kept["Simulator"])
        per_msg = 1.0 / messages if messages else 0.0
        return {
            "engine.events": events,
            "engine.events_per_msg": events * per_msg,
            "engine.peak_pending": self.peak_pending,
            "link.tx_packets": tx_packets,
            "link.tx_per_msg": tx_packets * per_msg,
            "link.lost": sum(
                s.lost_random + s.lost_corruption + s.lost_down + s.lost_model
                for s in (link.stats for link in kept["Link"])
            ),
            "queue.drops": sum(q.dropped for q in queues),
            "queue.ce_marked": sum(getattr(q, "ce_marked", 0) for q in queues),
            "queue.peak_bytes": max((q.peak_bytes for q in queues), default=0),
            "switch.forwarded": sum(
                n.forwarded for n in nodes if type(n).__module__ == "repro.netsim.switch"
            ),
            "packet.size_evals_per_hop": calls["size_evals"] / tx_packets if tx_packets else 0.0,
            "packet.header_writes_per_msg": calls["header_writes"] * per_msg,
            "packet.copies": calls["packet_copies"],
            "codec.encodes": calls["encodes"],
            "codec.decodes": calls["decodes"],
            "codec.header_copies": calls["header_copies"],
            "dataplane.mmt_processed": sum(
                e.stats.mmt_processed for e in kept["ProgrammableElement"]
            ),
            "dataplane.table_applies": lookups,
            "dataplane.table_hit_ratio": (
                1.0 - sum(t.default_hits for t in tables) / lookups if lookups else 0.0
            ),
            "endpoint.sends": sum(s.stats.messages_sent for s in kept["MmtSender"]),
            "endpoint.rx_packets": calls["rx_packets"],
            "endpoint.naks_sent": sum(r.naks_sent for r in receivers),
            "endpoint.useful_rx_ratio": (
                sum(r.messages_delivered for r in receivers) / calls["rx_data"]
                if calls["rx_data"] else 0.0
            ),
            "retx.stored": sum(s.stored for s in buffers),
            "retx.fetches": fetches,
            "retx.hit_ratio": sum(s.hits for s in buffers) / fetches if fetches else 0.0,
            "retx.evicted": sum(s.evicted for s in buffers),
            "tcp.segments_sent": sum(s.segments_sent for s in tcp),
            "tcp.retransmits": sum(s.retransmits for s in tcp),
            "tcp.timeouts": sum(s.timeouts for s in tcp),
            "fleet.steered": sum(
                b.packets_steered for lb in balancers for b in lb.backends.values()
            ),
            "fleet.table_updates": sum(lb.table_updates for lb in balancers),
            "fleet.redirected_windows": sum(c.redirected_windows for c in controllers),
            "fleet.sync_ticks": sum(c.syncs for c in controllers),
            "topology.builds": len(kept["Topology"]),
            "topology.routes": sum(len(n.routes) for n in nodes if hasattr(n, "routes")),
            "trace.spans": sum(t.events_emitted for t in kept["Tracer"]),
            "obs.samples": sum(s.ticks for s in kept["Sampler"]),
            "obs.rule_evals": sum(w.evaluations for w in kept["Watchdog"]),
            "faults.applied": (
                sum(len(i.fired) for i in kept["FaultInjector"])
                + sum(d.applied for d in kept["LinkDynamics"])
            ),
        }
