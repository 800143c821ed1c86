"""Fleet-scale concurrent runs: hundreds of flows over tens of nodes.

:class:`FleetOrchestrator` is :class:`~repro.integration.multiflow
.MultiFlowOrchestrator` pointed at a :class:`~repro.fleet.farm
.ReceiverFarm` instead of the single-DTN pilot — same alternating DAQ
workload shapes (steady ICEBERG-style elephants on even flows, bursty
synthetic-DUNE events on odd), same per-flow accounting, but the
delivery side is a farm and the run is judged on the farm's axes too:

- per-node packet/byte shares and the Jain fairness index across
  *live* nodes (is the balancer actually balancing?);
- table-update latency (liveness mark → applied table update);
- redirect time-to-recover: after a mid-run node crash, how long until
  the last repair retransmission lands on the windows' new owners;
- per-flow FCT (first → last delivery) and unrecovered counts.

A crash can be scheduled declaratively (``crash_node`` +
``crash_at_ns``) so benchmark and chaos runs stay reproducible: same
seed, same crash instant, byte-identical steering decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.metrics import jains_fairness
from ..core.features import MsgType
from ..integration.multiflow import MultiFlowOrchestrator
from ..netsim.units import MILLISECOND, gbps
from .farm import FarmConfig, FarmReport, ReceiverFarm


@dataclass
class FleetConfig:
    """Parameters for one fleet-scale concurrent run."""

    nodes: int = 4
    flows: int = 16
    seed: int = 7
    #: Generator window: every flow emits messages in ``[0, duration)``.
    duration_ns: int = 2 * MILLISECOND
    message_bytes: int = 4000
    steady_rate_bps: int = gbps(2)
    event_rate_hz: float = 50_000.0
    messages_per_event: int = 3
    #: Farm overrides; ``nodes``/``flows`` here always win.
    farm: FarmConfig | None = None
    #: Index of a node to crash mid-run (None = healthy run).
    crash_node: int | None = None
    crash_at_ns: int = 1 * MILLISECOND

    def build_farm_config(self) -> FarmConfig:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.flows < 1:
            raise ValueError(f"flows must be >= 1, got {self.flows}")
        cfg = self.farm or FarmConfig()
        cfg.nodes = self.nodes
        cfg.flows = self.flows
        return cfg


@dataclass
class FleetReport:
    """What a fleet run measured, per flow, per node, and in aggregate."""

    nodes: int
    flows: int
    duration_ns: int
    farm: FarmReport
    #: flow_id → bytes the generator actually offered.
    offered_bytes: dict[int, int]
    per_flow: dict[int, dict[str, int]]
    per_node: dict[int, dict[str, int]]
    aggregate_goodput_bps: float
    #: Jain index over per-flow normalized goodput (delivered/offered).
    flow_fairness: float
    #: Jain index over bytes delivered per *live* node.
    node_fairness: float
    #: max − min of per-flow last-delivery times.
    completion_spread_ns: int
    #: max − min of per-flow FCTs (first → last delivery).
    fct_ns: dict[int, int] = field(default_factory=dict)
    #: ns from the scheduled crash to the last repair retransmission
    #: delivered anywhere (0 = no crash, or nothing needed repair).
    recovery_ns: int = 0

    @property
    def complete(self) -> bool:
        """Every flow delivered everything relayed, nothing given up."""
        return all(
            row["unrecovered"] == 0 and row["delivered"] >= row["relayed"]
            for row in self.per_flow.values()
        )


class FleetOrchestrator(MultiFlowOrchestrator):
    """Drives N concurrent DAQ flows through one shared receiver farm.

    The inherited sources and ``_send_fn`` drive ``self.testbed`` — the
    farm speaks the pilot's ``send_message(size, flow, payload)``.
    """

    def __init__(self, config: FleetConfig | None = None) -> None:
        super().__init__(config or FleetConfig())

    def _build_testbed(self) -> ReceiverFarm:
        return ReceiverFarm(sim=self.sim, config=self.config.build_farm_config())

    @property
    def farm(self) -> ReceiverFarm:
        return self.testbed

    def run(self) -> FleetReport:
        cfg = self.config
        for source in self.sources:
            source.start(0)
        if cfg.crash_node is not None:
            self.sim.schedule(cfg.crash_at_ns, self.farm.crash_node, cfg.crash_node)
        farm_report = self.farm.run(control_until_ns=cfg.duration_ns)
        per_flow = farm_report.per_flow
        per_node = farm_report.per_node
        offered, goodput, flow_fairness, spread = self._aggregate(per_flow)
        fct = {
            fid: per_flow[fid]["last_delivery_ns"] - per_flow[fid]["first_delivery_ns"]
            for fid in range(cfg.flows)
            if per_flow[fid]["delivered"]
        }

        live_bytes = [
            row["bytes_delivered"] for row in per_node.values() if row["alive"]
        ]

        recovery_ns = 0
        if cfg.crash_node is not None:
            crashed_at = self.farm.nodes[cfg.crash_node].crashed_at_ns
            if crashed_at is not None:
                repairs = [
                    t
                    for t, msg_type, *_ in self.farm.deliveries
                    if msg_type == MsgType.RETX_DATA and t >= crashed_at
                ]
                if repairs:
                    recovery_ns = max(repairs) - crashed_at

        return FleetReport(
            nodes=cfg.nodes,
            flows=cfg.flows,
            duration_ns=cfg.duration_ns,
            farm=farm_report,
            offered_bytes=offered,
            per_flow=per_flow,
            per_node=per_node,
            aggregate_goodput_bps=goodput,
            flow_fairness=flow_fairness,
            node_fairness=jains_fairness(live_bytes),
            completion_spread_ns=spread,
            fct_ns=fct,
            recovery_ns=recovery_ns,
        )
