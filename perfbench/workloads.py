"""The four benchmark workloads, driven through the program's public API.

Each workload function runs one repetition (a batch of scenarios, each
run to quiescence) from a seed and returns a :class:`Rep`: host set-up
and simulation time, the application messages delivered, one outcome
check per cell, a digest of everything simulated, and the workload's
simulated outcome in microseconds. Sizes default to the benchmark's; the
smoke tests pass smaller ones. ``on_cell(index)`` is called as each
cell of a multi-cell repetition starts (the traced run tags its spans).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

from repro.dataplane import PilotConfig, PilotTestbed
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.integration.incast import case_label, grid_configs, run_incast
from repro.netsim import Simulator
from repro.netsim.units import MICROSECOND, MILLISECOND
from repro.soak import SoakConfig, run_soak


@dataclass
class Rep:
    """One repetition of a workload."""

    #: Host seconds building simulator, topology and endpoints before
    #: the first event (summed over cells).
    setup_s: float
    #: Host seconds of simulation, set-up excluded (summed over cells).
    sim_s: float
    #: Host ms per cell, its build included.
    cell_ms: list[float]
    #: Application messages delivered.
    messages: int
    #: One outcome check per cell.
    checks: list[bool]
    #: sha256 of every simulated output of the repetition.
    digest: str
    #: The workload's simulated outcome, us: a flow completion time
    #: (first to last delivery), or the pilot's mean delivery latency.
    sim_outcome_us: float


def _digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def _observe(cls: type, name: str, note):
    """Call ``note(obj)`` on entry to ``cls.name``: a once-per-scenario
    probe where the public API hides a boundary (no per-event cost)."""
    original = cls.__dict__[name]

    def observed(obj, *args, **kwargs):
        note(obj)
        return original(obj, *args, **kwargs)

    setattr(cls, name, observed)
    try:
        yield
    finally:
        setattr(cls, name, original)


def _run_until_first_event(call):
    """Run ``call()``; return its result, total host seconds and the
    host seconds before its first ``Simulator.run`` (its set-up)."""
    starts: list[float] = []
    with _observe(Simulator, "run", lambda _sim: starts.append(perf_counter())):
        t0 = perf_counter()
        result = call()
        t1 = perf_counter()
    return result, t1 - t0, (starts[0] if starts else t1) - t0


def _ignore(_cell: int) -> None:
    pass


def pilot_wan_loss(seed: int, on_cell=_ignore, messages: int = 5000) -> Rep:
    """Fig. 4 pilot: one flow, 10 ms WAN at 1% loss, 8,000 B messages
    every 2 us."""
    t0 = perf_counter()
    pilot = PilotTestbed(
        sim=Simulator(seed=seed),
        config=PilotConfig(wan_delay_ns=10 * MILLISECOND, wan_loss_rate=0.01),
    )
    pilot.send_stream(messages, payload_size=8000, interval_ns=2_000)
    t1 = perf_counter()
    report = pilot.run()
    t2 = perf_counter()
    # NAKs cross the lossy WAN too, so a NAK lost on the wire is never
    # served (the receiver's retry recovers); every NAK that reached the
    # U280 must be served from its buffer, and the sensor never repairs.
    buffer = pilot.buffer.stats
    ok = (
        report.complete
        and report.naks_served == buffer.nak_requests
        and buffer.misses == 0
        and 0 <= report.naks_sent - report.naks_served <= pilot.wan_link.stats.lost_random
        and pilot.sensor.rx_unhandled == 0
    )
    latencies = report.delivery_latencies_ns
    mean_us = statistics.fmean(latencies) / 1000 if latencies else 0.0
    return Rep(
        setup_s=t1 - t0,
        sim_s=t2 - t1,
        cell_ms=[(t2 - t0) * 1000],
        messages=report.delivered,
        checks=[ok],
        digest=_digest(asdict(report)),
        sim_outcome_us=mean_us,
    )


def incast_configs(seed: int):
    """N=16 leaf-spine incast: mmt/tcp/udp x K{0.1,0.4} x load{0.8,1.5}
    x sym/asym x two seeds = 48 cells."""
    return grid_configs(senders=(16,), seeds=(seed, seed + 1))


def incast_grid(seed: int, on_cell=_ignore, configs=None) -> Rep:
    """Inline campaign (one process, one thread) over the incast grid."""
    configs = incast_configs(seed) if configs is None else configs
    setup = sim = 0.0
    cell_ms, checks, outputs, mmt_p95 = [], [], [], []
    messages = 0
    for index, config in enumerate(configs):
        on_cell(index)
        report, total, cell_setup = _run_until_first_event(lambda c=config: run_incast(c))
        setup += cell_setup
        sim += total - cell_setup
        cell_ms.append(total * 1000)
        messages += report.summary.completed * config.flow_messages
        if config.transport == "mmt":
            checks.append(report.extra["unrecovered"] == 0)
            if report.summary.p95_ns is not None:
                mmt_p95.append(report.summary.p95_ns / 1000)
        else:
            checks.append(True)
        outputs.append((case_label(config), report.as_metrics()))
    fct_us = statistics.median(mmt_p95) if mmt_p95 else 0.0
    return Rep(
        setup_s=setup,
        sim_s=sim,
        cell_ms=cell_ms,
        messages=messages,
        checks=checks,
        digest=_digest([outputs, fct_us]),
        sim_outcome_us=fct_us,
    )


def fleet_config(seed: int, nodes: int = 64, flows: int = 128) -> FleetConfig:
    """64-node receiver farm, 128 flows, 0.6 ms generation window.

    Deliveries start after the 1 ms WAN leg and last until about
    2.6 ms; node 5 crashes at 1.3 ms, mid-way through them, so its
    windows are redirected and in-flight loss is repaired from the
    buffer at the windows' new owners.
    """
    return FleetConfig(
        nodes=nodes,
        flows=flows,
        seed=seed,
        duration_ns=600 * MICROSECOND,
        crash_node=5 % nodes,
        crash_at_ns=1300 * MICROSECOND,
    )


def fleet_crash(seed: int, on_cell=_ignore, nodes: int = 64, flows: int = 128) -> Rep:
    t0 = perf_counter()
    orchestrator = FleetOrchestrator(fleet_config(seed, nodes, flows))
    t1 = perf_counter()
    report = orchestrator.run()
    t2 = perf_counter()
    ok = report.complete and report.farm.redirected_windows > 0
    fct = sorted(report.fct_ns.values())
    fct_us = fct[math.ceil(0.9 * len(fct)) - 1] / 1000 if fct else 0.0  # nearest-rank p90
    return Rep(
        setup_s=t1 - t0,
        sim_s=t2 - t1,
        cell_ms=[(t2 - t0) * 1000],
        messages=report.farm.delivered,
        checks=[ok],
        digest=_digest([asdict(report), fct_us]),
        sim_outcome_us=fct_us,
    )


def soak_ci(seed: int, on_cell=_ignore, config: SoakConfig | None = None) -> Rep:
    """The CI soak preset: 60 s simulated, sparse traffic under churn."""
    config = SoakConfig.ci(seed=seed) if config is None else config
    pilots: list[PilotTestbed] = []
    # The soak builds its pilot internally; its delivery log is read
    # off the testbed whose report the soak takes.
    with _observe(PilotTestbed, "report", pilots.append):
        report, total, setup = _run_until_first_event(
            lambda: run_soak(config, strict=False)
        )
    ok = report.complete and report.budget_violations == 0
    # Mean over the soak's two flows: the steady flow's FCT alone is
    # fixed by its send schedule; the Poisson flow's varies by seed.
    fcts = [
        (times[-1][0] - times[0][0]) / 1000
        for times in (pilots[-1].delivered_by_flow.values() if pilots else ())
        if times
    ]
    fct_us = statistics.fmean(fcts) if fcts else 0.0
    return Rep(
        setup_s=setup,
        sim_s=total - setup,
        cell_ms=[total * 1000],
        messages=report.delivered + report.fleet_delivered,
        checks=[ok],
        digest=_digest([report.metrics(), report.health.to_dict(), fct_us]),
        sim_outcome_us=fct_us,
    )


#: Workload name -> repetition function (BENCHMARK.json says why each).
WORKLOADS = {
    "pilot_wan_loss": pilot_wan_loss,
    "incast_grid": incast_grid,
    "fleet_crash": fleet_crash,
    "soak_ci": soak_ci,
}
