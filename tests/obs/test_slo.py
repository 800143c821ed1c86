"""SLO rule parsing, watchdog evaluation, and flight-recorder pinning."""

import pytest

from repro.faults.chaos import ChaosConfig, run_chaos
from repro.fleet.farm import FarmConfig, ReceiverFarm
from repro.netsim import Simulator
from repro.obs import HealthReport, Sampler, SloRule, Watchdog
from repro.trace import Tracer


# -- rule grammar -------------------------------------------------------------


def test_parse_plain_rule():
    rule = SloRule.parse("queue_bytes max <= 262144")
    assert rule.metric == "queue_bytes"
    assert rule.agg == "max"
    assert rule.op == "<="
    assert rule.threshold == 262144
    assert rule.labels == ()
    assert str(rule) == "queue_bytes max <= 262144"


def test_parse_labels_and_float_threshold():
    rule = SloRule.parse("queue_bytes{node=u280, port=out} p99 < 1.5")
    assert rule.labels == (("node", "u280"), ("port", "out"))
    assert rule.threshold == 1.5
    assert rule.agg == "p99"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "queue_bytes",
        "queue_bytes max",
        "queue_bytes max <=",
        "queue_bytes p42 <= 1",  # unknown aggregate
        "queue_bytes max ~= 1",  # unknown operator
        "queue_bytes{node} max <= 1",  # label without value
    ],
)
def test_parse_rejects_bad_rules(text):
    with pytest.raises(ValueError):
        SloRule.parse(text)


def test_aggregates():
    rule = lambda agg: SloRule(metric="m", agg=agg)
    values = [5, 1, 3, 2, 4]
    assert rule("last").aggregate(values) == 4
    assert rule("max").aggregate(values) == 5
    assert rule("min").aggregate(values) == 1
    assert rule("mean").aggregate(values) == 3.0
    assert rule("p50").aggregate(values) == 3.0
    assert rule("p99").aggregate(values) == 5.0
    # Even length: nearest rank picks a sample, never the midpoint 2.5.
    even = [4, 1, 3, 2]
    assert rule("p50").aggregate(even) == 2.0
    assert rule("p99").aggregate(even) == 4.0


def test_operators():
    assert SloRule(metric="m", op="<=", threshold=3).holds(3)
    assert not SloRule(metric="m", op="<", threshold=3).holds(3)
    assert SloRule(metric="m", op=">=", threshold=3).holds(3)
    assert not SloRule(metric="m", op=">", threshold=3).holds(3)
    assert SloRule(metric="m", op="==", threshold=3).holds(3)
    assert not SloRule(metric="m", op="==", threshold=3).holds(4)


def test_label_subset_matching():
    sampler = Sampler(Simulator(seed=1), every_ns=10)
    series = sampler.record("queue_bytes", 9, node="u280", port="out")
    assert SloRule.parse("queue_bytes max <= 1").matches(series)
    assert SloRule.parse("queue_bytes{node=u280} max <= 1").matches(series)
    assert not SloRule.parse("queue_bytes{node=dtn1} max <= 1").matches(series)
    assert not SloRule.parse("other max <= 1").matches(series)


# -- watchdog evaluation ------------------------------------------------------


def test_watchdog_flags_first_violation_and_dedups():
    sampler = Sampler(Simulator(seed=1), every_ns=10)
    watchdog = Watchdog(["m max <= 10"], sampler=sampler)
    sampler.record("m", 5)
    assert watchdog.violations == 0
    sampler.record("m", 11)  # first breach
    sampler.record("m", 40)  # same (rule, series): refresh, no new event
    events = watchdog.events()
    assert len(events) == 1
    assert events[0].observed == 40  # run-final aggregate, not first excursion
    assert events[0].at_ns == 0
    report = watchdog.report()
    assert not report.ok
    assert report.violations == 1
    assert report.rules == 1


def test_watchdog_separates_series_of_one_metric():
    sampler = Sampler(Simulator(seed=1), every_ns=10)
    watchdog = Watchdog(["queue_bytes max <= 10"], sampler=sampler)
    sampler.record("queue_bytes", 99, node="a")
    sampler.record("queue_bytes", 99, node="b")
    sampler.record("queue_bytes", 1, node="c")
    assert watchdog.violations == 2
    assert {e.labels["node"] for e in watchdog.events()} == {"a", "b"}


def test_check_sweeps_series_recorded_before_attachment():
    sampler = Sampler(Simulator(seed=1), every_ns=10)
    sampler.record("m", 99)
    watchdog = Watchdog(["m max <= 10"], sampler=sampler)
    assert watchdog.violations == 0  # observer missed the old point
    watchdog.check()
    assert watchdog.violations == 1


def test_health_report_round_trips_through_dict():
    sampler = Sampler(Simulator(seed=1), every_ns=10)
    watchdog = Watchdog(["m{node=x} last == 0"], sampler=sampler)
    sampler.record("m", 3, node="x")
    report = watchdog.report()
    clone = HealthReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
    assert clone.events[0].series_name == "m{node=x}"


# -- flight-recorder pinning --------------------------------------------------


def test_violation_pins_breach_span_past_ring_eviction():
    sim = Simulator(seed=1)
    tracer = Tracer(sim, capacity=3)
    sampler = Sampler(sim, every_ns=10)
    Watchdog(["m max <= 10"], sampler=sampler, tracer=tracer)
    sampler.record("m", 99)
    assert "slo:m" in tracer.pinned_elements()
    # Flood the tiny ring: the breach span must survive eviction.
    for seq in range(20):
        tracer.emit("element.egress", "x", 1, 0, seq)
    kinds = [e.kind for e in tracer.events()]
    assert "slo.violation" in kinds
    assert tracer.events_pinned >= 1


def test_violation_pins_component_named_by_labels():
    sim = Simulator(seed=1)
    tracer = Tracer(sim, capacity=3)
    sampler = Sampler(sim, every_ns=10)
    Watchdog(["queue_bytes max <= 10"], sampler=sampler, tracer=tracer)
    # Component spans land in the ring first...
    for seq in range(3):
        tracer.emit("element.egress", "tofino2", 1, 0, seq)
    # ... then the breach names the component: its history is pinned too.
    sampler.record("queue_bytes", 99, node="tofino2", port="out")
    assert "tofino2" in tracer.pinned_elements()
    for seq in range(20):
        tracer.emit("element.egress", "other", 1, 0, seq)
    retained = [e for e in tracer.events() if e.element == "tofino2"]
    assert len(retained) == 3


def test_first_violation_emits_single_span():
    sim = Simulator(seed=1)
    tracer = Tracer(sim, capacity=64)
    sampler = Sampler(sim, every_ns=10)
    Watchdog(["m max <= 10"], sampler=sampler, tracer=tracer)
    for value in (11, 50, 99):
        sampler.record("m", value)
    spans = [e for e in tracer.events() if e.kind == "slo.violation"]
    assert len(spans) == 1


# -- harness integration ------------------------------------------------------


def test_chaos_run_carries_health_report():
    run = run_chaos(
        ChaosConfig(
            sample_every_ns=200_000,
            slo=("sim_pending_events max <= 0",),
        )
    )
    assert run.health is not None
    assert not run.health.ok
    assert run.health.events[0].metric == "sim_pending_events"


def test_chaos_slo_requires_sampling():
    with pytest.raises(ValueError, match="sample_every_ns"):
        run_chaos(ChaosConfig(slo=("queue_bytes max <= 1",)))


def test_farm_fill_skew_rule():
    farm = ReceiverFarm(
        sim=Simulator(seed=5),
        config=FarmConfig(trace=True, sample_every_ns=500_000),
    )
    watchdog = Watchdog(
        ["fleet_fill_skew max <= 0", "fleet_node_fill_pct max <= 100"],
        sampler=farm.sampler,
        tracer=farm.tracer,
    )
    farm.send_stream(96, payload_size=2000, interval_ns=1_000)
    farm.run()
    watchdog.check()
    report = watchdog.report()
    assert report.rules == 2
    assert report.evaluations > 0
    # Per-backend fill stays within bounds whatever the skew did.
    assert not any(
        e.metric == "fleet_node_fill_pct" for e in watchdog.events()
    )
