"""Reduced-size smoke tests of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from ledger import Counter  # noqa: E402
from repro.integration.incast import grid_configs  # noqa: E402
from repro.soak import SoakConfig  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
END_TO_END = run.declared(SPEC, "end_to_end")
PER_LAYER = run.declared(SPEC, "per_layer")

SEED = 3

#: Each workload at a size that runs in about a second.
SMALL = {
    "pilot_wan_loss": functools.partial(workloads.pilot_wan_loss, messages=300),
    "incast_grid": functools.partial(
        workloads.incast_grid,
        configs=grid_configs(senders=(4,), mark_thresholds=(0.2,), loads=(1.5,),
                             symmetric=(True,), seeds=(SEED,)),
    ),
    "fleet_crash": functools.partial(workloads.fleet_crash, nodes=8, flows=16),
    "soak_ci": functools.partial(
        workloads.soak_ci,
        config=replace(SoakConfig.ci(seed=SEED), duration_ns=10 * 10**9, epochs=10,
                       fleet_messages=120),
    ),
}


def _result(text: str) -> dict:
    return json.loads(text.splitlines()[-1])


def test_every_declared_workload_exists():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(SMALL))
def test_end_to_end_run_prints_every_metric_and_passes_its_checks(workload):
    tally, host = run.Tally(), run.HostScore()
    metrics, raw = run.measure_end_to_end(SMALL[workload], SEED, 0, tally, host)
    text = run.report(workload, SEED, False, tally, metrics, END_TO_END,
                      tally.failed == 0, host.mops, raw)
    result = _result(text)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert f"{name} " in text


@pytest.mark.parametrize("workload", list(SMALL))
def test_traced_run_closes_its_ledger_and_repeats_exactly(workload, tmp_path):
    tally, host = run.Tally(), run.HostScore()
    metrics, closed = run.measure_layers(
        SMALL[workload], SEED, 0, tally, host, tmp_path / "spans.npz"
    )
    metrics["host.calib_mops"] = host.mops
    result = _result(run.report(workload, SEED, True, tally, metrics, PER_LAYER,
                                closed, host.mops))
    # Untraced, traced and counting passes simulated identical outputs.
    assert closed and result["correct"] and tally.failed == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    assert (tmp_path / "spans.npz").is_file()
    assert metrics["engine.events"] > 0 and metrics["engine.self_ms"] > 0

    # Same seed again: same digest, same per-layer counts.
    with Counter() as counter:
        rep = SMALL[workload](SEED)
    assert rep.digest == tally.digest
    counts = counter.counts(rep.messages)
    assert counts == {name: metrics[name] for name in counts}


def test_layers_do_the_work_the_workloads_were_chosen_for(tmp_path):
    def counts(workload):
        with Counter() as counter:
            rep = SMALL[workload](SEED)
        return counter.counts(rep.messages)

    pilot, incast, fleet = counts("pilot_wan_loss"), counts("incast_grid"), counts("fleet_crash")
    assert pilot["dataplane.mmt_processed"] > 0 and incast["dataplane.mmt_processed"] == 0
    assert incast["tcp.segments_sent"] > 0 and pilot["tcp.segments_sent"] == 0
    assert fleet["fleet.redirected_windows"] > 0 and fleet["fleet.steered"] > 0
    assert pilot["trace.spans"] == 0 and counts("soak_ci")["trace.spans"] > 0


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "pilot_wan_loss", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
