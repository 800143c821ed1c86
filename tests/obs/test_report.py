"""Bench regression diffs, provenance gates, and the report CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    ReportError,
    diff_bench,
    diff_bench_files,
    render_diff,
)
from repro.telemetry.benchfmt import BenchResult


def bench(name="pilot", seed=7, **cases) -> BenchResult:
    result = BenchResult(name=name, seed=seed)
    for case, values in cases.items():
        result.record(case, **values)
    return result


# -- classification -----------------------------------------------------------


def test_identical_benches_are_ok():
    fresh = bench(fig4=dict(packets_per_second=1000, decodes=500))
    diff = diff_bench(fresh, bench(fig4=dict(packets_per_second=1000, decodes=500)))
    assert diff.ok
    assert diff.exit_status == EXIT_OK
    assert all(r.status == "ok" for r in diff.rows)


def test_timing_regression_by_ratio():
    base = bench(fig4=dict(packets_per_second=1000))
    slow = bench(fig4=dict(packets_per_second=700))  # 30% down, tol 20%
    diff = diff_bench(slow, base)
    assert not diff.ok
    assert diff.exit_status == EXIT_REGRESSION
    (row,) = diff.regressions
    assert row.metric == "packets_per_second"
    assert row.ratio == pytest.approx(0.7)


def test_timing_improvement_is_not_fatal():
    base = bench(fig4=dict(packets_per_second=1000))
    fast = bench(fig4=dict(packets_per_second=1400))
    diff = diff_bench(fast, base)
    assert diff.ok
    assert len(diff.improvements) == 1


def test_wall_time_lower_is_better():
    base = bench(fig4=dict(wall_time_s=1.0))
    slow = bench(fig4=dict(wall_time_s=1.5))
    assert not diff_bench(slow, base).ok
    fast = bench(fig4=dict(wall_time_s=0.5))
    assert diff_bench(fast, base).ok


def sweep_statuses(diff) -> dict[str, str]:
    """Metric -> status for the ``sweep`` case (the run-level
    ``wall_time_s`` row is left out)."""
    return {r.metric: r.status for r in diff.rows if r.case == "sweep"}


def test_sweep_wall_times_are_timing_lower_is_better():
    for metric in ("sequential_wall_s", "sharded_wall_s"):
        base = bench(sweep={metric: 2.0})
        slow = diff_bench(bench(sweep={metric: 3.0}), base)
        assert sweep_statuses(slow) == {metric: "regression"}
        fast = diff_bench(bench(sweep={metric: 1.0}), base)
        assert sweep_statuses(fast) == {metric: "improvement"}
        in_band = diff_bench(bench(sweep={metric: 2.1}), base)
        assert sweep_statuses(in_band) == {metric: "ok"}


def test_speedup_is_timing_higher_is_better():
    base = bench(sweep=dict(speedup_x=1.5))
    slow = diff_bench(bench(sweep=dict(speedup_x=0.5)), base)
    assert sweep_statuses(slow) == {"speedup_x": "regression"}
    fast = diff_bench(bench(sweep=dict(speedup_x=3.0)), base)
    assert sweep_statuses(fast) == {"speedup_x": "improvement"}


def test_core_count_is_host_provenance_not_drift():
    base = bench(sweep=dict(cores=1, identical=1))
    diff = diff_bench(bench(sweep=dict(cores=8, identical=1)), base)
    assert diff.ok and diff.exit_status == EXIT_OK
    assert sweep_statuses(diff) == {"cores": "host", "identical": "ok"}
    assert "[       host] sweep/cores" in render_diff(diff)
    same = diff_bench(bench(sweep=dict(cores=1, identical=1)), base)
    assert sweep_statuses(same) == {"cores": "ok", "identical": "ok"}


def test_tolerance_band_is_inclusive():
    base = bench(fig4=dict(packets_per_second=1000))
    edge = bench(fig4=dict(packets_per_second=834))  # worse ratio 1.199
    assert diff_bench(edge, base, tolerance=0.2).ok


def test_deterministic_drift_is_fatal():
    base = bench(fig4=dict(decodes=500))
    drifted = bench(fig4=dict(decodes=501))  # within any ratio band
    diff = diff_bench(drifted, base)
    assert not diff.ok
    (row,) = diff.regressions
    assert row.status == "drift"


def test_added_and_removed_rows_are_not_fatal():
    base = bench(fig4=dict(decodes=500, old_metric=1))
    fresh = bench(
        fig4=dict(decodes=500, new_metric=2),
        new_case=dict(decodes=1),
    )
    diff = diff_bench(fresh, base)
    assert diff.ok
    statuses = sorted(r.status for r in diff.rows if r.status != "ok")
    assert statuses == ["added", "added", "removed"]


# -- provenance gates ---------------------------------------------------------


def test_rejects_name_mismatch():
    with pytest.raises(ReportError, match="name mismatch"):
        diff_bench(bench(name="a"), bench(name="b"))


def test_rejects_null_seed():
    with pytest.raises(ReportError, match="no seed"):
        diff_bench(bench(seed=None), bench())
    with pytest.raises(ReportError, match="no seed"):
        diff_bench(bench(), bench(seed=None))


def test_rejects_seed_mismatch():
    with pytest.raises(ReportError, match="seed mismatch"):
        diff_bench(bench(seed=7), bench(seed=8))


def test_rejects_null_row_seed():
    fresh = bench(fig4=dict(seed=None, decodes=1))
    base = bench(fig4=dict(seed=7, decodes=1))
    with pytest.raises(ReportError, match="null seed"):
        diff_bench(fresh, base)


def test_rejects_grid_coordinate_mismatch():
    fresh = bench(case=dict(seed=7, senders=32, fct_us=10))
    base = bench(case=dict(seed=7, senders=16, fct_us=10))
    with pytest.raises(ReportError, match="grid coordinate"):
        diff_bench(fresh, base)


def test_grid_keys_are_skipped_in_metric_diff():
    fresh = bench(case=dict(seed=7, senders=32, decodes=5))
    base = bench(case=dict(seed=7, senders=32, decodes=5))
    diff = diff_bench(fresh, base)
    metrics = {r.metric for r in diff.rows}
    assert "senders" not in metrics
    assert "seed" not in metrics


def test_missing_file_is_a_report_error(tmp_path):
    with pytest.raises(ReportError, match="not found"):
        diff_bench_files(tmp_path / "nope.json", tmp_path / "also-nope.json")


def test_render_lists_non_ok_rows():
    base = bench(fig4=dict(packets_per_second=1000, decodes=5))
    slow = bench(fig4=dict(packets_per_second=100, decodes=5))
    text = render_diff(diff_bench(slow, base))
    assert "regression" in text
    assert "packets_per_second" in text
    assert "decodes" not in text  # ok rows hidden by default
    assert "decodes" in render_diff(diff_bench(slow, base), show_ok=True)


# -- the report CLI -----------------------------------------------------------


def write_bench_dir(path, result: BenchResult):
    path.mkdir(exist_ok=True)
    result.write(path)
    return path


def test_cli_clean_report(tmp_path, capsys):
    fresh = write_bench_dir(tmp_path / "fresh", bench(fig4=dict(decodes=5)))
    base = write_bench_dir(tmp_path / "base", bench(fig4=dict(decodes=5)))
    code = main(["report", "--fresh", str(fresh), "--baseline", str(base)])
    assert code == EXIT_OK
    assert "bench pilot:" in capsys.readouterr().out


def test_cli_regression_exit_code_and_json(tmp_path, capsys):
    fresh = write_bench_dir(
        tmp_path / "fresh", bench(fig4=dict(packets_per_second=10))
    )
    base = write_bench_dir(
        tmp_path / "base", bench(fig4=dict(packets_per_second=1000))
    )
    out = tmp_path / "report.json"
    code = main([
        "report", "--fresh", str(fresh), "--baseline", str(base),
        "--json", str(out),
    ])
    assert code == EXIT_REGRESSION
    payload = json.loads(out.read_text())
    assert payload["status"] == EXIT_REGRESSION
    assert payload["benches"][0]["regressions"] == 1


def test_cli_provenance_failure_is_input_error(tmp_path, capsys):
    fresh = write_bench_dir(tmp_path / "fresh", bench(seed=1))
    base = write_bench_dir(tmp_path / "base", bench(seed=2))
    code = main(["report", "--fresh", str(fresh), "--baseline", str(base)])
    assert code == EXIT_ERROR
    assert "seed mismatch" in capsys.readouterr().err


def test_cli_nothing_to_report_is_an_error(tmp_path, capsys):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "base").mkdir()
    code = main([
        "report", "--fresh", str(tmp_path / "fresh"),
        "--baseline", str(tmp_path / "base"),
    ])
    assert code == EXIT_ERROR


def test_cli_renders_committed_health_file(tmp_path, capsys):
    health = {
        "ok": False, "rules": 1, "evaluations": 4, "violations": 1,
        "events": [{
            "rule": "queue_bytes max <= 1", "metric": "queue_bytes",
            "labels": {"node": "u280"}, "agg": "max", "op": "<=",
            "threshold": 1, "observed": 9000, "at_ns": 50_000,
        }],
    }
    path = tmp_path / "health.json"
    path.write_text(json.dumps(health))
    code = main(["report", "--health", str(path)])
    assert code == EXIT_ERROR  # unhealthy run -> input error, not ok
    out = capsys.readouterr().out
    assert "queue_bytes" in out
