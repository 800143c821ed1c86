"""Run reports: bench regression diffs and health rendering.

``diff_bench`` compares a freshly produced ``BENCH_*.json`` against the
committed baseline. Metrics split into three classes:

* **timing** — names ending ``_per_second`` or ``_x`` (rates and
  speed-ups: higher is better), or ``_wall_s`` and the ``wall_time_s``
  bookkeeping field (lower is better). These vary with the machine, so
  they compare by ratio against a tolerance band.
* **host** — facts about the machine a run used (:data:`HOST_KEYS`,
  e.g. its core count). They are reported, never judged.
* **deterministic** — everything else (operation counts, digests,
  byte totals). Seeded runs must reproduce these exactly; any
  difference is ``drift``, which is just as fatal as a regression
  because it means the workload itself changed.

Provenance is checked before any numbers are compared: both files must
carry a non-null seed, the seeds must match, and rows that embed their
own seed / grid coordinates must agree on them — diffing two runs of
different workloads produces a confident-looking table of nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..telemetry.benchfmt import BenchResult, load_bench_result

__all__ = [
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "BenchDiff",
    "DiffRow",
    "ReportError",
    "diff_bench",
    "diff_bench_files",
    "render_diff",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REGRESSION = 3

#: Row keys that locate a case on its grid; when present in both rows
#: they must agree or the comparison is meaningless.
GRID_KEYS = (
    "seed",
    "transport",
    "senders",
    "load",
    "mark_threshold",
    "symmetric",
    "flows",
    "nodes",
    "messages",
)

#: Row keys that describe the host, not the workload: two machines
#: legitimately differ on them, so a difference is a ``host`` row.
HOST_KEYS = ("cores",)


class ReportError(Exception):
    """A diff input is unusable (bad provenance, missing file, ...)."""


@dataclass(frozen=True)
class DiffRow:
    bench: str
    case: str
    metric: str
    baseline: object
    fresh: object
    ratio: float | None
    status: str  # ok | improvement | regression | drift | host | added | removed


@dataclass
class BenchDiff:
    name: str
    rows: list[DiffRow]

    @property
    def regressions(self) -> list[DiffRow]:
        return [r for r in self.rows if r.status in ("regression", "drift")]

    @property
    def improvements(self) -> list[DiffRow]:
        return [r for r in self.rows if r.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_status(self) -> int:
        return EXIT_OK if self.ok else EXIT_REGRESSION

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "rows": [
                {
                    "case": r.case,
                    "metric": r.metric,
                    "baseline": r.baseline,
                    "fresh": r.fresh,
                    "ratio": r.ratio,
                    "status": r.status,
                }
                for r in self.rows
            ],
        }


def _is_timing(metric: str) -> bool:
    return metric == "wall_time_s" or metric.endswith(("_per_second", "_x", "_wall_s"))


def _higher_is_better(metric: str) -> bool:
    return metric.endswith(("_per_second", "_x"))


def _check_provenance(fresh: BenchResult, baseline: BenchResult) -> None:
    if fresh.name != baseline.name:
        raise ReportError(
            f"bench name mismatch: fresh={fresh.name!r} "
            f"baseline={baseline.name!r}"
        )
    for which, result in (("fresh", fresh), ("baseline", baseline)):
        if not isinstance(result.seed, int):
            raise ReportError(
                f"{which} {result.name} carries no seed "
                f"(got {result.seed!r}) — unreproducible, refusing to diff"
            )
    if fresh.seed != baseline.seed:
        raise ReportError(
            f"seed mismatch in {fresh.name}: fresh={fresh.seed} "
            f"baseline={baseline.seed}"
        )
    shared = set(fresh.metrics) & set(baseline.metrics)
    for case in sorted(shared):
        fresh_row = fresh.metrics[case]
        base_row = baseline.metrics[case]
        if "seed" in fresh_row or "seed" in base_row:
            for which, row in (("fresh", fresh_row), ("baseline", base_row)):
                if row.get("seed") is None:
                    raise ReportError(
                        f"{which} row {fresh.name}/{case} has a null seed"
                    )
        for key in GRID_KEYS:
            if key in fresh_row and key in base_row:
                if fresh_row[key] != base_row[key]:
                    raise ReportError(
                        f"grid coordinate mismatch in {fresh.name}/{case}: "
                        f"{key} fresh={fresh_row[key]!r} "
                        f"baseline={base_row[key]!r}"
                    )


def _diff_metric(
    bench: str, case: str, metric: str, base, new, tolerance: float
) -> DiffRow:
    numeric = isinstance(base, (int, float)) and isinstance(new, (int, float))
    if metric in HOST_KEYS:
        status = "ok" if base == new else "host"
        return DiffRow(bench, case, metric, base, new, None, status)
    if numeric and _is_timing(metric):
        ratio = (new / base) if base else None
        if ratio is None:
            status = "ok" if new == base else "drift"
        else:
            worse = (1 / ratio) if _higher_is_better(metric) else ratio
            if worse > 1 + tolerance:
                status = "regression"
            elif worse < 1 - tolerance:
                status = "improvement"
            else:
                status = "ok"
        return DiffRow(bench, case, metric, base, new, ratio, status)
    # Deterministic field: exact reproduction or drift.
    status = "ok" if base == new else "drift"
    ratio = (new / base) if numeric and base else None
    return DiffRow(bench, case, metric, base, new, ratio, status)


def diff_bench(
    fresh: BenchResult, baseline: BenchResult, tolerance: float = 0.2
) -> BenchDiff:
    """Compare a fresh bench result against its committed baseline."""
    if tolerance < 0:
        raise ReportError(f"tolerance must be >= 0, got {tolerance}")
    _check_provenance(fresh, baseline)
    rows: list[DiffRow] = []
    if fresh.wall_time_s is not None and baseline.wall_time_s is not None:
        rows.append(
            _diff_metric(
                fresh.name, "(run)", "wall_time_s",
                baseline.wall_time_s, fresh.wall_time_s, tolerance,
            )
        )
    cases = sorted(set(fresh.metrics) | set(baseline.metrics))
    for case in cases:
        fresh_row = fresh.metrics.get(case)
        base_row = baseline.metrics.get(case)
        if fresh_row is None:
            rows.append(
                DiffRow(fresh.name, case, "", base_row, None, None, "removed")
            )
            continue
        if base_row is None:
            rows.append(
                DiffRow(fresh.name, case, "", None, fresh_row, None, "added")
            )
            continue
        for metric in sorted(set(fresh_row) | set(base_row)):
            if metric in GRID_KEYS:
                continue  # provenance already cross-checked these
            if metric not in fresh_row:
                rows.append(
                    DiffRow(
                        fresh.name, case, metric,
                        base_row[metric], None, None, "removed",
                    )
                )
                continue
            if metric not in base_row:
                rows.append(
                    DiffRow(
                        fresh.name, case, metric,
                        None, fresh_row[metric], None, "added",
                    )
                )
                continue
            rows.append(
                _diff_metric(
                    fresh.name, case, metric,
                    base_row[metric], fresh_row[metric], tolerance,
                )
            )
    return BenchDiff(name=fresh.name, rows=rows)


def diff_bench_files(
    fresh_path: str | Path,
    baseline_path: str | Path,
    tolerance: float = 0.2,
) -> BenchDiff:
    """File-path convenience wrapper around :func:`diff_bench`."""
    for which, path in (("fresh", fresh_path), ("baseline", baseline_path)):
        if not Path(path).is_file():
            raise ReportError(f"{which} bench file not found: {path}")
    return diff_bench(
        load_bench_result(fresh_path),
        load_bench_result(baseline_path),
        tolerance=tolerance,
    )


def render_diff(diff: BenchDiff, show_ok: bool = False) -> str:
    """Human table: one line per non-ok row (all rows with show_ok)."""
    lines = [f"bench {diff.name}:"]
    shown = 0
    for row in diff.rows:
        if row.status == "ok" and not show_ok:
            continue
        shown += 1
        ratio = f"{row.ratio:.3f}x" if row.ratio is not None else "-"
        lines.append(
            f"  [{row.status:>11}] {row.case}/{row.metric or '*'}: "
            f"baseline={row.baseline!r} fresh={row.fresh!r} ({ratio})"
        )
    ok_rows = sum(1 for r in diff.rows if r.status == "ok")
    lines.append(
        f"  {ok_rows} ok, {len(diff.improvements)} improved, "
        f"{len(diff.regressions)} regressed/drifted"
        + ("" if shown or show_ok else " (all rows within tolerance)")
    )
    return "\n".join(lines)
