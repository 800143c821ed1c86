"""Host-time benchmark of the MMT simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pilot_wan_loss --seed 1 --seconds 25 --trace 0

Repeats the workload's scenario batch from the seed until ``--seconds``
have passed, checks the simulated outcome of every repetition, and
prints each metric by name with its unit. Host times are reported on a
reference host: a calibration loop runs between repetitions, and the
bursts right before and after a repetition scale its times, so a host
that is slow or shifts speed while the run lasts moves the score, not
the figures; the raw readings are printed beside them. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of untraced
runs. ``--trace 1`` reports the per-layer ledger: each repetition runs
untraced, then under the span tracer, then under the counting shims, and
the three must simulate identical outputs.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Where the traced run writes its spans.
OUT = HERE / "out"

#: The benchmark's declaration: workloads, and metric names with units.
SPEC = HERE.parent / "BENCHMARK.json"


def declared(spec: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in spec[section]}


#: Ledger closure: the layer self times (engine included) must cover
#: the traced wall time to within this share.
LEDGER_TOLERANCE_PCT = 5.0


#: Calibration score of the reference host, Mops/s. Host times are
#: reported as they would read on it: a repetition's times are
#: multiplied by (its host score / REF_MOPS), its rates divided.
REF_MOPS = 0.5


class _Packet:
    __slots__ = ("key", "seq", "size", "headers")

    def __init__(self, key: int, seq: int, size: int) -> None:
        self.key = key
        self.seq = seq
        self.size = size
        self.headers = [key, seq]

    def wire_bytes(self) -> int:
        return self.size + 14 * len(self.headers)


def calibration_burst(operations: int = 30_000) -> float:
    """A fixed pure-Python loop with the simulator's instruction mix
    (small slotted objects allocated per operation, method calls, a
    heap of tuples, dict traffic over a working set of a few thousand
    objects); returns millions of operations per host second. It uses
    nothing of the program, so only the host moves its score."""
    heap: list[tuple[int, int, _Packet]] = []
    ring: list[_Packet | None] = [None] * 8192
    table: dict[int, int] = {}
    t0 = perf_counter()
    for i in range(operations):
        key = (i * 7919) & 4095
        packet = _Packet(key, i, 1000 + (i & 511))
        ring[(i * 2654435761) & 8191] = packet
        table[key] = table.get(key, 0) + packet.wire_bytes()
        heapq.heappush(heap, (packet.seq + key, i, packet))
        if len(heap) > 2048:
            heapq.heappop(heap)
    return operations / (perf_counter() - t0) / 1e6


class HostScore:
    """Calibration bursts taken at every repetition boundary. Each
    repetition is scaled by the bursts right before and after it, so a
    host that changes speed between repetitions moves the score along
    with the timings."""

    def __init__(self) -> None:
        self.boundaries: list[list[float]] = []

    def sample(self, bursts: int = 4) -> None:
        self.boundaries.append([calibration_burst() for _ in range(bursts)])

    @property
    def mops(self) -> float:
        """The run's median calibration score."""
        return statistics.median(b for bursts in self.boundaries for b in bursts)

    def time_scale(self, rep: int) -> float:
        """Reference-host seconds per host second during repetition
        ``rep`` (which ran between boundaries ``rep`` and ``rep + 1``)."""
        return statistics.fmean(self.boundaries[rep] + self.boundaries[rep + 1]) / REF_MOPS


def nearest_rank(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


class Tally:
    """Outcome checks and digests over every repetition of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def add(self, rep) -> None:
        """Count the repetition's cells; a digest that differs from the
        first repetition's fails every cell of the repetition."""
        self.attempted += len(rep.checks)
        if self.digest is None:
            self.digest = rep.digest
        if rep.digest != self.digest:
            self.failed += len(rep.checks)
        else:
            self.failed += sum(1 for ok in rep.checks if not ok)


def _repeat(seconds: float, body, host: HostScore) -> None:
    """Call ``body()`` until ``seconds`` have passed (at least once),
    sampling the host score before and after every call."""
    start = perf_counter()
    host.sample()
    while True:
        gc.collect()
        body()
        host.sample()
        if perf_counter() - start >= seconds:
            return


def measure_end_to_end(run_rep, seed: int, seconds: float, tally: Tally,
                       host: HostScore) -> tuple[dict, dict]:
    """Untraced repetitions; medians over them. Returns the metrics in
    reference-host time, and the same metrics as this host read them."""
    reps = []

    def body():
        rep = run_rep(seed)
        tally.add(rep)
        reps.append(rep)

    _repeat(seconds, body, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def summarize(scales: list[float]) -> dict:
        cells = [ms * scale for rep, scale in zip(reps, scales) for ms in rep.cell_ms]
        return {
            "msgs_per_s": statistics.median(
                rep.messages / (rep.sim_s * scale) for rep, scale in zip(reps, scales)
            ),
            "setup_s": statistics.median(rep.setup_s * scale for rep, scale in zip(reps, scales)),
            "peak_rss_mb": peak_rss_mb,
            "cell_ms_p50": nearest_rank(cells, 0.50),
            "cell_ms_p75": nearest_rank(cells, 0.75),
            "sim_outcome_us": reps[0].sim_outcome_us,
        }

    scales = [host.time_scale(index) for index in range(len(reps))]
    return summarize(scales), summarize([1.0] * len(reps))


def measure_layers(run_rep, seed: int, seconds: float, tally: Tally, host: HostScore,
                   spans_path: Path):
    """Untraced, traced and counting passes per repetition; returns the
    per-layer medians and whether every repetition's ledger closed."""
    from ledger import LAYERS, Counter, SpanTracer

    rows: list[dict] = []
    last_tracer = None

    def body():
        nonlocal last_tracer
        plain = run_rep(seed)
        tally.add(plain)
        gc.collect()
        tracer = SpanTracer()
        with tracer:
            traced = run_rep(seed, lambda cell: setattr(tracer, "cell", cell))
        tally.add(traced)
        gc.collect()
        with Counter() as counter:
            counted = run_rep(seed)
        tally.add(counted)
        last_tracer = tracer

        ledger = tracer.ledger()
        wall_ms = (traced.setup_s + traced.sim_s) * 1000
        row = {f"{layer}.self_ms": ledger["self_ms"][layer] for layer in LAYERS}
        row.update(counter.counts(counted.messages))
        row["engine.events_per_s"] = row["engine.events"] / plain.sim_s
        row["topology.build_ms"] = ledger["topology_build_ms"]
        row["ledger.unattributed_pct"] = 100 * (wall_ms - ledger["covered_ms"]) / wall_ms
        row["host.trace_overhead_x"] = wall_ms / ((plain.setup_s + plain.sim_s) * 1000)
        rows.append(row)

    _repeat(seconds, body, host)
    last_tracer.write(spans_path)
    closed = all(abs(row["ledger.unattributed_pct"]) <= LEDGER_TOLERANCE_PCT for row in rows)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    return metrics, closed


def report(workload: str, seed: int, trace: bool, tally: Tally, metrics: dict,
           units: dict, correct: bool, host_mops: float, raw: dict | None = None) -> str:
    """Human-readable lines, then the JSON result line. ``raw`` holds
    the end-to-end values as this host read them, before scaling to
    the reference host."""
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}",
        f"  host.calib_mops {host_mops:.4f} Mops/s (reference host {REF_MOPS:g})",
        f"  failed_ratio {tally.failed}/{tally.attempted}",
        f"  digest {tally.digest}",
    ]
    if trace:
        covered = 100 - metrics["ledger.unattributed_pct"]
        lines.append(
            f"  ledger: layer self times cover {covered:.2f}% of traced wall "
            f"(tolerance {LEDGER_TOLERANCE_PCT:g}%), tracing overhead "
            f"{metrics['host.trace_overhead_x']:.2f}x"
        )
    for name, unit in units.items():
        line = f"  {name:30s} {metrics[name]:>16.6g} {unit}"
        if raw is not None and raw[name] != metrics[name]:
            line += f"  (this host: {raw[name]:.6g})"
        lines.append(line)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    run_rep = workloads.WORKLOADS[args.workload]
    tally = Tally()
    host = HostScore()
    raw = None
    if args.trace:
        metrics, closed = measure_layers(
            run_rep, args.seed, args.seconds, tally, host,
            OUT / f"{args.workload}.spans.npz",
        )
        metrics["host.calib_mops"] = host.mops
        units, correct = declared(spec, "per_layer"), closed and tally.failed == 0
    else:
        metrics, raw = measure_end_to_end(run_rep, args.seed, args.seconds, tally, host)
        units, correct = declared(spec, "end_to_end"), tally.failed == 0
    print(report(args.workload, args.seed, bool(args.trace), tally, metrics, units,
                 correct, host.mops, raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
