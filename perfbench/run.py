"""Benchmark for ccakit: one seeded workload per process, checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in;
nothing needs to be installed.  Workloads are ``sweep``, ``verdict-stream``,
``product`` and ``iso-classify`` (see workloads.py).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Every reported time is scaled to a machine of fixed speed.  The speed of a
shared virtual core drifts by up to half over tens of seconds, which would
swamp the differences the benchmark is meant to show.  So a fixed
pure-Python reference loop, which uses no ccakit code, is timed every
SPEED_SAMPLE_GAP_S (see SpeedGauge), and each call's wall time is
multiplied by REF_NOMINAL_S over the reference time around it.  The
unscaled wall-clock rate is printed on the lines above the result.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off:

- ``setup_s``: import ccakit and build the workload's inputs from the seed.
  Set-up runs in this process and in SETUP_PROBES fresh interpreters; the
  median is reported.
- ``ops_per_s``: checked operations per second of time spent inside the
  timed calls (input generation and output checks are outside it).
- ``latency_p50_ms``, ``latency_tail_ms``: median and TAIL_PERCENTILE-th
  percentile (nearest rank) of the per-operation latency.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run measures untraced for half the time and traced
for the other half, and reports per-layer calls and self time per operation
(see tracing.py), the layer ratios, and the tracing overhead.  Spans go to
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / ".out"

SETUP_PROBES = 4
TAIL_PERCENTILE = 95
PROBE_TIMEOUT_S = 120
REF_ITERS = 6000
REF_REPEATS = 2
REF_NOMINAL_S = 1e-3
SPEED_SAMPLE_GAP_S = 0.1
WORKLOAD_NAMES = ("sweep", "verdict-stream", "product", "iso-classify")


def _reference_work() -> int:
    acc = 0
    seen: dict[int, int] = {}
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) & 0xFFFF
        seen[acc & 255] = i
    return acc + len(seen)


def reference_seconds() -> float:
    """Mean time of REF_REPEATS back-to-back runs of the reference loop.  A
    mean, not a minimum, so a noisy stretch counts as the timed calls feel
    it."""
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        _reference_work()
    return (time.perf_counter() - start) / REF_REPEATS


class SpeedGauge:
    """Times the reference loop every SPEED_SAMPLE_GAP_S of wall time from a
    SIGALRM handler, so a call that lasts seconds is scaled by the machine's
    speed during it, not only at its ends.  Each tick records its own
    duration, which is taken out of the call it interrupted and out of the
    spans open at the time."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        # (start, seconds spent in the tick, reference seconds)
        self.ticks: list[tuple[float, float, float]] = []
        self._previous: Any = None
        self._in_tick = False

    def _tick(self, signum: int | None = None, frame: Any = None) -> None:
        if self._in_tick:  # a late signal must not nest inside a tick
            return
        self._in_tick = True
        start = time.perf_counter()
        ref = reference_seconds()
        spent = time.perf_counter() - start
        self.ticks.append((start, spent, ref))
        if self.tracer is not None:
            self.tracer.discount(spent)
        self._in_tick = False

    def __enter__(self) -> "SpeedGauge":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_SAMPLE_GAP_S, SPEED_SAMPLE_GAP_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, start: float, end: float, first: int) -> tuple[float, float]:
        """Wall time of [start, end) less the ticks inside it, and that time
        scaled by the last reference sample before start and those inside.
        `first` indexes a tick taken before start."""
        prior = [t for t in self.ticks[first:] if t[0] < start][-1]
        inside = [t for t in self.ticks[first:] if start <= t[0] < end]
        elapsed = end - start - sum(t[1] for t in inside)
        refs = [prior[2]] + [t[2] for t in inside]
        return elapsed, elapsed * REF_NOMINAL_S * len(refs) / sum(refs)


@dataclass
class Tally:
    """What one measured loop did.  busy_s is wall time inside the timed
    calls; scaled_s and latencies are scaled to the reference speed."""

    ops: int = 0
    failed: int = 0
    busy_s: float = 0.0
    scaled_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def setup(workload: str, seed: int) -> tuple[float, Any]:
    """Import ccakit from the checkout and build the workload's inputs.
    Returns the scaled set-up time and the workload."""
    ref_before = reference_seconds()
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ccakit

    if Path(ccakit.__file__).resolve().parent != SRC / "ccakit":
        raise RuntimeError(f"imported ccakit from {ccakit.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](ccakit, seed)
    elapsed = time.perf_counter() - start
    scale = REF_NOMINAL_S / ((ref_before + reference_seconds()) / 2)
    return elapsed * scale, wl


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter running this file."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(wl: Any, seconds: float, tracer: Any = None, op_base: int = 0) -> Tally:
    """Run units until `seconds` of timed work is done and the workload is at
    a boundary; at least one unit runs.  Exceptions and failed checks are
    counted, not raised."""
    tally = Tally()
    with SpeedGauge(tracer) as gauge:
        while tally.ops == 0 or tally.busy_s < seconds or not wl.at_boundary():
            _run_unit(wl, tally, gauge, tracer, op_base)
    return tally


def _run_unit(wl: Any, tally: Tally, gauge: SpeedGauge, tracer: Any, op_base: int) -> None:
    unit = wl.next_unit()
    error = None
    result = None
    first = len(gauge.ticks) - 1
    start = time.perf_counter()
    try:
        if tracer is None:
            result = unit.run()
        else:
            tracer.op_id = op_base + tally.ops
            result = tracer.span("op." + wl.name, unit.run)
    except Exception as exc:  # counted as a failed unit, the run goes on
        error = exc
    elapsed, scaled = gauge.timed(start, time.perf_counter(), first)
    tally.busy_s += elapsed
    tally.scaled_s += scaled
    tally.ops += unit.ops
    tally.latencies.extend([scaled / unit.ops] * unit.ops)
    if tracer is not None:
        tracer.enabled = False
    try:
        problems = [f"{type(error).__name__}: {error}"] if error else unit.check(result)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.enabled = True
    if problems:
        tally.failed += unit.ops
        tally.problems.extend(problems)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.ops / tally.scaled_s, "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(tally.latencies, TAIL_PERCENTILE) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(wl: Any, seconds: float, workload: str, seed: int) -> tuple[Tally, dict]:
    import tracing

    plain = measure(wl, seconds / 2)
    tracer = tracing.Tracer()
    with tracer:
        traced = measure(wl, seconds / 2, tracer=tracer, op_base=plain.ops)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(str(spans_path))
    metrics = tracing.layer_metrics(tracer, traced.ops)
    plain_rate = plain.ops / plain.scaled_s
    traced_rate = traced.ops / traced.scaled_s
    metrics["trace.overhead_frac"] = (1 - traced_rate / plain_rate, "ratio")
    print(
        f"tracing overhead: {plain_rate:.3f} ops/s untraced, {traced_rate:.3f} ops/s "
        f"traced; {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    )
    total = Tally(
        ops=plain.ops + traced.ops,
        failed=plain.failed + traced.failed,
        busy_s=plain.busy_s + traced.busy_s,
        scaled_s=plain.scaled_s + traced.scaled_s,
        latencies=plain.latencies + traced.latencies,
        problems=plain.problems + traced.problems,
    )
    return total, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ccakit" / "__init__.py").is_file():
        print(f"error: no ccakit package under {SRC}", file=sys.stderr)
        return 2
    setup_s, wl = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]
    if args.trace:
        tally, metrics = traced_run(wl, args.seconds, args.workload, args.seed)
    else:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        tally = measure(wl, args.seconds)
        metrics = end_to_end(tally, statistics.median(setup_samples))

    beyond = len(tally.latencies) - math.ceil(TAIL_PERCENTILE / 100 * len(tally.latencies))
    print(
        f"{args.workload} seed {args.seed}: {tally.ops} ops in {tally.busy_s:.2f} s of timed "
        f"calls ({tally.ops / tally.busy_s:.4g} ops/s unscaled, {tally.busy_s / tally.scaled_s:.3f}"
        f" wall time per reference time), failed {tally.failed} (failed_frac {tally.failed / tally.ops:.4g})"
    )
    print(
        f"latency samples {len(tally.latencies)}; tail is p{TAIL_PERCENTILE} with "
        f"{beyond} samples beyond it; set-up samples "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
    )
    for line in wl.describe():
        print(line)
    for problem in tally.problems[:20]:
        print("check failed:", problem, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.ops,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
