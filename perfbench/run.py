#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload typing --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The workloads (``typing``, ``flood``, ``fleet``) are described in
``workloads.py``. A run builds the workload's inputs from ``--seed``, then
replays them in passes, each in a freshly built simulated world, until the
next pass would overrun ``--seconds`` of wall time (at least one pass).

The run re-executes itself with ``PYTHONHASHSEED`` derived from the seed,
because the persona trace generator seeds itself from ``hash()``.

Simulated-time metrics (latency, wire bytes) measure the protocol and
repeat exactly for a seed; every pass must reproduce the first one, which
the run checks. Throughput measures the program's CPU cost: the simulator
advances only as fast as the program computes. Latency quantiles come
from the raw per-event samples, never from histogram buckets.

With ``--trace 0`` the final JSON line carries the end-to-end metrics:

* ``setup_s`` — median over passes of the wall time from constructing the
  world until every session is connected (inputs are built beforehand),
  normalised like ``ops_per_s``.
* ``ops_per_s`` — median over passes of work per wall second after
  set-up: keystrokes (typing, fleet) or KB of host output (flood),
  normalised to a reference host by a calibration loop timed every 50 ms
  during the pass (``HostSpeed``, ``CALIBRATION_REF``).
* ``latency_p85_ms`` — simulated keystroke echo latency (0 when a
  prediction displays at typing time, else until the first frame carrying
  the echo arrives) on typing and fleet; the protocol-induced delay of
  each host write (the paper's Figure 3) on flood. The p85 is the
  quantile that lies inside one mode of every workload's distribution
  for every seed: 68-76 % of typing echoes are predicted (so its median
  is 0), and the fleet's wifi echoes end between its p88 and p95, where
  its p90-p99 jump to the next link class from seed to seed. p50, p90,
  p95 and p99 are printed with their sample counts.
* ``wire_bytes_per_op`` — bytes both endpoints put on the wire per
  keystroke or per KB of host output.
* ``peak_rss_mb`` — the process's peak resident set.

With ``--trace 1`` the run alternates untraced and traced passes; traced
passes time the layers from outside (``layers.py``) and the JSON line
carries the per-layer metrics, per traced pass. Spans are written to
``.perfbench/trace-<workload>-<seed>.json`` in Chrome ``trace_event`` form.

Every metric is also printed above the JSON line as ``name value unit``,
together with the workload-specific names (``echo_p50_ms``,
``write_delay_p99_ms``, ``instant_pct``, ...), sample counts and the input
digest. A run whose outputs fail a check prints the failures, reports no
metrics and exits with status 1.

The benchmark's own test runs every workload twice at a tiny scale:
``python3 -m pytest perfbench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Calibration loop score (million iterations/s) of the reference host;
#: throughput is reported as if measured on a host with this score.
CALIBRATION_REF = 1.5
_CALIBRATION_ITERS = 1_000
_CALIBRATION_INTERVAL_S = 0.05

#: A child run that outlives this is killed.
CHILD_TIMEOUT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("typing", "flood", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the self-test uses this)")
    parser.add_argument("--details", default=None,
                        help="also write every measurement as JSON here")
    return parser.parse_args(argv)


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a workload process runs under."""
    return str(seed % 4_294_967_295 + 1)


def relaunch(argv, seed: int) -> int:
    """Run this script again under the seed's hash seed; wait for it."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed(seed))
    # Turn SIGTERM into an exit so the child is reaped below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv], env=env, cwd=ROOT
    )
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()


class _Cell:
    __slots__ = ("index", "text", "pair")

    def __init__(self, index: int, text: bytes, pair: tuple) -> None:
        self.index = index
        self.text = text
        self.pair = pair


_CALIBRATION_TEXT = b"abcdefghijklmnopqrstuvwxyz0123456789"


def calibration_loop(table: dict) -> float:
    """Score of a fixed pure-Python loop: million iterations/s.

    Like the program, the loop allocates small objects, slices and joins
    bytes and works a 4096-entry dict. On a shared host this tracks the
    program's slow spells about twice as closely as an integer-only loop.
    """
    t0 = time.perf_counter()
    kept = []
    text = _CALIBRATION_TEXT
    for i in range(_CALIBRATION_ITERS):
        cell = _Cell(i, text[i % 20:i % 20 + 8], (i, i + 1))
        table[i & 4095] = cell
        other = table.get((i * 7) & 4095)
        if other is not None:
            kept.append(other.text + cell.text)
        if len(kept) > 64:
            kept.clear()
    return _CALIBRATION_ITERS / (time.perf_counter() - t0) / 1e6


class HostSpeed:
    """Times the calibration loop every ``interval`` wall seconds while a
    pass runs (from a ``SIGALRM`` handler), so the score tracks slow spells
    of a shared host inside the pass rather than only around it.

    Samples are evenly spaced in wall time, so their mean is the host's
    average speed over the pass: the normaliser for a per-wall-second rate.
    The loop costs 1-2 % of an untraced pass; traced passes do not sample,
    so ``trace_overhead_pct`` reads that much low.
    """

    def __init__(self, interval: float = _CALIBRATION_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._table: dict = {}

    def __enter__(self) -> "HostSpeed":
        self.samples.append(calibration_loop(self._table))
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibration_loop(self._table))

    @property
    def score(self) -> float:
        return statistics.fmean(self.samples)


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of sorted samples (always a real sample)."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(ordered: list[float], q: float) -> int:
    """How many samples lie above the nearest-rank quantile position."""
    return len(ordered) - max(1, math.ceil(q * len(ordered)))


class Pass:
    """One pass's result with the wall-clock context it ran in."""

    def __init__(self, result, calibration: float, wall_s: float, layers=None):
        self.result = result
        self.calibration = calibration
        self.wall_s = wall_s
        #: (totals, counts) of the layer tracer, for traced passes.
        self.layers = layers

    @property
    def raw_rate(self) -> float:
        return self.result.ops / self.result.run_s

    @property
    def rate(self) -> float:
        return self.raw_rate * CALIBRATION_REF / self.calibration

    @property
    def setup_s(self) -> float:
        return self.result.setup_s * self.calibration / CALIBRATION_REF


def run_passes(workload, seconds: float, tracer):
    """Run passes until the next would overrun ``seconds``.

    With a tracer, passes alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    deadline = time.perf_counter() + seconds
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        gc.collect()
        if use_tracer:
            # No host sampling here: its time would land in the layers'.
            tracer.reset()
            tracer.install()
            t0 = time.perf_counter()
            try:
                result = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            wall = time.perf_counter() - t0
            layers = ({k: tuple(v) for k, v in tracer.totals.items()},
                      dict(tracer.counts))
            traced.append(Pass(result, plain[-1].calibration, wall, layers))
        else:
            with HostSpeed() as speed:
                t0 = time.perf_counter()
                result = workload.run_pass(None)
                wall = time.perf_counter() - t0
            plain.append(Pass(result, speed.score, wall))
        if tracer is not None and not traced:
            continue
        upcoming = traced if tracer is not None and len(traced) < len(plain) else plain
        if time.perf_counter() + upcoming[-1].wall_s > deadline:
            return plain, traced


def simulated_metrics(workload_name: str, first) -> tuple[dict, list[str]]:
    """Seed-determined metrics of a pass, plus human-readable lines."""
    ordered = sorted(first.latencies_ms)
    n = len(ordered)
    kind = "write_delay" if workload_name == "flood" else "echo"
    keys = max(1, first.keystrokes)
    sim = {"latency_samples": n}
    lines = []
    for pct in (50, 85, 90, 95, 99):
        value = quantile(ordered, pct / 100.0)
        sim[f"latency_p{pct}_ms"] = value
        sim[f"latency_p{pct}_beyond"] = beyond(ordered, pct / 100.0)
        lines.append(
            f"{kind}_p{pct}_ms {value:.4f} ms "
            f"(n={n}, {sim[f'latency_p{pct}_beyond']} beyond)"
        )
    sim.update({
        "instant_pct": 100.0 * first.instant / keys,
        "mispredict_pct": 100.0 * first.mispredicted / keys,
        "wire_bytes_per_op": first.wire_bytes / first.ops,
        "transport_instructions_sent": first.instructions_sent,
        "transport_useful_ratio": (
            first.states_created / first.instructions_received
            if first.instructions_received else 0.0
        ),
    })
    if workload_name != "flood":
        lines += [
            f"instant_pct {sim['instant_pct']:.4f} % (of {first.keystrokes} keystrokes)",
            f"mispredict_pct {sim['mispredict_pct']:.4f} %",
            f"wire_bytes_per_key {sim['wire_bytes_per_op']:.4f} B",
        ]
    else:
        lines.append(f"wire_bytes_per_kb {sim['wire_bytes_per_op']:.4f} B")
    return sim, lines


def layer_metrics(
    traced: list[Pass], plain: list[Pass], sim: dict
) -> tuple[dict, list[str]]:
    """Per-layer metrics, per traced pass, from the traced passes."""
    from layers import LAYERS

    n = len(traced)
    first_totals, first_counts = traced[0].layers
    metrics: dict[str, tuple[float, str]] = {}
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    self_sum = 0.0
    for layer in LAYERS:
        self_s = sum(p.layers[0][layer][1] for p in traced) / n / 1e9
        self_sum += self_s
        metrics[f"{layer}.calls"] = (first_totals[layer][0], "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name in ("crypto.seal.bytes", "crypto.unseal.bytes",
                 "crypto.unseal.failed", "terminal.emulate.bytes",
                 "terminal.apply.bytes", "terminal.diff.bytes"):
        metrics[name] = (first_counts.get(name, 0), "count")
    metrics["daemon.dispatch.calls"] = (
        first_counts.get("network.rx.dispatch_calls", 0), "count")
    flushes = (first_counts.get("network.tx.flushes", 0)
               + first_counts.get("network.rx.flushes", 0))
    flushed = (first_counts.get("network.tx.flushed", 0)
               + first_counts.get("network.rx.flushed", 0))
    metrics["network.datagrams_per_flush"] = (
        flushed / flushes if flushes else 0.0, "count")
    metrics["transport.instructions_sent"] = (
        sim["transport_instructions_sent"], "count")
    metrics["transport.useful_ratio"] = (sim["transport_useful_ratio"], "ratio")
    metrics["prediction.instant_pct"] = (sim["instant_pct"], "%")
    metrics["prediction.mispredict_pct"] = (sim["mispredict_pct"], "%")
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["untraced_s"] = (traced_wall - self_sum, "s")
    untraced_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace_overhead_pct"] = (
        100.0 * (statistics.median(p.wall_s for p in traced) / untraced_wall - 1.0),
        "%",
    )
    lines = [
        f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()
    ]
    lines.append("layer shares of traced wall time:")
    shares = sorted(
        ((metrics[f"{layer}.self_s"][0], layer) for layer in LAYERS),
        reverse=True,
    )
    lines += [
        f"  {layer:<18} {100.0 * self_s / traced_wall:6.2f} %"
        for self_s, layer in shares
    ]
    return metrics, lines


def check_repeats(plain: list[Pass], traced: list[Pass]) -> list[str]:
    """Every pass must reproduce the first pass's simulated results, and
    every traced pass the first one's layer call counts."""
    problems = []
    reference = plain[0].result.simulated()
    for i, p in enumerate(plain[1:] + traced, start=1):
        if p.result.simulated() != reference:
            problems.append(f"pass {i} simulated results differ from pass 0")
    for i, p in enumerate(traced[1:], start=1):
        if {k: v[0] for k, v in p.layers[0].items()} != {
            k: v[0] for k, v in traced[0].layers[0].items()
        }:
            problems.append(f"traced pass {i} layer call counts differ")
    return problems


def run(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    from layers import LayerTracer

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    tracer = LayerTracer() if args.trace else None
    plain, traced = run_passes(workload, args.seconds, tracer)

    first = plain[0].result
    all_passes = plain + traced
    attempted = sum(p.result.attempted for p in all_passes)
    failed = sum(p.result.failed for p in all_passes)
    problems = check_repeats(plain, traced)
    problems += sorted({msg for p in all_passes for msg in p.result.failures})
    sim, sim_lines = simulated_metrics(args.workload, first)
    if args.scale >= 1.0 and sim["latency_p99_beyond"] < 10:
        problems.append(
            f"latency p99 has only {sim['latency_p99_beyond']} samples beyond it"
        )

    rates = [p.rate for p in plain]
    raw_rates = [p.raw_rate for p in plain]
    end_to_end = {
        "setup_s": (statistics.median(p.setup_s for p in plain), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p85_ms": (sim["latency_p85_ms"], "ms"),
        "wire_bytes_per_op": (sim["wire_bytes_per_op"], "B"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    op = "keys" if args.workload != "flood" else "output_kb"
    print(f"workload {args.workload} seed {args.seed} input_digest {workload.digest}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"calibration {statistics.median(p.calibration for p in plain):.4f} Mit/s "
          f"(reference {CALIBRATION_REF})")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"{op}_per_s {statistics.median(raw_rates):.6g} 1/s (raw, this host)")
    print(f"{op}_per_s_normalised {statistics.median(rates):.6g} 1/s")
    for line in sim_lines:
        print(line)
    print(f"failed_pct {100.0 * failed / max(1, attempted):.4f} % "
          f"({failed} of {attempted})")

    layers = {}
    if traced:
        layers, layer_lines = layer_metrics(traced, plain, sim)
        for line in layer_lines:
            print(line)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        count = tracer.export_chrome(path, f"perfbench {args.workload}")
        print(f"wrote {count} spans to {os.path.relpath(path, ROOT)} "
              f"({tracer.spans_dropped} not kept)")

    if args.details:
        with open(args.details, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "input_digest": workload.digest, "simulated": sim,
                "end_to_end": end_to_end, "layers": layers,
                "passes": [
                    {"traced": p in traced, "wall_s": p.wall_s,
                     "setup_s": p.result.setup_s, "run_s": p.result.run_s,
                     "calibration": p.calibration, "raw_rate": p.raw_rate,
                     "rate": p.rate}
                    for p in all_passes
                ],
                "problems": problems,
            }, fh, indent=1)

    correct = not problems and failed == 0
    for problem in problems:
        print(f"FAILED: {problem}")
    chosen = layers if args.trace else end_to_end
    metrics = (
        {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
        if correct else {}
    )
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": max(failed, len(problems)),
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != hash_seed(args.seed):
        return relaunch(argv, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
