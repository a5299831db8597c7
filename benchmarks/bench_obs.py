"""Observability microbenchmarks: the cost of being watched.

The metrics registry and span tracer are *always on* in the reactor
runtime, so their per-event cost is itself a hot-path number worth
tracking. This suite times the individual instruments (counter bump,
histogram record, span enter/exit) and — more importantly — measures the
end-to-end overhead of the whole observability layer by running the same
deterministic workloads with instrumentation enabled and disabled
(:func:`repro.obs.set_enabled`) in interleaved on/off pairs, reporting
the median per-pair overhead in percent with its quartiles.

``*_overhead_pct`` scenarios are a different kind of number from the
µs/op scenarios: ``tools/bench.py --check`` exempts them from the
regression-ratio gate and instead asserts each stays at or below the
acceptance bound (5 % by default, ``REPRO_BENCH_OVERHEAD_LIMIT_PCT`` to
override on noisy hosts).

The suite also reports the seal/unseal latency *histograms* a sealing
session accumulates, so ``BENCH_hotpath.json`` carries p50/p99
percentiles alongside the per-op means.

Run via the CLI runner::

    python tools/bench.py            # full run, updates BENCH_hotpath.json
    python tools/bench.py --quick    # CI smoke run
"""

from __future__ import annotations

import gc
import json
import sys
import time
from statistics import median, quantiles

from repro.crypto.keys import DIRECTION_TO_SERVER, Base64Key, Nonce
from repro.crypto.session import Message, Session
from repro.obs.flight import DIR_C2S, FlightRecorder
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    SnapshotDelta,
    set_enabled,
)
from repro.obs.telemetry import FEED_INTERVAL_MS
from repro.obs.trace import SpanTracer
from repro.prediction.engine import DisplayPreference
from repro.session.inprocess import InProcessSession
from repro.simnet.link import LinkConfig

#: (full iterations, quick iterations) per micro scenario.
_SCALE = {"full": (20_000, 2_000), "quick": (4_000, 500)}

_KEY = bytes(range(16))
_PAYLOAD = bytes((7 * i + 13) & 0xFF for i in range(500))


def _best_of(fn, iters: int, repeats: int = 3) -> float:
    """Best per-op seconds over ``repeats`` timed batches of ``iters``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


# ----------------------------------------------------------------------
# Instrument micro-costs (µs/op)
# ----------------------------------------------------------------------


def bench_obs_counter_inc(iters: int) -> float:
    counter = MetricsRegistry().counter("bench.counter")
    return _best_of(lambda: counter.inc(), iters)


def bench_obs_hist_record(iters: int) -> float:
    hist = Histogram("bench.hist")
    values = [0.3, 1.7, 12.0, 85.0, 430.0]
    n = len(values)
    state = [0]

    def op() -> None:
        state[0] = (state[0] + 1) % n
        hist.record(values[state[0]])

    return _best_of(op, iters)


def bench_obs_flight_note(iters: int) -> float:
    """µs to record one send event into a (wrapping) flight-recorder ring."""
    recorder = FlightRecorder("bench", capacity=4096)
    # (old, new, ack, tw, frag_id, frag_idx, final, dlen)
    meta = (3, 4, 2, 1, 7, 0, True, 120)
    state = [0]

    def op() -> None:
        state[0] += 1
        recorder.note_send(float(state[0]), DIR_C2S, state[0], 180,
                           state[0] & 0xFFFF, 0, meta)

    return _best_of(op, iters)


def bench_obs_span(iters: int) -> float:
    clock = [0.0]

    def now() -> float:
        clock[0] += 0.01
        return clock[0]

    tracer = SpanTracer(now)

    def op() -> None:
        with tracer.span("bench"):
            pass

    return _best_of(op, iters)


# ----------------------------------------------------------------------
# End-to-end overhead (percent, measured A/B via set_enabled)
# ----------------------------------------------------------------------


class _DetachedCausal:
    """Stands in for a detached causal tracer: the core's hooks no-op."""

    def on_stamp(self, index: int, now: float) -> None:
        pass

    def on_frame(self, now: float, settled: list, rx=None) -> None:
        pass


def _typing_session_walltime(flight: bool = True, causal: bool = True) -> float:
    """Wall seconds to type 60 echoed keystrokes through a simulation.

    ``flight=False`` detaches the wire-level flight recorders (and the
    link observers feeding them), isolating their cost for the dedicated
    overhead scenario; ``causal=False`` detaches the client's
    :class:`~repro.obs.causal.CausalTracer` from its endpoint and core,
    isolating the per-keystroke stage-attribution cost the same way.
    """
    session = InProcessSession(
        LinkConfig(delay_ms=20.0),
        LinkConfig(delay_ms=20.0),
        seed=0,
        preference=DisplayPreference.ALWAYS,
    )
    if not flight:
        session.client_endpoint.flight = None
        session.server_endpoint.flight = None
        session.network.uplink.observer = None
        session.network.downlink.observer = None
    if not causal:
        session.client_endpoint.causal = None
        session.client.causal = _DetachedCausal()
    session.server.on_input = lambda data: session.server.host_write(data)
    session.connect(warmup_ms=500.0)
    # Session construction just allocated heavily; collect now, then
    # hold the collector off so a gen-0 pass can't land inside one
    # arm's timed region and masquerade as instrumentation overhead.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(60):
            session.client.type_bytes(b"q" if i % 30 else b"\r")
            session.run_for(40.0)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _typing_telemetry_walltime(feed: bool) -> float:
    """Wall seconds for the typing workload with a live delta feed riding.

    ``feed=True`` primes a :class:`SnapshotDelta` against the session's
    registry and, on the telemetry server's default feed cadence,
    collects the changed-set and JSON-encodes it to a null sink —
    exactly the per-subscriber work one ``watch`` client costs a
    daemon, minus the socket write.
    """
    session = InProcessSession(
        LinkConfig(delay_ms=20.0),
        LinkConfig(delay_ms=20.0),
        seed=0,
        preference=DisplayPreference.ALWAYS,
    )
    session.server.on_input = lambda data: session.server.host_write(data)
    session.connect(warmup_ms=500.0)
    if feed:
        delta = SnapshotDelta(session.reactor.registry)
        delta.prime()

        def collect() -> None:
            doc = delta.collect()
            if doc is not None:
                json.dumps(doc, separators=(",", ":"))
            session.reactor.call_later(FEED_INTERVAL_MS, collect)

        session.reactor.call_later(FEED_INTERVAL_MS, collect)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(60):
            session.client.type_bytes(b"q" if i % 30 else b"\r")
            session.run_for(40.0)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _seal_walltime(iters: int) -> float:
    """Wall seconds to seal+unseal ``iters`` datagrams through a Session."""
    session = Session(Base64Key(_KEY))
    t0 = time.perf_counter()
    for seq in range(1, iters + 1):
        message = Message(Nonce(DIRECTION_TO_SERVER, seq), _PAYLOAD)
        session.decrypt(session.encrypt(message))
    return time.perf_counter() - t0


def _paired_overhead_pct(run_arm, repeats: int) -> tuple[float, float, float]:
    """Overhead percent from interleaved paired A/B runs.

    ``run_arm(True)`` times one instrumented workload run,
    ``run_arm(False)`` one uninstrumented run. Pairs run back-to-back
    with the leading arm swapped every repeat, so sustained contention
    slows both runs of a pair together and cancels in their ratio.
    Returns the median of the per-pair ``on/off - 1`` ratios and their
    lower and upper quartiles, all in percent. Negative pairs are kept:
    host noise pushes a ratio either way, and dropping or clamping the
    low side would bias the estimate upward or hide the spread.
    """
    ratios: list[float] = []
    run_arm(True)  # untimed warmup: the first run eats cold-start costs
    for i in range(repeats):
        first_on = i % 2 == 0
        a = run_arm(first_on)
        b = run_arm(not first_on)
        on_t, off_t = (a, b) if first_on else (b, a)
        ratios.append((on_t / off_t - 1.0) * 100.0)
    q1, _, q3 = quantiles(ratios, n=4, method="inclusive")
    return round(median(ratios), 2), round(q1, 2), round(q3, 2)


def _switched_arm(workload):
    """An arm runner toggling the global observability switch."""

    def run(on: bool) -> float:
        set_enabled(on)
        try:
            return workload()
        finally:
            set_enabled(True)

    return run


def bench_e2e_typing_overhead_pct(quick: bool) -> tuple[float, float, float]:
    # The typing workload is ~65 ms of wall time; single-run noise on a
    # shared host dwarfs the few-percent signal, hence the paired
    # estimator and several repeats.
    return _paired_overhead_pct(
        _switched_arm(_typing_session_walltime), repeats=6 if quick else 8
    )


def bench_seal_overhead_pct(quick: bool) -> tuple[float, float, float]:
    iters = 150 if quick else 600
    return _paired_overhead_pct(
        _switched_arm(lambda: _seal_walltime(iters)), repeats=2 if quick else 4
    )


def bench_telemetry_overhead_pct(quick: bool) -> tuple[float, float, float]:
    """Percent added by one live telemetry subscriber, instrumentation on.

    Both arms run fully instrumented; the A arm additionally drives a
    primed delta feed at 10 Hz (collect + JSON encode), so the difference
    is the telemetry plane's marginal cost — the number the ≤5 % obs
    acceptance gate holds.
    """
    set_enabled(True)
    return _paired_overhead_pct(
        lambda on: _typing_telemetry_walltime(feed=on),
        repeats=6 if quick else 8,
    )


def bench_flight_overhead_pct(quick: bool) -> tuple[float, float, float]:
    """Percent added by the flight recorders alone, instrumentation on.

    Both arms run with the observability switch enabled; the B arm
    detaches the recorders and link observers, so the difference is
    purely the per-datagram event recording.
    """
    set_enabled(True)
    return _paired_overhead_pct(
        lambda on: _typing_session_walltime(flight=on), repeats=6 if quick else 8
    )


def bench_causal_overhead_pct(quick: bool) -> tuple[float, float, float]:
    """Percent added by per-keystroke causal tracing, instrumentation on.

    Both arms run with the observability switch enabled; the B arm
    detaches the client's causal tracer, so the difference is
    purely the stamp/send/recv/settle bookkeeping plus the seven stage
    histogram records per settled keystroke.
    """
    set_enabled(True)
    return _paired_overhead_pct(
        lambda on: _typing_session_walltime(causal=on), repeats=6 if quick else 8
    )


# ----------------------------------------------------------------------
# Seal/unseal latency distributions
# ----------------------------------------------------------------------


def seal_histograms(quick: bool) -> dict[str, dict]:
    """p50/p99 of per-datagram seal/unseal, from the live histograms."""
    session = Session(Base64Key(_KEY))
    iters = 100 if quick else 400
    for seq in range(1, iters + 1):
        message = Message(Nonce(DIRECTION_TO_SERVER, seq), _PAYLOAD)
        session.decrypt(session.encrypt(message))
    out = {}
    for name, hist in (
        ("session_seal_us", session.stats.seal_us),
        ("session_unseal_us", session.stats.unseal_us),
    ):
        out[name] = {
            "unit": hist.unit,
            "count": hist.count,
            "p50": round(hist.p50, 2),
            "p99": round(hist.p99, 2),
        }
    return out


# ----------------------------------------------------------------------
# Harness entry point
# ----------------------------------------------------------------------

SCENARIOS = {
    "obs_counter_inc": bench_obs_counter_inc,
    "obs_hist_record": bench_obs_hist_record,
    "obs_flight_note": bench_obs_flight_note,
    "obs_span": bench_obs_span,
}

OVERHEAD_SCENARIOS = {
    "e2e_typing_overhead_pct": bench_e2e_typing_overhead_pct,
    "seal_overhead_pct": bench_seal_overhead_pct,
    "flight_overhead_pct": bench_flight_overhead_pct,
    "telemetry_overhead_pct": bench_telemetry_overhead_pct,
    "causal_overhead_pct": bench_causal_overhead_pct,
}


def run_benchmarks(quick: bool = False, verbose: bool = True) -> dict:
    """Run every scenario; returns {"ops", "overhead_quartiles",
    "histograms", "quick"}."""
    iters_full, iters_quick = _SCALE["full"] if not quick else _SCALE["quick"]
    iters = iters_quick if quick else iters_full
    del iters_full, iters_quick
    ops: dict[str, float] = {}
    for name, fn in SCENARIOS.items():
        seconds = fn(iters)
        ops[name] = round(seconds * 1e6, 3)  # µs per op
        if verbose:
            print(f"  {name:<24} {ops[name]:>12.2f} µs/op", file=sys.stderr)
    spread: dict[str, list[float]] = {}
    for name, fn in OVERHEAD_SCENARIOS.items():
        ops[name], q1, q3 = fn(quick)
        spread[name] = [q1, q3]
        if verbose:
            print(
                f"  {name:<24} {ops[name]:>12.2f} % (quartiles {q1:.2f}..{q3:.2f})",
                file=sys.stderr,
            )
    return {
        "quick": quick,
        "ops": ops,
        "overhead_quartiles": spread,
        "histograms": seal_histograms(quick),
    }


if __name__ == "__main__":
    import json

    print(json.dumps(run_benchmarks("--quick" in sys.argv), indent=2))
