#!/usr/bin/env python3
"""Fleet capacity benchmark: how many sessions fit on one daemon core.

Mosh answers one user on one link; a fleet daemon answers thousands,
almost all of them idle at any instant. This bench composes the
simulator, the persona trace generator, and :class:`InProcessDaemon`
into a capacity model:

* **Heterogeneous fleet** — each client rides its own access link drawn
  from an EV-DO / LTE / wifi mix (per-address link profiles in
  :class:`~repro.simnet.host.SimNetwork`).
* **Flash-crowd arrival** — sessions spawn in waves; wall cost per
  spawn is measured.
* **Active slice** — a configurable fraction of the fleet types
  persona-trace keystrokes; the fleet-wide p50/p95/p99 keystroke echo
  latency is the service-level objective.
* **Detach + idle ladder** — every client "closes the laptop"
  (pump suspended, address unregistered). The daemon-side wall cost of
  holding the detached fleet (timer wheel, idle parking, O(active)
  reaping) is metered over a long idle window at several fleet sizes.
* **Mass-reconnect storm** — every client comes back in the same
  millisecond and types; the bench asserts every session wakes and
  meters the absorb cost.
* **SLO health monitor** — the bundled
  :func:`~repro.obs.default_fleet_ruleset` runs on a 1 s evaluation
  timer throughout. The bench asserts the monitor reports ``ok`` through
  the flash-crowd arrival and the active slice, and that the
  ``mass_wake`` burn-rate rule flags the reconnect storm (the
  dormant-wake spike that separates a storm from a flash crowd of fresh
  sessions).

The capacity model divides one core-second by the per-idle-session cost
slope: ``idle_sessions_per_core = 1e6 µs / slope(µs per session per
second)``. The pre-parking daemon (heap-only timers, no parking, a
periodic full-record reaper scan) no longer exists in the tree; its
slope is frozen in the ``frozen_legacy`` block of the committed
``BENCH_fleet.json``, which names the commit it was measured on.
``--check`` gates the ratio against that block (this build must hold
≥ REPRO_BENCH_FLEET_RATIO_MIN × more idle sessions per core, default 4)
and the active-slice SLO.

Daemon-side cost is metered by wrapping exactly the daemon's entry
points — mux dispatch, server pump kicks, and session deadline fires —
with a reentrancy-guarded wall-clock accumulator, so client-side
simulation work does not pollute the daemon's bill.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.obs import HealthMonitor, default_fleet_ruleset  # noqa: E402
from repro.obs.registry import Histogram  # noqa: E402
from repro.session.inprocess import InProcessDaemon  # noqa: E402
from repro.simnet.link import LinkConfig  # noqa: E402
from repro.traces import generate_all_personas  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(ROOT, "BENCH_fleet.json")

#: Fleet-wide p95 keystroke-echo SLO (ms). The slowest profile is EV-DO
#: at ~230 ms RTT; add the server's collection interval (≈ RTT/2), the
#: deferred echo-ack, and jitter tails, and a healthy daemon lands p95
#: around 450 ms — the SLO asserts it stays sub-600 ms (interactive on
#: the paper's worst network) no matter how large the fleet grows.
SLO_P95_MS = float(os.environ.get("REPRO_BENCH_FLEET_SLO_P95_MS", "600"))

#: ``--check`` floor on idle sessions/core (this build ÷ frozen legacy).
RATIO_MIN = float(os.environ.get("REPRO_BENCH_FLEET_RATIO_MIN", "4"))

#: Access-link mix: (uplink, downlink, weight). Delays are one-way;
#: bandwidths are loose models of each technology's interactive envelope.
LINK_PROFILES = {
    "wifi": (
        LinkConfig(delay_ms=5.0),
        LinkConfig(delay_ms=5.0),
        5,
    ),
    "lte": (
        LinkConfig(delay_ms=40.0, jitter_ms=5.0),
        LinkConfig(delay_ms=40.0, jitter_ms=5.0),
        3,
    ),
    "evdo": (
        LinkConfig(delay_ms=110.0, jitter_ms=15.0, loss=0.005),
        LinkConfig(delay_ms=110.0, jitter_ms=15.0, loss=0.005),
        2,
    ),
}


def frozen_legacy(path: str = RESULTS_PATH) -> dict:
    """The pre-parking daemon's frozen idle-cost block (empty if absent)."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get("frozen_legacy", {})


def idle_capacity_ratio(capacity: dict, legacy: dict) -> float:
    """How many times more idle sessions per core than the frozen legacy."""
    slope = capacity.get("slope_us_per_idle_session_s", 0.0)
    legacy_slope = legacy.get("slope_us_per_idle_session_s", 0.0)
    return round(legacy_slope / slope, 1) if slope else 0.0


class DaemonCostMeter:
    """Wall-clock accumulator wrapped around the daemon's entry points.

    Reentrancy-guarded: a dispatch that synchronously kicks a pump bills
    once, at the outermost wrapped frame.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self._depth = 0

    def wrap(self, obj, attr: str) -> None:
        inner = getattr(obj, attr)
        meter = self

        def timed(*args, **kwargs):
            if meter._depth:
                return inner(*args, **kwargs)
            meter._depth = 1
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                meter.wall_s += time.perf_counter() - t0
                meter._depth = 0

        setattr(obj, attr, timed)

    def take(self) -> float:
        """Read and reset the accumulated wall seconds."""
        wall, self.wall_s = self.wall_s, 0.0
        return wall


def _profile_for(index: int) -> str:
    """Deterministic weighted profile assignment by session index."""
    names = []
    for name, (_, _, weight) in LINK_PROFILES.items():
        names.extend([name] * weight)
    return names[index % len(names)]


def _build_fleet(sessions: int, waves: int = 8):
    """Stand a fleet up: daemon, heterogeneous links, metered entry points.

    Returns ``(daemon, meter, spawn_stats)``; spawn happens flash-crowd
    style in ``waves`` bursts with a little simulated time between them.
    """
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=5.0),
        LinkConfig(delay_ms=5.0),
        sessions=0,
        width=20,
        height=6,
        seed=7,
        flight_capacity=64,  # budget-capped rings: forensics stay bounded
    )
    monitor = HealthMonitor(
        daemon.reactor.registry,
        default_fleet_ruleset(SLO_P95_MS),
        clock=daemon.loop.now,
    )
    monitor.attach(daemon.reactor)
    meter = DaemonCostMeter()
    meter.wrap(daemon.port, "handler")           # mux dispatch
    meter.wrap(daemon.manager, "_session_deadline")
    spawn_wall = 0.0
    wave_size = max(1, sessions // waves)
    spawned = 0
    while spawned < sessions:
        count = min(wave_size, sessions - spawned)
        t0 = time.perf_counter()
        for _ in range(count):
            record, client = daemon.add_session()
            profile = _profile_for(record.conn_id)
            up, down, _ = LINK_PROFILES[profile]
            daemon.network.add_addr_profile(
                client.transport.endpoint.local_addr, up, down
            )
            meter.wrap(record.core.pump, "kick")  # server-side cost only
        spawn_wall += time.perf_counter() - t0
        spawned += count
        daemon.run_for(50.0)  # arrival wave spacing
    spawn_stats = {
        "spawn_us_per_session": round(spawn_wall * 1e6 / max(1, sessions), 1),
        "waves": waves,
    }
    return daemon, meter, spawn_stats, monitor


def _drive_active_slice(daemon, active_ids, duration_ms: float, scale: float):
    """Schedule persona-trace keystrokes onto the active sessions."""
    traces = generate_all_personas(seed=11, scale=max(scale, 0.05))
    for slot, cid in enumerate(active_ids):
        trace = traces[slot % len(traces)]
        client = daemon.client(cid)
        at = 20.0 * (slot % 50)  # stagger starts so bursts interleave
        for step in trace.steps:
            at += min(step.think_ms, 1500.0)
            if at >= duration_ms:
                break
            daemon.loop.schedule(
                at, lambda c=client, k=step.keys: c.type_bytes(k)
            )
    daemon.run_for(duration_ms)


def _pooled_echo_quantiles(daemon, active_ids):
    """Pool the active sessions' keystroke histograms (public merge API)."""
    pooled = daemon.reactor.registry.pool_histograms(
        (f"keystroke.c{cid}.echo_ms" for cid in active_ids),
        name="fleet.echo_ms",
    )
    if pooled is None:  # nobody typed: an empty histogram
        pooled = Histogram("fleet.echo_ms", unit="ms")
    return pooled


def _detach_fleet(daemon):
    """Every client closes its laptop: pump suspended, address gone."""
    for cid, client in daemon.clients.items():
        endpoint = client.transport.endpoint
        daemon.network.unregister(endpoint.local_addr)
        client.pump.suspend()


def _reconnect_storm(daemon, meter):
    """All clients return in the same millisecond and type one key."""
    t0_sim = daemon.loop.now()
    for cid, client in daemon.clients.items():
        endpoint = client.transport.endpoint
        daemon.network.register(endpoint.local_addr, endpoint)
    wall0 = time.perf_counter()
    meter.take()
    for client in daemon.clients.values():
        client.type_bytes(b".")
    # Wide enough for a lossy EV-DO client to retransmit its wake-up
    # keystroke at least once.
    daemon.run_for(6000.0)
    wall = time.perf_counter() - wall0
    woken = sum(
        1
        for record in daemon.manager.records()
        if record.endpoint.last_heard is not None
        and record.endpoint.last_heard >= t0_sim
    )
    return {
        "sessions": len(daemon.clients),
        "woken": woken,
        "wall_s": round(wall, 3),
        "daemon_wall_s": round(meter.take(), 3),
    }


def run_fleet(sessions: int, active_fraction: float, quick: bool) -> dict:
    """One complete fleet scenario at one size."""
    daemon, meter, spawn_stats, monitor = _build_fleet(sessions)
    wall0 = time.perf_counter()
    daemon.connect(warmup_ms=2500.0)
    connect_wall = time.perf_counter() - wall0
    level_after_connect = monitor.level

    active_count = max(1, int(sessions * active_fraction))
    # Deterministic sample, NOT a fixed stride: a stride that shares a
    # factor with the 10-slot profile pattern would draw the whole
    # active slice from one link class and quietly measure the SLO on
    # the fastest profile only.
    active_ids = sorted(
        random.Random(13).sample(daemon.conn_ids, active_count)
    )
    active_ms = 4000.0 if quick else 8000.0
    meter.take()
    _drive_active_slice(daemon, active_ids, active_ms, 0.02 if quick else 0.05)
    active_wall = meter.take()
    pooled = _pooled_echo_quantiles(daemon, active_ids)
    level_after_active = monitor.level

    # Idle ladder: detach everyone, let the servers cross the dormancy
    # threshold, then meter a long quiet window.
    _detach_fleet(daemon)
    daemon.run_for(15_000.0)  # settle past DORMANT_AFTER_MS
    idle_window_ms = 20_000.0 if quick else 40_000.0
    meter.take()
    daemon.run_for(idle_window_ms)
    idle_wall = meter.take()
    idle_cost = idle_wall * 1e6 / sessions / (idle_window_ms / 1000.0)

    gauges = daemon.metrics_snapshot()["gauges"]
    parked = gauges.get("daemon.sessions_parked", 0.0)

    alert_seq_before_storm = monitor.alert_seq
    storm = _reconnect_storm(daemon, meter)
    storm_alerts = monitor.alerts_since(alert_seq_before_storm)
    health = {
        "level_after_connect": level_after_connect,
        "level_after_active": level_after_active,
        "storm_mass_wake_flagged": any(
            a["rule"] == "mass_wake" and a["to"] != "ok"
            for a in storm_alerts
        ),
        "storm_alert_rules": sorted(
            {a["rule"] for a in storm_alerts if a["to"] != "ok"}
        ),
        "alerts_total": monitor.alert_seq,
    }

    return {
        "sessions": sessions,
        "active": len(active_ids),
        "connect_wall_s": round(connect_wall, 3),
        "active_wall_s": round(active_wall, 3),
        "echo_count": pooled.count,
        "echo_p50_ms": round(pooled.p50, 1),
        "echo_p95_ms": round(pooled.p95, 1),
        "echo_p99_ms": round(pooled.p99, 1),
        "idle_cost_us_per_session_s": round(idle_cost, 3),
        "sessions_parked_idle": parked,
        "flight_capacity_total": gauges.get("daemon.flight.capacity_total"),
        "reconnect_storm": storm,
        "health": health,
        **spawn_stats,
    }


def _fit_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of total idle µs/s vs session count."""
    n = len(points)
    if n < 2:
        return points[0][1] / points[0][0] if points else 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den if den else 0.0


def run_benchmarks(quick: bool = False) -> dict:
    sizes = [64, 256] if quick else [1000, 4000, 10000]
    active_fraction = 0.05 if quick else 0.02
    fleets = []
    for sessions in sizes:
        print(f"  fleet: {sessions} sessions…", file=sys.stderr, flush=True)
        fleets.append(run_fleet(sessions, active_fraction, quick))

    # Per-idle-session µs per second of service, from the cost-vs-count
    # slope (robust to any fixed per-daemon overhead). Floored so a
    # too-fast-to-measure build reports a finite capacity.
    points = [
        (f["sessions"], f["idle_cost_us_per_session_s"] * f["sessions"])
        for f in fleets
    ]
    slope = max(_fit_slope(points), 0.05)
    legacy = frozen_legacy()
    capacity = {
        "slope_us_per_idle_session_s": round(slope, 3),
        "idle_sessions_per_core": int(1e6 / slope),
        "active_p95_ms_largest": fleets[-1]["echo_p95_ms"],
        "slo_p95_ms": SLO_P95_MS,
        "slo_met": all(f["echo_p95_ms"] <= SLO_P95_MS for f in fleets),
    }
    capacity["idle_capacity_ratio"] = idle_capacity_ratio(capacity, legacy)
    return {
        "schema": 2,
        "quick": quick,
        "fleets": fleets,
        "capacity": capacity,
        "frozen_legacy": legacy,
    }


def check(doc: dict) -> int:
    """Gate a results document; returns a process exit status."""
    failures = []
    capacity = doc.get("capacity", {})
    legacy = doc.get("frozen_legacy", {})
    ratio = idle_capacity_ratio(capacity, legacy)
    if ratio < RATIO_MIN:
        failures.append(
            f"idle capacity ratio {ratio:g}x < required {RATIO_MIN:g}x "
            f"(must hold ≥4x more idle sessions per core than the legacy "
            f"daemon frozen at {legacy.get('commit', '?')})"
        )
    if not capacity.get("slo_met"):
        failures.append(
            f"active-slice p95 keystroke echo missed the "
            f"{capacity.get('slo_p95_ms', SLO_P95_MS):g} ms SLO"
        )
    for fleet in doc.get("fleets", []):
        size = fleet["sessions"]
        storm = fleet.get("reconnect_storm", {})
        if storm.get("woken") != storm.get("sessions"):
            failures.append(
                f"{size}: reconnect storm woke "
                f"{storm.get('woken')} of {storm.get('sessions')} sessions"
            )
        if fleet.get("sessions_parked_idle") != float(size):
            failures.append(
                f"{size}: only {fleet.get('sessions_parked_idle')} sessions "
                "parked while fully detached"
            )
        health = fleet.get("health") or {}
        for phase in ("level_after_connect", "level_after_active"):
            if health.get(phase) != "ok":
                failures.append(
                    f"{size}: health {health.get(phase)!r} (not ok) at {phase}"
                )
        if not health.get("storm_mass_wake_flagged"):
            failures.append(
                f"{size}: mass_wake rule did not flag the reconnect storm"
            )
    if failures:
        print("fleet benchmark check FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"fleet check passed: {capacity.get('idle_sessions_per_core'):,} "
        f"idle sessions/core ({ratio:g}x the frozen legacy), p95 echo "
        f"{capacity.get('active_p95_ms_largest'):g} ms within "
        f"{capacity.get('slo_p95_ms'):g} ms SLO"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument(
        "--out", default=None, help="write results here instead of the repo file"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate this run (capacity ratio, SLO, storm wake) for CI",
    )
    args = parser.parse_args(argv)
    doc = run_benchmarks(quick=args.quick)
    out_path = args.out or RESULTS_PATH
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    if args.check:
        return check(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
