#!/usr/bin/env python3
"""Observability smoke run: a live session that proves the instruments work.

Runs a short scripted typing session through an in-process simulation
over a lossy link, then:

* writes the span ring as Chrome ``trace_event`` JSON (``--trace``),
* writes the ``repro.obs/1`` metrics snapshot (``--metrics``),
* validates the snapshot against the schema,
* exports both endpoints' ``repro.obs.flight/1`` recordings as JSONL,
  schema-validates them, merges them with the flight-log analyzer, and
  writes the merged report (``--flight-report``) after asserting every
  cross-endpoint invariant (fate partition, loss vs link counters, RTT
  bound), and
* asserts the acceptance checks the ISSUE demands of a live session —
  the per-keystroke echo-latency histogram carries p50/p95/p99 (its
  p50/p95 within 2 % of the exact quantiles of the traced per-keystroke
  ``client.echo`` latencies), the
  seal/unseal histograms counted real datagrams, and the keystroke
  lifecycle appears in the trace, and
* stands up a session daemon with 8 concurrent clients muxed on one
  simulated port and validates the per-session (labelled) metrics
  snapshot (``--daemon-metrics``), and
* drives a live 4-session daemon with per-keystroke causal tracing on:
  every client's stage partition must sum to its end-to-end echo
  latency, the fleet-pooled stage histograms must account for every
  settled keystroke, and each client's validated ``repro.obs.causal/1``
  report is written as an artifact (``--causal-json``), and
* exercises the live telemetry plane: a simulated daemon's delta feed
  must reassemble (via ``apply_delta``) into exactly the registry's
  final snapshot, the Prometheus exposition is written as an artifact
  (``--telemetry-prom``), a synthetic auth-failure burst must drive the
  health monitor through warn/critical and back with alert events
  (``--health-json``), and — on POSIX hosts — a real ``DaemonApp``
  serves its control socket to a client thread running ``scrape``,
  ``health``, and ``repro top --ticks 2`` end to end.

CI runs this every build and uploads the files as artifacts; exit
status is nonzero on any violated check, so the pipeline fails loudly
when instrumentation rots.

Usage::

    python tools/obs_smoke.py --trace trace.json --metrics metrics.json \
        --flight-client flight-client.jsonl \
        --flight-server flight-server.jsonl \
        --flight-report flight-report.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.flight import analyze, check as flight_check  # noqa: E402
from repro.obs import (  # noqa: E402
    HEALTH_SCHEMA,
    HealthMonitor,
    SnapshotDelta,
    apply_delta,
    default_fleet_ruleset,
    render_prometheus,
)
from repro.obs.flight import load_flight_log  # noqa: E402
from repro.obs.registry import (  # noqa: E402
    GRID_REL_ERROR,
    MetricsRegistry,
    validate_snapshot,
)
from repro.obs.telemetry import write_snapshot_atomic  # noqa: E402
from repro.session.inprocess import InProcessSession  # noqa: E402
from repro.simnet.link import LinkConfig  # noqa: E402


def run_session() -> InProcessSession:
    """Type a command, echoed by the server, over a lossy 80 ms-RTT path."""
    session = InProcessSession(
        LinkConfig(delay_ms=40.0, loss=0.1),
        LinkConfig(delay_ms=40.0, loss=0.1),
        seed=7,
    )
    session.server.on_input = lambda data: session.server.host_write(data)
    session.connect()
    for ch in b"echo observability works\n":
        session.client.type_bytes(bytes([ch]))
        session.run_for(160.0)
    session.run_for(3000.0)  # let retransmissions settle every keystroke
    return session


def check(session: InProcessSession, doc: dict) -> list[str]:
    """The live-session acceptance checks; returns failure messages."""
    failures: list[str] = []
    hists = doc["histograms"]

    ks = hists.get("keystroke.echo_ms")
    if ks is None or ks["count"] == 0:
        failures.append("keystroke.echo_ms histogram is missing or empty")
    else:
        for q in ("p50", "p95", "p99"):
            if not ks[q] > 0:
                failures.append(f"keystroke.echo_ms {q} is not positive")

    for name in (
        "client.crypto.seal_us", "client.crypto.unseal_us",
        "server.crypto.seal_us", "server.crypto.unseal_us",
    ):
        if hists.get(name, {}).get("count", 0) == 0:
            failures.append(f"{name} histogram counted no datagrams")

    events = session.reactor.tracer.events(cat="keystroke")
    names = {event["name"] for event in events}
    for expected in ("client.keystroke", "server.input", "client.echo"):
        if expected not in names:
            failures.append(f"trace lacks {expected!r} keystroke events")
    if ks is not None and ks["count"]:
        latencies = [
            event["args"]["latency_ms"]
            for event in events
            if event["name"] == "client.echo"
        ]
        failures.extend(_echo_quantile_checks(ks, latencies))

    if doc["counters"]["crypto.auth_failures"] != 0:
        failures.append("unexpected auth failures on a clean link")
    return failures


def _echo_quantile_checks(ks: dict, latencies: list[float]) -> list[str]:
    """The echo histogram's p50/p95 against the exact nearest-rank
    quantiles of the per-keystroke ``client.echo`` trace latencies."""
    if len(latencies) != ks["count"]:
        return [
            f"trace holds {len(latencies)} client.echo events for "
            f"{ks['count']} settled keystrokes"
        ]
    ordered = sorted(latencies)
    failures = []
    for q, p in (("p50", 0.50), ("p95", 0.95)):
        exact = ordered[math.ceil(len(ordered) * p) - 1]
        # Trace latencies and summary quantiles are both rounded to three
        # decimals, hence the 1e-3 ms slack on top of the grid's 2 %.
        if abs(ks[q] - exact) > GRID_REL_ERROR * exact + 1e-3:
            failures.append(
                f"keystroke.echo_ms {q}={ks[q]} is not within "
                f"{GRID_REL_ERROR:.0%} of the traced {q}={exact}"
            )
    return failures


def flight_stage(session: InProcessSession, args) -> list[str]:
    """Record both endpoints, round-trip through JSONL, merge, audit."""
    failures: list[str] = []
    session.client_flight.export_jsonl(args.flight_client)
    session.server_flight.export_jsonl(args.flight_server)
    # Round-trip the on-disk artifacts (load validates the schema).
    client = load_flight_log(args.flight_client)
    server = load_flight_log(args.flight_server)
    report = analyze(client, server)
    failures.extend(flight_check(report))

    # The merged view must agree with the simulator's ground truth: every
    # loss the links rolled appears as exactly one drop event, and the
    # fate partition accounts for every datagram sent.
    links = (("c2s", session.network.uplink), ("s2c", session.network.downlink))
    for direction, link in links:
        stats = report["directions"][direction]
        observed = stats["drop_reasons"].get("loss", 0)
        if observed != link.packets_dropped_loss:
            failures.append(
                f"{direction}: {observed} loss events != link counter "
                f"{link.packets_dropped_loss}"
            )
        if stats["lost_inferred"] != 0:
            failures.append(
                f"{direction}: {stats['lost_inferred']} losses had to be "
                "inferred despite the link observer"
            )

    with open(args.flight_report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    total = sum(report["directions"][d]["sent"] for d, _ in links)
    print(
        f"  flight recorder: {total} datagrams accounted for across both "
        f"directions -> {args.flight_report}"
    )
    return failures


def daemon_stage(args) -> list[str]:
    """Eight concurrent sessions on one port, metrics labelled apart."""
    from repro.session.inprocess import InProcessDaemon

    failures: list[str] = []
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=20.0),
        LinkConfig(delay_ms=20.0),
        sessions=8,
        width=40,
        height=8,
        seed=11,
    )
    daemon.connect(warmup_ms=1500.0)
    for cid in daemon.conn_ids:
        for ch in f"echo session-{cid}\n".encode():
            daemon.client(cid).type_bytes(bytes([ch]))
        daemon.run_for(40.0)
    daemon.run_for(4000.0)

    doc = daemon.metrics_snapshot()
    validate_snapshot(doc)
    counters, gauges, hists = doc["counters"], doc["gauges"], doc["histograms"]

    if counters.get("daemon.no_route", 0) or counters.get("daemon.bad_packets", 0):
        failures.append("daemon routed garbage on a clean simulation")
    if counters.get("daemon.datagrams_routed", 0) < 8:
        failures.append("daemon.datagrams_routed counted almost nothing")
    if gauges.get("daemon.sessions_open") != 8.0:
        failures.append("daemon.sessions_open gauge is not 8")
    parked = gauges.get("daemon.sessions_parked")
    active = gauges.get("daemon.sessions_active")
    if parked is None or active is None or parked + active != 8.0:
        failures.append("parked + active gauges do not partition the fleet")

    # Every session must show up under its own label, on both sides.
    for cid in daemon.conn_ids:
        if hists.get(f"keystroke.c{cid}.echo_ms", {}).get("count", 0) == 0:
            failures.append(f"keystroke.c{cid}.echo_ms is missing or empty")
        for name in (f"server.s{cid}.network.srtt_ms",
                     f"client.c{cid}.network.srtt_ms"):
            if gauges.get(name) is None or not gauges[name] > 0:
                failures.append(f"{name} gauge is missing or non-positive")
        if hists.get(f"server.s{cid}.crypto.unseal_us", {}).get("count", 0) == 0:
            failures.append(f"server.s{cid}.crypto.unseal_us counted nothing")
        screen = daemon.record(cid).core.terminal.fb.screen_text()
        if f"session-{cid}" not in screen:
            failures.append(f"session {cid} never converged on its marker")

    write_snapshot_atomic(doc, args.daemon_metrics)
    with open(args.daemon_metrics, encoding="utf-8") as fh:
        validate_snapshot(json.load(fh))
    print(
        f"  daemon: 8 sessions on one port, "
        f"{int(counters.get('daemon.datagrams_routed', 0))} datagrams routed "
        f"-> {args.daemon_metrics}"
    )
    return failures


def causal_stage(args) -> list[str]:
    """Live per-keystroke causal attribution across a 4-session daemon."""
    from repro.obs.causal import (
        STAGES,
        pool_server_echo_wait,
        pool_stage_summaries,
        validate_causal_report,
    )
    from repro.session.inprocess import InProcessDaemon

    failures: list[str] = []
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=15.0),
        LinkConfig(delay_ms=25.0),
        sessions=4,
        width=40,
        height=8,
        seed=31,
    )
    daemon.connect(warmup_ms=1500.0)
    for burst in range(10):
        for cid in daemon.conn_ids:
            daemon.client(cid).type_bytes(b"\r" if burst % 5 == 0 else b"k")
            daemon.run_for(10.0)
        daemon.run_for(120.0)
    daemon.run_for(3000.0)  # every keystroke settles before we audit

    doc = daemon.metrics_snapshot()
    hists = doc["histograms"]
    pooled = pool_stage_summaries(doc)
    if set(pooled) != set(STAGES):
        failures.append(f"causal: pooled stages {sorted(pooled)} != {STAGES}")
        return failures

    # The fleet-pooled partition must account for exactly the keystrokes
    # the echo histograms settled, and the stage sums must reproduce the
    # total end-to-end latency (the attribution is residual-exact).
    echo_count = echo_sum = 0.0
    for cid in daemon.conn_ids:
        ks = hists.get(f"keystroke.c{cid}.echo_ms")
        if ks is None or ks["count"] == 0:
            failures.append(f"causal: keystroke.c{cid}.echo_ms is empty")
            continue
        echo_count += ks["count"]
        echo_sum += ks["sum"]
    counts = {stage: pooled[stage].count for stage in STAGES}
    if len(set(counts.values())) != 1 or counts["deliver"] != echo_count:
        failures.append(
            f"causal: stage counts {counts} do not match "
            f"{int(echo_count)} settled keystrokes"
        )
    stage_sum = sum(pooled[stage].total for stage in STAGES)
    if abs(stage_sum - echo_sum) > 0.1 * max(1.0, echo_count):
        failures.append(
            f"causal: stage durations sum to {stage_sum:.3f} ms, "
            f"echo histograms total {echo_sum:.3f} ms"
        )
    echo_wait = pool_server_echo_wait(doc)
    if echo_wait.count == 0:
        failures.append("causal: no server echo-ack hold samples pooled")

    # Every client's live report must validate against the schema —
    # including the per-exemplar invariant that stages sum to echo_ms —
    # and survive the JSON round-trip onto disk.
    reports = {}
    for cid in daemon.conn_ids:
        tracer = daemon.client(cid).causal
        if tracer.unmatched.value:
            failures.append(
                f"causal: client c{cid} left {int(tracer.unmatched.value)} "
                "keystrokes unattributed on a clean link"
            )
        report = tracer.report()
        try:
            validate_causal_report(report)
        except Exception as exc:
            failures.append(f"causal: client c{cid} report invalid: {exc}")
        reports[f"c{cid}"] = report
    artifact = {
        "schema": "repro.obs.causal.smoke/1",
        "clients": reports,
        "pool": {
            "stages": {s: pooled[s].summary() for s in STAGES},
            "echo_wait": echo_wait.summary(),
        },
    }
    with open(args.causal_json, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(args.causal_json, encoding="utf-8") as fh:
        for report in json.load(fh)["clients"].values():
            validate_causal_report(report)
    print(
        f"  causal: {int(echo_count)} keystrokes attributed across "
        f"{len(reports)} clients, stage sum within "
        f"{abs(stage_sum - echo_sum):.3f} ms of echo total -> "
        f"{args.causal_json}"
    )
    return failures


def telemetry_stage(args) -> list[str]:
    """Delta feed, Prometheus exposition, health alerts, live socket."""
    failures: list[str] = []
    failures.extend(_telemetry_feed_checks(args))
    failures.extend(_telemetry_health_checks(args))
    if os.name == "posix":
        failures.extend(_telemetry_live_checks())
    else:  # pragma: no cover - CI is POSIX
        print("  telemetry: skipping live control-socket stage (non-POSIX)")
    return failures


def _telemetry_feed_checks(args) -> list[str]:
    """A watch subscriber's view must converge to the live registry."""
    from repro.session.inprocess import InProcessDaemon

    failures: list[str] = []
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=20.0),
        LinkConfig(delay_ms=20.0),
        sessions=4,
        width=40,
        height=8,
        seed=23,
    )
    daemon.connect(warmup_ms=1500.0)
    delta = SnapshotDelta(daemon.reactor.registry)
    view = apply_delta(None, json.loads(json.dumps(delta.prime())))
    lines = 0
    for cid in daemon.conn_ids:
        for ch in f"watch {cid}\n".encode():
            daemon.client(cid).type_bytes(bytes([ch]))
        daemon.run_for(250.0)
        doc = delta.collect()
        if doc is not None:
            # Every feed line must survive the JSONL round-trip.
            view = apply_delta(view, json.loads(json.dumps(doc)))
            lines += 1
    daemon.run_for(4000.0)  # quiesce: retransmissions and acks settle
    final = delta.collect()
    if final is not None:
        view = apply_delta(view, json.loads(json.dumps(final)))
        lines += 1
    validate_snapshot(view)
    snap = daemon.metrics_snapshot()
    if lines == 0:
        failures.append("telemetry: delta feed shipped nothing while typing")
    if view != snap:
        diff = {
            section: sorted(
                set(view[section].items()) ^ set(snap[section].items())
            )
            for section in ("counters", "gauges")
            if view[section] != snap[section]
        }
        hist_diff = [
            name
            for name in set(view["histograms"]) | set(snap["histograms"])
            if view["histograms"].get(name) != snap["histograms"].get(name)
        ]
        failures.append(
            "telemetry: reassembled delta feed differs from the live "
            f"snapshot (scalars: {diff}, histograms: {hist_diff})"
        )

    prom = render_prometheus(snap)
    with open(args.telemetry_prom, "w", encoding="utf-8") as fh:
        fh.write(prom)
    prom_lines = prom.splitlines()
    inf_buckets = sum(1 for ln in prom_lines if 'le="+Inf"' in ln)
    if inf_buckets != len(snap["histograms"]):
        failures.append(
            f"telemetry: {inf_buckets} +Inf bucket series for "
            f"{len(snap['histograms'])} histograms in the exposition"
        )
    for probe in (
        'repro_daemon_sessions_open{name="daemon.sessions_open"}',
        "# TYPE repro_daemon_datagrams_routed counter",
    ):
        if not any(probe in ln for ln in prom_lines):
            failures.append(f"telemetry: exposition lacks {probe!r}")
    print(
        f"  telemetry: {lines} delta lines reassembled into the live "
        f"snapshot, {len(prom_lines)} exposition lines -> "
        f"{args.telemetry_prom}"
    )
    return failures


def _telemetry_health_checks(args) -> list[str]:
    """A synthetic auth-failure burst must alert, then clear."""
    failures: list[str] = []
    registry = MetricsRegistry()
    auth = registry.counter("crypto.auth_failures")
    clock = [0.0]
    monitor = HealthMonitor(
        registry, default_fleet_ruleset(), clock=lambda: clock[0]
    )

    def tick(times: int = 1) -> None:
        for _ in range(times):
            clock[0] += 1000.0
            monitor.evaluate()

    tick(3)
    if monitor.level != "ok":
        failures.append(f"health: quiet registry reports {monitor.level!r}")
    for _ in range(3):  # sustained burst: 50 failures/s for 3 eval windows
        auth.inc(50)
        tick()
    if monitor.level != "critical":
        failures.append(
            f"health: auth burst escalated to {monitor.level!r}, "
            "expected 'critical'"
        )
    tick(5)  # quiet again: clear_ticks=3 brings it back
    if monitor.level != "ok":
        failures.append(
            f"health: monitor stuck at {monitor.level!r} after recovery"
        )
    transitions = [
        (event["rule"], event["from"], event["to"])
        for event in monitor.alerts_since(0)
    ]
    if ("auth_burn", "ok", "critical") not in transitions or (
        "auth_burn",
        "critical",
        "ok",
    ) not in transitions:
        failures.append(
            f"health: alert ring lacks the burst round-trip: {transitions}"
        )

    state = monitor.state()
    if state.get("schema") != HEALTH_SCHEMA:
        failures.append(f"health: state schema is {state.get('schema')!r}")
    with open(args.health_json, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"  health: auth burst tripped {len(transitions)} transitions, "
        f"state -> {args.health_json}"
    )
    return failures


def _telemetry_live_checks() -> list[str]:
    """A real daemon serves scrape/health/top over its control socket."""
    import contextlib
    import io
    import threading
    import time

    from repro import cli
    from repro.daemon.app import DaemonApp
    from repro.obs import telemetry

    failures: list[str] = []
    app = DaemonApp(
        argv=["/bin/cat"],
        bind_host="127.0.0.1",
        sessions=2,
        telemetry="127.0.0.1:0",
    )
    target = app.telemetry.address
    results: dict[str, object] = {}

    def worker() -> None:
        try:
            results["scrape"] = telemetry.scrape(target)
            results["prom"] = telemetry.scrape(target, mode="prom")
            results["health"] = telemetry.health(target)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.top_main([target, "--ticks", "2"])
            results["top"] = out.getvalue()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.trace_main(["--attach", target, "--ticks", "2"])
            results["trace"] = out.getvalue()
        except Exception as exc:  # surfaced as a stage failure below
            results["error"] = repr(exc)

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while thread.is_alive() and time.monotonic() < deadline:
        app.step(20.0)
    thread.join(1.0)
    app.shutdown()

    if thread.is_alive():
        failures.append("telemetry live: client thread never finished")
    if "error" in results:
        failures.append(f"telemetry live: client raised {results['error']}")
    scrape_doc = results.get("scrape")
    if isinstance(scrape_doc, dict):
        validate_snapshot(scrape_doc)
        if scrape_doc["gauges"].get("daemon.sessions_open") != 2.0:
            failures.append(
                "telemetry live: scrape shows "
                f"{scrape_doc['gauges'].get('daemon.sessions_open')} "
                "sessions open, expected 2"
            )
    elif "error" not in results:
        failures.append("telemetry live: scrape returned no snapshot")
    prom = results.get("prom")
    if isinstance(prom, str) and "# TYPE repro_daemon_sessions_open gauge" not in prom:
        failures.append("telemetry live: prom scrape lacks the fleet gauge")
    health_doc = results.get("health")
    if isinstance(health_doc, dict) and health_doc.get("schema") != HEALTH_SCHEMA:
        failures.append(
            f"telemetry live: health schema {health_doc.get('schema')!r}"
        )
    top_out = results.get("top")
    if isinstance(top_out, str):
        for needle in ("fleet:", "health:", "integrity:"):
            if needle not in top_out:
                failures.append(
                    f"telemetry live: top output lacks {needle!r} panel line"
                )
    elif "error" not in results:
        failures.append("telemetry live: top rendered nothing")
    trace_out = results.get("trace")
    if isinstance(trace_out, str):
        # This daemon's clients live elsewhere, so the panel must fall
        # back to the server-resident view rather than rendering junk.
        if "repro trace" not in trace_out:
            failures.append("telemetry live: trace output lacks its header")
        if "causal chains" not in trace_out and "echo-ack hold" not in trace_out:
            failures.append(
                "telemetry live: trace panel shows neither chains nor "
                "the daemon-side fallback"
            )
    elif "error" not in results:
        failures.append("telemetry live: trace rendered nothing")
    if not failures:
        print(
            f"  telemetry live: scrape/health/top/trace served on {target} "
            "against a 2-session daemon"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="trace.json", metavar="PATH")
    parser.add_argument("--metrics", default="metrics.json", metavar="PATH")
    parser.add_argument(
        "--flight-client", default="flight-client.jsonl", metavar="PATH"
    )
    parser.add_argument(
        "--flight-server", default="flight-server.jsonl", metavar="PATH"
    )
    parser.add_argument(
        "--flight-report", default="flight-report.json", metavar="PATH"
    )
    parser.add_argument(
        "--daemon-metrics", default="daemon-metrics.json", metavar="PATH"
    )
    parser.add_argument(
        "--telemetry-prom", default="telemetry.prom", metavar="PATH"
    )
    parser.add_argument(
        "--health-json", default="health.json", metavar="PATH"
    )
    parser.add_argument(
        "--causal-json", default="causal.json", metavar="PATH"
    )
    args = parser.parse_args(argv)

    session = run_session()
    doc = session.metrics_snapshot()
    write_snapshot_atomic(doc, args.metrics)
    events = session.reactor.tracer.export_chrome(args.trace)
    validate_snapshot(doc)
    # The artifact on disk must round-trip through JSON unchanged.
    with open(args.metrics, encoding="utf-8") as fh:
        validate_snapshot(json.load(fh))
    with open(args.trace, encoding="utf-8") as fh:
        chrome = json.load(fh)
    assert len(chrome["traceEvents"]) == events

    failures = check(session, doc)
    failures.extend(flight_stage(session, args))
    failures.extend(daemon_stage(args))
    failures.extend(causal_stage(args))
    failures.extend(telemetry_stage(args))
    ks = doc["histograms"]["keystroke.echo_ms"]
    print(
        f"observability smoke: {events} trace events -> {args.trace}, "
        f"{len(doc['counters'])} counters / {len(doc['gauges'])} gauges / "
        f"{len(doc['histograms'])} histograms -> {args.metrics}"
    )
    print(
        f"  keystroke echo latency: n={ks['count']} p50={ks['p50']:.0f} ms "
        f"p95={ks['p95']:.0f} ms p99={ks['p99']:.0f} ms"
    )
    if failures:
        print("observability smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("all live-session observability checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
