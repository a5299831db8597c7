#!/usr/bin/env python3
"""Server-push: a top-like dashboard refreshing itself over SSP.

No application output depends on keystrokes — the server's screen changes
on a timer and SSP ships paced frames to the client. Midway, the network
dies: the client notices missing heartbeats and raises its warning bar;
when the network heals, the dashboard catches up in one diff (SSP never
replays the missed intermediate states).

The whole run is observed through the unified metrics registry
(``repro.obs``): at the end we print the live per-keystroke echo-latency
histogram (the paper's Figure-2 distribution, measured in-session), the
seal/unseal latency percentiles, and the simnet link gauges — all read
from one ``registry.snapshot()`` document.

Run:  python examples/monitor_dashboard.py

Attach mode: with ``--attach HOST:PORT`` (or a Unix socket path) the
script skips the simulation entirely and renders the same fleet panels
from a *live* daemon's telemetry feed — start one with
``repro serve --telemetry 127.0.0.1:0`` and point this at the printed
address (equivalent to ``repro top``).
"""

from random import Random

from repro.analysis.flight import merge_recordings
from repro.apps.monitor import MonitorApp
from repro.session import InProcessSession
from repro.simnet import LinkConfig


def render_histogram(summary: dict, width: int = 40) -> list[str]:
    """ASCII-render a histogram summary's sparse buckets."""
    buckets = summary["buckets"]
    if not buckets:
        return ["   (empty)"]
    peak = max(count for _, count in buckets)
    lines = []
    for bound, count in buckets:
        label = "     +inf" if bound == "inf" else f"{float(bound):9.1f}"
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"   <{label} {summary['unit']} | {bar} {count}")
    return lines


def main() -> None:
    session = InProcessSession(
        LinkConfig(delay_ms=40.0), LinkConfig(delay_ms=40.0), seed=6
    )
    app = MonitorApp(Random(3))
    app.attach(session)
    session.connect()

    session.loop.run_until(6000)
    print("dashboard after 6 s (client copy):")
    for line in session.client.display().screen_text().splitlines()[:6]:
        if line.strip():
            print("  ", line.rstrip())

    # The user types while the dashboard refreshes; each keystroke is
    # stamped at UserStream ingestion and settled when the server's
    # echo ack covers it, filling the live latency histogram.
    for ch in b"monitor --sort cpu":
        session.client.type_bytes(bytes([ch]))
        session.loop.run_for(120)

    # The network goes dark for 15 seconds.
    healthy = session.network.downlink.config
    session.network.downlink.config = LinkConfig(delay_ms=40.0, loss=0.999999)
    session.loop.run_until(session.loop.now() + 15_000)
    bar = session.client.display().row_text(0).strip()
    print(f"\nduring the outage the client warns:\n   {bar!r}")

    # Healing: one diff fast-forwards the client past every missed frame.
    session.network.downlink.config = healthy
    session.loop.run_until(session.loop.now() + 6_000)
    assert session.client.remote_terminal.fb == session.server.terminal.fb
    frames_total = session.server.transport.sender.instructions_sent
    print("\nafter healing, client and server agree again")
    print(
        f"frames sent across 27 s of 2 s refreshes: {frames_total} "
        f"(SSP skipped the intermediate states lost to the outage)"
    )
    print("warning bar cleared:",
          "Last contact" not in session.client.display().row_text(0))

    # One snapshot document covers every layer: reactor counters, crypto
    # sealing histograms, sender pacing, RTT gauges, simnet links, and
    # the keystroke pipeline.
    doc = session.metrics_snapshot()
    counters = doc["counters"]
    gauges = doc["gauges"]
    hists = doc["histograms"]

    ks = hists["keystroke.echo_ms"]
    print(f"\nper-keystroke echo latency over the {2 * 40.0:.0f} ms-RTT link")
    print(
        f"   {ks['count']} keystrokes settled: "
        f"p50={ks['p50']:.0f} ms  p95={ks['p95']:.0f} ms  "
        f"p99={ks['p99']:.0f} ms"
    )
    for line in render_histogram(ks):
        print(line)

    # Causal attribution: the same echo latency, split across the
    # pipeline stages it crossed — live, from the client's own tracer.
    from repro.obs import pool_stage_summaries, render_waterfall

    pooled = pool_stage_summaries(doc)
    print("\nwhere the time went (live causal attribution):")
    for line in render_waterfall(pooled):
        print(line)
    exemplars = session.client.causal.exemplars()
    if exemplars:
        worst = exemplars[0]
        breakdown = "  ".join(
            f"{name}={value:.0f}"
            for name, value in worst["stages"].items()
            if value >= 0.5
        )
        print(
            f"   slowest keystroke: #{worst['index']} "
            f"({worst['echo_ms']:.0f} ms: {breakdown})"
        )

    seal = hists["client.crypto.seal_us"]
    unseal = hists["client.crypto.unseal_us"]
    print("\ncrypto cost (client side, AES-128-OCB):")
    print(
        f"   seal   p50={seal['p50']:.0f} us  p99={seal['p99']:.0f} us  "
        f"({seal['count']} datagrams)"
    )
    print(
        f"   unseal p50={unseal['p50']:.0f} us  p99={unseal['p99']:.0f} us  "
        f"({unseal['count']} datagrams)"
    )

    print("\nruntime counters:")
    for name in (
        "reactor.ticks", "reactor.datagrams_in", "reactor.datagrams_out",
        "reactor.frames_rendered", "crypto.datagrams_sealed",
        "crypto.auth_failures", "crypto.replay_drops",
        "client.prediction.keystrokes",
    ):
        print(f"   {name:>28}: {counters[name]:.0f}")
    print("\nlink + path gauges:")
    for name in (
        "client.network.srtt_ms", "simnet.downlink.packets_dropped_loss",
        "simnet.downlink.packets_delivered",
    ):
        print(f"   {name:>38}: {gauges[name]:.1f}")

    # The wire panel: merge both endpoints' in-memory flight recordings
    # into per-packet fates — no files, no estimation; the simulator's
    # link observer logged the ground truth of every drop.
    print("\nwire panel (flight recorder):")
    records, _ = merge_recordings(*session.flight_recordings())
    for direction in ("c2s", "s2c"):
        mine = [r for r in records if r.direction == direction]
        terminal = [r for r in mine if r.fate != "in_flight"]
        dead = sum(1 for r in terminal if r.fate in ("dropped", "lost"))
        loss_pct = 100.0 * dead / len(terminal) if terminal else 0.0
        reordered = sum(1 for r in mine if r.reordered)
        dups = sum(r.duplicate_arrivals for r in mine)
        strip = "".join(_FATE_GLYPHS.get(_fate_key(r), "?") for r in mine[-48:])
        print(
            f"   {direction}: {len(mine)} sent, loss {loss_pct:.1f}%, "
            f"reordered {reordered}, duplicate arrivals {dups}"
        )
        print(f"      last packets: [{strip}]")
    print("      legend: . delivered  ~ reordered  X lost  Q queue-drop  "
          "? in flight")

    daemon_panel()
    # Same panel at fleet scale: past the collapse threshold the rows
    # give way to the active/parked split, pooled quantiles, and the
    # top talkers.
    daemon_panel(sessions=48)


#: Above this many sessions, per-session rows stop being a dashboard and
#: start being a scroll; the daemon panel collapses into a fleet summary.
FLEET_COLLAPSE_THRESHOLD = 32


def daemon_panel(sessions: int = 4) -> None:
    """The daemon view: per-session rows fed by labelled instruments.

    A session daemon muxes several sessions on one port, so its
    dashboard needs one row per session — id, SRTT, keystroke p95, and
    how long ago the client was last heard — all read from the same
    snapshot document, keyed by the ``s<id>``/``c<id>`` labels.

    Past :data:`FLEET_COLLAPSE_THRESHOLD` sessions the rows collapse
    into ``repro top``'s fleet panel, rendered from the same snapshot:
    the open/active/parked split, fleet-pooled echo quantiles, and the
    five busiest sessions — everything an operator of a 10k-session
    daemon can actually read at a glance.
    """
    from repro.cli import _render_fleet_panel
    from repro.session.inprocess import InProcessDaemon

    daemon = InProcessDaemon(
        LinkConfig(delay_ms=30.0),
        LinkConfig(delay_ms=30.0),
        sessions=sessions,
        width=40,
        height=8,
        seed=12,
    )
    daemon.connect()
    # In a big fleet only a sliver of sessions is busy at any instant:
    # type on a front slice and leave the rest idle, so the parked count
    # in the summary means something.
    busy = daemon.conn_ids
    if sessions > FLEET_COLLAPSE_THRESHOLD:
        busy = daemon.conn_ids[: max(5, sessions // 8)]
    for rank, cid in enumerate(busy):
        # Front of the slice types more, so "top 5 busiest" has a shape.
        text = f"session {cid} typing\n" * (2 if rank < 3 else 1)
        for ch in text.encode():
            daemon.client(cid).type_bytes(bytes([ch]))
            daemon.run_for(90.0)
    # Everyone goes quiet; the last-heard ages grow while SRTT holds,
    # and idle sessions park off the scheduler entirely.
    daemon.run_for(4000.0)

    doc = daemon.metrics_snapshot()
    gauges, hists = doc["gauges"], doc["histograms"]
    now = daemon.loop.now()
    print(f"\nsession daemon: {sessions} sessions muxed on one port")
    if sessions > FLEET_COLLAPSE_THRESHOLD:
        print(_render_fleet_panel(doc, 0, [], "in-process daemon"))
    else:
        print("   id   srtt_ms   keystroke_p95_ms   last_heard")
        for cid in daemon.conn_ids:
            srtt = gauges.get(f"server.s{cid}.network.srtt_ms") or 0.0
            ks = hists.get(f"keystroke.c{cid}.echo_ms", {})
            p95 = ks.get("p95") or 0.0
            age_s = (now - daemon.record(cid).last_heard()) / 1000.0
            print(
                f"   s{cid:<3} {srtt:7.1f}   {p95:16.0f}   {age_s:7.1f} s ago"
            )
    counters = doc["counters"]
    print(
        f"   one-port routing: "
        f"{counters['daemon.datagrams_routed']:.0f} datagrams routed, "
        f"{counters['daemon.no_route']:.0f} unroutable, "
        f"{counters['daemon.bad_packets']:.0f} garbage"
    )


#: One glyph per packet in the fate strip.
_FATE_GLYPHS = {
    "delivered": ".",
    "reordered": "~",
    "loss": "X",
    "queue": "Q",
    "lost": "X",
    "in_flight": "?",
}


def _fate_key(record) -> str:
    if record.fate == "delivered":
        return "reordered" if record.reordered else "delivered"
    if record.fate == "dropped":
        return record.drop_reason or "lost"
    return record.fate


if __name__ == "__main__":
    import argparse

    _parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _parser.add_argument(
        "--attach",
        metavar="TARGET",
        default=None,
        help="render the fleet panel from a live daemon's telemetry "
        "socket (host:port or Unix path) instead of simulating one",
    )
    _parser.add_argument(
        "--ticks",
        type=int,
        default=0,
        help="with --attach: exit after N feed ticks (0 = until ^C)",
    )
    _args = _parser.parse_args()
    if _args.attach:
        from repro.cli import top_main

        raise SystemExit(
            top_main([_args.attach, "--ticks", str(_args.ticks)])
        )
    main()
