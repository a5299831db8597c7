"""Command-line entry points.

* ``repro-mosh-server [-- command ...]`` — start the unprivileged server,
  print ``MOSH CONNECT <port> <key> <conn-id>``, serve until the shell
  exits.
* ``repro-mosh-serve --sessions N`` — start the multi-session daemon:
  N pty sessions muxed on one UDP port, one connect line per session.
* ``repro-mosh-client <host> <port> <key> <conn-id>`` — connect
  interactively (the conn id is the connect line's fifth field; server
  ports route by it alone).
* ``repro-mosh-demo`` — run a self-contained server+client pair on
  localhost, type a command, show the synchronized screen, and exit.
  Useful as a smoke test of the real-UDP/pty path.
* ``repro scrape <target>`` / ``repro top <target>`` /
  ``repro trace --attach <target>`` — attach to a live server/daemon's
  telemetry socket (``--telemetry``): one-shot snapshot scrape (JSON,
  Prometheus, or health), a live fleet panel fed by the JSONL delta
  stream, or a live per-keystroke causal stage waterfall.
* ``repro <subcommand>`` — umbrella entry point for all of the above
  (``repro serve``, ``repro client``, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys
import time


def _interval_seconds(text: str) -> float:
    """argparse type for a timer interval: finite seconds, > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, not {text!r}"
        )
    return value


def _conn_id(text: str) -> int:
    """argparse type for a connection id: an integer in 0..MAX_CONN_ID."""
    from repro.app.bootstrap import parse_conn_id
    from repro.errors import NetworkError

    try:
        return parse_conn_id(text)
    except NetworkError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-dump",
        metavar="PATH",
        default=None,
        help="on exit, write the repro.obs/1 metrics snapshot as JSON",
    )
    parser.add_argument(
        "--metrics-interval",
        type=_interval_seconds,
        default=None,
        metavar="SECONDS",
        help="with --metrics-dump: rewrite the snapshot atomically every "
        "SECONDS while running, so a crashed process still leaves fresh "
        "metrics behind",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="on exit, write spans as Chrome trace_event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--flight-log",
        metavar="PATH",
        default=None,
        help="record every datagram's wire-level fate and write the "
        "repro.obs.flight/1 JSONL recording on exit (merge two endpoints' "
        "recordings with tools/flightlog.py)",
    )


def _start_obs(app, args, parser) -> None:
    """Start the in-flight observability services before ``app.run()``."""
    if args.metrics_interval is not None:
        if not args.metrics_dump:
            parser.error("--metrics-interval requires --metrics-dump PATH")
        from repro.obs.telemetry import attach_metrics_writer

        attach_metrics_writer(
            app.reactor,
            app.reactor.registry,
            args.metrics_dump,
            args.metrics_interval * 1000.0,
        )


def _attach_telemetry(app, bind: str):
    """Serve a TelemetryServer (with default health rules) on ``app``."""
    from repro.obs.health import HealthMonitor, default_fleet_ruleset
    from repro.obs.telemetry import TelemetryServer

    health = getattr(app, "health", None)
    if health is None:
        health = HealthMonitor(
            app.reactor.registry,
            default_fleet_ruleset(),
            clock=app.reactor.now,
        )
        health.attach(app.reactor)
    server = TelemetryServer(
        app.reactor, app.reactor.registry, bind=bind, health=health
    )
    print(
        f"[repro-mosh] telemetry on {server.address}",
        file=sys.stderr,
        flush=True,
    )
    return server


def _dump_obs(app, args) -> None:
    """Honor --metrics-dump/--trace/--flight-log for an app with a reactor.

    Each artifact comes straight from its owner: the registry's snapshot
    (written atomically, like the periodic dumps), the reactor's span
    tracer, and the app's flight recorder (built when --flight-log is set).
    """
    if args.metrics_dump:
        from repro.obs.telemetry import write_snapshot_atomic

        write_snapshot_atomic(app.reactor.registry.snapshot(), args.metrics_dump)
        print(f"[repro-mosh] metrics written to {args.metrics_dump}",
              file=sys.stderr, flush=True)
    if args.trace:
        n = app.reactor.tracer.export_chrome(args.trace)
        print(f"[repro-mosh] {n} trace events written to {args.trace}",
              file=sys.stderr, flush=True)
    if args.flight_log:
        n = app.flight.export_jsonl(args.flight_log)
        print(f"[repro-mosh] {n} flight events written to {args.flight_log}",
              file=sys.stderr, flush=True)


def server_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-mosh-server", description="SSP terminal server"
    )
    parser.add_argument("--port", type=int, default=None, help="UDP port")
    parser.add_argument("--bind", default="0.0.0.0", help="bind address")
    parser.add_argument("--width", type=int, default=80)
    parser.add_argument("--height", type=int, default=24)
    parser.add_argument(
        "--telemetry",
        metavar="ADDR",
        default=None,
        help="serve live telemetry on ADDR (host:port or a Unix socket "
        "path) for repro scrape / repro top",
    )
    parser.add_argument(
        "command", nargs="*", help="command to run (default: $SHELL)"
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    from repro.app.server import ServerApp

    app = ServerApp(
        argv=args.command or None,
        bind_host=args.bind,
        port=args.port,
        width=args.width,
        height=args.height,
        flight=args.flight_log is not None,
    )
    if args.telemetry:
        _attach_telemetry(app, args.telemetry)
    _start_obs(app, args, parser)
    print(app.connect_line(), flush=True)
    app.run()
    _dump_obs(app, args)
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """The session daemon: many pty sessions muxed on one UDP port."""
    parser = argparse.ArgumentParser(
        prog="repro-mosh-serve",
        description="multi-session SSP daemon: N sessions on one UDP port",
    )
    parser.add_argument("--port", type=int, default=None, help="UDP port")
    parser.add_argument("--bind", default="0.0.0.0", help="bind address")
    parser.add_argument("--width", type=int, default=80)
    parser.add_argument("--height", type=int, default=24)
    parser.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="pty sessions to spawn at startup (one connect line each)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=_interval_seconds,
        default=None,
        metavar="SECONDS",
        help="reap sessions with no authenticated traffic for this long",
    )
    parser.add_argument(
        "--telemetry",
        metavar="ADDR",
        default=None,
        help="serve live telemetry on ADDR (host:port or a Unix socket "
        "path) for repro scrape / repro top",
    )
    parser.add_argument(
        "command", nargs="*", help="command to run (default: $SHELL)"
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)
    if args.sessions < 1:
        parser.error("--sessions must be >= 1")

    from repro.daemon.app import DaemonApp

    app = DaemonApp(
        argv=args.command or None,
        bind_host=args.bind,
        port=args.port,
        sessions=args.sessions,
        width=args.width,
        height=args.height,
        idle_timeout_ms=(
            args.idle_timeout * 1000.0 if args.idle_timeout is not None else None
        ),
        flight=args.flight_log is not None,
        telemetry=args.telemetry,
    )
    if app.telemetry is not None:
        print(
            f"[repro-mosh-daemon] telemetry on {app.telemetry.address}",
            file=sys.stderr,
            flush=True,
        )
    _start_obs(app, args, parser)
    for line in app.connect_lines():
        print(line, flush=True)
    app.run()
    _dump_obs(app, args)
    return 0


def client_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-mosh-client", description="SSP terminal client"
    )
    parser.add_argument("host")
    parser.add_argument("port", type=int)
    parser.add_argument("key", help="22-character base64 session key")
    parser.add_argument(
        "conn_id",
        type=_conn_id,
        help="connection id, the fifth field of the server's connect line",
    )
    parser.add_argument(
        "--predict",
        choices=["adaptive", "always", "never", "experimental"],
        default="adaptive",
    )
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    from repro.app.client import ClientApp
    from repro.crypto.keys import Base64Key
    from repro.prediction.engine import DisplayPreference

    size = shutil.get_terminal_size((80, 24))
    app = ClientApp(
        args.host,
        args.port,
        Base64Key.from_printable(args.key),
        args.conn_id,
        width=size.columns,
        height=size.lines,
        preference=DisplayPreference(args.predict),
        flight=args.flight_log is not None,
    )
    app.send_resize(size.columns, size.lines)
    _start_obs(app, args, parser)
    app.run()
    _dump_obs(app, args)
    return 0


def mosh_main(argv: list[str] | None = None) -> int:
    """The `mosh` wrapper: bootstrap over SSH, then connect over UDP."""
    parser = argparse.ArgumentParser(
        prog="repro-mosh",
        description="log in via SSH, start the server, connect over SSP/UDP",
    )
    parser.add_argument("host", help="remote host (passed to ssh)")
    parser.add_argument(
        "--server", default="repro-mosh-server", help="remote server command"
    )
    parser.add_argument(
        "--ssh", default="ssh", help="login command (default: ssh)"
    )
    parser.add_argument(
        "--predict",
        choices=["adaptive", "always", "never", "experimental"],
        default="adaptive",
    )
    args = parser.parse_args(argv)

    from repro.app.bootstrap import bootstrap
    from repro.app.client import ClientApp
    from repro.prediction.engine import DisplayPreference

    size = shutil.get_terminal_size((80, 24))
    result = bootstrap(
        args.host,
        login_command=args.ssh.split() + [args.host],
        server_command=f"{args.server} --width {size.columns} --height {size.lines}",
    )
    app = ClientApp(
        result.host,
        result.port,
        result.key,
        result.conn_id,
        width=size.columns,
        height=size.lines,
        preference=DisplayPreference(args.predict),
    )
    app.send_resize(size.columns, size.lines)
    app.run()
    return 0


def demo_main(argv: list[str] | None = None) -> int:
    """Localhost smoke test: server + headless client, one command."""
    parser = argparse.ArgumentParser(prog="repro-mosh-demo")
    parser.add_argument(
        "--command", default="echo hello from $0", help="line to type"
    )
    parser.add_argument("--seconds", type=float, default=3.0)
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    import threading

    from repro.app.client import ClientApp
    from repro.app.server import ServerApp

    server = ServerApp(argv=["/bin/sh"], bind_host="127.0.0.1", width=80, height=24)
    print(server.connect_line())
    thread = threading.Thread(
        target=server.run, kwargs={"idle_exit_ms": 30_000}, daemon=True
    )
    thread.start()

    # Headless client: pipe for stdin, buffer for the painted frames.
    read_fd, write_fd = os.pipe()
    import io

    sink = io.BytesIO()
    client = ClientApp(
        "127.0.0.1",
        server.connection.port,
        server.key,
        server.conn_id,
        stdin_fd=read_fd,
        stdout=sink,
        flight=args.flight_log is not None,
    )
    _start_obs(client, args, parser)
    deadline = time.monotonic() + args.seconds
    typed = False
    while time.monotonic() < deadline:
        client.step(timeout_ms=20.0)
        if not typed and client.transport.remote_state_num > 0:
            os.write(write_fd, (args.command + "\n").encode())
            typed = True
    client.step(timeout_ms=50.0)
    screen = client.transport.remote_state.fb.screen_text()
    print("--- final client screen ---")
    print("\n".join(line.rstrip() for line in screen.splitlines() if line.strip()))
    print(client.integrity_summary())
    _dump_obs(client, args)
    client.close()
    server.running = False
    server.shutdown()
    os.close(write_fd)
    os.close(read_fd)
    return 0


def scrape_main(argv: list[str] | None = None) -> int:
    """One-shot scrape of a live telemetry endpoint."""
    parser = argparse.ArgumentParser(
        prog="repro-scrape",
        description="scrape a live daemon's metrics over its telemetry socket",
    )
    parser.add_argument(
        "target", help="telemetry address: host:port or a Unix socket path"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--prom",
        action="store_true",
        help="Prometheus text exposition instead of the JSON snapshot",
    )
    mode.add_argument(
        "--health",
        action="store_true",
        help="the health monitor's state document instead of metrics",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="write here, not stdout"
    )
    args = parser.parse_args(argv)

    from repro.obs import telemetry

    if args.prom:
        text = telemetry.scrape(args.target, "prom")
    elif args.health:
        doc = telemetry.health(args.target)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        doc = telemetry.scrape(args.target)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_SESSION_TALKER = re.compile(r"^server\.(s\d+)\.sender\.fragments$")


def _render_fleet_panel(doc: dict, tick: int, alerts: list, target: str) -> str:
    """The monitor_dashboard fleet panel, derived from a snapshot doc.

    Works entirely from the ``repro.obs/1`` document a ``watch`` feed
    reassembles, so it renders the same whether the daemon is in this
    process or across the network.
    """
    from repro.obs import merge_summaries

    gauges = doc.get("gauges", {})
    counters = doc.get("counters", {})
    hists = doc.get("histograms", {})
    lines = [f"repro top — {target} — tick {tick}"]

    opened = gauges.get("daemon.sessions_open")
    if opened is not None:
        lines.append(
            f"  fleet: {opened:g} open"
            f" / {gauges.get('daemon.sessions_active', 0):g} active"
            f" / {gauges.get('daemon.sessions_parked', 0):g} parked"
            f"   spawned {counters.get('daemon.sessions_spawned', 0):g}"
            f" reaped {counters.get('daemon.sessions_reaped', 0):g}"
            f" exited {counters.get('daemon.sessions_exited', 0):g}"
        )
    else:
        lines.append("  single-session endpoint (no fleet gauges)")

    echo_summaries = [
        summary
        for name, summary in hists.items()
        if name.startswith("keystroke.") and name.endswith("echo_ms")
    ]
    pooled = merge_summaries(echo_summaries)
    if pooled.count:
        lines.append(
            f"  echo latency (pooled, {pooled.count} keystrokes): "
            f"p50={pooled.p50:.0f} ms  p95={pooled.p95:.0f} ms  "
            f"p99={pooled.p99:.0f} ms"
        )
    else:
        lines.append("  echo latency: no settled keystrokes yet")

    level = gauges.get("daemon.health.level")
    if level is not None:
        names = {0: "ok", 1: "warn", 2: "critical"}
        breaches = sorted(
            name[len("daemon.health."):]
            for name, value in gauges.items()
            if name.startswith("daemon.health.")
            and name != "daemon.health.level"
            and value
        )
        detail = f"  breaching: {', '.join(breaches)}" if breaches else ""
        lines.append(
            f"  health: {names.get(int(level), level)}{detail}"
        )
    lines.append(
        "  integrity: "
        f"{counters.get('crypto.auth_failures', 0):g} auth fail, "
        f"{counters.get('crypto.replay_drops', 0):g} replay, "
        f"{counters.get('network.framing_drops', 0):g} framing drops"
    )

    talkers = []
    for name, value in counters.items():
        m = _SESSION_TALKER.match(name)
        if m and value:
            sid = m.group(1)
            talkers.append((value, sid))
    talkers.sort(reverse=True)
    if talkers:
        lines.append("  top talkers:   id     datagrams   srtt_ms   idle_s")
        for value, sid in talkers[:5]:
            srtt = gauges.get(f"server.{sid}.network.srtt_ms", 0.0)
            age = gauges.get(f"server.{sid}.last_heard_age_ms")
            idle = f"{age / 1000.0:8.1f}" if age is not None else "       -"
            lines.append(
                f"                 {sid:<6} {value:>9g}   {srtt:>7.1f} {idle}"
            )
    for event in alerts:
        lines.append(
            f"  ALERT {event['rule']}: {event['from']} -> {event['to']}"
            f" (value {event['value']})"
        )
    return "\n".join(lines)


def _render_stage_waterfall(doc: dict, tick: int, target: str) -> str:
    """Live causal stage panel from a ``repro.obs/1`` snapshot document.

    Pools every session's ``causal.<stage>_ms`` histograms onto one
    waterfall (the attach side of :mod:`repro.obs.causal`); adds the
    daemon-resident ``echo_wait`` view and the tracer health gauges so
    the panel degrades usefully when the snapshot has only server cores.
    """
    from repro.obs.causal import (
        pool_server_echo_wait,
        pool_stage_summaries,
        render_waterfall,
    )

    gauges = doc.get("gauges", {})
    counters = doc.get("counters", {})
    pooled = pool_stage_summaries(doc)
    chains = sum(
        value
        for name, value in counters.items()
        if name == "causal.chains"
        or (name.startswith("causal.") and name.endswith(".chains"))
    )
    unmatched = sum(
        value
        for name, value in counters.items()
        if name == "causal.unmatched"
        or (name.startswith("causal.") and name.endswith(".unmatched"))
    )
    lines = [f"repro trace — {target} — tick {tick}"]
    if chains or any(pooled[stage].count for stage in pooled):
        total = sum(pooled[stage].mean for stage in pooled)
        lines.append(
            f"  {chains:g} chains attributed"
            f" ({unmatched:g} unmatched) — mean echo {total:.1f} ms"
        )
        lines.extend(render_waterfall(pooled))
    else:
        lines.append(
            "  no client-side causal chains in this snapshot "
            "(daemon cores only?)"
        )
    echo_wait = pool_server_echo_wait(doc)
    if echo_wait.count:
        lines.append(
            f"  server echo-ack hold ({echo_wait.count:g} inputs): "
            f"mean {echo_wait.mean:.1f} ms  p95 {echo_wait.p95:.1f} ms"
        )
    pending = sum(
        value
        for name, value in gauges.items()
        if name.endswith(".causal.pending")
    )
    exemplars = sum(
        value
        for name, value in gauges.items()
        if name.endswith(".causal.exemplars")
    )
    if pending or exemplars:
        lines.append(
            f"  tracer: {pending:g} pending chains, "
            f"{exemplars:g} tail exemplars retained"
        )
    return "\n".join(lines)


def trace_main(argv: list[str] | None = None) -> int:
    """Live per-keystroke stage waterfall against a running daemon."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="live causal stage waterfall over a daemon's "
        "telemetry delta feed",
    )
    parser.add_argument(
        "--attach",
        required=True,
        metavar="TARGET",
        help="telemetry address: host:port or a Unix socket path",
    )
    parser.add_argument(
        "--ticks",
        type=int,
        default=0,
        metavar="N",
        help="exit after N feed ticks (default: run until interrupted)",
    )
    args = parser.parse_args(argv)

    from repro.obs import apply_delta
    from repro.obs import telemetry

    doc: dict | None = None
    ticks = 0
    try:
        for line in telemetry.watch(args.attach):
            doc = apply_delta(doc, line)
            ticks += 1
            print(_render_stage_waterfall(doc, ticks, args.attach))
            sys.stdout.flush()
            if args.ticks and ticks >= args.ticks:
                break
    except KeyboardInterrupt:
        pass
    return 0


def top_main(argv: list[str] | None = None) -> int:
    """Attach to a live daemon's delta feed and render fleet panels."""
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="live fleet panel over a daemon's telemetry delta feed",
    )
    parser.add_argument(
        "target", help="telemetry address: host:port or a Unix socket path"
    )
    parser.add_argument(
        "--ticks",
        type=int,
        default=0,
        metavar="N",
        help="exit after N feed ticks (default: run until interrupted)",
    )
    args = parser.parse_args(argv)

    from repro.obs import apply_delta
    from repro.obs import telemetry

    doc: dict | None = None
    ticks = 0
    try:
        for line in telemetry.watch(args.target):
            alerts = line.get("alerts", [])
            doc = apply_delta(doc, line)
            ticks += 1
            print(_render_fleet_panel(doc, ticks, alerts, args.target))
            sys.stdout.flush()
            if args.ticks and ticks >= args.ticks:
                break
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """Umbrella entry point: ``repro <subcommand> [args...]``."""
    commands = {
        "server": server_main,
        "serve": serve_main,
        "client": client_main,
        "mosh": mosh_main,
        "demo": demo_main,
        "scrape": scrape_main,
        "top": top_main,
        "trace": trace_main,
    }
    argv = sys.argv[1:] if argv is None else argv
    usage = (
        "usage: repro {server|serve|client|mosh|demo|scrape|top|trace}"
        " [args...]\n"
        "  server  one-session SSP server (mosh-server equivalent)\n"
        "  serve   multi-session daemon: N sessions on one UDP port\n"
        "  client  interactive SSP client (host port key conn-id)\n"
        "  mosh    bootstrap over SSH, then connect over SSP/UDP\n"
        "  demo    localhost server+client smoke test\n"
        "  scrape  one-shot metrics/health scrape of a live daemon\n"
        "  top     live fleet panel attached to a daemon's delta feed\n"
        "  trace   live per-keystroke stage waterfall (repro trace"
        " --attach T)"
    )
    if not argv or argv[0] in ("-h", "--help"):
        print(usage)
        return 0 if argv else 2
    command = commands.get(argv[0])
    if command is None:
        print(f"repro: unknown subcommand {argv[0]!r}", file=sys.stderr)
        print(usage, file=sys.stderr)
        return 2
    return command(argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
