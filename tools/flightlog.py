#!/usr/bin/env python3
"""Merge two flight-log recordings into one causal wire timeline.

Feed it the client's and the server's ``repro.obs.flight/1`` JSONL
recordings (produced by ``--flight-log`` on the real apps, or
``export_jsonl`` on an ``InProcessSession``'s recorders) and it prints a
human-readable merge report: per-direction delivery/loss/reorder
accounting, one-way delays, the sender's RTT-estimator audit,
per-instruction convergence latencies, and anomaly flags.

Usage::

    python tools/flightlog.py client.jsonl server.jsonl
    python tools/flightlog.py client.jsonl server.jsonl --json report.json
    python tools/flightlog.py client.jsonl server.jsonl --chrome wire.json
    python tools/flightlog.py client.jsonl server.jsonl --check

``--check`` exits nonzero if any cross-endpoint invariant fails (fate
partition doesn't sum to packets sent, an RTT sample falls outside the
estimator's own SRTT±RTO bound, or a sequence number regressed beyond the
replay window).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.flight import (  # noqa: E402
    analyze,
    check,
    export_chrome,
    render_report,
)
from repro.obs.flight import load_flight_log  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("client_log", help="client repro.obs.flight/1 JSONL")
    parser.add_argument("server_log", help="server repro.obs.flight/1 JSONL")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the merged report document as JSON",
    )
    parser.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also write the per-packet timeline as Chrome trace_event JSON",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero if any cross-endpoint invariant fails",
    )
    args = parser.parse_args(argv)

    client = load_flight_log(args.client_log)
    server = load_flight_log(args.server_log)
    # The CLI names the roles positionally; accept either order.
    if client[0]["role"] == "server" and server[0]["role"] == "client":
        client, server = server, client

    report = analyze(client, server)
    print(render_report(report))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json}")
    if args.chrome:
        n = export_chrome(client, server, args.chrome)
        print(f"{n} timeline events written to {args.chrome}")

    if args.check:
        failures = check(report)
        if failures:
            print("flight-log invariant check FAILED:")
            for line in failures:
                print(f"  - {line}")
            return 1
        print("all flight-log invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
