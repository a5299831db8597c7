#!/usr/bin/env python3
"""Run the hot-path benchmarks and maintain ``BENCH_hotpath.json``.

The committed ``BENCH_hotpath.json`` records the performance trajectory of
the terminal→transport hot path and the datagram sealing path:

* ``baseline`` — the numbers measured before each optimization pass
  (kept verbatim as the historical reference);
* ``current``  — the numbers for the committed tree;
* ``speedup``  — baseline ÷ current, per scenario;
* ``wire_sha256`` — a digest of a scripted session's diff bytes, which
  must never change without a deliberate wire-format revision.

Scenarios come from four suites that share one results file: the
terminal suite (``benchmarks/bench_hotpath.py``), the crypto suite
(``benchmarks/bench_crypto.py``, names prefixed ``aes_``/``ocb_``/
``ref_``/``session_``), the observability suite (``benchmarks/bench_obs.py``,
names prefixed ``obs_``), and the wire-path suite
(``benchmarks/bench_wire.py``, which fills the ``wire`` section instead
of ``ops``). All feed the same ``--check`` regression gate, with two
twists: ``*_overhead_pct`` scenarios are percentages, not µs/op — the
gate asserts each stays at or below ``REPRO_BENCH_OVERHEAD_LIMIT_PCT``
(default 5) instead of comparing ratios — and the ``wire`` section gates
on absolute bounds (batched == unbatched wire bytes, a pkts/sec floor via
``REPRO_BENCH_WIRE_PPS_FLOOR``, and < 0.2 syscalls/pkt on Linux). The
obs suite also contributes a ``histograms`` section (seal/unseal
p50/p99) to the results file.

Usage::

    python tools/bench.py                    # full run, update "current"
    python tools/bench.py --quick            # fast smoke run
    python tools/bench.py --quick --check    # CI: fail on >2x regression
    python tools/bench.py --record-baseline  # overwrite "baseline" (rare)
    python tools/bench.py --quick --profile  # cProfile, top functions

``--check`` never touches the committed file; pass ``--out`` to save the
fresh measurements elsewhere (CI uploads that file as an artifact).
``--profile`` runs the suites under cProfile and prints the top N
functions by cumulative time instead of recording anything.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(ROOT, "BENCH_hotpath.json")

#: An op "regresses" when it is this many times slower than the committed
#: number. Generous because CI hardware differs from the recording host.
REGRESSION_FACTOR = float(os.environ.get("REPRO_BENCH_REGRESSION_FACTOR", "2.0"))

#: Acceptance bound for ``*_overhead_pct`` scenarios: the always-on
#: observability layer may add at most this much to an uninstrumented run.
OVERHEAD_LIMIT_PCT = float(
    os.environ.get("REPRO_BENCH_OVERHEAD_LIMIT_PCT", "5.0")
)

#: Floor for the batched wire-path throughput (pkts/sec) in the ``wire``
#: section. Conservative: the recording host measured ~27-29k; this gate
#: only catches order-of-magnitude regressions, not host noise.
WIRE_PPS_FLOOR = float(os.environ.get("REPRO_BENCH_WIRE_PPS_FLOOR", "5000"))

#: Upper bound on measured syscalls per packet for the batched real-UDP
#: path (ISSUE acceptance: < 0.2 on Linux).
WIRE_SYSCALLS_LIMIT = float(
    os.environ.get("REPRO_BENCH_WIRE_SYSCALLS_LIMIT", "0.2")
)

#: The committed fleet-capacity model (written by benchmarks/bench_fleet.py).
FLEET_RESULTS_PATH = os.path.join(ROOT, "BENCH_fleet.json")

#: The committed fleet model must show the O(active) scheduler carrying at
#: least this many times more idle sessions per core than the pre-parking
#: daemon (its ``frozen_legacy`` block), at the same echo-latency SLO.
FLEET_RATIO_MIN = float(os.environ.get("REPRO_BENCH_FLEET_RATIO_MIN", "4"))


def _load_bench_module(filename: str):
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    path = os.path.join(ROOT, "benchmarks", filename)
    name = os.path.splitext(filename)[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _run_suites(quick: bool) -> dict:
    """Run all suites; crypto and obs ops merge into the hot-path result."""
    fresh = _load_bench_module("bench_hotpath.py").run_benchmarks(quick=quick)
    crypto = _load_bench_module("bench_crypto.py").run_benchmarks(quick=quick)
    fresh["ops"].update(crypto["ops"])
    obs = _load_bench_module("bench_obs.py").run_benchmarks(quick=quick)
    fresh["ops"].update(obs["ops"])
    fresh["histograms"] = obs["histograms"]
    wire = _load_bench_module("bench_wire.py").run_benchmarks(quick=quick)
    fresh["wire"] = wire["wire"]
    return fresh


def _load_committed() -> dict:
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as f:
            return json.load(f)
    return {"schema": 1}


def _speedups(baseline: dict, current: dict) -> dict:
    out = {}
    for name, us in current.items():
        base = baseline.get(name)
        if base and us:
            out[name] = round(base / us, 2)
    return out


def _check(committed: dict, fresh: dict) -> int:
    """Compare a fresh run against the committed numbers; 0 = pass."""
    failures = []
    reference = committed.get("current", {})
    if not reference:
        print("check: no committed 'current' numbers; nothing to compare")
        return 0
    for name, ref_us in reference.items():
        got_us = fresh["ops"].get(name)
        if got_us is None:
            failures.append(f"{name}: scenario missing from this build")
        elif name.endswith("_overhead_pct"):
            # Percent-overhead scenarios gate against an absolute bound,
            # not a ratio: host noise makes 0.4 % vs 0.2 % meaningless.
            if got_us > OVERHEAD_LIMIT_PCT:
                failures.append(
                    f"{name}: {got_us:.2f} % instrumentation overhead "
                    f"(bound {OVERHEAD_LIMIT_PCT:g} %)"
                )
        elif got_us > ref_us * REGRESSION_FACTOR:
            failures.append(
                f"{name}: {got_us:.1f} µs/op vs committed {ref_us:.1f} µs/op "
                f"(>{REGRESSION_FACTOR:g}x regression)"
            )
    committed_sha = committed.get("wire_sha256")
    if committed_sha and committed_sha != fresh["wire_sha256"]:
        failures.append(
            "wire_sha256 mismatch: the diff wire format changed "
            f"({fresh['wire_sha256'][:16]}… vs committed {committed_sha[:16]}…)"
        )
    wire = fresh.get("wire")
    if wire is not None:
        # The wire-path gate: batching must be byte-identical to the
        # unbatched path, fast enough to be worth having, and (on Linux)
        # actually amortizing syscalls.
        if not wire.get("wire_match"):
            failures.append(
                "wire: batched datagram stream differs from unbatched "
                "(zero-copy/batching changed the bytes on the wire)"
            )
        if not wire.get("e2e_wire_match", True):
            failures.append(
                "wire: full-stack batched session bytes differ from unbatched"
            )
        pps = wire.get("pkts_per_sec_batched", 0.0)
        if pps < WIRE_PPS_FLOOR:
            failures.append(
                f"wire: {pps:,.0f} pkts/sec batched "
                f"(floor {WIRE_PPS_FLOOR:,.0f})"
            )
        per_pkt = wire.get("syscalls_per_pkt")
        if per_pkt is not None and per_pkt >= WIRE_SYSCALLS_LIMIT:
            failures.append(
                f"wire: {per_pkt:.3f} syscalls/pkt "
                f"(bound {WIRE_SYSCALLS_LIMIT:g})"
            )
    failures.extend(_check_fleet())
    if failures:
        print("benchmark check FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"benchmark check passed: {len(reference)} scenarios within "
        f"{REGRESSION_FACTOR:g}x of committed numbers, wire format unchanged"
    )
    return 0


def _check_fleet() -> list[str]:
    """Gate the committed fleet-capacity model (BENCH_fleet.json).

    The fleet bench itself is too slow for every --check run, so this
    validates the committed document: it must exist, its capacity slope
    must clear >= FLEET_RATIO_MIN times the idle capacity of the frozen
    legacy block, and every measured fleet must have met the echo-latency
    SLO. Re-running ``benchmarks/bench_fleet.py --check`` re-measures this
    build from scratch against the same frozen block.
    """
    if not os.path.exists(FLEET_RESULTS_PATH):
        return [
            "fleet: BENCH_fleet.json missing "
            "(run: python benchmarks/bench_fleet.py)"
        ]
    with open(FLEET_RESULTS_PATH) as f:
        doc = json.load(f)
    failures = []
    capacity = doc.get("capacity", {})
    ratio = _load_bench_module("bench_fleet.py").idle_capacity_ratio(
        capacity, doc.get("frozen_legacy", {})
    )
    if ratio < FLEET_RATIO_MIN:
        failures.append(
            f"fleet: committed idle capacity ratio {ratio:g}x over the "
            f"frozen legacy < required {FLEET_RATIO_MIN:g}x"
        )
    if not capacity.get("slo_met"):
        failures.append(
            "fleet: committed run breached the keystroke-echo SLO"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against committed BENCH_hotpath.json; fail on regression",
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run as the historical baseline",
    )
    parser.add_argument(
        "--out", default=None, help="write results to this path instead"
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help="run under cProfile and print the top N functions by "
        "cumulative time (default 25); records nothing",
    )
    args = parser.parse_args(argv)

    print(
        f"running hot-path benchmarks ({'quick' if args.quick else 'full'})…",
        file=sys.stderr,
    )
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        _run_suites(quick=args.quick)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile)
        return 0
    fresh = _run_suites(quick=args.quick)

    doc = _load_committed()
    doc.setdefault("schema", 1)
    doc["geometry"] = fresh["geometry"]
    doc["histograms"] = fresh["histograms"]
    doc["wire"] = fresh["wire"]
    if args.record_baseline:
        doc["baseline"] = fresh["ops"]
        doc["baseline_quick"] = fresh["quick"]
    else:
        doc["current"] = fresh["ops"]
        doc["current_quick"] = fresh["quick"]
        if "baseline" in doc:
            doc["speedup"] = _speedups(doc["baseline"], fresh["ops"])
    doc["wire_sha256"] = doc.get("wire_sha256") or fresh["wire_sha256"]

    if args.check:
        status = _check(_load_committed(), fresh)
        if args.out:
            doc["current"] = fresh["ops"]  # the artifact shows this run
            doc["wire_sha256"] = fresh["wire_sha256"]
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
            print(f"wrote {args.out}")
        return status

    out_path = args.out or RESULTS_PATH
    doc["wire_sha256"] = fresh["wire_sha256"]
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")
    if "speedup" in doc:
        for name, x in sorted(doc["speedup"].items()):
            print(f"  {name:<18} {x:>7.2f}x vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
