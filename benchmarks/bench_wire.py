"""Wire-path benchmark: the muxed daemon's batched datagram pipeline.

Three measurements feed the ``wire`` section of ``BENCH_hotpath.json``:

* **Wire-path throughput** (the headline ``pkts_per_sec_*`` numbers) —
  a 256-session sim-daemon echo workload driven at the wire layer:
  every round injects one pre-sealed datagram per session into the
  shared port, and every session echoes the payload straight back.
  This isolates exactly the path the batching rebuilt — mux dispatch,
  framing, unseal, replay window, flight recording, notification,
  seal, transmit — with the per-tick batch at the session count. Run
  twice, with and without batching, on one core.
* **End-to-end identity** (``e2e_*``) — the same daemon under full
  session cores (typing clients, echo-to-screen servers, transport
  pacing, prediction), as the byte-identity proof in a complete
  system. Both workloads compute an order-insensitive SHA-256 over
  every datagram that crossed the simulated links; equality between
  the batched and unbatched runs is the proof that batching is a pure
  execution-strategy change. The digest sorts the (time, side, src,
  dst, bytes) multiset first because batching may legally reorder
  *independent sessions'* datagrams within one simulated instant;
  each session's own stream stays in order, and pure-delay links
  preserve it end-to-end.
* **Syscalls per packet** — a real-UDP loopback echo through
  :class:`~repro.network.connection.MuxUdpConnection` with the batchers
  attached, counting actual kernel crossings via
  :class:`~repro.network.batch.SyscallCounter` (Linux ``sendmmsg``/
  ``recvmmsg``; skipped where unavailable).

Run via the CLI runner::

    python tools/bench.py            # full run, updates BENCH_hotpath.json
    python tools/bench.py --quick    # CI smoke run
"""

from __future__ import annotations

import hashlib
import sys
import time

from repro.crypto.keys import Base64Key
from repro.session.inprocess import InProcessDaemon
from repro.simnet.link import LinkConfig

#: Wire-path workload: (sessions, echo rounds) at full and quick scale.
_WIRE_SCALE = {"full": (256, 20), "quick": (32, 6)}

#: End-to-end workload: (sessions, typing rounds) at full and quick scale.
_SCALE = {"full": (256, 4), "quick": (32, 2)}

#: Syscall-measurement scale: sessions x rounds on real loopback UDP.
_SYS_SESSIONS = 64
_SYS_ROUNDS = 4


def _key_for(i: int) -> Base64Key:
    """Deterministic per-session key so both runs seal identical bytes."""
    return Base64Key(hashlib.sha256(b"bench-wire-%d" % i).digest()[:16])


class _Sink:
    """A raw datagram sink standing in for a client's socket."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def deliver(self, raw, src_addr) -> None:
        self.count += 1


def _wire_digest(wire: list) -> str:
    digest = hashlib.sha256()
    for now, side, src, dst, raw in sorted(wire):
        digest.update(f"{now:.3f}|{side}|{src}|{dst}|{len(raw)}|".encode())
        digest.update(raw)
    return digest.hexdigest()


def _run_wirepath(sessions: int, rounds: int, wire_batch: bool) -> dict:
    """Echo workload at the wire layer: pre-sealed in, sealed echo out.

    Returns pkts (both directions), timed wall seconds of the daemon's
    processing, and the wire SHA over every daemon-emitted datagram.
    """
    from repro.crypto.keys import DIRECTION_TO_SERVER, Nonce
    from repro.crypto.session import Message, Session
    from repro.daemon.mux import SessionMux
    from repro.network.batch import RxBatcher, WireBatcher
    from repro.network.packet import encode_conn_id
    from repro.obs.flight import FlightRecorder
    from repro.runtime.reactor import SimReactor
    from repro.simnet.eventloop import EventLoop
    from repro.simnet.host import CLIENT_SIDE, SimMuxPort, SimNetwork

    loop = EventLoop()
    reactor = SimReactor(loop)
    network = SimNetwork(
        loop, LinkConfig(delay_ms=10), LinkConfig(delay_ms=10), seed=5
    )
    mux = SessionMux(clock=loop.now, registry=reactor.registry)
    port = SimMuxPort(network, "daemon", handler=mux.dispatch)
    mux.transmit = port.transmit
    tx = rx = None
    if wire_batch:
        tx = WireBatcher(registry=reactor.registry)
        rx = RxBatcher(registry=reactor.registry)
        reactor.add_flush_hook(rx.flush)
        reactor.add_flush_hook(tx.flush)

    client_sessions = []
    sinks = []
    for i in range(sessions):
        key = _key_for(i)
        endpoint = mux.open_endpoint(Session(key), conn_id=i + 1)
        endpoint.flight = FlightRecorder(
            f"s{i + 1}", 128, reactor.clock_domain
        )
        if wire_batch:
            endpoint.batcher = tx
            endpoint.rx_stage = rx.stage

        def echo(now: float, count: int = 1, ep=endpoint) -> None:
            for payload in ep.pop_received():
                ep.send(payload, now)

        endpoint.on_datagram = echo
        endpoint.on_datagram_count = echo
        client_sessions.append(Session(key))
        sink = _Sink()
        sinks.append(sink)
        network.register(f"client-{i}", sink)

    # Pre-seal every injected datagram outside the timed region: the
    # clients of a real daemon are other machines, so their sealing cost
    # is not part of the daemon's wire path.
    prepared: list[list[bytes]] = []
    body = b"\x00\x00\xff\xff" + bytes(28)  # ts=0, tsr=none, 28B payload
    for rnd in range(rounds):
        batch = []
        for i, session in enumerate(client_sessions):
            nonce = Nonce(direction=DIRECTION_TO_SERVER, seq=rnd)
            batch.append(
                encode_conn_id(i + 1)
                + session.encrypt(Message(nonce=nonce, text=body))
            )
        prepared.append(batch)

    wire: list[tuple] = []
    inner = network.send_datagram

    def tap(from_side: str, src: str, dst: str, raw) -> None:
        wire.append((loop.now(), from_side, src, dst, bytes(raw)))
        inner(from_side, src, dst, raw)

    network.send_datagram = tap

    def inject(batch: list) -> None:
        for i, raw in enumerate(batch):
            tap(CLIENT_SIDE, f"client-{i}", "daemon", raw)

    for rnd, batch in enumerate(prepared):
        loop.schedule_at(rnd * 100.0, lambda b=batch: inject(b))

    t0 = time.perf_counter()
    loop.run_until(rounds * 100.0 + 100.0)
    elapsed = time.perf_counter() - t0

    expected = rounds * sessions
    echoed = sum(s.count for s in sinks)
    if echoed != expected:
        raise RuntimeError(f"echoed {echoed} of {expected} datagrams")
    return {
        "datagrams": len(wire),
        "elapsed_s": elapsed,
        "sha256": _wire_digest(wire),
    }


def _run_workload(sessions: int, rounds: int, wire_batch: bool) -> dict:
    """One echo workload; returns pkts, wall seconds, and the wire SHA."""
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=10),
        LinkConfig(delay_ms=10),
        sessions=0,
        width=40,
        height=8,
        seed=11,
        wire_batch=wire_batch,
        flight_capacity=256,
    )
    for i in range(sessions):
        daemon.add_session(key=_key_for(i))

    wire: list[tuple] = []
    network = daemon.network
    inner = network.send_datagram

    def tap(from_side: str, src: str, dst: str, raw) -> None:
        wire.append((daemon.loop.now(), from_side, src, dst, bytes(raw)))
        inner(from_side, src, dst, raw)

    network.send_datagram = tap

    t0 = time.perf_counter()
    daemon.connect(warmup_ms=1500)
    for _ in range(rounds):
        for cid in daemon.conn_ids:
            daemon.client(cid).type_bytes(b"x")
        daemon.run_for(500)
    daemon.run_for(2000)
    elapsed = time.perf_counter() - t0
    return {
        "datagrams": len(wire),
        "elapsed_s": elapsed,
        "sha256": _wire_digest(wire),
    }


def _measure_syscalls(
    sessions: int = _SYS_SESSIONS, rounds: int = _SYS_ROUNDS
) -> dict | None:
    """Real-UDP loopback echo; returns measured syscalls-per-packet.

    None where the mmsg fast path is unavailable (non-Linux or the
    ``REPRO_WIRE_PORTABLE`` gate): the figure is a Linux acceptance
    number, not a portable one.
    """
    import socket

    from repro.crypto.keys import DIRECTION_TO_SERVER, Nonce
    from repro.crypto.session import Message, Session
    from repro.network import sysbatch
    from repro.network.batch import RxBatcher, WireBatcher
    from repro.network.connection import MuxUdpConnection
    from repro.network.packet import encode_conn_id

    if not sysbatch.available():
        return None

    conn = MuxUdpConnection(bind_host="127.0.0.1")
    tx = WireBatcher(transmit_many=conn.transmit_many)
    rx = RxBatcher()
    conn.rx_batcher = rx
    client_sessions: dict[int, Session] = {}
    for i in range(sessions):
        key = _key_for(i)
        endpoint = conn.open_endpoint(Session(key), conn_id=i + 1)
        endpoint.batcher = tx
        endpoint.rx_stage = rx.stage

        def echo(now: float, count: int, ep=endpoint) -> None:
            for payload in ep.pop_received():
                ep.send(payload, now)

        endpoint.on_datagram_count = echo
        client_sessions[i + 1] = Session(key)

    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.bind(("127.0.0.1", 0))
    client.settimeout(1.0)
    dst = ("127.0.0.1", conn.port)

    pkts = 0
    for rnd in range(rounds):
        for cid, session in client_sessions.items():
            nonce = Nonce(direction=DIRECTION_TO_SERVER, seq=rnd)
            raw = session.encrypt(
                Message(nonce=nonce, text=b"\x00\x01\xff\xffping-%d" % cid)
            )
            client.sendto(encode_conn_id(cid) + raw, dst)
        time.sleep(0.02)
        pkts += conn.receive_ready()  # recvmmsg bursts + staged unseal
        rx.flush()
        pkts += tx.flush()  # one crypto pass + sendmmsg burst
        # Drain the echoes so the client socket buffer can't fill.
        client.setblocking(False)
        while True:
            try:
                client.recvfrom(65536)
            except OSError:
                break
    total = conn.syscalls.total
    conn.close()
    client.close()
    if pkts == 0:
        return None
    return {
        "packets": pkts,
        "syscalls": total,
        "per_packet": round(total / pkts, 4),
        "calls": conn.syscalls.snapshot(),
    }


def run_benchmarks(quick: bool = False, verbose: bool = True) -> dict:
    """Run all three measurements; returns the ``wire`` results section."""
    w_sessions, w_rounds = _WIRE_SCALE["quick" if quick else "full"]
    w_unbatched = _run_wirepath(w_sessions, w_rounds, wire_batch=False)
    w_batched = _run_wirepath(w_sessions, w_rounds, wire_batch=True)
    w_pps_un = w_unbatched["datagrams"] / w_unbatched["elapsed_s"]
    w_pps = w_batched["datagrams"] / w_batched["elapsed_s"]
    wire = {
        "sessions": w_sessions,
        "datagrams": w_batched["datagrams"],
        "pkts_per_sec_unbatched": round(w_pps_un, 1),
        "pkts_per_sec_batched": round(w_pps, 1),
        "speedup": round(w_pps / w_pps_un, 2),
        "wire_sha256": w_batched["sha256"],
        "wire_match": w_batched["sha256"] == w_unbatched["sha256"],
    }
    if verbose:
        print(
            f"wire: {w_sessions} sessions, {w_batched['datagrams']} "
            f"datagrams — {w_pps_un:,.0f} -> {w_pps:,.0f} pkts/s "
            f"({wire['speedup']}x), wire "
            f"{'identical' if wire['wire_match'] else 'MISMATCH'}",
            file=sys.stderr,
        )

    sessions, rounds = _SCALE["quick" if quick else "full"]
    unbatched = _run_workload(sessions, rounds, wire_batch=False)
    batched = _run_workload(sessions, rounds, wire_batch=True)
    pps_unbatched = unbatched["datagrams"] / unbatched["elapsed_s"]
    pps_batched = batched["datagrams"] / batched["elapsed_s"]
    wire.update({
        "e2e_sessions": sessions,
        "e2e_datagrams": batched["datagrams"],
        "e2e_pkts_per_sec_unbatched": round(pps_unbatched, 1),
        "e2e_pkts_per_sec_batched": round(pps_batched, 1),
        "e2e_speedup": round(pps_batched / pps_unbatched, 2),
        "e2e_wire_match": batched["sha256"] == unbatched["sha256"],
    })
    if verbose:
        print(
            f"wire e2e: {sessions} full sessions, {batched['datagrams']} "
            f"datagrams — {pps_unbatched:,.0f} -> {pps_batched:,.0f} pkts/s "
            f"({wire['e2e_speedup']}x), wire "
            f"{'identical' if wire['e2e_wire_match'] else 'MISMATCH'}",
            file=sys.stderr,
        )

    syscalls = _measure_syscalls()
    if syscalls is not None:
        wire["syscalls_per_pkt"] = syscalls["per_packet"]
        wire["syscall_detail"] = syscalls["calls"]
        if verbose:
            print(
                f"wire: {syscalls['syscalls']} syscalls / "
                f"{syscalls['packets']} pkts = "
                f"{syscalls['per_packet']}/pkt {syscalls['calls']}",
                file=sys.stderr,
            )
    return {"wire": wire}


if __name__ == "__main__":
    import json

    results = run_benchmarks(quick="--quick" in sys.argv)
    print(json.dumps(results, indent=2))
    wire = results["wire"]
    if not (wire["wire_match"] and wire["e2e_wire_match"]):
        # Standalone runs double as the CI fallback smoke test: a wire
        # mismatch means batching changed the bytes and must fail loudly.
        sys.exit(1)
