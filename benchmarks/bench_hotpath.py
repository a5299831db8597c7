"""Hot-path microbenchmarks: the terminal→transport per-frame pipeline.

SSP's sender loop runs the same short sequence on every paced frame:
snapshot the current screen (``Complete.copy``), compare it against sent
states (``Framebuffer.__eq__`` via fingerprints), and compute the wire
diff (``Complete.diff_from`` → ``Display.new_frame``). Host output reaches
that loop through the server's emulator (``Complete.act``), and each diff
through the client's (``Complete.apply_diff``). These benchmarks time each
piece in isolation plus two end-to-end scenarios through
:class:`~repro.session.InProcessSession`, and emit machine-readable
numbers so performance PRs carry a recorded trajectory.

Run via the CLI runner::

    python tools/bench.py            # full run, updates BENCH_hotpath.json
    python tools/bench.py --quick    # CI smoke run

Every scenario is deterministic (fixed content, seeded simulator), and
``wire_sha256`` hashes the diff bytes of a scripted editing session — two
builds that disagree on it have changed the wire format.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import time

from repro.prediction.engine import DisplayPreference
from repro.session.inprocess import InProcessSession
from repro.simnet.link import LinkConfig
from repro.terminal.complete import Complete
from repro.terminal.display import Display

WIDTH, HEIGHT = 80, 24

#: (full iterations, quick iterations) per scenario; repeats pick the best.
_SCALE = {"full": (400, 5), "quick": (60, 2)}


def populated_terminal(width: int = WIDTH, height: int = HEIGHT) -> Complete:
    """A terminal showing two screenfuls of colored text (steady state)."""
    term = Complete(width, height)
    for i in range(height * 2):
        line = f"\x1b[3{i % 8}m{i:04d} " + "lorem ipsum dolor sit amet " * 2
        term.act(line[: width - 1].encode() + b"\r\n")
    term.act(b"\x1b[0m$ ")
    return term


def _typing_keys():
    """An endless deterministic stream of shell-like keystrokes."""
    text = b"ls -la src/repro && git status  "
    i = 0
    while True:
        yield bytes([text[i % len(text)]])
        i += 1
        if i % 64 == 0:
            yield b"\r\n$ "


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
# Microbenchmark scenarios
# ----------------------------------------------------------------------


def bench_snapshot(iters: int) -> float:
    term = populated_terminal()
    return _best_of(term.copy, iters)


def bench_eq_identical(iters: int) -> float:
    term = populated_terminal()
    snap = term.copy()
    return _best_of(lambda: term == snap, iters)


def bench_eq_one_dirty_row(iters: int) -> float:
    term = populated_terminal()
    snap = term.copy()
    term.act(b"x")
    return _best_of(lambda: term == snap, iters)


def bench_diff_identical(iters: int) -> float:
    term = populated_terminal()
    snap = term.copy()
    return _best_of(lambda: term.diff_from(snap), iters)


def bench_typing_diff(iters: int) -> float:
    """Steady-state typing: the sender's full per-frame sequence.

    Each op is one paced frame during an interactive session — snapshot
    the screen, feed one echoed keystroke through the emulator, and
    compute the wire diff against the snapshot.
    """
    term = populated_terminal()
    keys = _typing_keys()

    def frame() -> None:
        snap = term.copy()
        term.act(next(keys))
        term.diff_from(snap)

    return _best_of(frame, iters)


def bench_flood_diff(iters: int) -> float:
    """Scroll-heavy frames: eight full lines of output per frame."""
    term = populated_terminal()
    counter = [0]

    def frame() -> None:
        snap = term.copy()
        counter[0] += 1
        for j in range(8):
            term.act(f"flood {counter[0]:06d}/{j} ".encode() + b"y" * 40 + b"\r\n")
        term.diff_from(snap)

    return _best_of(frame, max(1, iters // 8))


def _flood_writes() -> list[bytes]:
    """The host writes of perfbench's flood workload (seed 1, first 16 KB):
    an SGR-coloured build log in 16-96 byte chunks."""
    name = "_perfbench_workloads"
    workloads = sys.modules.get(name)
    if workloads is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[name] = workloads  # its dataclasses look it up there
        spec.loader.exec_module(workloads)
    flood = workloads.Flood(1, scale=16 / workloads.FLOOD_KB)
    return [chunk for _, chunk in flood.writes]


def bench_sgr_emulate(iters: int) -> float:
    """Server-side emulate: 16 coloured-log host writes (about 900 bytes)
    through ``Complete.act`` per op."""
    term = populated_terminal()
    chunks = _flood_writes()
    cursor = [0]

    def op() -> None:
        pos = cursor[0]
        for chunk in chunks[pos : pos + 16]:
            term.act(chunk)
        cursor[0] = (pos + 16) % (len(chunks) - 16)

    return _best_of(op, iters)


def bench_flood_apply(iters: int) -> float:
    """Client-side apply: one flood frame's diff (four coloured-log host
    writes) through ``Complete.apply_diff`` per op. The client restarts
    from the first frame's source after the last frame."""
    server = populated_terminal()
    start = server.copy()
    prev = start
    chunks = _flood_writes()
    diffs = []
    for pos in range(0, len(chunks) - 3, 4):
        for chunk in chunks[pos : pos + 4]:
            server.act(chunk)
        snap = server.copy()
        diffs.append(snap.diff_from(prev))
        prev = snap
    state = [start.copy(), 0]

    def op() -> None:
        client, i = state
        if i == len(diffs):
            client = state[0] = start.copy()
            i = 0
        client.apply_diff(diffs[i])
        state[1] = i + 1

    return _best_of(op, iters)


def bench_flood_log_diff(iters: int) -> float:
    """Server-side diff of the coloured build log: one frame of six host
    writes per op (perfbench's flood paces 5,513 writes into 959 frames),
    timing only ``Complete.diff_from``. The frames are built beforehand;
    ops cycle through them."""
    term = populated_terminal()
    prev = term.copy()
    chunks = _flood_writes()
    frames = []
    for pos in range(0, len(chunks) - 5, 6):
        for chunk in chunks[pos : pos + 6]:
            term.act(chunk)
        snap = term.copy()
        frames.append((snap.diff_from, prev))
        prev = snap
    cursor = [0]

    def op() -> None:
        i = cursor[0]
        diff_from, source = frames[i]
        diff_from(source)
        cursor[0] = (i + 1) % len(frames)

    return _best_of(op, iters)


# ----------------------------------------------------------------------
# End-to-end scenarios (wall time of a whole simulated session)
# ----------------------------------------------------------------------


def _fast_session() -> InProcessSession:
    session = InProcessSession(
        LinkConfig(delay_ms=20.0),
        LinkConfig(delay_ms=20.0),
        width=WIDTH,
        height=HEIGHT,
        seed=0,
        preference=DisplayPreference.ALWAYS,
    )
    session.server.on_input = lambda data: session.server.host_write(data)
    session.connect(warmup_ms=500.0)
    return session


def bench_e2e_typing(iters: int) -> float:
    """Wall time to simulate typing 120 echoed keystrokes (one op)."""

    def run() -> None:
        session = _fast_session()
        for i in range(120):
            session.client.type_bytes(b"q" if i % 30 else b"\r")
            session.run_for(40.0)

    return _best_of(run, 1, repeats=max(2, min(3, iters)))


def bench_e2e_flood(iters: int) -> float:
    """Wall time to push 300 lines of host output through a session."""

    def run() -> None:
        session = _fast_session()
        for i in range(100):
            for j in range(3):
                session.server.host_write(
                    f"out {i:04d}.{j} ".encode() + b"z" * 50 + b"\r\n"
                )
            session.run_for(25.0)

    return _best_of(run, 1, repeats=max(2, min(3, iters)))


# ----------------------------------------------------------------------
# Wire-format fingerprint
# ----------------------------------------------------------------------

_WIRE_SCRIPT = [
    b"hello world\r\n",
    b"\x1b[31mred text\x1b[0m and plain\r\n" * 3,
    b"\x1b[2J\x1b[H fresh screen",
    b"\x1b[5;10H\x1b[44mboxed\x1b[0m",
    b"line\r\n" * 30,  # scroll
    b"\x1b[3;1H\x1b[2Kmiddle edit",
    "宽字符 wide\r\n".encode(),
    b"\x1b[?25l\x1b[?2004hmodes",
    b"\x07\x07bells",
    b"\x1b]0;title\x07done",
]


def wire_fingerprint() -> str:
    """SHA-256 over the diff bytes of a scripted session.

    Byte-identical across builds unless the wire format (diff encoding or
    the display diff algorithm) changes; committed to BENCH_hotpath.json
    and enforced by ``tools/bench.py --check``.
    """
    term = Complete(WIDTH, HEIGHT)
    digest = hashlib.sha256()
    prev = term.copy()
    for chunk in _WIRE_SCRIPT:
        term.act(chunk)
        diff = term.diff_from(prev)
        digest.update(diff)
        # Same pair diffed twice must be byte-identical (memoization-safe).
        assert term.diff_from(prev) == diff
        digest.update(Display.new_frame(prev.fb, term.fb))
        digest.update(Display.new_frame(None, term.fb))
        prev = term.copy()
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Harness entry point
# ----------------------------------------------------------------------

SCENARIOS = {
    "snapshot": bench_snapshot,
    "eq_identical": bench_eq_identical,
    "eq_one_dirty_row": bench_eq_one_dirty_row,
    "diff_identical": bench_diff_identical,
    "typing_diff": bench_typing_diff,
    "flood_diff": bench_flood_diff,
    "sgr_emulate": bench_sgr_emulate,
    "flood_apply": bench_flood_apply,
    "flood_log_diff": bench_flood_log_diff,
    "e2e_typing": bench_e2e_typing,
    "e2e_flood": bench_e2e_flood,
}


def run_benchmarks(quick: bool = False, verbose: bool = True) -> dict:
    """Run every scenario; returns {"ops": {name: µs/op}, "wire_sha256"}."""
    iters_full, iters_quick = _SCALE["full"] if not quick else _SCALE["quick"]
    ops: dict[str, float] = {}
    for name, fn in SCENARIOS.items():
        iters = iters_quick if name.startswith("e2e_") else iters_full
        seconds = fn(iters)
        ops[name] = round(seconds * 1e6, 3)  # µs per op
        if verbose:
            print(f"  {name:<18} {ops[name]:>12.1f} µs/op", file=sys.stderr)
    return {
        "geometry": f"{WIDTH}x{HEIGHT}",
        "quick": quick,
        "ops": ops,
        "wire_sha256": wire_fingerprint(),
    }


if __name__ == "__main__":
    import json

    print(json.dumps(run_benchmarks("--quick" in sys.argv), indent=2))
