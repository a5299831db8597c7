"""The benchmark's workloads: seeded inputs and one measured pass each.

A workload object builds every input from its seed once (traces, host
output, keys, link assignment) and then replays them any number of times
with :meth:`run_pass`. Each pass builds a fresh simulated world, so the
simulated-time results of every pass of one seed are identical; only the
wall-clock figures differ.

* ``typing`` — the six persona traces replayed one session at a time with
  ``replay_mosh`` over the EV-DO profile (the paper's Figure 2).
* ``flood`` — one session on a 5 ms link; the host writes a coloured
  compiler log in small chunks every few ms and nobody types.
* ``fleet`` — 256 sessions on one ``InProcessDaemon`` port over a
  wifi/LTE/EV-DO mix; 32 of them type persona traces through the echo
  app while the rest idle and park.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field

# repro.session must be imported before repro.traces or repro.simnet:
# importing either of those first trips a simnet <-> runtime import cycle.
import repro.session  # noqa: F401
from repro.crypto.keys import Base64Key
from repro.errors import TraceError
from repro.prediction.engine import DisplayPreference
from repro.session.inprocess import InProcessDaemon, InProcessSession
from repro.simnet.link import LinkConfig
from repro.simnet.netem import evdo_profile
from repro.traces import generate_all_personas, generate_persona, replay
from repro.traces.generate import PERSONA_BUDGETS

#: Share of the full persona budgets (≈10k keystrokes) one typing pass
#: replays: enough keystrokes that the echo p99 has ten samples beyond it.
TYPING_SCALE = 0.25

FLOOD_KB = 300
FLOOD_LINK_MS = 5.0
FLOOD_SETUPS = 7

FLEET_SESSIONS = 256
FLEET_ACTIVE = 32
FLEET_KEYS_PER_SESSION = 40
FLEET_THINK_CAP_MS = 1500.0
FLEET_SETTLE_MS = 10_000.0
#: Simulated connect window: long enough for a lossy EV-DO session to
#: recover a lost first exchange, so set-up time does not jump with the
#: seed's loss draws.
FLEET_CONNECT_MS = 6_000.0
FLEET_CONNECT_LIMIT_MS = 30_000.0

#: Access links for the fleet: (uplink, downlink, share of sessions).
FLEET_PROFILES = {
    "wifi": (
        LinkConfig(delay_ms=5.0, jitter_ms=1.0),
        LinkConfig(delay_ms=5.0, jitter_ms=1.0),
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


@dataclass
class PassResult:
    """What one pass measured. Everything but the wall-clock fields is
    simulated and must repeat exactly for a seed."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: Work done: keystrokes (typing, fleet) or KB of host output (flood).
    ops: float = 0.0
    #: Checked items (keystrokes or host writes, plus sessions) and how
    #: many of them failed a check; ``failures`` says which and why.
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Raw per-event latencies: keystroke echo, or host-write delay (flood).
    latencies_ms: list[float] = field(default_factory=list)
    keystrokes: int = 0
    instant: int = 0
    mispredicted: int = 0
    wire_bytes: int = 0
    instructions_sent: int = 0
    instructions_received: int = 0
    states_created: int = 0

    def simulated(self) -> tuple:
        """The fields that depend only on the seed."""
        return (
            self.ops, self.attempted, self.failed, tuple(self.failures),
            tuple(self.latencies_ms), self.keystrokes, self.instant,
            self.mispredicted, self.wire_bytes, self.instructions_sent,
            self.instructions_received, self.states_created,
        )

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)

    def add_transport(self, client, core) -> None:
        """Count one session's wire bytes and instruction traffic."""
        for transport in (client.transport, core.transport):
            self.wire_bytes += transport.endpoint.bytes_sent
            self.instructions_sent += transport.sender.instructions_sent
            receiver = transport.receiver
            self.states_created += receiver.instructions_applied
            self.instructions_received += (
                receiver.instructions_applied
                + receiver.duplicates_ignored
                + receiver.unusable_ignored
            )

    def check_screens(self, label: str, client, core) -> None:
        """The client's copy of the screen must equal the server's."""
        self.attempted += 1
        if client.remote_terminal.fb != core.terminal.fb:
            self.fail(f"{label}: client screen differs from server")


@contextlib.contextmanager
def _pinned_keys(rng: random.Random):
    """Draw ``Base64Key.new()`` keys from ``rng`` instead of the OS."""
    original = Base64Key.__dict__["new"]
    Base64Key.new = classmethod(lambda cls: cls(rng.randbytes(16)))
    try:
        yield
    finally:
        Base64Key.new = original


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _trace_parts(trace) -> tuple:
    return (
        trace.name, trace.width, trace.height,
        tuple((w.delay_ms, w.data) for w in trace.startup),
        tuple(
            (s.think_ms, s.keys, tuple((w.delay_ms, w.data) for w in s.outputs))
            for s in trace.steps
        ),
    )


class _TimedSession(InProcessSession):
    """``InProcessSession`` that times its own construction and connect."""

    def __init__(self, *args, **kwargs) -> None:
        self._born = time.perf_counter()
        super().__init__(*args, **kwargs)
        self.setup_s = 0.0

    def connect(self, warmup_ms: float = 2000.0) -> None:
        super().connect(warmup_ms)
        self.setup_s = time.perf_counter() - self._born


class Typing:
    """Six persona traces over EV-DO, one session at a time."""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.traces = generate_all_personas(seed=seed, scale=TYPING_SCALE * scale)
        self.digest = _digest(*(_trace_parts(t) for t in self.traces))

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult()
        uplink, downlink = evdo_profile()
        keys = random.Random(self.seed)
        wall0 = time.perf_counter()
        replay.InProcessSession = _TimedSession
        try:
            for index, trace in enumerate(self.traces):
                if tracer is not None:
                    tracer.scope = f"{trace.name}/"
                out.attempted += len(trace.steps)
                try:
                    with _pinned_keys(keys):
                        result, session = replay.replay_mosh(
                            trace, uplink, downlink,
                            seed=self.seed * 16 + index,
                            preference=DisplayPreference.ADAPTIVE,
                        )
                except TraceError as exc:
                    out.fail(f"{trace.name}: {exc}", len(trace.steps))
                    continue
                out.setup_s += session.setup_s
                out.latencies_ms += result.latencies_ms
                out.keystrokes += result.keystrokes
                out.instant += result.instant
                out.mispredicted += result.mispredictions
                if result.unresolved:
                    out.fail(
                        f"{trace.name}: {result.unresolved} keystrokes never echoed",
                        result.unresolved,
                    )
                out.add_transport(session.client, session.server)
                out.check_screens(trace.name, session.client, session.server)
        finally:
            replay.InProcessSession = InProcessSession
        out.ops = out.keystrokes
        out.run_s = time.perf_counter() - wall0 - out.setup_s
        return out


def _compiler_log(rng: random.Random, total_bytes: int) -> bytes:
    """A coloured build log: progress lines, warnings with carets, links."""
    dirs = ("net", "crypto", "term", "ui", "util", "proto")
    lines = []
    size = 0
    n = 0
    while size < total_bytes:
        n += 1
        pct = min(99, n * 100 // max(1, total_bytes // 60))
        stem = rng.choice(("conn", "state", "diff", "wire"))
        unit = f"src/{rng.choice(dirs)}/{stem}_{rng.randrange(400)}"
        roll = rng.random()
        if roll < 0.08:
            col = rng.randrange(4, 60)
            line = (
                f"\x1b[1m{unit}.cpp:{rng.randrange(1, 900)}:{col}: "
                f"\x1b[1;35mwarning:\x1b[0m\x1b[1m unused variable 'tmp{n}' "
                f"[-Wunused-variable]\x1b[0m\r\n"
                f"    int tmp{n} = compute(state, {rng.randrange(100)});\r\n"
                f"{' ' * (col + 3)}\x1b[1;32m^\x1b[0m\r\n"
            )
        elif roll < 0.12:
            line = (
                f"[{pct:3d}%] \x1b[1;32mLinking CXX static library "
                f"lib{rng.choice(dirs)}.a\x1b[0m\r\n"
            )
        else:
            line = (
                f"[{pct:3d}%] \x1b[32mBuilding CXX object "
                f"{unit}.dir/{unit.rsplit('/', 1)[1]}.cpp.o\x1b[0m\r\n"
            )
        data = line.encode()
        lines.append(data)
        size += len(data)
    return b"".join(lines)


class Flood:
    """One session on a fast link; the host floods it with a build log."""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        rng = random.Random(seed)
        log = _compiler_log(rng, int(FLOOD_KB * 1024 * scale))
        #: (offset ms from the start of output, chunk) in schedule order.
        self.writes: list[tuple[float, bytes]] = []
        at = 0.0
        pos = 0
        while pos < len(log):
            size = rng.randint(16, 96)
            at += rng.uniform(1.0, 6.0)
            self.writes.append((at, log[pos:pos + size]))
            pos += size
        self.total_bytes = len(log)
        self.digest = _digest(self.writes)

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult()
        link = LinkConfig(delay_ms=FLOOD_LINK_MS)
        if tracer is not None:
            tracer.scope = "flood/"
        # One set-up takes about a millisecond, so time several identical
        # ones and keep the median; the flood runs in the last.
        setups = []
        for _ in range(FLOOD_SETUPS):
            t0 = time.perf_counter()
            with _pinned_keys(random.Random(self.seed)):
                session = InProcessSession(link, link, seed=self.seed)
            session.connect()
            setups.append(time.perf_counter() - t0)
        out.setup_s = statistics.median(setups)
        wall0 = time.perf_counter()
        server = session.server
        server.record_write_log = True
        start = session.loop.now()
        for offset, chunk in self.writes:
            session.loop.schedule_at(
                start + offset, lambda c=chunk: server.host_write(c)
            )
        session.loop.run_until(start + self.writes[-1][0] + 3000.0)
        out.run_s = time.perf_counter() - wall0
        resolved = server.resolve_write_log()
        out.latencies_ms = [delay for _, _, delay in resolved]
        out.attempted = len(self.writes)
        unsent = len(self.writes) - len(resolved)
        if unsent:
            out.fail(f"flood: {unsent} host writes never sent", unsent)
        out.ops = self.total_bytes / 1024.0
        out.add_transport(session.client, server)
        out.check_screens("flood", session.client, server)
        return out


class _EchoMeter:
    """Exact echo latency for one daemon session running the echo app.

    A keystroke resolves at the first frame the client receives whose
    server state was snapshotted after the server echoed it; one whose
    prediction displayed at typing time scores 0.
    """

    def __init__(self, loop, client, core, out: PassResult) -> None:
        self.loop = loop
        self.client = client
        self.sender = core.transport.sender
        self.sender.record_send_log = True
        self.out = out
        self.pending: list[tuple[int, float]] = []
        self.echoed: dict[int, float] = {}
        self.births: dict[int, float] = {}
        echo = core.on_input

        def on_input(data: bytes) -> None:
            self.echoed[len(self.echoed) + 1] = loop.now()
            echo(data)

        core.on_input = on_input
        self._on_frame = client.transport.on_remote_state
        client.transport.on_remote_state = self.frame

    def press(self, keys: bytes) -> None:
        first = self.client.transport.local_state.total_count + 1
        flags = self.client.type_bytes(keys)
        out = self.out
        out.keystrokes += 1
        if any(flags):
            out.instant += 1
            out.latencies_ms.append(0.0)
        else:
            self.pending.append((first, self.loop.now()))

    def frame(self, now: float) -> None:
        self._on_frame(now)
        num = self.client.transport.remote_state_num
        birth = self.births.get(num)
        if birth is None:
            for when, state_num, _ in self.sender.send_log:
                self.births.setdefault(state_num, when)
            birth = self.births.get(num)
            if birth is None:
                return
        still = []
        for index, typed_at in self.pending:
            echoed = self.echoed.get(index)
            if echoed is not None and echoed <= birth:
                self.out.latencies_ms.append(now - typed_at)
            else:
                still.append((index, typed_at))
        self.pending = still


class Fleet:
    """256 daemon sessions on mixed links; 32 type, the rest idle."""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.sessions = max(FLEET_ACTIVE, int(FLEET_SESSIONS * scale))
        self.keys = [rng.randbytes(16) for _ in range(self.sessions)]
        pattern = [n for n, (_, _, share) in FLEET_PROFILES.items() for _ in range(share)]
        self.profiles = [pattern[i % len(pattern)] for i in range(self.sessions)]
        # The active slice is drawn per link class in proportion to the
        # fleet, so every seed types over the same link mix.
        self.active: list[int] = []
        for name, (_, _, share) in FLEET_PROFILES.items():
            members = [i for i, p in enumerate(self.profiles) if p == name]
            want = round(FLEET_ACTIVE * share / len(pattern))
            self.active += rng.sample(members, want)
        self.active.sort()
        personas = list(PERSONA_BUDGETS)
        budget = max(4, int(FLEET_KEYS_PER_SESSION * scale))
        #: session index -> [(offset ms, keys)]
        self.schedule: dict[int, list[tuple[float, bytes]]] = {}
        for slot, index in enumerate(self.active):
            trace = generate_persona(
                personas[slot % len(personas)], seed=seed * 1000 + slot,
                budget=budget,
            )
            at = rng.uniform(0.0, 2000.0)
            steps = []
            for step in trace.steps:
                at += min(step.think_ms, FLEET_THINK_CAP_MS)
                steps.append((at, step.keys))
            self.schedule[index] = steps
        self.digest = _digest(self.keys, self.profiles, self.active, self.schedule)

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult()
        wall0 = time.perf_counter()
        if tracer is not None:
            tracer.scope = "fleet/"
        fast = LinkConfig(delay_ms=5.0)
        daemon = InProcessDaemon(fast, fast, sessions=0, seed=self.seed)
        pairs = []
        for key, profile in zip(self.keys, self.profiles):
            record, client = daemon.add_session(key=Base64Key(key))
            uplink, downlink, _ = FLEET_PROFILES[profile]
            daemon.network.add_addr_profile(
                client.transport.endpoint.local_addr, uplink, downlink
            )
            pairs.append((record, client))
        daemon.connect(warmup_ms=FLEET_CONNECT_MS)
        # Keep the world running until both ends of every session have
        # heard each other.
        unheard = [
            (record, client) for record, client in pairs
            if record.endpoint.last_heard is None
            or client.transport.endpoint.last_heard is None
        ]
        limit = daemon.loop.now() + FLEET_CONNECT_LIMIT_MS
        while unheard and daemon.loop.now() < limit:
            daemon.run_for(100.0)
            unheard = [
                (record, client) for record, client in unheard
                if record.endpoint.last_heard is None
                or client.transport.endpoint.last_heard is None
            ]
        out.setup_s = time.perf_counter() - wall0
        if unheard:
            out.fail(f"fleet: {len(unheard)} sessions never connected", len(unheard))
        start = daemon.loop.now()
        end = start
        meters = []
        for index, steps in self.schedule.items():
            record, client = pairs[index]
            meter = _EchoMeter(daemon.loop, client, record.core, out)
            meters.append(meter)
            for offset, keys in steps:
                daemon.loop.schedule_at(start + offset, lambda m=meter, k=keys: m.press(k))
            end = max(end, start + steps[-1][0])
        daemon.loop.run_until(end + FLEET_SETTLE_MS)
        out.run_s = time.perf_counter() - wall0 - out.setup_s
        out.attempted += out.keystrokes
        unresolved = sum(len(m.pending) for m in meters)
        if unresolved:
            out.fail(f"fleet: {unresolved} keystrokes never echoed", unresolved)
        out.ops = out.keystrokes
        for index, (record, client) in enumerate(pairs):
            out.mispredicted += client.predictor.stats.mispredicted
            out.add_transport(client, record.core)
            out.check_screens(f"fleet session {index}", client, record.core)
        return out


WORKLOADS = {"typing": Typing, "flood": Flood, "fleet": Fleet}
