"""Trace replay and per-keystroke latency measurement.

Reproduces the paper's methodology (§4): "A client-side process played the
user portion of the traces, and a server-side process waited for the
expected user input and then replied (in time) with the prerecorded server
output. ... We ... recorded the user interface response latency to each
simulated user keystroke, as seen by the user."

Because the host output is prerecorded, attribution is exact:

* A keystroke whose prediction displays at typing time resolves
  immediately (the "<5 ms" rows in the paper's tables).
* Over **SSH**, output is an in-order byte stream, so keystroke *i*
  resolves the moment the client terminal consumes the first output byte
  the trace attributes to step *i*.
* Over **Mosh**, screen states may skip intermediates, so keystroke *i*
  resolves at arrival of the first frame built from a server state
  snapshotted *after* the server wrote step *i*'s first response byte.

Steps whose prerecorded response is empty (a dead key) have no observable
answer and are excluded from the latency population, counted separately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.stats import LatencySummary, summarize_latencies
from repro.baseline.ssh import SshSession
from repro.errors import TraceError
from repro.prediction.engine import DisplayPreference
from repro.session.inprocess import InProcessSession
from repro.simnet.eventloop import EventLoop
from repro.simnet.link import LinkConfig
from repro.simnet.tcp import BulkSender, TcpConfig, tcp_pair
from repro.traces.model import Trace
from repro.transport.timing import SenderTiming

_SETTLE_MS = 65_000.0  # drain time after the last keystroke


@dataclass
class ReplayResult:
    """Per-keystroke latencies for one (trace, transport) pair."""

    label: str
    latencies_ms: list[float] = field(default_factory=list)
    instant: int = 0
    unresolved: int = 0
    silent_steps: int = 0  # steps with no prerecorded response
    mispredictions: int = 0
    keystrokes: int = 0
    piggybacked_acks: int = 0
    standalone_acks: int = 0

    def summary(self) -> LatencySummary:
        """Median / mean / σ of the resolved keystroke latencies."""
        return summarize_latencies(self.latencies_ms)

    @property
    def instant_fraction(self) -> float:
        return self.instant / self.keystrokes if self.keystrokes else 0.0

    def merged_with(self, other: "ReplayResult") -> "ReplayResult":
        """Pool two results (e.g. across personas) into one population."""
        return ReplayResult(
            label=self.label,
            latencies_ms=self.latencies_ms + other.latencies_ms,
            instant=self.instant + other.instant,
            unresolved=self.unresolved + other.unresolved,
            silent_steps=self.silent_steps + other.silent_steps,
            mispredictions=self.mispredictions + other.mispredictions,
            keystrokes=self.keystrokes + other.keystrokes,
            piggybacked_acks=self.piggybacked_acks + other.piggybacked_acks,
            standalone_acks=self.standalone_acks + other.standalone_acks,
        )


class _ServerScript:
    """Waits for each step's expected input, then plays its response.

    ``on_step_output(step_idx)`` fires at the instant the step's *first*
    response write happens — the anchor for exact latency attribution.
    """

    def __init__(
        self,
        loop: EventLoop,
        trace: Trace,
        write_fn: Callable[[bytes], None],
        on_step_output: Callable[[int], None] | None = None,
    ) -> None:
        self._loop = loop
        self._write = write_fn
        self._on_step_output = on_step_output
        self._expected = bytearray()
        self._steps = trace.steps
        for step in trace.steps:
            self._expected += step.keys
        self._matched = 0
        self._step_idx = 0
        self._step_remaining = (
            len(trace.steps[0].keys) if trace.steps else 0
        )
        # Host writes must replay in trace order even when keystrokes
        # arrive batched in one instruction; otherwise a later step's
        # output could overtake an earlier echo and corrupt the screen.
        self._write_horizon = 0.0

    def feed(self, data: bytes) -> None:
        for byte in data:
            if self._matched >= len(self._expected):
                return  # trailing input after the trace ends
            if byte != self._expected[self._matched]:
                raise TraceError(
                    f"replay diverged at byte {self._matched}: got "
                    f"{byte:#x}, expected {self._expected[self._matched]:#x}"
                )
            self._matched += 1
            self._step_remaining -= 1
            if self._step_remaining == 0:
                self._play_step(self._step_idx)
                self._step_idx += 1
                if self._step_idx < len(self._steps):
                    self._step_remaining = len(self._steps[self._step_idx].keys)

    def _play_step(self, idx: int) -> None:
        outputs = self._steps[idx].outputs
        now = self._loop.now()
        for n, write in enumerate(outputs):
            first = n == 0
            when = max(now + write.delay_ms, self._write_horizon)
            self._write_horizon = when + 1e-6

            def emit(data: bytes = write.data, idx: int = idx, first: bool = first):
                if first and self._on_step_output is not None:
                    self._on_step_output(idx)
                self._write(data)

            self._loop.schedule_at(when, emit)


@dataclass
class _Pending:
    step_idx: int
    typed_at: float


class _MoshMeter:
    """Exact attribution for Mosh replays.

    ``first_output_state[i]`` is set when the server writes step *i*'s
    first byte; a frame resolves the step if the frame's source state was
    snapshotted after that write.
    """

    def __init__(self, result: ReplayResult, session: InProcessSession) -> None:
        self.result = result
        self._session = session
        self._pending: list[_Pending] = []
        self._first_write_time: dict[int, float] = {}
        self._state_birth: dict[int, float] = {}
        self._log_scanned = 0  # send_log entries already in _state_birth
        session.server.transport.sender.record_send_log = True
        session.client.transport.on_remote_state = self._frame_arrived
        # Chain the client's own frame handling (prediction validation).
        self._client_on_frame = session.client._on_new_frame

    def key_typed(self, step_idx: int, now: float, instant: bool, silent: bool) -> None:
        self.result.keystrokes += 1
        if instant:
            self.result.instant += 1
            self.result.latencies_ms.append(0.0)
            return
        if silent:
            self.result.silent_steps += 1
            return
        self._pending.append(_Pending(step_idx, now))

    def step_output(self, step_idx: int) -> None:
        self._first_write_time.setdefault(step_idx, self._session.loop.now())

    def _frame_arrived(self, now: float) -> None:
        self._client_on_frame(now)
        num = self._session.client.transport.remote_state_num
        birth = self._state_birth.get(num)
        if birth is None:
            log = self._session.server.transport.sender.send_log
            # Below its bound the log only grows, so the entries before the
            # cursor are already scanned; a full log may have dropped its
            # oldest entries and shifted them all, so rescan it whole.
            start = self._log_scanned if len(log) < log.maxlen else 0
            for when, state_num, _ in itertools.islice(log, start, None):
                self._state_birth.setdefault(state_num, when)
            self._log_scanned = len(log)
            birth = self._state_birth.get(num)
            if birth is None:
                return
        still: list[_Pending] = []
        for p in self._pending:
            wrote = self._first_write_time.get(p.step_idx)
            if wrote is not None and wrote <= birth:
                self.result.latencies_ms.append(now - p.typed_at)
            else:
                still.append(p)
        self._pending = still

    def finish(self) -> None:
        self.result.unresolved = len(self._pending)
        self._pending.clear()


class _SshMeter:
    """Exact attribution for SSH replays via stream byte offsets."""

    def __init__(self, result: ReplayResult, session: SshSession) -> None:
        self.result = result
        self._session = session
        self._pending: list[_Pending] = []
        self._bytes_written = 0
        self._threshold: dict[int, int] = {}
        self._bytes_rendered = 0
        original_host_write = session.host_write

        def counting_write(data: bytes) -> None:
            self._bytes_written += len(data)
            original_host_write(data)

        self.host_write = counting_write

    def key_typed(self, step_idx: int, now: float, silent: bool) -> None:
        self.result.keystrokes += 1
        if silent:
            self.result.silent_steps += 1
            return
        self._pending.append(_Pending(step_idx, now))

    def step_output(self, step_idx: int) -> None:
        # Called just before the step's first byte is written.
        self._threshold.setdefault(step_idx, self._bytes_written)

    def bytes_rendered(self, count: int, now: float) -> None:
        self._bytes_rendered += count
        still: list[_Pending] = []
        for p in self._pending:
            threshold = self._threshold.get(p.step_idx)
            if threshold is not None and self._bytes_rendered > threshold:
                self.result.latencies_ms.append(now - p.typed_at)
            else:
                still.append(p)
        self._pending = still

    def finish(self) -> None:
        self.result.unresolved = len(self._pending)
        self._pending.clear()


def _start_cross_traffic(loop, network) -> None:
    """A bulk TCP download sharing the downlink (the LTE experiment)."""
    bulk_tx, _bulk_rx = tcp_pair(
        loop,
        network.downlink,  # download direction: server → client
        network.uplink,
        TcpConfig(),
        names=("bulk-src", "bulk-sink"),
    )
    BulkSender(loop, bulk_tx).start()


def replay_mosh(
    trace: Trace,
    uplink: LinkConfig,
    downlink: LinkConfig,
    seed: int = 0,
    preference: DisplayPreference = DisplayPreference.ADAPTIVE,
    timing: SenderTiming | None = None,
    encrypt: bool = True,
    cross_traffic: bool = False,
    record_write_log: bool = False,
    settle_ms: float = _SETTLE_MS,
) -> tuple[ReplayResult, InProcessSession]:
    """Replay a trace over a Mosh session in the simulator."""
    session = InProcessSession(
        uplink,
        downlink,
        width=trace.width,
        height=trace.height,
        seed=seed,
        encrypt=encrypt,
        timing=timing,
        preference=preference,
    )
    session.server.record_write_log = record_write_log
    result = ReplayResult(label=f"mosh:{trace.name}")
    meter = _MoshMeter(result, session)
    script = _ServerScript(
        session.loop, trace, session.server.host_write, meter.step_output
    )
    session.server.on_input = script.feed

    for write in trace.startup:
        session.loop.schedule(
            write.delay_ms, lambda d=write.data: session.server.host_write(d)
        )
    session.connect()

    if cross_traffic:
        _start_cross_traffic(session.loop, session.network)

    t = session.loop.now()
    for idx, step in enumerate(trace.steps):
        t += step.think_ms

        def fire(idx: int = idx, step=step) -> None:
            flags = session.client.type_bytes(step.keys)
            meter.key_typed(
                idx, session.loop.now(), any(flags), silent=not step.outputs
            )

        session.loop.schedule_at(t, fire)
    session.loop.run_until(t + settle_ms)
    meter.finish()
    result.mispredictions = session.client.predictor.stats.mispredicted
    result.piggybacked_acks = session.server.transport.sender.piggybacked_acks
    result.standalone_acks = session.server.transport.sender.standalone_acks
    return result, session


def replay_ssh(
    trace: Trace,
    uplink: LinkConfig,
    downlink: LinkConfig,
    seed: int = 0,
    tcp_config: TcpConfig | None = None,
    cross_traffic: bool = False,
    settle_ms: float = _SETTLE_MS,
) -> tuple[ReplayResult, SshSession]:
    """Replay a trace over the SSH baseline in the simulator."""
    session = SshSession(
        uplink,
        downlink,
        width=trace.width,
        height=trace.height,
        seed=seed,
        tcp_config=tcp_config,
    )
    result = ReplayResult(label=f"ssh:{trace.name}")
    meter = _SshMeter(result, session)
    script = _ServerScript(session.loop, trace, meter.host_write, meter.step_output)
    session.on_input = script.feed

    # Count rendered bytes at delivery for exact stream attribution.
    original = session.tcp_client.on_data

    def on_data(data: bytes) -> None:
        original(data)
        meter.bytes_rendered(len(data), session.loop.now())

    session.tcp_client.on_data = on_data

    for write in trace.startup:
        session.loop.schedule(
            write.delay_ms, lambda d=write.data: meter.host_write(d)
        )

    if cross_traffic:
        _start_cross_traffic(session.loop, session.network)

    t = 1000.0
    for idx, step in enumerate(trace.steps):
        t += step.think_ms

        def fire(idx: int = idx, step=step) -> None:
            session.type_bytes(step.keys)
            meter.key_typed(idx, session.loop.now(), silent=not step.outputs)

        session.loop.schedule_at(t, fire)
    session.loop.run_until(t + settle_ms)
    meter.finish()
    return result, session
