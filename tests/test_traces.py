"""Trace generation and the replay harness."""

import pytest

from repro.errors import TraceError
from repro.simnet import LinkConfig
from repro.simnet.eventloop import EventLoop
from repro.traces import generate_all_personas, generate_persona
from repro.traces.model import Trace, TraceStep
from repro.traces import replay as replay_module
from repro.traces.replay import _ServerScript, replay_mosh, replay_ssh
from repro.apps.base import Write


class TestModel:
    def test_step_validation(self):
        with pytest.raises(TraceError):
            TraceStep(think_ms=10.0, keys=b"")
        with pytest.raises(TraceError):
            TraceStep(think_ms=-1.0, keys=b"a")

    def test_is_typing(self):
        assert TraceStep(0, b"a").is_typing
        assert TraceStep(0, b"\x7f").is_typing
        assert not TraceStep(0, b"\r").is_typing
        assert not TraceStep(0, b"\x1b[A").is_typing

    def test_trace_stats(self):
        trace = Trace(name="t", steps=[TraceStep(100.0, b"a"), TraceStep(50.0, b"\r")])
        assert trace.keystroke_count == 2
        assert trace.typing_fraction == 0.5
        assert trace.duration_ms() == 150.0

    def test_concat(self):
        a = Trace(name="a", steps=[TraceStep(1.0, b"x")])
        b = Trace(
            name="b",
            startup=(Write(1.0, b"banner"),),
            steps=[TraceStep(1.0, b"y")],
        )
        merged = a.concat(b)
        assert merged.keystroke_count == 3  # x + launch-ENTER + y
        assert merged.steps[1].outputs[0].data == b"banner"


class TestGeneration:
    def test_personas_deterministic(self):
        a = generate_persona("shell-heavy", seed=5, budget=50)
        b = generate_persona("shell-heavy", seed=5, budget=50)
        assert [(s.keys, s.think_ms) for s in a.steps] == [
            (s.keys, s.think_ms) for s in b.steps
        ]

    def test_different_seeds_differ(self):
        a = generate_persona("shell-heavy", seed=1, budget=50)
        b = generate_persona("shell-heavy", seed=2, budget=50)
        assert [s.keys for s in a.steps] != [s.keys for s in b.steps]

    def test_unknown_persona(self):
        with pytest.raises(TraceError):
            generate_persona("nope")

    def test_budgets_respected(self):
        trace = generate_persona("editor-vim", budget=120)
        assert 100 <= trace.keystroke_count <= 130

    def test_full_set_matches_paper_size(self):
        traces = generate_all_personas(seed=0, scale=1.0)
        total = sum(t.keystroke_count for t in traces)
        assert len(traces) == 6  # six users, like the paper
        assert 9000 <= total <= 11000  # ≈ 9,986 keystrokes

    def test_typing_dominates(self):
        """'More than two-thirds of user keystrokes' are typing (§3.2)."""
        traces = generate_all_personas(seed=0, scale=0.2)
        steps = [s for t in traces for s in t.steps]
        typing = sum(1 for s in steps if s.is_typing)
        assert typing / len(steps) > 0.6

    def test_outputs_are_clumped_writes(self):
        trace = generate_persona("mail-alpine", budget=40)
        multi = [s for s in trace.steps if len(s.outputs) > 1]
        assert multi, "full-screen apps should emit multi-write responses"


class TestServerScript:
    def test_plays_outputs_on_match(self):
        loop = EventLoop()
        written = []
        trace = Trace(
            name="t",
            steps=[
                TraceStep(0, b"a", (Write(5.0, b"echo-a"),)),
                TraceStep(0, b"b", (Write(5.0, b"echo-b"),)),
            ],
        )
        script = _ServerScript(loop, trace, written.append)
        script.feed(b"ab")
        loop.run_until(100.0)
        assert written == [b"echo-a", b"echo-b"]

    def test_writes_stay_ordered_when_batched(self):
        loop = EventLoop()
        written = []
        trace = Trace(
            name="t",
            steps=[
                TraceStep(0, b"a", (Write(50.0, b"first"),)),
                TraceStep(0, b"b", (Write(1.0, b"second"),)),
            ],
        )
        script = _ServerScript(loop, trace, written.append)
        script.feed(b"ab")  # both keystrokes in one instruction
        loop.run_until(100.0)
        assert written == [b"first", b"second"]

    def test_divergent_input_raises(self):
        loop = EventLoop()
        trace = Trace(name="t", steps=[TraceStep(0, b"a")])
        script = _ServerScript(loop, trace, lambda d: None)
        with pytest.raises(TraceError):
            script.feed(b"z")

    def test_trailing_input_tolerated(self):
        loop = EventLoop()
        trace = Trace(name="t", steps=[TraceStep(0, b"a")])
        script = _ServerScript(loop, trace, lambda d: None)
        script.feed(b"aXYZ")  # extra bytes after the trace ends


class TestReplayHarness:
    def _tiny_trace(self) -> Trace:
        steps = [
            TraceStep(500.0, bytes([c]), (Write(5.0, bytes([c])),))
            for c in b"abcde"
        ]
        return Trace(name="tiny", steps=steps)

    def test_mosh_replay_measures_every_step(self):
        result, session = replay_mosh(
            self._tiny_trace(), LinkConfig(delay_ms=100), LinkConfig(delay_ms=100)
        )
        assert result.keystrokes == 5
        assert len(result.latencies_ms) == 5
        assert result.unresolved == 0

    def test_ssh_replay_latency_tracks_rtt(self):
        result, _ = replay_ssh(
            self._tiny_trace(), LinkConfig(delay_ms=100), LinkConfig(delay_ms=100)
        )
        summary = result.summary()
        assert 180.0 < summary.median_ms < 320.0  # ≈ RTT + app delay

    def test_merged_results(self):
        a, _ = replay_ssh(
            self._tiny_trace(), LinkConfig(delay_ms=10), LinkConfig(delay_ms=10)
        )
        b, _ = replay_ssh(
            self._tiny_trace(), LinkConfig(delay_ms=10), LinkConfig(delay_ms=10)
        )
        merged = a.merged_with(b)
        assert merged.keystrokes == 10
        assert len(merged.latencies_ms) == 10

    def test_silent_steps_excluded(self):
        steps = [
            TraceStep(300.0, b"a", (Write(5.0, b"a"),)),
            TraceStep(300.0, b"q", ()),  # dead key: no response
        ]
        trace = Trace(name="silent", steps=steps)
        result, _ = replay_ssh(
            trace, LinkConfig(delay_ms=50), LinkConfig(delay_ms=50)
        )
        assert result.silent_steps == 1
        assert len(result.latencies_ms) == 1

    def test_write_log_instrumentation(self):
        result, session = replay_mosh(
            self._tiny_trace(),
            LinkConfig(delay_ms=50),
            LinkConfig(delay_ms=50),
            record_write_log=True,
        )
        resolved = session.server.resolve_write_log()
        assert resolved, "write log should capture host writes"
        assert all(delay >= 0 for _, _, delay in resolved)


class _RescanMeter(replay_module._MoshMeter):
    """Reference attribution: rescan the whole send log at every frame
    whose state is not yet dated."""

    def _frame_arrived(self, now):
        log = self._session.server.transport.sender.send_log
        num = self._session.client.transport.remote_state_num
        if num not in self._state_birth:
            for when, state_num, _ in log:
                self._state_birth.setdefault(state_num, when)
            self._log_scanned = len(log)
        super()._frame_arrived(now)


class TestMoshMeterLogCursor:
    """The meter scans only the send-log entries appended since its last
    scan, and the whole log once the ring is full; the latencies are
    those of a full rescan at every frame."""

    @pytest.mark.parametrize("log_max", [None, 16])
    def test_cursor_matches_full_rescan(self, monkeypatch, log_max):
        if log_max is not None:
            monkeypatch.setattr("repro.transport.sender.SEND_LOG_MAX", log_max)
        trace = generate_persona("shell-heavy", seed=1, budget=120)
        link = LinkConfig(delay_ms=120.0, jitter_ms=40.0, loss=0.05)
        fast, session = replay_mosh(trace, link, link)
        log = session.server.transport.sender.send_log
        assert (len(log) == log_max) if log_max else (len(log) < log.maxlen)
        monkeypatch.setattr(replay_module, "_MoshMeter", _RescanMeter)
        slow, _ = replay_mosh(trace, link, link)
        assert fast.latencies_ms == slow.latencies_ms
        assert fast.unresolved == slow.unresolved
        assert len(fast.latencies_ms) > 50
