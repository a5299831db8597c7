"""Reactor timer semantics, shared across SimReactor and RealReactor.

The same assertions run against the discrete-event reactor (instant,
deterministic) and the select()-based real reactor (tiny wall-clock
delays), so the two implementations cannot drift apart.
"""

import random

import pytest

from repro.clock import SimulatedClock
from repro.errors import ReactorError, SimulationError
from repro.runtime import RealReactor, SimReactor


@pytest.fixture(params=["sim", "real"])
def reactor(request):
    if request.param == "sim":
        return SimReactor()
    return RealReactor()


class TestTimerSemantics:
    def test_timers_fire_in_time_order(self, reactor):
        fired = []
        reactor.call_later(30.0, lambda: fired.append("c"))
        reactor.call_later(10.0, lambda: fired.append("a"))
        reactor.call_later(20.0, lambda: fired.append("b"))
        reactor.run_for(200.0)
        assert fired == ["a", "b", "c"]

    def test_cancel_prevents_fire(self, reactor):
        fired = []
        keep = reactor.call_later(10.0, lambda: fired.append("keep"))
        drop = reactor.call_later(10.0, lambda: fired.append("drop"))
        drop.cancel()
        reactor.run_for(100.0)
        assert fired == ["keep"]
        assert keep.fired and not keep.active
        assert drop.cancelled and not drop.active
        assert reactor.registry.counter("reactor.timers_cancelled").value == 1

    def test_cancel_after_fire_is_noop(self, reactor):
        handle = reactor.call_later(5.0, lambda: None)
        reactor.run_for(100.0)
        assert handle.fired
        handle.cancel()
        assert not handle.cancelled
        assert reactor.registry.counter("reactor.timers_cancelled").value == 0
        reactor.run_for(20.0)  # nothing explodes

    def test_rearm_from_within_callback(self, reactor):
        fired = []

        def first() -> None:
            fired.append("first")
            reactor.call_later(10.0, lambda: fired.append("second"))

        reactor.call_later(10.0, first)
        reactor.run_for(200.0)
        assert fired == ["first", "second"]

    def test_negative_delay_clamps_to_now(self, reactor):
        fired = []
        reactor.call_later(-50.0, lambda: fired.append("x"))
        reactor.run_for(100.0)
        assert fired == ["x"]

    def test_metrics_count_fires_and_lag(self, reactor):
        for _ in range(3):
            reactor.call_later(5.0, lambda: None)
        reactor.run_for(100.0)
        registry = reactor.registry
        assert registry.counter("reactor.timers_fired").value == 3
        lag = registry.get("reactor.timer_lag_ms")
        assert lag.count == 3
        assert lag.mean >= 0.0 and lag.max >= 0.0

    def test_snapshot_is_plain_data(self, reactor):
        """A bare reactor's snapshot already carries every reactor-wide
        counter, before any core registers."""
        doc = reactor.registry.snapshot()
        for name in ("ticks", "datagrams_in", "datagrams_out", "timers_fired",
                     "timers_cancelled", "io_events", "frames_rendered"):
            assert doc["counters"][f"reactor.{name}"] == 0
        for name in ("datagrams_sealed", "auth_failures", "replay_drops"):
            assert doc["counters"][f"crypto.{name}"] == 0
        assert doc["histograms"]["reactor.timer_lag_ms"]["count"] == 0


class TestIoSources:
    def test_sim_reactor_has_no_io_sources(self):
        with pytest.raises(ReactorError):
            SimReactor().add_reader(0, lambda: None)

    def test_real_reactor_dispatches_readable_fd(self):
        import os

        read_fd, write_fd = os.pipe()
        reactor = RealReactor()
        seen = []
        reactor.add_reader(read_fd, lambda: seen.append(os.read(read_fd, 16)))
        try:
            os.write(write_fd, b"ping")
            reactor.run_once(50.0)
            assert seen == [b"ping"]
            assert reactor.registry.counter("reactor.io_events").value == 1
            reactor.remove_reader(read_fd)
            os.write(write_fd, b"again")
            reactor.run_once(10.0)
            assert seen == [b"ping"]
        finally:
            os.close(read_fd)
            os.close(write_fd)


class TestCorePrefixes:
    def test_taken_prefix_gets_numbered_suffix(self):
        """``register_core`` is the one place prefixes are kept unique, so
        two cores never write the same per-session instrument."""
        reactor = SimReactor()
        assert reactor.register_core("server") == "server"
        assert reactor.register_core("server") == "server#2"
        assert reactor.register_core("server", "s1") == "server.s1"
        assert reactor.register_core("server", "s1") == "server.s1#2"
        assert reactor.register_core("server") == "server#3"
        assert reactor.registry.get("reactor.cores").value == 5


class TestPastDeadline:
    """Each clock keeps its own answer to a deadline already behind it."""

    def test_sim_reactor_rejects_past_deadline(self):
        reactor = SimReactor()
        reactor.run_for(50.0)
        with pytest.raises(SimulationError):
            reactor.call_at(10.0, lambda: None)

    def test_real_reactor_fires_past_deadline_next_iteration(self):
        clock = SimulatedClock(100.0)
        reactor = RealReactor(clock=clock)
        fired = []
        handle = reactor.call_at(40.0, lambda: fired.append(clock.now()))
        assert handle.active
        reactor.run_once(0.0)
        assert fired == [100.0]
        assert handle.fired
        lag = reactor.registry.snapshot()["histograms"]["reactor.timer_lag_ms"]
        assert lag["count"] == 1
        assert lag["max"] == pytest.approx(60.0)


def _call_at_script(seed: int, steps: int) -> list:
    """Random call_later/cancel/advance ops at near and far distances.

    A ``call`` carries a delay and how many times its callback re-arms
    itself; a ``cancel`` names an earlier handle by index, which may
    have fired already, be cancelled already, or still be pending.
    """
    rng = random.Random(seed)
    script = []
    for _ in range(steps):
        op = rng.random()
        if op < 0.6:
            delay = rng.choice(
                [
                    0.0,
                    rng.uniform(0.0, 100.0),
                    100.0,
                    rng.uniform(100.0, 6_400.0),
                    6_400.0,
                    rng.uniform(6_400.0, 60_000.0),
                ]
            )
            rearms = rng.choice([0, 0, 0, 1, 3])
            script.append(("call", (delay, rearms)))
        elif op < 0.8:
            script.append(("cancel", rng.random()))
        else:
            script.append(("advance", rng.uniform(0.0, 3_000.0)))
    return script


def _run_call_at_script(reactor, advance_to, script):
    """Replay ``script`` on ``reactor``; returns the fire log, every
    handle's flags, and the reactor's timer instruments."""
    fired = []
    handles = []
    cancels_after_fire = 0

    def arm(label, delay, rearms):
        def callback():
            fired.append((reactor.now(), label))
            if rearms:
                arm(f"{label}+", delay, rearms - 1)

        handles.append(reactor.call_later(delay, callback))

    for i, (op, arg) in enumerate(script):
        if op == "call":
            arm(str(i), *arg)
        elif op == "cancel":
            if handles:
                handle = handles[int(arg * len(handles))]
                cancels_after_fire += handle.fired
                handle.cancel()
        else:
            advance_to(reactor.now() + arg)
    advance_to(reactor.now() + 400_000.0)  # past the longest re-arm chain
    doc = reactor.registry.snapshot()
    return {
        "fired": fired,
        "flags": [(h.fired, h.cancelled, h.active) for h in handles],
        "timers_fired": doc["counters"]["reactor.timers_fired"],
        "timers_cancelled": doc["counters"]["reactor.timers_cancelled"],
        "lag_count": doc["histograms"]["reactor.timer_lag_ms"]["count"],
        "pending": reactor.timers.pending,
        "cancels_after_fire": cancels_after_fire,
    }


class TestCallAtAcrossClocks:
    """One randomized ``call_at`` script, two reactors: the simulator's,
    and the select loop on a simulated clock stepped to each deadline.
    Both schedule through ``Reactor.call_at``, so every observable —
    fire order, handle flags, timer counters — must agree."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_sim_and_real_reactor_agree(self, seed):
        script = _call_at_script(seed, 3_000)

        sim = SimReactor()
        expected = _run_call_at_script(sim, sim.run_until, script)

        clock = SimulatedClock()
        real = RealReactor(clock=clock)

        def step_real(until):
            while True:
                deadline = real.timers.peek_time()
                if deadline is None or deadline > until:
                    break
                clock.advance_to(max(deadline, clock.now()))
                real.run_once(0.0)
            clock.advance_to(until)

        got = _run_call_at_script(real, step_real, script)

        assert got["fired"] == expected["fired"]
        assert got["flags"] == expected["flags"]
        for name in ("timers_fired", "timers_cancelled", "lag_count"):
            assert got[name] == expected[name], name
        assert got["pending"] == expected["pending"] == 0
        assert expected["timers_fired"] == len(expected["fired"])
        # The script exercised every path it claims to: re-arms, cancels
        # of pending timers, and cancels that came after the fire.
        assert any(label.endswith("+") for _, label in expected["fired"])
        assert expected["timers_cancelled"] > 0
        assert got["cancels_after_fire"] == expected["cancels_after_fire"] > 0
