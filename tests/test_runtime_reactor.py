"""Reactor timer semantics, shared across SimReactor and RealReactor.

The same assertions run against the discrete-event reactor (instant,
deterministic) and the select()-based real reactor (tiny wall-clock
delays), so the two implementations cannot drift apart.
"""

import pytest

from repro.errors import ReactorError
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
