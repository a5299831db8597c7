"""Timer wheel: unit behaviour, scheduling parity, and O(active) reaping.

The wheel's contract is that it is *invisible*: an :class:`EventLoop` or
:class:`RealReactor` must fire exactly the same callbacks in exactly the
same order at exactly the same times as a plain heap would. The
randomized parity tests here drive each scheduler and :class:`HeapModel`
— a ``heapq`` reference model kept in this file as the oracle — with
identical 10k-operation scripts and compare the full fire logs.
"""

import heapq
import random

import pytest

from repro.clock import SimulatedClock
from repro.errors import SimulationError
from repro.runtime.reactor import RealReactor
from repro.simnet.eventloop import EventLoop
from repro.timerwheel import (
    WHEEL_SLOT_MS,
    WHEEL_SPAN,
    WHEEL_THRESHOLD_MS,
    TimerWheel,
)


class HeapModel:
    """Reference scheduler: one plain ``heapq`` with lazy cancellation.

    Entries fire in ``(when, token)`` order; a cancelled token is skipped
    when it surfaces. No wheel, no tiers — the behaviour both real
    schedulers must reproduce exactly.
    """

    def __init__(self):
        self._heap = []
        self._live = set()
        self._next = 0

    def add(self, when, callback):
        token = self._next
        self._next += 1
        heapq.heappush(self._heap, (when, token, callback))
        self._live.add(token)
        return token

    def cancel(self, token):
        self._live.discard(token)

    def fire_until(self, now):
        while self._heap and self._heap[0][0] <= now:
            when, token, callback = heapq.heappop(self._heap)
            if token in self._live:
                self._live.discard(token)
                callback(when)


def run_model(script, drain_ms, stamp_at_deadline):
    """Replay a schedule/cancel/advance script on :class:`HeapModel`.

    Fire-log entries carry the deadline (event-loop semantics, where the
    clock jumps to each event) or the advance instant (reactor semantics,
    where due timers fire when the loop next wakes).
    """
    model = HeapModel()
    now = [0.0]
    fired = []
    tokens = {}
    for i, (op, arg) in enumerate(script):
        if op == "schedule":
            tokens[i] = model.add(
                now[0] + arg,
                lambda when, i=i: fired.append(
                    (when if stamp_at_deadline else now[0], i)
                ),
            )
        elif op == "cancel":
            if arg in tokens:
                model.cancel(tokens[arg])
        else:
            now[0] += arg
            model.fire_until(now[0])
    now[0] += drain_ms
    model.fire_until(now[0])
    return fired


class TestTimerWheelUnit:
    """Direct drive of the wheel data structure."""

    def test_len_counts_entries_across_levels(self):
        wheel = TimerWheel()
        assert len(wheel) == 0
        wheel.add((150.0, 0, None), 0.0)               # level 0
        wheel.add((WHEEL_SLOT_MS * WHEEL_SPAN * 3, 1, None), 0.0)  # level 1
        assert len(wheel) == 2

    def test_next_bucket_start_is_lower_bound(self):
        wheel = TimerWheel()
        wheel.add((12_345.0, 0, None), 0.0)
        start = wheel.next_bucket_start()
        assert start is not None
        assert start <= 12_345.0

    def test_next_bucket_start_spans_both_levels(self):
        wheel = TimerWheel()
        far = WHEEL_SLOT_MS * WHEEL_SPAN * 5  # level 1
        wheel.add((far, 0, None), 0.0)
        assert wheel.next_bucket_start() == pytest.approx(
            (far // (WHEEL_SLOT_MS * WHEEL_SPAN)) * WHEEL_SLOT_MS * WHEEL_SPAN
        )
        wheel.add((250.0, 1, None), 0.0)  # level 0, earlier bucket
        assert wheel.next_bucket_start() == pytest.approx(200.0)

    def test_drain_stops_at_heap_top(self):
        """Buckets at or past the heap's earliest deadline stay put."""
        wheel = TimerWheel()
        wheel.add((150.0, 0, None), 0.0)
        wheel.add((5_000.0, 1, None), 0.0)
        pushed = []
        moved = wheel.drain_into(pushed.append, lambda: 400.0)
        assert moved == 1
        assert [e[0] for e in pushed] == [150.0]
        assert len(wheel) == 1  # the 5 s entry never moved

    def test_drain_empty_heap_drains_earliest_bucket_only(self):
        """With no heap top, exactly enough buckets drain to produce one."""
        wheel = TimerWheel()
        wheel.add((150.0, 0, None), 0.0)
        wheel.add((180.0, 1, None), 0.0)   # same level-0 bucket
        wheel.add((950.0, 2, None), 0.0)   # later bucket
        pushed = []

        def heap_top():
            return min((e[0] for e in pushed), default=None)

        wheel.drain_into(pushed.append, heap_top)
        # The 100ms bucket drained (both entries); 950 stayed bucketed.
        assert sorted(e[1] for e in pushed) == [0, 1]
        assert len(wheel) == 1

    def test_level1_cascades_into_level0_before_reaching_heap(self):
        wheel = TimerWheel()
        span_ms = WHEEL_SLOT_MS * WHEEL_SPAN
        # Two entries in one coarse bucket but different fine slots.
        a = (span_ms * 2 + 50.0, 0, None)
        b = (span_ms * 2 + 950.0, 1, None)
        wheel.add(a, 0.0)
        wheel.add(b, 0.0)
        pushed = []

        def heap_top():
            return min((e[0] for e in pushed), default=None)

        wheel.drain_into(pushed.append, heap_top)
        # Cascade split the coarse bucket: only a's fine bucket reached
        # the heap; b re-bucketed at level 0 and stayed there.
        assert pushed == [a]
        assert len(wheel) == 1
        # Asking again with a heap top past b's slot releases it.
        wheel.drain_into(pushed.append, lambda: span_ms * 3)
        assert pushed == [a, b]
        assert len(wheel) == 0

    def test_level_boundary_exactly_one_span_out_goes_coarse(self):
        wheel = TimerWheel()
        span_ms = WHEEL_SLOT_MS * WHEEL_SPAN
        wheel.add((span_ms, 0, None), 0.0)      # when - now == span: level 1
        wheel.add((span_ms - 1.0, 1, None), 0.0)  # just inside: level 0
        assert len(wheel) == 2
        # Both still drain correctly and in time order.
        pushed = []

        def heap_top():
            return min((e[0] for e in pushed), default=None)

        wheel.drain_into(pushed.append, heap_top)
        wheel.drain_into(pushed.append, lambda: span_ms * 2)
        assert [e[1] for e in pushed] == [1, 0]


class TestEventLoopWheel:
    """The wheel behind EventLoop.schedule/peek_time."""

    def make_loop(self):
        return EventLoop()

    def test_zero_delay_fires_immediately(self):
        loop = self.make_loop()
        fired = []
        loop.schedule(0.0, lambda: fired.append(loop.now()))
        loop.run_for(0.0)
        assert fired == [0.0]

    def test_far_future_fires_at_exact_time(self):
        loop = self.make_loop()
        fired = []
        loop.schedule(86_400_000.0, lambda: fired.append(loop.now()))  # +1 day
        loop.run_for(86_399_999.0)
        assert fired == []
        loop.run_for(2.0)
        assert fired == [86_400_000.0]

    def test_cancel_wheel_resident_timer(self):
        loop = self.make_loop()
        fired = []
        token = loop.schedule(5_000.0, lambda: fired.append("a"))
        loop.schedule(5_000.0, lambda: fired.append("b"))
        loop.cancel(token)
        loop.run_for(10_000.0)
        assert fired == ["b"]

    def test_cancel_after_fire_is_noop(self):
        loop = self.make_loop()
        fired = []
        token = loop.schedule(200.0, lambda: fired.append("a"))
        loop.run_for(1_000.0)
        assert fired == ["a"]
        loop.cancel(token)       # fired: no-op
        loop.cancel(token)       # double cancel: still a no-op
        later = loop.schedule(200.0, lambda: fired.append("b"))
        loop.run_for(1_000.0)
        assert fired == ["a", "b"]
        assert later != token

    def test_pending_tracks_wheel_residents(self):
        loop = self.make_loop()
        tokens = [loop.schedule(3_000.0, lambda: None) for _ in range(5)]
        assert loop.pending == 5
        loop.cancel(tokens[0])
        assert loop.pending == 4
        loop.run_for(5_000.0)
        assert loop.pending == 0

    def test_tie_break_is_scheduling_order_across_tiers(self):
        """Same-deadline timers fire in scheduling order even when one
        was bucketed (scheduled far out) and the other heap-resident
        (scheduled near-term later)."""
        loop = self.make_loop()
        fired = []
        when = 500.0
        loop.schedule_at(when, lambda: fired.append("wheel-first"))
        loop.run_for(450.0)  # now 50 ms out: next schedule goes to heap
        loop.schedule_at(when, lambda: fired.append("heap-second"))
        loop.run_for(100.0)
        assert fired == ["wheel-first", "heap-second"]

    def test_negative_delay_still_rejected(self):
        loop = self.make_loop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_randomized_parity_with_heap_only_loop(self):
        """10k random schedule/cancel ops: the wheel-backed loop and the
        heap reference model produce byte-identical fire logs."""
        rng = random.Random(1234)
        script = []
        for step in range(10_000):
            op = rng.random()
            if op < 0.70:
                # Delay distribution straddles the threshold and both
                # wheel levels, including exact boundary values.
                delay = rng.choice(
                    [
                        0.0,
                        rng.uniform(0.0, WHEEL_THRESHOLD_MS),
                        WHEEL_THRESHOLD_MS,
                        rng.uniform(WHEEL_THRESHOLD_MS, 1_000.0),
                        WHEEL_SLOT_MS * WHEEL_SPAN,
                        rng.uniform(6_400.0, 600_000.0),
                    ]
                )
                script.append(("schedule", delay))
            elif op < 0.85:
                script.append(("cancel", rng.randrange(step + 1)))
            else:
                script.append(("advance", rng.uniform(0.0, 2_000.0)))

        def run():
            loop = EventLoop()
            fired = []
            tokens = {}
            for i, (op, arg) in enumerate(script):
                if op == "schedule":
                    tokens[i] = loop.schedule(
                        arg, lambda i=i: fired.append((loop.now(), i))
                    )
                elif op == "cancel":
                    if arg in tokens:
                        loop.cancel(tokens[arg])
                else:
                    loop.run_for(arg)
            loop.run_for(700_000.0)  # drain everything still pending
            return fired

        assert run() == run_model(script, 700_000.0, stamp_at_deadline=True)


class TestRealReactorWheel:
    """The wheel behind RealReactor.call_at, driven by a fake clock."""

    def make(self):
        clock = SimulatedClock()
        return clock, RealReactor(clock=clock)

    def step(self, clock, reactor, to_ms):
        clock.advance_to(to_ms)
        reactor._fire_due()

    def test_coarse_timer_fires_and_handle_flags(self):
        clock, reactor = self.make()
        fired = []
        handle = reactor.call_later(3_000.0, lambda: fired.append(1))
        assert handle.active
        self.step(clock, reactor, 2_999.0)
        assert fired == []
        self.step(clock, reactor, 3_000.0)
        assert fired == [1]
        assert handle.fired and not handle.active
        handle.cancel()  # cancel-after-fire: a recorded no-op
        assert not handle.cancelled

    def test_cancel_wheel_resident(self):
        clock, reactor = self.make()
        fired = []
        handle = reactor.call_later(5_000.0, lambda: fired.append("dead"))
        reactor.call_later(5_000.0, lambda: fired.append("live"))
        handle.cancel()
        assert handle.cancelled
        self.step(clock, reactor, 10_000.0)
        assert fired == ["live"]
        assert reactor.registry.counter("reactor.timers_cancelled").value == 1

    def test_next_deadline_skims_cancelled_entries(self):
        clock, reactor = self.make()
        a = reactor.call_later(200.0, lambda: None)
        reactor.call_later(400.0, lambda: None)
        a.cancel()
        assert reactor._next_deadline() == pytest.approx(400.0)

    def test_randomized_parity_with_heap_only_reactor(self):
        rng = random.Random(99)
        script = []
        for step in range(10_000):
            op = rng.random()
            if op < 0.70:
                delay = rng.choice(
                    [
                        0.0,
                        rng.uniform(0.0, WHEEL_THRESHOLD_MS),
                        WHEEL_THRESHOLD_MS,
                        rng.uniform(WHEEL_THRESHOLD_MS, 10_000.0),
                        rng.uniform(6_400.0, 300_000.0),
                    ]
                )
                script.append(("schedule", delay))
            elif op < 0.85:
                script.append(("cancel", rng.randrange(step + 1)))
            else:
                script.append(("advance", rng.uniform(0.0, 2_000.0)))

        def run():
            clock, reactor = self.make()
            fired = []
            handles = {}
            for i, (op, arg) in enumerate(script):
                if op == "schedule":
                    handles[i] = reactor.call_later(
                        arg, lambda i=i: fired.append((clock.now(), i))
                    )
                elif op == "cancel":
                    if arg in handles:
                        handles[arg].cancel()
                else:
                    self.step(clock, reactor, clock.now() + arg)
            self.step(clock, reactor, clock.now() + 400_000.0)
            return fired

        assert run() == run_model(script, 400_000.0, stamp_at_deadline=False)
