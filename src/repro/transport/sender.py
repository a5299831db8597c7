"""Transport sender: state list, pacing, retransmission, ACKs, heartbeats.

This is a faithful port of Mosh's sender behaviour (§2.3):

* **Frame rate.** A new frame waits at least ``send_interval`` (SRTT/2
  clamped to [20 ms, 250 ms]) after the previous frame, so about one
  instruction is in flight at any time and network buffers never fill.
* **Collection interval.** A frame also waits at least 8 ms after the
  *first* unsent change, collecting writes that clump together.
* **Assumed receiver state.** The sender optimistically assumes the
  receiver holds the newest state sent less than RTO + ACK_DELAY ago, and
  diffs against that. If an acknowledgment fails to arrive in time the
  assumption slides back to an older (acknowledged) state, which makes the
  next frame a retransmission-by-diff — idempotent and self-healing.
* **Delayed ACKs.** Acks wait up to 100 ms for host data to piggyback on;
  an empty ack is sent only if none shows up.
* **Heartbeats.** An empty instruction goes out every 3 s to keep NAT
  bindings alive, detect roaming, and let the peer warn the user.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.network.interface import DatagramEndpoint
from repro.obs import registry as _obs
from repro.obs.registry import Histogram, MetricsRegistry
from repro.transport.fragment import Fragmenter
from repro.transport.instruction import encode_instruction
from repro.transport.state import StateObject
from repro.transport.timing import SenderTiming

S = TypeVar("S", bound=StateObject)

#: Bound on the sent-state list; the middle is culled first because the
#: front anchors acknowledged history and the tail anchors fresh frames.
_MAX_SENT_STATES = 32

#: Bound on the memoized diff cache. Keys are (source, target)
#: fingerprint pairs; a handful covers the tick/heartbeat/retransmission
#: churn between acknowledgments.
_DIFF_CACHE_MAX = 32

#: Bound on the memoized state-equality results, keyed like the diff
#: cache. A deadline evaluation compares the current state with at most
#: three sent states, and a pending diff repeats those compares on every
#: tick; the memo keeps each to one framebuffer walk.
_SAME_STATE_MAX = 4

#: Bound on the instrumentation send log (ring buffer). Sized for the
#: paper-scale trace replays (~10k keystrokes, a few sends each) while
#: keeping a long-lived recording session's memory flat.
SEND_LOG_MAX = 65536

#: Sender tallies exported as ``{prefix}.sender.<name>`` counters,
#: attribute -> exported name.
_EXPORTED_COUNTS = (
    ("instructions_sent", "instructions"),
    ("empty_acks_sent", "empty_acks"),
    ("piggybacked_acks", "piggybacked_acks"),
    ("standalone_acks", "standalone_acks"),
    ("datagrams_sent", "fragments"),
    ("diff_cache_hits", "diff_cache_hits"),
    ("diff_cache_misses", "diff_cache_misses"),
)


@dataclass
class SentState(Generic[S]):
    num: int
    state: S
    timestamp: float


class TransportSender(Generic[S]):
    """Synchronizes one local state object toward the remote receiver."""

    def __init__(
        self,
        endpoint: DatagramEndpoint,
        initial_state: S,
        timing: SenderTiming | None = None,
    ) -> None:
        self._endpoint = endpoint
        self.timing = timing or SenderTiming()
        self._current_state: S = initial_state
        self._sent_states: list[SentState[S]] = [
            SentState(num=0, state=initial_state.copy(), timestamp=-1e12)
        ]
        self._assumed_idx = 0
        self._fragmenter = Fragmenter()
        self._ack_num = 0
        self._pending_data_ack = False
        self._pending_ack_since: float | None = None
        self._next_ack_time = 0.0
        self._mindelay_clock: float | None = None
        self._last_heard = -1e12
        self._shutdown = False
        #: Refreshed by :meth:`tick` and :meth:`wait_time`: True when the
        #: only upcoming deadline is the heartbeat (no pending diff, no
        #: unacked data).
        self.last_wait_idle = False

        # Memoized diffs keyed by (source, target) fingerprints: the
        # retransmission-by-diff and heartbeat paths recompute identical
        # diffs; fingerprint equality guarantees byte-identical output.
        self._diff_cache: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        # Memoized ``a == b`` for states with unequal fingerprints, on the
        # same premise: a fingerprint pair names a pair of states.
        self._same_state_memo: dict[tuple[int, int], bool] = {}

        # Instrumentation (read by the experiment harness).
        self.instructions_sent = 0
        self.empty_acks_sent = 0
        self.piggybacked_acks = 0
        self.standalone_acks = 0  # data acks that found no host data to ride
        self.datagrams_sent = 0
        self.diff_cache_hits = 0
        self.diff_cache_misses = 0
        # Observed pacing: gap between consecutive outgoing instructions.
        # The paper's frame rate floors at SRTT/2 (capped 20..250 ms), so
        # the histogram shows whether pacing actually tracked the path.
        self.frame_interval = Histogram("sender.frame_interval_ms", unit="ms")
        self._last_instruction_at: float | None = None
        # (time, num, diff len) ring buffer so long recording sessions
        # cannot grow memory without bound.
        self.send_log: deque[tuple[float, int, int]] = deque(maxlen=SEND_LOG_MAX)
        self.record_send_log = False

    def bind_registry(self, registry: MetricsRegistry, prefix: str) -> None:
        """Export this sender's tallies and frame-interval histogram.

        The tallies stay plain attributes (harnesses read them directly);
        the registry reads them through at snapshot time.
        """
        for attr, name in _EXPORTED_COUNTS:
            registry.counter(
                f"{prefix}.sender.{name}",
                fn=lambda attr=attr: getattr(self, attr),
            )
        self.frame_interval = registry.histogram(
            f"{prefix}.sender.frame_interval_ms", unit="ms"
        )

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    @property
    def state(self) -> S:
        """The live local state; mutate it, then call ``tick``."""
        return self._current_state

    def set_ack_num(self, num: int) -> None:
        """Record the newest peer state, to acknowledge on the next send."""
        self._ack_num = num

    def set_data_ack(self, now: float) -> None:
        """Note that the peer sent data we must acknowledge within
        ``ack_delay``; the ack rides the next instruction if possible."""
        if self._pending_data_ack:
            # Mosh's rule: once data is pending, its ack deadline only
            # moves earlier, and one that ties with ``now`` is due. It
            # already lies within ack_delay of the first unacked data, so
            # later data never postpones it.
            return
        self._pending_data_ack = True
        self._pending_ack_since = now
        target = now + self.timing.ack_delay_ms
        if now < self._next_ack_time < target:
            return  # an earlier live deadline already covers this ack
        # A stale (past) deadline must not make the ack fire immediately:
        # the whole point of the 100 ms delay is waiting for host data to
        # piggyback on (§2.3). This matters for the very first data ack,
        # when _next_ack_time still holds its initial 0.0.
        self._next_ack_time = target

    def remote_heard(self, now: float) -> None:
        """Note that an authentic instruction arrived from the peer."""
        self._last_heard = now

    def process_acknowledgment_through(self, ack_num: int, now: float) -> None:
        """Peer has state ``ack_num``: discard older sent states."""
        sent = self._sent_states
        if sent[0].num == ack_num:
            return  # a re-ack: nothing new is known to the receiver
        for i, entry in enumerate(sent):
            if entry.num == ack_num:
                # Numbers only grow along the list, so the acked entry
                # splits it: everything before it is older.
                self._sent_states = sent[i:]
                self._rationalize_states()
                return

    def _rationalize_states(self) -> None:
        """Prune history the receiver is known to share (``subtract``)."""
        known = self._sent_states[0].state
        self._current_state.subtract(known)
        for sent in reversed(self._sent_states):
            sent.state.subtract(known)

    # ------------------------------------------------------------------
    # State comparison
    # ------------------------------------------------------------------

    def _same_state(self, a: StateObject, b: StateObject) -> bool:
        fa, fb = a.fingerprint(), b.fingerprint()
        if fa is None or fb is None:
            return a == b
        if fa == fb:
            return True
        key = (fa, fb)
        memo = self._same_state_memo
        same = memo.get(key)
        if same is None:
            if len(memo) >= _SAME_STATE_MAX:
                del memo[next(iter(memo))]
            same = memo[key] = a == b
        return same

    def _update_assumed_receiver_state(self, now: float) -> None:
        """Assume receipt of every state younger than RTO + ACK_DELAY."""
        sent = self._sent_states
        idx = 0
        if len(sent) > 1:
            horizon = self._endpoint.rto() + self.timing.ack_delay_ms
            for i in range(1, len(sent)):
                if now - sent[i].timestamp < horizon:
                    idx = i
                else:
                    break
        self._assumed_idx = idx

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _next_send_time(self, now: float) -> float | None:
        back = self._sent_states[-1]
        timing = self.timing
        current = self._current_state
        if not self._same_state(current, back.state):
            if self._mindelay_clock is None:
                self._mindelay_clock = now
            return max(
                self._mindelay_clock + timing.send_mindelay_ms,
                back.timestamp + self._send_interval(),
            )
        if self._last_heard + timing.active_retry_timeout_ms <= now:
            return None  # the peer went quiet: stop retrying
        assumed = self._sent_states[self._assumed_idx]
        if not self._same_state(current, assumed.state):
            when = back.timestamp + self._send_interval()
            if self._mindelay_clock is not None:
                when = max(when, self._mindelay_clock + timing.send_mindelay_ms)
            return when
        front = self._sent_states[0]
        if not self._same_state(current, front.state):
            return back.timestamp + timing.heartbeat_interval_ms
        return None

    def _send_interval(self) -> float:
        return self.timing.send_interval(self._effective_srtt())

    def _effective_srtt(self) -> float:
        # Until the first RTT sample arrives, pace at the minimum interval
        # rather than the estimator's conservative 1 s prior.
        if not self._endpoint.has_rtt_sample:
            return 0.0
        return self._endpoint.srtt

    def wait_time(self, now: float) -> float | None:
        """Milliseconds until tick() next needs to run, or None for 'idle'.

        Also refreshes :attr:`last_wait_idle`: True when the sender has
        no pending diff and no unacked data, i.e. the only deadline left
        is the periodic heartbeat/ack — the condition the pump uses to
        park the session out of per-tick work.
        """
        if self._endpoint.remote_addr is None:
            self.last_wait_idle = True
            return None
        self._update_assumed_receiver_state(now)
        return self._wait_until(self._next_send_time(now), now)

    def _wait_until(self, nst: float | None, now: float) -> float:
        """The wait before the earlier of ``nst`` and the ack deadline."""
        self.last_wait_idle = nst is None
        if nst is None:
            return max(0.0, self._next_ack_time - now)
        return max(0.0, min(nst, self._next_ack_time) - now)

    # ------------------------------------------------------------------
    # The main clock tick
    # ------------------------------------------------------------------

    def tick(self, now: float) -> float | None:
        """Send an instruction, ack, or heartbeat if one is due.

        Returns what :meth:`wait_time` would return right after, and
        refreshes :attr:`last_wait_idle` the same way. The deadline is
        worked out once per tick: only a send moves it, so only a send
        makes the tick work it out again.
        """
        if self._endpoint.remote_addr is None:
            self.last_wait_idle = True
            return None
        self._update_assumed_receiver_state(now)
        nst = self._next_send_time(now)
        send_due = nst is not None and nst <= now
        if not send_due and self._next_ack_time > now:
            return self._wait_until(nst, now)
        assumed = self._sent_states[self._assumed_idx]
        diff = self._diff_between(assumed.state)
        if not diff:
            # Nothing to convey. This also covers the state-reversion case
            # (current differs from the newest *sent* state but matches the
            # assumed receiver state — e.g. the screen changed and changed
            # back): an empty ack mints a fresh state number whose content
            # is current, re-aligning the sent-state list so the send timer
            # stops firing.
            self._send_empty_ack(now)
        else:
            # A pending diff rides out whether the frame timer or the ack
            # timer fired — the ack piggybacks on host data (§2.3).
            self._send_to_receiver(diff, now)
        return self.wait_time(now)

    def _diff_between(self, source: S) -> bytes:
        """``current.diff_from(source)``, memoized by fingerprint pair.

        Within one lineage equal fingerprints imply equal states, and
        ``diff_from`` is a pure function of the two states, so a cache
        hit returns byte-identical output. Retransmissions-by-diff
        (assumption slide-back) and heartbeat ticks hit this cache
        instead of re-walking the framebuffer.
        """
        src_fp = source.fingerprint()
        tgt_fp = self._current_state.fingerprint()
        if src_fp is None or tgt_fp is None:
            return self._current_state.diff_from(source)
        key = (src_fp, tgt_fp)
        cached = self._diff_cache.get(key)
        if cached is not None:
            self._diff_cache.move_to_end(key)
            self.diff_cache_hits += 1
            return cached
        diff = self._current_state.diff_from(source)
        self._diff_cache[key] = diff
        self.diff_cache_misses += 1
        if len(self._diff_cache) > _DIFF_CACHE_MAX:
            self._diff_cache.popitem(last=False)
        return diff

    def _send_empty_ack(self, now: float) -> None:
        back = self._sent_states[-1]
        old_num = self._sent_states[self._assumed_idx].num
        new_num = back.num + 1
        self._add_sent_state(now, new_num)
        self._send_in_fragments(b"", old_num, new_num, now)
        self.empty_acks_sent += 1
        if self._pending_data_ack:
            self.standalone_acks += 1
            self._pending_data_ack = False
            self._pending_ack_since = None
        self._next_ack_time = now + self.timing.heartbeat_interval_ms
        self._mindelay_clock = None

    def _send_to_receiver(self, diff: bytes, now: float) -> None:
        back = self._sent_states[-1]
        # old_num must match the state the diff was computed against, and
        # must be captured before _add_sent_state can cull the list.
        old_num = self._sent_states[self._assumed_idx].num
        if self._same_state(self._current_state, back.state):
            # Retransmission of the same logical state: keep its number so
            # the receiver treats duplicates idempotently.
            new_num = back.num
            back.timestamp = now
        else:
            new_num = back.num + 1
            self._add_sent_state(now, new_num)
        self._send_in_fragments(diff, old_num, new_num, now)
        if self._pending_data_ack:
            self.piggybacked_acks += 1
            self._pending_data_ack = False
            self._pending_ack_since = None
        self._assumed_idx = len(self._sent_states) - 1
        self._next_ack_time = now + self.timing.heartbeat_interval_ms
        self._mindelay_clock = None

    def _add_sent_state(self, now: float, new_num: int) -> None:
        # Snapshots change only by an idempotent ``subtract``, so an
        # unchanged state shares the newest snapshot instead of a copy.
        current = self._current_state
        back = self._sent_states[-1].state
        fp = current.fingerprint()
        if fp is not None and fp == back.fingerprint():
            snapshot = back
        else:
            snapshot = current.copy()
        self._sent_states.append(
            SentState(num=new_num, state=snapshot, timestamp=now)
        )
        if len(self._sent_states) > _MAX_SENT_STATES:
            # Cull the middle: keep the acknowledged anchor and fresh tail.
            del self._sent_states[1 : len(self._sent_states) - 16]
            self._assumed_idx = min(
                self._assumed_idx, len(self._sent_states) - 1
            )

    def _send_in_fragments(
        self, diff: bytes, old_num: int, new_num: int, now: float
    ) -> None:
        ack_num = self._ack_num
        throwaway_num = self._sent_states[0].num
        endpoint = self._endpoint
        frag_id, datagrams = self._fragmenter.make_fragments(
            encode_instruction(old_num, new_num, ack_num, throwaway_num, diff),
            endpoint.mtu,
        )
        record_flight = endpoint.flight is not None and _obs._enabled
        dlen = len(diff)
        final_idx = len(datagrams) - 1
        for idx, datagram in enumerate(datagrams):
            meta = None
            if record_flight:
                # Flight-recorder context: what this datagram carried.
                # The receive side can only peek the fragment header (the
                # instruction body is compressed), so the send side logs
                # the instruction numbers for the offline merge.
                meta = (old_num, new_num, ack_num, throwaway_num, frag_id,
                        idx, idx == final_idx, dlen)
            endpoint.send(datagram, now, meta, dlen)
            self.datagrams_sent += 1
        self.instructions_sent += 1
        if self._last_instruction_at is not None:
            self.frame_interval.record(now - self._last_instruction_at)
        self._last_instruction_at = now
        if self.record_send_log:
            self.send_log.append((now, new_num, dlen))
