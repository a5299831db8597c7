"""Per-keystroke causal tracing: where did the echo latency go?

:class:`~repro.obs.keystroke.KeystrokeLatencyTracker` measures each
keystroke's end-to-end echo time; this module attributes that time to the
pipeline stages it crossed, live on the client, with **zero wire-format
changes**. Every signal is already on the wire or already local:

* the client's own reactor clock gives the exact boundaries — stamp time
  (``t_typed``), carrying-datagram send (``t_sent``), settling-datagram
  arrival (``t_recv``), and frame settle (``t_settle``);
* the 16-bit wire timestamps (§2.2) give the interior split: the settle
  datagram's ``timestamp_reply`` is hold-time-adjusted, so its RTT sample
  is pure wire time and ``(t_recv - t_sent) - rtt`` is server residence;
* the apparent one-way deltas from the same timestamps feed the NTP-style
  :class:`~repro.obs.clocksync.ClockOffsetEstimator`, which splits the
  wire time into its two directions.

The stage partition is **residual-exact**: the client-local boundaries
are exact, estimates only split the intervals *between* them (clamped,
with residuals absorbed into the adjacent stage), so the seven stage
durations always sum to the tracker's ``echo_ms`` measurement — bit-for-
bit up to float associativity, never just approximately.

Correlation rules (how a keystroke finds its datagrams):

* **carrying send** — the first outgoing datagram with a non-empty diff
  (``dlen > 0``) after the keystroke was stamped. Any non-empty
  diff from the peer's acked state to the current state carries every
  pending event, so this is exact, not heuristic.
* **settling datagram** — the received datagram whose fragment completed
  the instruction whose ``echo_ack`` covered the keystroke's index
  (plumbed through :class:`~repro.transport.transport.Transport`).

Stage durations feed per-stage histograms in the
:class:`~repro.obs.registry.MetricsRegistry` (so Prometheus, the
``watch`` feed, and ``repro trace --attach`` get them for free), and a
bounded ring keeps the full causal chain for the slowest-N keystrokes —
tail exemplars exportable as Chrome trace spans through
:class:`~repro.obs.trace.SpanTracer`.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.errors import ObservabilityError
from repro.obs import registry as _obs
from repro.obs.clocksync import ClockOffsetEstimator
from repro.obs.registry import merge_summaries

#: Schema tag on exported causal-trace report documents.
CAUSAL_SCHEMA = "repro.obs.causal/1"

#: The client-side stage partition, in pipeline order. ``server_echo``
#: lumps everything that happens at the server (apply + host echo +
#: echo-ack wait + diff/compose + return seal — the return seal cannot
#: be split out because the reply's hold time is computed before it);
#: ``seal``/``unseal`` are the client's own crypto wall-CPU, carved out
#: of the adjacent reactor-time intervals.
STAGES = (
    "input_wait",
    "seal",
    "wire_c2s",
    "server_echo",
    "wire_s2c",
    "unseal",
    "deliver",
)

#: Slowest-N keystrokes whose full causal chains are retained.
EXEMPLAR_MAX = 16

#: Outstanding (stamped, unsettled) chains; mirrors the keystroke
#: tracker's bound so the two pending queues stay in lockstep.
PENDING_MAX = 4096

#: Apparent one-way deltas beyond this are 16-bit wraparound artifacts.
_MAX_APPARENT_MS = 30_000.0


def _signed16(value: int) -> int:
    """Interpret a mod-2^16 difference as a signed millisecond delta."""
    return ((value + 0x8000) & 0xFFFF) - 0x8000


class CausalTracer:
    """Attributes each settled keystroke's echo latency to its stages.

    One tracer per client core, registered in its reactor's registry.
    The datagram endpoint drives :meth:`on_send` / :meth:`on_recv`, the
    core drives :meth:`on_stamp` and :meth:`on_frame`; everything else is
    derived.

    On a ``"sim"`` reactor both endpoints share one clock, so the offset
    estimate is pinned to zero, matching the offline analyzer's
    treatment of sim/sim recordings; two real processes have two real
    clocks, so the wire split leans on the streaming offset estimator.
    """

    def __init__(self, reactor, label: str | None = None) -> None:
        registry = reactor.registry
        prefix = "causal" if label is None else f"causal.{label}"
        self.label = label
        self._pin_offset = reactor.clock_domain == "sim"
        self.stage_histograms = {
            stage: registry.histogram(f"{prefix}.{stage}_ms", unit="ms")
            for stage in STAGES
        }
        #: Chains fully attributed across the seven stages.
        self.chains = registry.counter(f"{prefix}.chains")
        #: Settled keystrokes whose send or receive context was missing
        #: (tracer attached mid-flight, pending window aged out): their
        #: whole interior is charged to ``server_echo`` so sums still
        #: hold, and this counter says how often that fallback fired.
        self.unmatched = registry.counter(f"{prefix}.unmatched")
        self.offset_estimator = ClockOffsetEstimator()
        # [index, t_typed, t_sent|None, seal_ms, send_seq|None] per
        # outstanding keystroke, strictly index-ordered.
        self._pending: deque[list] = deque(maxlen=PENDING_MAX)
        # Newest accepted rx tuple, the fallback settle context when the
        # transport could not name the completing datagram.
        self._last_rx: tuple | None = None
        # Min-heap of (echo_ms, tiebreak, chain) — the root is the
        # *fastest* retained exemplar, evicted first.
        self._exemplars: list[tuple] = []
        self._tiebreak = 0

    # -- properties ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Stamped keystrokes not yet settled and attributed."""
        return len(self._pending)

    @property
    def exemplar_count(self) -> int:
        return len(self._exemplars)

    def offset_ms(self) -> float:
        """Current server-minus-client clock offset used for wire splits."""
        if self._pin_offset:
            return 0.0
        offset = self.offset_estimator.offset()
        return 0.0 if offset is None else offset

    # -- hooks (core + endpoint) ----------------------------------------

    def on_stamp(self, index: int, now: float) -> None:
        """A keystroke entered the UserStream (same instant the latency
        tracker stamped it)."""
        if not _obs._enabled:
            return
        self._pending.append([index, now, None, 0.0, None])

    def on_send(self, now: float, seq: int, dlen: int, seal_us: float) -> None:
        """The endpoint sent a datagram carrying a ``dlen``-byte diff; a
        non-empty diff carries every still-unsent pending keystroke."""
        if not _obs._enabled or not self._pending or not dlen:
            return
        seal_ms = seal_us / 1000.0
        # Unsent records form a suffix of the ordered pending queue.
        for record in reversed(self._pending):
            if record[2] is not None:
                break
            record[2] = now
            record[3] = seal_ms
            record[4] = seq

    def on_recv(self, rx: tuple) -> None:
        """One authentic datagram arrived.

        ``rx`` is ``(t_recv, seq, timestamp, timestamp_reply_or_None,
        rtt_ms_or_None, unseal_us, srtt_or_None)`` as captured by the
        endpoint. Feeds the offset estimator and remembers the tuple as
        the fallback settle context.
        """
        if not _obs._enabled:
            return
        self._last_rx = rx
        t_recv, _seq, ts, reply, _rtt, _unseal, _srtt = rx
        if reply is None:
            return
        # Apparent one-way deltas from the hold-adjusted echo (§2.2):
        # the reply equals our send timestamp plus the peer's hold, so
        # ``ts - reply`` is c2s wire + offset and ``now16 - ts`` is s2c
        # wire - offset (offset = server - client).
        apparent_c2s = float(_signed16(ts - reply))
        apparent_s2c = float(_signed16((int(t_recv) & 0xFFFF) - ts))
        if abs(apparent_c2s) < _MAX_APPARENT_MS:
            self.offset_estimator.add_c2s(apparent_c2s)
        if abs(apparent_s2c) < _MAX_APPARENT_MS:
            self.offset_estimator.add_s2c(apparent_s2c)

    def on_frame(
        self,
        now: float,
        settled: list[tuple[int, float]],
        rx: tuple | None = None,
    ) -> None:
        """A frame settled keystrokes; attribute each one's chain.

        ``settled`` is the latency tracker's (index, echo_ms) list for
        this frame; ``rx`` is the settling datagram's capture from the
        transport (falls back to the newest received datagram, which in
        the common one-datagram-per-tick case is the same thing).
        """
        if not _obs._enabled or not settled:
            return
        if rx is None:
            rx = self._last_rx
        pending = self._pending
        for index, echo_ms in settled:
            record = None
            while pending and pending[0][0] < index:
                # A stamped keystroke the tracker never reported settled
                # under this index (queues drifted): age it out.
                pending.popleft()
                self.unmatched.inc()
            if pending and pending[0][0] == index:
                record = pending.popleft()
            self._attribute(index, echo_ms, record, rx, now)

    # -- attribution -----------------------------------------------------

    def _attribute(
        self,
        index: int,
        echo_ms: float,
        record: list | None,
        rx: tuple | None,
        t_settle: float,
    ) -> None:
        stages = dict.fromkeys(STAGES, 0.0)
        t_typed = t_settle - echo_ms
        t_sent = record[2] if record is not None else None
        if record is None or t_sent is None or rx is None or rx[0] < t_sent:
            # Missing context: the boundaries still hold (t_typed and
            # t_settle are exact), so charge the whole interior to the
            # server stage rather than inventing a split.
            stages["server_echo"] = echo_ms
            self.unmatched.inc()
        else:
            t_recv, _seq, ts, _reply, rtt_ms, unseal_us, srtt_ms = rx
            # Exact client-local boundaries: these three sum to echo_ms.
            stages["input_wait"] = input_wait = t_sent - t_typed
            mid = t_recv - t_sent
            deliver_total = echo_ms - input_wait - mid
            # Crypto wall-CPU carved out of the adjacent intervals (on a
            # simulated clock the reactor never sees it, so the carve is
            # bounded by the interval it came out of).
            seal = min(record[3], mid)
            unseal = min(unseal_us / 1000.0, deliver_total)
            stages["seal"] = seal
            stages["unseal"] = unseal
            stages["deliver"] = deliver_total - unseal
            interior = mid - seal
            # The settle datagram's RTT sample is hold-adjusted pure wire
            # time; what remains of the interior is server residence.
            # When the settle datagram's reply slot is empty (the server
            # spent its saved timestamp on an earlier reply), the
            # endpoint's smoothed RTT stands in for the sample.
            wire_estimate = rtt_ms if rtt_ms is not None else srtt_ms
            server_echo = (
                min(max(interior - wire_estimate, 0.0), interior)
                if wire_estimate is not None
                else 0.0
            )
            wire_total = interior - server_echo
            # Directional split via the apparent s2c delta + clock offset;
            # clamped so the c2s residual absorbs any estimate error.
            wire_s2c = wire_total / 2.0
            if ts is not None:
                apparent_s2c = float(_signed16((int(t_recv) & 0xFFFF) - ts))
                wire_s2c = min(
                    max(apparent_s2c + self.offset_ms(), 0.0), wire_total
                )
            stages["server_echo"] = server_echo
            stages["wire_s2c"] = wire_s2c
            stages["wire_c2s"] = wire_total - wire_s2c
            self.chains.inc()
        histograms = self.stage_histograms
        for name, value in stages.items():
            histograms[name].record(value)
        self._note_exemplar(index, echo_ms, t_typed, record, rx, stages)

    def _note_exemplar(
        self,
        index: int,
        echo_ms: float,
        t_typed: float,
        record: list | None,
        rx: tuple | None,
        stages: dict[str, float],
    ) -> None:
        exemplars = self._exemplars
        if len(exemplars) >= EXEMPLAR_MAX and echo_ms <= exemplars[0][0]:
            return  # faster than every retained tail chain
        # Raw values only: most retained chains are displaced unread, so
        # the rounded chain document is built by :meth:`exemplars`.
        self._tiebreak += 1
        entry = (
            echo_ms,
            self._tiebreak,
            index,
            t_typed,
            record[4] if record is not None else None,
            rx[1] if rx is not None else None,
            stages,
        )
        if len(exemplars) >= EXEMPLAR_MAX:
            heapq.heapreplace(exemplars, entry)
        else:
            heapq.heappush(exemplars, entry)

    # -- reading / export ------------------------------------------------

    def exemplars(self) -> list[dict]:
        """Retained tail chains, slowest first."""
        return [
            {
                "index": index,
                "echo_ms": round(echo_ms, 3),
                "t_typed": round(t_typed, 3),
                "send_seq": send_seq,
                "settle_seq": settle_seq,
                "stages": {name: round(stages[name], 3) for name in STAGES},
            }
            for echo_ms, _, index, t_typed, send_seq, settle_seq, stages in sorted(
                self._exemplars, key=lambda e: -e[0]
            )
        ]

    def export_spans(self, tracer) -> int:
        """Emit each exemplar as a stage waterfall of Chrome spans.

        Stages become consecutive complete ("X") spans starting at the
        keystroke's stamp time, so a slow keystroke opens in Perfetto as
        a literal waterfall. Returns the span count.
        """
        count = 0
        for chain in self.exemplars():
            cursor = chain["t_typed"]
            for stage in STAGES:
                duration = chain["stages"][stage]
                if duration <= 0.0:
                    continue
                tracer.span_at(
                    f"causal.{stage}",
                    cursor,
                    duration,
                    cat="causal",
                    index=chain["index"],
                    echo_ms=chain["echo_ms"],
                )
                cursor += duration
                count += 1
        return count

    def report(self) -> dict:
        """The ``repro.obs.causal/1`` report document."""
        return {
            "schema": CAUSAL_SCHEMA,
            "label": self.label,
            "clock_offset_ms": round(self.offset_ms(), 3),
            "chains": self.chains.value,
            "unmatched": self.unmatched.value,
            "stages": {
                name: hist.summary()
                for name, hist in self.stage_histograms.items()
            },
            "exemplars": self.exemplars(),
        }


# ----------------------------------------------------------------------
# Snapshot-document helpers (CLI / dashboard side)
# ----------------------------------------------------------------------


def pool_stage_summaries(doc: dict) -> dict[str, object]:
    """Pool a snapshot's ``causal.*`` stage histograms, one per stage.

    Works on a plain ``repro.obs/1`` document (scraped or reassembled
    from a ``watch`` feed), merging the unlabelled and every per-session
    labelled histogram into one per stage. Returns
    ``{stage: Histogram}`` — entries with ``count == 0`` mean no session
    in the snapshot recorded that stage.
    """
    histograms = doc.get("histograms", {})
    pooled = {}
    for stage in STAGES:
        suffix = f".{stage}_ms"
        summaries = [
            summary
            for name, summary in histograms.items()
            if name == f"causal.{stage}_ms"
            or (name.startswith("causal.") and name.endswith(suffix))
        ]
        pooled[stage] = merge_summaries(summaries, name=stage)
    return pooled


def pool_server_echo_wait(doc: dict):
    """Pool every core's ``*.causal.echo_wait_ms`` from a snapshot.

    Returns a Histogram (possibly empty) — the daemon-side view when no
    client-side chains live in this registry.
    """
    summaries = [
        summary
        for name, summary in doc.get("histograms", {}).items()
        if name.endswith(".causal.echo_wait_ms")
    ]
    return merge_summaries(summaries, name="echo_wait")


def render_waterfall(pooled: dict, width: int = 40) -> list[str]:
    """Text stage waterfall from :func:`pool_stage_summaries` output.

    Each stage's bar is offset by the cumulative mean of the stages
    before it and sized by its own mean, so the panel reads as a left-to-
    right timeline of where the average keystroke's time went.
    """
    total = sum(pooled[stage].mean for stage in STAGES)
    lines = []
    cursor = 0.0
    for stage in STAGES:
        hist = pooled[stage]
        mean = hist.mean
        if total > 0.0:
            lead = int(round(width * (cursor / total)))
            bar_len = int(round(width * (mean / total)))
            if mean > 0.0 and bar_len == 0:
                bar_len = 1
            bar = " " * lead + "#" * bar_len
        else:
            bar = ""
        lines.append(
            f"  {stage:<12} {mean:>9.3f} ms mean"
            f"  p95 {hist.p95:>9.3f}  |{bar}"
        )
        cursor += mean
    return lines


_EXEMPLAR_SUM_TOLERANCE_MS = 0.05  # 7 stages rounded to 3 decimals


def validate_causal_report(doc: object) -> None:
    """Raise :class:`ObservabilityError` unless ``doc`` is a valid
    ``repro.obs.causal/1`` report with residual-exact exemplars."""
    if not isinstance(doc, dict):
        raise ObservabilityError("causal report must be a JSON object")
    if doc.get("schema") != CAUSAL_SCHEMA:
        raise ObservabilityError(
            f"causal report schema {doc.get('schema')!r} != {CAUSAL_SCHEMA!r}"
        )
    stages = doc.get("stages")
    if not isinstance(stages, dict) or set(stages) != set(STAGES):
        raise ObservabilityError(
            f"causal report stages {sorted(stages or ())} != {sorted(STAGES)}"
        )
    counts = {summary.get("count") for summary in stages.values()}
    if len(counts) != 1:
        raise ObservabilityError(
            f"stage histograms disagree on chain count: {sorted(counts)}"
        )
    exemplars = doc.get("exemplars")
    if not isinstance(exemplars, list):
        raise ObservabilityError("causal report exemplars must be a list")
    for chain in exemplars:
        missing = {"index", "echo_ms", "t_typed", "stages"} - chain.keys()
        if missing:
            raise ObservabilityError(
                f"exemplar missing keys {sorted(missing)}"
            )
        if set(chain["stages"]) != set(STAGES):
            raise ObservabilityError(
                f"exemplar {chain['index']} stages are not the canonical set"
            )
        total = sum(chain["stages"].values())
        if abs(total - chain["echo_ms"]) > _EXEMPLAR_SUM_TOLERANCE_MS:
            raise ObservabilityError(
                f"exemplar {chain['index']}: stage sum {total:.3f} != "
                f"echo_ms {chain['echo_ms']:.3f}"
            )
