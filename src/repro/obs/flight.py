"""The wire-level flight recorder.

The paper's entire evaluation rests on knowing the fate of every datagram
— when it was sent, whether the link dropped it, and when the covering
ack came back. A :class:`FlightRecorder` gives each endpoint that record:
one structured event per datagram at every lifecycle point, kept in a
bounded ring and exportable as JSONL for offline analysis. The model is
QUIC's qlog endpoint logging — each endpoint records only what it can see
locally, and :mod:`repro.analysis.flight` correlates a client recording
with a server recording into one causal timeline.

Event kinds (the ``ev`` field):

* ``send`` — a sealed datagram left this endpoint. Carries the cleartext
  sequence number, wire length, the 16-bit timestamp / timestamp-reply
  echoes, and (when the transport sender supplied them) the carried
  instruction's old/new/ack/throwaway numbers plus fragment
  id/index/final.
* ``recv`` — an authentic datagram was unsealed and accepted. Carries the
  fragment header (peeked without decompression), a ``reorder`` flag when
  the sequence number arrived behind a newer one, and the RTT sample /
  SRTT / RTO values the estimator derived from the timestamp echo.
* ``drop`` — a datagram met a terminal fate short of delivery. The
  ``reason`` field names it: ``loss`` / ``queue`` (simulated-link drops,
  reported by the link observer), ``auth`` (failed OCB verification),
  ``replay`` (authentic but sequence-reusing, i.e. a duplicate),
  ``reflect`` (our own direction bit echoed back), ``bad_packet``
  (authenticated but unparseable), ``send_err`` (the real-UDP socket
  refused the send).
* ``inst`` — a complete instruction was reassembled from fragments and
  applied; the receive-side record of state convergence.

Recording is gated by the same global switch as histograms and spans
(:func:`repro.obs.registry.set_enabled`), so the benchmark suite can
measure its overhead A/B in one process.

Serialized recordings start with a header line (``schema``, ``role``,
``clock``) followed by one JSON object per event; see
:data:`FLIGHT_SCHEMA` and :func:`validate_flight_log`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any

from repro.errors import ObservabilityError
from repro.obs import registry as _registry

#: Schema tag stamped into every recording; bump on breaking changes.
FLIGHT_SCHEMA = "repro.obs.flight/1"

#: Default ring bound. A paced SSP session sends a few datagrams per
#: second, so this holds hours of wire history in a few MB.
DEFAULT_CAPACITY = 65536

#: Direction labels, named from the client's perspective at both ends.
DIR_C2S = "c2s"
DIR_S2C = "s2c"
DIRECTIONS = (DIR_C2S, DIR_S2C)

#: Terminal-fate reasons a ``drop`` event may carry.
DROP_REASONS = (
    "loss",        # simulated link: random loss at departure
    "queue",       # simulated link: drop-tail buffer rejection
    "auth",        # OCB tag verification failed
    "replay",      # authentic but sequence-reusing (duplicate) datagram
    "reflect",     # our own direction bit came back at us
    "bad_packet",  # pre-auth unparseable header, or unparseable packet body
    "no_route",    # unframed, or no session owns this connection id
    "send_err",    # the real-UDP socket refused the transmit
)

_EVENT_KINDS = ("send", "recv", "drop", "inst")

#: First byte of a muxed datagram (mirrors packet.CONN_WIRE_MAGIC; the
#: packet module is imported lazily below to keep this module import-light).
_CONN_WIRE_MAGIC = 0xD6


def _peek_conn_id(raw):
    """Lazy proxy for :func:`repro.network.packet.peek_conn_id`."""
    global _peek_conn_id
    from repro.network.packet import peek_conn_id

    _peek_conn_id = peek_conn_id
    return peek_conn_id(raw)


def peek_seq(raw: bytes | memoryview) -> int | None:
    """The cleartext sequence number of a sealed datagram, if parseable.

    The 8-byte nonce (direction bit | sequence) travels ahead of the
    sealed payload, so even a datagram that fails authentication still
    yields the sequence number its sender claimed — exactly what a drop
    event should record. Muxed datagrams carry a connection-id
    header ahead of the nonce; it is skipped here. Never raises on
    truncated or garbage input — this runs pre-auth on hostile bytes.
    """
    if len(raw) >= 1 and raw[0] == _CONN_WIRE_MAGIC:
        peeked = _peek_conn_id(raw)
        if peeked is None:
            return None
        raw = raw[peeked[1]:]
    if len(raw) < 8:
        return None
    value = int.from_bytes(bytes(raw[:8]), "big")
    return value & ((1 << 63) - 1)


class FlightRecorder:
    """Bounded ring of per-datagram lifecycle events for one endpoint."""

    def __init__(
        self,
        role: str,
        capacity: int = DEFAULT_CAPACITY,
        clock_domain: str = "sim",
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("flight recorder capacity must be >= 1")
        self.role = role
        self.clock_domain = clock_domain
        self._capacity = capacity
        self._events: deque[tuple] = deque(maxlen=capacity)
        #: Events overwritten after the ring filled (visibility into loss
        #: of visibility — a recording that wrapped says so).
        self.dropped_events = 0

    # -- recording ------------------------------------------------------
    #
    # The note_* methods run once per datagram on the session hot path,
    # so the ring stores flat tuples and the dict form of each event is
    # only materialized on read/export. Keeping the capacity check
    # inline (rather than a helper) saves a call per event.

    def note_send(
        self,
        now: float,
        direction: str,
        seq: int,
        wire_len: int,
        ts: int,
        tsr: int | None,
        meta: dict | None = None,
    ) -> None:
        """One sealed datagram left this endpoint.

        ``meta`` is the transport sender's description of what the
        datagram carried: instruction old/new/ack/throwaway numbers,
        fragment id/idx/final, and the instruction diff length. The
        batched wire path adds ``bsz`` — the size of the flush batch
        this datagram left in (1 when sent inline). It is kept by
        reference; callers must pass a fresh dict.
        """
        if not _registry._enabled:
            return
        if len(self._events) == self._capacity:
            self.dropped_events += 1
        self._events.append(("send", now, direction, seq, wire_len, ts, tsr, meta))

    def note_recv(
        self,
        now: float,
        direction: str,
        seq: int,
        wire_len: int,
        ts: int,
        tsr: int | None,
        frag: tuple[int, int, bool] | None = None,
        reordered: bool = False,
        rtt: float | None = None,
        srtt: float | None = None,
        rto: float | None = None,
    ) -> None:
        """One authentic datagram was unsealed and accepted."""
        if not _registry._enabled:
            return
        if len(self._events) == self._capacity:
            self.dropped_events += 1
        self._events.append(
            ("recv", now, direction, seq, wire_len, ts, tsr,
             frag, reordered, rtt, srtt, rto)
        )

    def note_drop(
        self,
        now: float,
        direction: str,
        reason: str,
        seq: int | None = None,
        wire_len: int | None = None,
    ) -> None:
        """A datagram met a terminal fate short of delivery."""
        if not _registry._enabled:
            return
        if reason not in DROP_REASONS:
            raise ObservabilityError(f"unknown drop reason {reason!r}")
        if len(self._events) == self._capacity:
            self.dropped_events += 1
        self._events.append(("drop", now, direction, reason, seq, wire_len))

    def note_instruction(
        self,
        now: float,
        direction: str,
        old: int,
        new: int,
        ack: int,
        throwaway: int,
        diff_len: int,
        frag_id: int | None = None,
    ) -> None:
        """A complete instruction was reassembled and applied."""
        if not _registry._enabled:
            return
        if len(self._events) == self._capacity:
            self.dropped_events += 1
        self._events.append(
            ("inst", now, direction, old, new, ack, throwaway, diff_len, frag_id)
        )

    # -- reading --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def capacity(self) -> int:
        """Ring capacity (events retained before overwrite)."""
        return self._capacity

    @staticmethod
    def _materialize(record: tuple) -> dict:
        kind = record[0]
        if kind == "send":
            _, t, direction, seq, wire_len, ts, tsr, meta = record
            event = {"t": t, "ev": "send", "dir": direction, "seq": seq,
                     "len": wire_len, "ts": ts, "tsr": tsr}
            if meta:
                event.update(meta)
            return event
        if kind == "recv":
            (_, t, direction, seq, wire_len, ts, tsr,
             frag, reordered, rtt, srtt, rto) = record
            event = {"t": t, "ev": "recv", "dir": direction, "seq": seq,
                     "len": wire_len, "ts": ts, "tsr": tsr}
            if frag is not None:
                event["frag_id"], event["frag_idx"], event["final"] = frag
            if reordered:
                event["reorder"] = True
            if rtt is not None:
                event["rtt"] = rtt
            if srtt is not None:
                event["srtt"] = round(srtt, 3)
            if rto is not None:
                event["rto"] = round(rto, 3)
            return event
        if kind == "drop":
            _, t, direction, reason, seq, wire_len = record
            event = {"t": t, "ev": "drop", "dir": direction, "reason": reason}
            if seq is not None:
                event["seq"] = seq
            if wire_len is not None:
                event["len"] = wire_len
            return event
        _, t, direction, old, new, ack, throwaway, diff_len, frag_id = record
        event = {"t": t, "ev": "inst", "dir": direction, "old": old,
                 "new": new, "ack": ack, "tw": throwaway, "dlen": diff_len}
        if frag_id is not None:
            event["frag_id"] = frag_id
        return event

    def events(self, ev: str | None = None) -> list[dict]:
        """Recorded events as dicts, optionally filtered by kind."""
        materialize = self._materialize
        if ev is None:
            return [materialize(r) for r in self._events]
        return [materialize(r) for r in self._events if r[0] == ev]

    def clear(self) -> None:
        self._events.clear()
        self.dropped_events = 0

    def header(self) -> dict:
        """The recording's header document (first JSONL line on export)."""
        return {
            "schema": FLIGHT_SCHEMA,
            "role": self.role,
            "clock": self.clock_domain,
            "capacity": self._capacity,
            "dropped_events": self.dropped_events,
        }

    def recording(self) -> tuple[dict, list[dict]]:
        """(header, events) — the in-memory form the analyzer consumes."""
        return self.header(), self.events()

    # -- export ---------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write header + one JSON object per event; returns event count."""
        header, events = self.recording()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header))
            fh.write("\n")
            for event in events:
                fh.write(json.dumps(event))
                fh.write("\n")
        return len(events)


def load_flight_log(path: str) -> tuple[dict, list[dict]]:
    """Read a JSONL recording back as (header, events), validated."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ObservabilityError(f"flight log {path!r} is empty")
    header = json.loads(lines[0])
    events = [json.loads(line) for line in lines[1:]]
    validate_flight_log(header, events)
    return header, events


def validate_flight_log(header: object, events: object) -> None:
    """Raise :class:`ObservabilityError` unless the recording is valid."""
    if not isinstance(header, dict):
        raise ObservabilityError("flight log header must be a JSON object")
    if header.get("schema") != FLIGHT_SCHEMA:
        raise ObservabilityError(
            f"flight log schema {header.get('schema')!r} != {FLIGHT_SCHEMA!r}"
        )
    for key in ("role", "clock"):
        if not isinstance(header.get(key), str):
            raise ObservabilityError(f"flight log header lacks {key!r}")
    if not isinstance(events, list):
        raise ObservabilityError("flight log events must be a list")
    for i, event in enumerate(events):
        _validate_event(i, event)


def _require_number(i: int, event: dict, key: str) -> None:
    value = event.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ObservabilityError(
            f"flight event #{i} field {key!r} is "
            f"{type(value).__name__}, expected a number"
        )


def _validate_event(i: int, event: Any) -> None:
    if not isinstance(event, dict):
        raise ObservabilityError(f"flight event #{i} is not an object")
    kind = event.get("ev")
    if kind not in _EVENT_KINDS:
        raise ObservabilityError(f"flight event #{i} has unknown ev {kind!r}")
    if event.get("dir") not in DIRECTIONS:
        raise ObservabilityError(
            f"flight event #{i} has unknown dir {event.get('dir')!r}"
        )
    _require_number(i, event, "t")
    if kind in ("send", "recv"):
        for key in ("seq", "len", "ts"):
            _require_number(i, event, key)
    elif kind == "drop":
        if event.get("reason") not in DROP_REASONS:
            raise ObservabilityError(
                f"flight event #{i} has unknown drop reason "
                f"{event.get('reason')!r}"
            )
    else:  # inst
        for key in ("old", "new", "ack", "tw", "dlen"):
            _require_number(i, event, key)
