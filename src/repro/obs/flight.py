"""The wire-level flight recorder.

The paper's entire evaluation rests on knowing the fate of every datagram
— when it was sent, whether the link dropped it, and when the covering
ack came back. A :class:`FlightRecorder` gives each endpoint that record:
one structured event per datagram at every lifecycle point, kept as a
run of scalars in a bounded flat ring (:mod:`repro.obs.ring`, overwrites
counted in ``dropped_events``) and exportable as JSONL for offline
analysis. The model is QUIC's qlog endpoint logging — each endpoint
records only what it can see locally, and :mod:`repro.analysis.flight`
correlates a client recording with a server recording into one causal
timeline.

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
from typing import Any

from repro.errors import ObservabilityError
from repro.obs import registry as _registry
from repro.obs.ring import FlatRing

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

#: ``frag`` slots of a received datagram too short to be a fragment.
_NO_FRAG = (None, None, None)

#: ``meta`` slots of a send noted without instruction context.
_NO_META = (None,) * 8

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


class FlightRecorder(FlatRing):
    """Bounded ring of per-datagram lifecycle events for one endpoint.

    Each event is one 16-slot run of the flat ring (see
    :mod:`repro.obs.ring`): its kind, time and direction, then the
    kind's fields in export order, padded with None to the width of the
    widest event (``send``). The dict form of an event is built only by
    :meth:`events` and :meth:`recording`.
    """

    WIDTH = 16

    def __init__(
        self,
        role: str,
        capacity: int = DEFAULT_CAPACITY,
        clock_domain: str = "sim",
    ) -> None:
        super().__init__(capacity)
        self.role = role
        self.clock_domain = clock_domain

    # -- recording ------------------------------------------------------
    #
    # The note_* methods run once per datagram on the session hot path:
    # each copies its scalars into the ring and keeps no object it was
    # handed, so nothing allocated here outlives the call.

    def note_send(
        self,
        now: float,
        direction: str,
        seq: int,
        wire_len: int,
        ts: int,
        tsr: int | None,
        meta: tuple | None = None,
        bsz: int | None = None,
    ) -> None:
        """One sealed datagram left this endpoint.

        ``meta`` is the transport sender's description of what the
        datagram carried, as the tuple ``(old, new, ack, tw, frag_id,
        frag_idx, final, dlen)``: the instruction's numbers, the
        fragment, and the instruction diff length. ``bsz`` is the size of
        the flush batch the datagram left in; only the batched wire path
        (:meth:`repro.network.batch.WireBatcher.flush`) passes it, and an
        inline send records no ``bsz`` at all.
        """
        if not _registry._enabled:
            return
        old, new, ack, tw, frag_id, frag_idx, final, dlen = (
            _NO_META if meta is None else meta
        )
        record = ("send", now, direction, seq, wire_len, ts, tsr, old, new,
                  ack, tw, frag_id, frag_idx, final, dlen, bsz)
        ring = self._ring
        if len(ring) < self._limit:
            ring += record
        else:
            self._overwrite(record)

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
        frag_id, frag_idx, final = _NO_FRAG if frag is None else frag
        record = ("recv", now, direction, seq, wire_len, ts, tsr, frag_id,
                  frag_idx, final, reordered, rtt, srtt, rto, None, None)
        ring = self._ring
        if len(ring) < self._limit:
            ring += record
        else:
            self._overwrite(record)

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
        record = ("drop", now, direction, reason, seq, wire_len, None, None,
                  None, None, None, None, None, None, None, None)
        ring = self._ring
        if len(ring) < self._limit:
            ring += record
        else:
            self._overwrite(record)

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
        record = ("inst", now, direction, old, new, ack, throwaway, diff_len,
                  frag_id, None, None, None, None, None, None, None)
        ring = self._ring
        if len(ring) < self._limit:
            ring += record
        else:
            self._overwrite(record)

    # -- reading --------------------------------------------------------

    @staticmethod
    def _materialize(record: list) -> dict:
        kind, t, direction = record[0], record[1], record[2]
        if kind == "send":
            (seq, wire_len, ts, tsr, old, new, ack, tw, frag_id, frag_idx,
             final, dlen, bsz) = record[3:]
            event = {"t": t, "ev": "send", "dir": direction, "seq": seq,
                     "len": wire_len, "ts": ts, "tsr": tsr}
            if old is not None:
                event.update(old=old, new=new, ack=ack, tw=tw, frag_id=frag_id,
                             frag_idx=frag_idx, final=final, dlen=dlen)
            if bsz is not None:
                event["bsz"] = bsz
            return event
        if kind == "recv":
            (seq, wire_len, ts, tsr, frag_id, frag_idx, final, reordered,
             rtt, srtt, rto) = record[3:14]
            event = {"t": t, "ev": "recv", "dir": direction, "seq": seq,
                     "len": wire_len, "ts": ts, "tsr": tsr}
            if frag_id is not None:
                event["frag_id"] = frag_id
                event["frag_idx"] = frag_idx
                event["final"] = final
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
            reason, seq, wire_len = record[3:6]
            event = {"t": t, "ev": "drop", "dir": direction, "reason": reason}
            if seq is not None:
                event["seq"] = seq
            if wire_len is not None:
                event["len"] = wire_len
            return event
        old, new, ack, throwaway, diff_len, frag_id = record[3:9]
        event = {"t": t, "ev": "inst", "dir": direction, "old": old,
                 "new": new, "ack": ack, "tw": throwaway, "dlen": diff_len}
        if frag_id is not None:
            event["frag_id"] = frag_id
        return event

    def events(self, ev: str | None = None) -> list[dict]:
        """Recorded events as dicts, oldest first, optionally by kind."""
        materialize = self._materialize
        if ev is None:
            return [materialize(r) for r in self._records()]
        return [materialize(r) for r in self._records() if r[0] == ev]

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
