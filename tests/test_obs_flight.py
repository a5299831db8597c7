"""FlightRecorder: ring bounds, schema, JSONL round-trip, gating."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.flight import (
    DIR_C2S,
    DIR_S2C,
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_log,
    peek_seq,
    validate_flight_log,
)
from repro.obs.registry import set_enabled


def _recorder(capacity=64):
    return FlightRecorder("client", capacity=capacity)


class TestRecording:
    def test_send_event_fields(self):
        rec = _recorder()
        rec.note_send(12.5, DIR_C2S, 3, 180, 500, 123,
                      {"new": 7, "ack": 2, "dlen": 40})
        (event,) = rec.events()
        assert event["ev"] == "send"
        assert event["dir"] == DIR_C2S
        assert (event["seq"], event["len"]) == (3, 180)
        assert (event["ts"], event["tsr"]) == (500, 123)
        assert (event["new"], event["ack"], event["dlen"]) == (7, 2, 40)

    def test_recv_event_optional_fields(self):
        rec = _recorder()
        rec.note_recv(20.0, DIR_S2C, 5, 200, 600, 500,
                      frag=(9, 0, True), reordered=True,
                      rtt=100.0, srtt=95.5, rto=300.0)
        (event,) = rec.events()
        assert (event["frag_id"], event["frag_idx"], event["final"]) == (9, 0, True)
        assert event["reorder"] is True
        assert event["rtt"] == 100.0
        assert event["srtt"] == 95.5

    def test_drop_reason_validated(self):
        rec = _recorder()
        rec.note_drop(1.0, DIR_C2S, "loss", seq=4, wire_len=100)
        with pytest.raises(ObservabilityError):
            rec.note_drop(1.0, DIR_C2S, "cosmic_rays")

    def test_events_filter_by_kind(self):
        rec = _recorder()
        rec.note_send(1.0, DIR_C2S, 0, 10, 1, None)
        rec.note_drop(2.0, DIR_C2S, "loss", seq=0)
        rec.note_instruction(3.0, DIR_S2C, 1, 2, 3, 0, 17)
        assert len(rec.events()) == 3
        assert [e["ev"] for e in rec.events("drop")] == ["drop"]

    def test_ring_bounded_and_overwrites_counted(self):
        rec = _recorder(capacity=10)
        for seq in range(25):
            rec.note_send(float(seq), DIR_C2S, seq, 10, seq, None)
        assert len(rec) == 10
        assert rec.dropped_events == 15
        assert rec.header()["dropped_events"] == 15
        # The ring keeps the newest events.
        assert [e["seq"] for e in rec.events()] == list(range(15, 25))

    def test_clear(self):
        rec = _recorder(capacity=2)
        for seq in range(5):
            rec.note_send(0.0, DIR_C2S, seq, 10, 0, None)
        rec.clear()
        assert len(rec) == 0 and rec.dropped_events == 0

    def test_disabled_records_nothing(self):
        rec = _recorder()
        set_enabled(False)
        try:
            rec.note_send(1.0, DIR_C2S, 0, 10, 0, None)
            rec.note_recv(2.0, DIR_S2C, 0, 10, 0, None)
            rec.note_drop(3.0, DIR_C2S, "loss")
            rec.note_instruction(4.0, DIR_S2C, 0, 1, 0, 0, 5)
        finally:
            set_enabled(True)
        assert len(rec) == 0


class TestSchema:
    def test_jsonl_round_trip(self, tmp_path):
        rec = _recorder()
        rec.note_send(1.0, DIR_C2S, 0, 10, 7, None, {"new": 1, "dlen": 3})
        rec.note_recv(2.0, DIR_S2C, 0, 12, 9, 7, frag=(0, 0, True))
        rec.note_drop(3.0, DIR_C2S, "auth", seq=1, wire_len=44)
        path = tmp_path / "flight.jsonl"
        assert rec.export_jsonl(str(path)) == 3
        header, events = load_flight_log(str(path))
        assert header["schema"] == FLIGHT_SCHEMA
        assert header["role"] == "client"
        assert events == rec.events()

    def test_validator_rejects_bad_documents(self):
        ok_header = {"schema": FLIGHT_SCHEMA, "role": "client", "clock": "sim"}
        validate_flight_log(ok_header, [])
        with pytest.raises(ObservabilityError):
            validate_flight_log({"schema": "nope/1", "role": "c", "clock": "sim"}, [])
        with pytest.raises(ObservabilityError):
            validate_flight_log(ok_header, [{"ev": "warp", "dir": DIR_C2S, "t": 0}])
        with pytest.raises(ObservabilityError):
            validate_flight_log(
                ok_header, [{"ev": "send", "dir": "up", "t": 0}]
            )
        with pytest.raises(ObservabilityError):
            # send events must carry numeric seq/len/ts
            validate_flight_log(
                ok_header,
                [{"ev": "send", "dir": DIR_C2S, "t": 0, "seq": "x",
                  "len": 1, "ts": 2}],
            )
        with pytest.raises(ObservabilityError):
            validate_flight_log(
                ok_header,
                [{"ev": "drop", "dir": DIR_C2S, "t": 0, "reason": "gremlin"}],
            )

    def test_capacity_validated(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder("x", capacity=0)


class TestPeekSeq:
    def test_reads_cleartext_nonce(self):
        direction_bit = 1 << 63
        raw = (direction_bit | 42).to_bytes(8, "big") + b"ciphertext"
        assert peek_seq(raw) == 42
        assert peek_seq((42).to_bytes(8, "big")) == 42

    def test_short_datagram(self):
        assert peek_seq(b"short") is None
