"""Cross-endpoint flight-log merge: the lossy-link acceptance run.

A full in-process session over the paper's 29 %-loss netem profile is
recorded at both endpoints; the merged timeline must account for every
datagram either side sent, agree exactly with the simulator's ground
truth, and keep every RTT sample within the sender's own estimator
bound.
"""

import json
import sys

import pytest

from repro.analysis.flight import (
    analyze,
    check,
    export_chrome,
    merge_recordings,
    render_report,
)
from repro.errors import ObservabilityError
from repro.obs.flight import load_flight_log
from repro.session.inprocess import InProcessSession
from repro.simnet.link import LinkConfig
from repro.simnet.netem import lossy_profile


def _lossy_session(seed=11):
    uplink, downlink = lossy_profile()
    session = InProcessSession(uplink, downlink, seed=seed)
    session.server.on_input = lambda data: session.server.host_write(data)
    session.connect()
    for ch in b"ls -l && make test\n":
        session.client.type_bytes(bytes([ch]))
        session.run_for(150.0)
    session.run_for(5000.0)  # drain retransmissions
    return session


@pytest.fixture(scope="module")
def lossy_run():
    session = _lossy_session()
    report = analyze(*session.flight_recordings())
    return session, report


class TestLossyAcceptance:
    def test_every_sent_packet_accounted_for(self, lossy_run):
        session, report = lossy_run
        links = {"c2s": session.network.uplink,
                 "s2c": session.network.downlink}
        for direction, link in links.items():
            stats = report["directions"][direction]
            assert stats["sent"] == link.packets_sent
            partition = (stats["delivered"] + stats["dropped"]
                         + stats["lost_inferred"] + stats["in_flight"])
            assert partition == stats["sent"]

    def test_loss_matches_link_counters_exactly(self, lossy_run):
        session, report = lossy_run
        links = {"c2s": session.network.uplink,
                 "s2c": session.network.downlink}
        for direction, link in links.items():
            stats = report["directions"][direction]
            # Ground truth: each rolled loss produced exactly one drop
            # event in the sender's recording; none had to be inferred.
            assert stats["drop_reasons"].get("loss", 0) == \
                link.packets_dropped_loss
            assert stats["lost_inferred"] == 0
            assert stats["delivered"] == link.packets_delivered

    def test_rtt_samples_within_estimator_bound(self, lossy_run):
        _, report = lossy_run
        for role in ("client", "server"):
            audit = report["rtt"][role]
            assert audit["checked"] > 0
            assert audit["violations"] == []
            # The path floor is 100 ms RTT; no sample can beat it.
            assert audit["samples"]["min"] >= 100.0

    def test_invariant_check_passes(self, lossy_run):
        _, report = lossy_run
        assert check(report) == []

    def test_convergence_measured(self, lossy_run):
        _, report = lossy_run
        conv = report["convergence_ms"]["client"]
        assert conv is not None and conv["count"] > 0
        # Convergence takes at least the 100 ms round trip.
        assert conv["min"] >= 100.0

    def test_no_anomalies_on_live_path(self, lossy_run):
        _, report = lossy_run
        assert report["anomalies"] == []

    def test_report_renders(self, lossy_run):
        _, report = lossy_run
        text = render_report(report)
        assert "loss rate" in text and "c2s" in text


class TestFlightlogTool:
    def test_cli_merges_checks_and_exports(self, lossy_run, tmp_path):
        session, _ = lossy_run
        client_path = tmp_path / "client.jsonl"
        server_path = tmp_path / "server.jsonl"
        n_client = session.client_flight.export_jsonl(str(client_path))
        n_server = session.server_flight.export_jsonl(str(server_path))
        assert n_client > 0 and n_server > 0
        # The exported artifacts validate against the schema on reload.
        load_flight_log(str(client_path))
        load_flight_log(str(server_path))

        sys.path.insert(0, "tools")
        try:
            import flightlog
        finally:
            sys.path.pop(0)
        report_path = tmp_path / "report.json"
        chrome_path = tmp_path / "wire.json"
        rc = flightlog.main([
            str(client_path), str(server_path),
            "--json", str(report_path),
            "--chrome", str(chrome_path),
            "--check",
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.obs.flight.report/1"
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        drops = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
        total = sum(report["directions"][d]["sent"] for d in ("c2s", "s2c"))
        assert len(spans) + len(drops) == total


class TestMergeValidation:
    def test_same_role_rejected(self, lossy_run):
        session, _ = lossy_run
        client = session.client_flight.recording()
        with pytest.raises(ObservabilityError):
            merge_recordings(client, client)

    def test_export_chrome_counts(self, lossy_run, tmp_path):
        session, report = lossy_run
        path = tmp_path / "t.json"
        n = export_chrome(*session.flight_recordings(), str(path))
        total = sum(report["directions"][d]["sent"] for d in ("c2s", "s2c"))
        assert n == total


class TestFragmentsUnderReorderAndDuplication:
    """FragmentAssembly exercised through a recorded hostile-network run.

    The link reorders (80 ms jitter vs 10 ms delay), duplicates 15 % of
    packets, and loses 10 % — so the client sees fragments out of order,
    link-duplicated copies (killed by the replay window), and whole-
    instruction retransmissions reusing fragment ids. The client's flight
    log must show every reassembled instruction's fragments accounted
    for, and exactly one reassembly per fragment id.
    """

    @pytest.fixture(scope="class")
    def hostile_run(self):
        config = LinkConfig(delay_ms=10.0, jitter_ms=80.0, loss=0.1,
                            allow_reorder=True, duplicate=0.15)
        session = InProcessSession(config, config, seed=5)
        session.server.on_input = lambda data: session.server.host_write(data)
        session.connect()
        # Big, barely-compressible repaints force multi-fragment
        # instructions in the s2c direction.
        from random import Random

        rng = Random(2)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
        for _ in range(6):
            text = "".join(rng.choice(alphabet) for _ in range(1800))
            session.server.host_write(text.encode())
            session.run_for(600.0)
        session.run_for(5000.0)
        return session

    def test_hostile_path_was_actually_hostile(self, hostile_run):
        session = hostile_run
        down = session.network.downlink
        assert down.packets_dropped_loss > 0
        assert down.packets_reordered > 0
        assert down.packets_duplicated > 0

    def test_wire_duplicates_die_in_replay_window(self, hostile_run):
        session = hostile_run
        # Every link-duplicated copy that arrived was killed by the
        # receiver's replay window and recorded as a replay drop.
        events = session.client_flight.events("drop")
        replay_drops = [e for e in events if e["reason"] == "replay"]
        assert len(replay_drops) == \
            session.client_endpoint.session.stats.replay_drops
        assert replay_drops  # duplication actually reached the client

    def test_multi_fragment_instructions_flowed(self, hostile_run):
        session = hostile_run
        recvs = [e for e in session.client_flight.events("recv")
                 if e["dir"] == "s2c" and "frag_id" in e]
        assert any(e["frag_idx"] > 0 for e in recvs)

    def test_exactly_one_reassembly_per_fragment_id(self, hostile_run):
        session = hostile_run
        insts = [e for e in session.client_flight.events("inst")
                 if e["dir"] == "s2c"]
        assert insts
        ids = [e["frag_id"] for e in insts if "frag_id" in e]
        assert len(ids) == len(set(ids))

    def test_reassembled_fragments_all_accounted_for(self, hostile_run):
        session = hostile_run
        recvs = [e for e in session.client_flight.events("recv")
                 if e["dir"] == "s2c" and "frag_id" in e]
        by_id: dict[int, set[int]] = {}
        finals: dict[int, int] = {}
        for e in recvs:
            by_id.setdefault(e["frag_id"], set()).add(e["frag_idx"])
            if e["final"]:
                finals[e["frag_id"]] = e["frag_idx"]
        for e in session.client_flight.events("inst"):
            if e["dir"] != "s2c" or "frag_id" not in e:
                continue
            frag_id = e["frag_id"]
            # The log shows every piece the reassembly consumed: indices
            # 0..final inclusive all arrived before the inst event.
            assert frag_id in finals
            needed = set(range(finals[frag_id] + 1))
            assert needed <= by_id[frag_id]

    def test_retransmissions_reuse_fragment_ids(self, hostile_run):
        session = hostile_run
        # Under 10 % loss some instruction needed a retransmission; the
        # fragmenter reuses the id for byte-identical resends, so the log
        # shows more fragment arrivals than distinct (id, idx) pairs —
        # the duplicate-suppression path in FragmentAssembly ran.
        recvs = [e for e in session.client_flight.events("recv")
                 if e["dir"] == "s2c" and "frag_id" in e]
        pairs = [(e["frag_id"], e["frag_idx"]) for e in recvs]
        assert len(pairs) > len(set(pairs))
