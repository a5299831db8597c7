"""Property-based convergence: SSP heals over any badly-behaved link.

These are the paper's core protocol claims turned into properties:
idempotency (duplicated datagrams are harmless), tolerance of reordering,
and convergence once the network quiets down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.input.events import UserBytes
from repro.input.userstream import UserStream
from repro.session import InProcessSession
from repro.simnet import LinkConfig
from repro.transport.receiver import TransportReceiver


class TestIdempotency:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.integers(1, 4))
    def test_replayed_instructions_are_noops(self, order, repeats):
        """Applying any instruction sequence with arbitrary duplication
        yields the same final state as applying it once in order."""
        # Build a chain of instructions 0->1->2->3->4.
        base = UserStream()
        states = [base.copy()]
        instructions = []
        for i in range(4):
            nxt = states[-1].copy()
            nxt.push_event(UserBytes(bytes([65 + i])))
            instructions.append((i, i + 1, nxt.diff_from(states[-1])))
            states.append(nxt)

        reference = TransportReceiver(base)
        for inst in instructions:
            reference.process_instruction(*inst)

        chaotic = TransportReceiver(base)
        # in-order base pass ensures diff bases exist, then chaos
        for inst in instructions:
            chaotic.process_instruction(*inst)
        for idx in order:
            for _ in range(repeats):
                chaotic.process_instruction(*instructions[idx])
        assert chaotic.latest_state == reference.latest_state
        assert chaotic.latest_num == reference.latest_num


class TestConvergenceUnderChaos:
    @settings(max_examples=8, deadline=None)
    @given(
        loss=st.floats(0.0, 0.4),
        jitter=st.floats(0.0, 120.0),
        seed=st.integers(0, 1000),
    )
    def test_lossy_reordering_link_converges(self, loss, jitter, seed):
        """Whatever the link does, once it quiets down the server holds
        exactly the input history the client generated."""
        config = LinkConfig(
            delay_ms=30.0, loss=loss, jitter_ms=jitter, allow_reorder=True
        )
        session = InProcessSession(config, config, seed=seed)
        session.connect()
        payload = b"the quick brown fox"
        for i, ch in enumerate(payload):
            session.loop.schedule_at(
                2500 + i * 80, lambda ch=ch: session.client.type_bytes(bytes([ch]))
            )
        session.loop.run_until(2500 + len(payload) * 80 + 90_000)
        stream = session.server.transport.remote_state
        received = b"".join(
            e.data for e in stream.events_since(0) if isinstance(e, UserBytes)
        )
        assert received == payload

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_screen_converges_bidirectionally(self, seed):
        config = LinkConfig(delay_ms=40.0, loss=0.25, jitter_ms=60.0, allow_reorder=True)
        session = InProcessSession(config, config, seed=seed)
        session.server.on_input = lambda d: session.server.host_write(d.upper())
        session.connect()
        for i, ch in enumerate(b"abcdef"):
            session.loop.schedule_at(
                2500 + i * 150, lambda ch=ch: session.client.type_bytes(bytes([ch]))
            )
        session.loop.run_until(120_000)
        assert session.client.remote_terminal.fb == session.server.terminal.fb
        assert "ABCDEF" in session.server.terminal.fb.row_text(0)
