"""The shared blank row: one canonical default-background blank row per
width fills every slot nobody drew, on live screens and snapshots alike."""

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.link import LinkConfig
from repro.session.inprocess import InProcessSession
from repro.terminal.cell import BLANK_CELL, Row
from repro.terminal.complete import Complete
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.framebuffer import Framebuffer

#: A list of 80 cell pointers (56 B header + 8 B a slot); anything
#: smaller cannot be an 80-column row's cell list.
ROW_LIST_BYTES = 8 * 80

#: Bytes of ``repro/terminal`` one idle 80×24 session pair may hold (both
#: ends in one process). Before the shared blank row it held about 48 KB;
#: now about 6 KB.
IDLE_PAIR_TERMINAL_BYTES = 10_000


def _terminal_traces(snapshot: tracemalloc.Snapshot) -> tracemalloc.Snapshot:
    return snapshot.filter_traces([tracemalloc.Filter(True, "*/repro/terminal/*")])


class TestSharedBlankRow:
    def test_one_row_per_width(self):
        assert Row.blank(80) is Row.blank(80)
        assert Row.blank(80) is not Row.blank(81)
        row = Row.blank(80)
        assert row.all_blank and row.shared and not row.wrap
        assert all(cell is BLANK_CELL for cell in row.cells)

    def test_coloured_blanks_stay_private(self):
        a, b = Row.blank(80, 4), Row.blank(80, 4)
        assert a is not b and a.cells is not b.cells
        assert not a.all_blank and not a.shared

    def test_clone_carries_no_mark(self):
        dup = Row.blank(80).copy()
        assert not dup.all_blank and not dup.shared
        assert dup.gen == Row.blank(80).gen

    def test_first_write_clones(self):
        fb = Framebuffer(10, 3)
        blank = Row.blank(10)
        fb.writable_row(1).set_cell(0, Row.blank(10, 2).cells[0])
        assert fb.rows[0] is blank and fb.rows[2] is blank
        assert fb.rows[1] is not blank
        assert all(cell is BLANK_CELL for cell in blank.cells)

    def test_whole_row_erase_installs_the_shared_row(self):
        em = Emulator(20, 4)
        em.write(b"hello\x1b[2K")
        assert em.fb.rows[0] is Row.blank(20)
        em.write(b"\x1b[2;1Hworld\x1b[2;1H\x1b[K")  # EL 0 from column 0
        assert em.fb.rows[1] is Row.blank(20)
        em.write(b"\x1b[3;1Hpartial\x1b[3;4H\x1b[K")
        assert em.fb.rows[2] is not Row.blank(20)
        em.write(b"\x1b[44m\x1b[2K")  # BCE: a private coloured row
        assert not em.fb.rows[2].all_blank

    def test_evicted_row_keeps_its_mark(self):
        old = Row.blank(3000)
        for width in range(3001, 3001 + 70):
            Row.blank(width)
        assert Row.blank(3000) is not old
        assert old.all_blank and Row.blank(3000).all_blank
        fb = Framebuffer(3000, 2)
        fb.rows[0] = old
        assert Display.new_frame(fb.copy(), fb)  # diffs cleanly
        fb.writable_row(0).set_cell(0, Row.blank(1, 1).cells[0])
        assert all(cell is BLANK_CELL for cell in old.cells)

    def test_blank_rows_vote_with_the_drawn_rows(self):
        """Ten text rows on 80×24, then ``CSI 3 S``: seven drawn rows move,
        too few alone, and the fourteen blank rows that moved with them
        carry the shift, so the frame is one scroll, not rewritten rows."""
        em = Emulator(80, 24)
        for i in range(10):
            em.write(b"line %d\r\n" % i)
        old = em.fb.copy()
        em.write(b"\x1b[3S")
        frame = Display.new_frame(old, em.fb)
        assert b"\x1b[3S" in frame
        assert len(frame) == 21
        client = Emulator(80, 24)
        client.fb = old.copy()
        client.write(frame)
        assert client.fb == em.fb

    def test_blank_rows_alone_do_not_vote(self):
        """A cleared screen matches itself at every shift; with no drawn
        row to say which, it is erased, not scrolled."""
        em = Emulator(80, 24)
        for i in range(10):
            em.write(b"line %d\r\n" % i)
        old = em.fb.copy()
        em.write(b"\x1b[2J")
        assert Display._detect_scroll(old, em.fb) == 0


class TestAllocation:
    def test_blank_screens_allocate_no_row_cell_lists(self):
        Row.blank(80)  # the canonical row predates the trace
        tracemalloc.start()
        try:
            fb = Framebuffer(80, 24)
            snap = fb.copy()
            fb.scroll(5)
            fb.erase_rows(0, fb.height)  # ED 2
            traced = _terminal_traces(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        big = [t.size for t in traced.traces if t.size >= ROW_LIST_BYTES]
        assert big == []
        assert all(row is Row.blank(80) for row in fb.rows + snap.rows)

    def test_idle_session_pair_terminal_bytes(self):
        link = LinkConfig(delay_ms=20.0)
        tracemalloc.start()
        try:
            session = InProcessSession(link, link, seed=3)
            session.connect()
            session.run_for(3000.0)
            gc.collect()
            traced = _terminal_traces(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in traced.statistics("filename"))
        assert session.server.terminal.fb.rows[0] is Row.blank(80)
        assert held < IDLE_PAIR_TERMINAL_BYTES


# ----------------------------------------------------------------------
# Property: random host output keeps the shared rows pristine and every
# frame round-trips
# ----------------------------------------------------------------------

_CHUNKS = st.sampled_from(
    [
        b"text ",
        b"\xe4\xb8\xad\xe6\x96\x87",  # two wide characters
        b"\r\n",
        b"\t",
        b"\x1b[J",
        b"\x1b[1J",
        b"\x1b[2J",
        b"\x1b[K",
        b"\x1b[1K",
        b"\x1b[2K",
        b"\x1b[3X",
        b"\x1b[2@",
        b"\x1b[2P",
        b"\x1b[2L",
        b"\x1b[2M",
        b"\x1b[2S",
        b"\x1b[T",
        b"\x1b[2;5r",
        b"\x1b[r",
        b"\x1b[3;7H",
        b"\x1b[6;1H",
        b"\x1b[44m",
        b"\x1b[0m",
        b"\x1b[?1049h",
        b"\x1b[?1049l",
        b"\x1b[?47h",
        b"\x1bc",
        b"\x1bH",
        b"\x1b[g",
        b"\x1b[3g",
    ]
)

_STEPS = st.lists(
    st.one_of(
        st.lists(_CHUNKS, min_size=1, max_size=4).map(b"".join),
        st.tuples(st.integers(4, 16), st.integers(2, 8)),
    ),
    min_size=1,
    max_size=25,
)


def _all_rows(state: Complete) -> list[Row]:
    fb = state.fb
    saved = fb._alt_saved[0] if fb._alt_saved is not None else []
    return list(fb.rows) + list(saved)


@settings(max_examples=80, deadline=None)
@given(steps=_STEPS)
def test_random_output_keeps_blank_rows_pristine(steps):
    server = Complete(12, 6)
    client = server.copy()
    seen: dict[int, tuple[Row, int]] = {}  # id -> (row, gen at first sight)
    states = [server]
    for step in steps:
        old = server.copy()
        tabs = old.fb.tab_stops
        if isinstance(step, bytes):
            server.act(step)
        else:
            server.resize(*step)
        assert old.fb.tab_stops is tabs  # HTS/TBC replace, never mutate
        # The frame from the previous snapshot, and the client's catch-up.
        replay = old.copy()
        replay.apply_diff(server.diff_from(old))
        assert replay == server
        client.apply_diff(server.diff_from(client))
        assert client == server
        states += [old, server.copy()]
        for state in states:
            for row in _all_rows(state):
                if row.all_blank:
                    first = seen.setdefault(id(row), (row, row.gen))
                    assert first[0] is row
                    assert row.gen == first[1]
                    assert not row.wrap
                    assert all(cell is BLANK_CELL for cell in row.cells)
