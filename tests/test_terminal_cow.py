"""Copy-on-write snapshot semantics of the framebuffer.

The COW machinery must be observationally invisible: a snapshot taken
with ``copy()`` behaves exactly like the old deep copy — mutating the
live framebuffer never changes a snapshot (and vice versa), and
``__eq__`` / ``Display.new_frame`` produce byte-identical results to the
pre-COW cell-by-cell implementation.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.prediction.overlays import NotificationEngine
from repro.terminal.cell import Cell, Row
from repro.terminal.complete import Complete
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.framebuffer import Framebuffer


def legacy_copy_rows(fb: Framebuffer) -> list[Row]:
    """Rows duplicated the pre-COW way: fresh lists, preserved gens."""
    return [Row(cells=list(r.cells), wrap=r.wrap, gen=r.gen) for r in fb.rows]


def materialize(fb: Framebuffer) -> Framebuffer:
    """A deep, non-sharing clone equivalent to the pre-COW ``copy()``."""
    dup = fb.copy()
    dup.rows = legacy_copy_rows(fb)
    return dup


def deep_content(fb: Framebuffer):
    """Everything a snapshot promises to preserve, as plain values."""
    return (
        fb.width,
        fb.height,
        tuple(
            (tuple((c.contents, c.width, c.renditions) for c in row.cells), row.wrap)
            for row in fb.rows
        ),
        fb.cursor_row,
        fb.cursor_col,
        fb.cursor_visible,
        fb.window_title,
        fb.bell_count,
    )


# A menu of host-output chunks covering every row-mutation path: prints,
# wide characters, erases, line/cell insertion and deletion, scrolling,
# the alternate screen, and full clears.
_CHUNKS = [
    b"hello world",
    b"\r\nline two\r\n",
    b"\x1b[31mred\x1b[0m",
    "宽宽".encode(),
    b"\x1b[2;3H*",
    b"\x1b[K",
    b"\x1b[2J\x1b[H",
    b"\x1b[5X",
    b"\x1b[3@ins",
    b"\x1b[2P",
    b"\x1b[2L",
    b"\x1b[1M",
    b"\x1b[2S",
    b"\x1b[1T",
    b"\x1b[?1049h alt!",
    b"\x1b[?1049l",
    b"\x1b#8",
    b"x" * 30 + b"\r\n",  # wrap
    b"\x1b[2;5r\x1b[HscROLLregion\r\n\r\n\r\n",
    b"\x1b[r",
]

_OPS = st.lists(
    st.one_of(
        st.sampled_from(_CHUNKS).map(lambda c: ("write", c)),
        st.just(("copy", None)),
        st.tuples(
            st.just("resize"),
            st.tuples(st.integers(8, 30), st.integers(3, 10)),
        ),
    ),
    min_size=1,
    max_size=24,
)


class TestSnapshotIsolation:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_interleaved_ops_never_touch_snapshots(self, ops):
        emulator = Emulator(20, 6)
        snapshots = []  # (snapshot fb, frozen content at snapshot time)
        for kind, arg in ops:
            if kind == "write":
                emulator.write(arg)
            elif kind == "resize":
                emulator.resize(*arg)
            else:
                snap = emulator.fb.copy()
                snapshots.append((snap, deep_content(snap)))
                assert deep_content(emulator.fb)[:3] == deep_content(snap)[:3]
            for snap, frozen in snapshots:
                assert deep_content(snap) == frozen

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_mutating_a_snapshot_never_touches_the_live_fb(self, ops):
        emulator = Emulator(20, 6)
        emulator.write(b"seed content\r\nrow two 01234")
        snap = emulator.fb.copy()
        frozen_live = deep_content(emulator.fb)
        replica = Emulator(20, 6)
        replica.fb = snap
        for kind, arg in ops:
            if kind == "write":
                replica.write(arg)
            elif kind == "resize":
                replica.resize(*arg)
            else:
                replica.fb.copy()
            assert deep_content(emulator.fb) == frozen_live

    def test_direct_writable_row_mutation_is_isolated(self):
        fb = Framebuffer(10, 3)
        snap = fb.copy()
        row = fb.writable_row(1)
        row.cells[4] = Cell(contents="Q")
        row.touch()
        assert snap.cell_at(1, 4).contents == ""
        assert fb.cell_at(1, 4).contents == "Q"

    def test_notification_bar_overlay_does_not_corrupt_source(self):
        emulator = Emulator(30, 4)
        emulator.write(b"precious first row")
        frozen = deep_content(emulator.fb)
        engine = NotificationEngine()
        engine.message = "hi"
        shown = engine.apply(emulator.fb, now=0.0)
        assert shown is not emulator.fb
        assert "hi" in "".join(c.display_text() for c in shown.rows[0].cells)
        assert deep_content(emulator.fb) == frozen


class TestAgreementWithPreCow:
    """COW results must match the pre-COW deep-copy implementation."""

    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(st.sampled_from(_CHUNKS), max_size=6),
        after=st.lists(st.sampled_from(_CHUNKS), max_size=6),
    )
    # Deep copies keep the shared blank row's generation in private rows,
    # so a scroll vote that reads the row object instead diverges here.
    @example(before=[b"\r\nline two\r\n"] * 2, after=[b"\r\nline two\r\n"])
    @example(
        before=[b"\x1b[1T", b"\x1b[r", b"\x1b[?1049l", b"\x1b#8", b"\x1b[2;3H*", b"\x1b[2L"],
        after=[b"\x1b[1M"],
    )
    def test_eq_and_diff_agree(self, before, after):
        emulator = Emulator(20, 6)
        for chunk in before:
            emulator.write(chunk)
        old_cow = emulator.fb.copy()
        old_deep = materialize(emulator.fb)
        for chunk in after:
            emulator.write(chunk)
        new_cow = emulator.fb.copy()
        new_deep = materialize(emulator.fb)

        # Equality agrees with the cell-by-cell reference in both
        # directions and both mixes of shared/deep operands.
        reference = old_deep == new_deep
        assert (old_cow == new_cow) is reference
        assert (old_cow == new_deep) is reference
        assert (old_deep == new_cow) is reference

        # The wire diff is byte-identical to the pre-COW result.
        assert Display.new_frame(old_cow, new_cow) == Display.new_frame(
            old_deep, new_deep
        )

    @settings(max_examples=40, deadline=None)
    @given(chunks=st.lists(st.sampled_from(_CHUNKS), min_size=1, max_size=8))
    def test_complete_roundtrip_through_cow_snapshots(self, chunks):
        term = Complete(20, 6)
        prev = term.copy()
        for chunk in chunks:
            term.act(chunk)
            diff = term.diff_from(prev)
            prev.apply_diff(diff)
            assert prev == term
            prev = term.copy()


class TestDirtyRowTracking:
    """Copy-on-write sharing is what tells the rows a write touched: every
    row it left alone is still the snapshot's own object."""

    def test_untouched_rows_stay_shared_after_one_write(self):
        emulator = Emulator(20, 6)
        emulator.write(b"one\r\ntwo\r\nthree")
        snap = emulator.fb.copy()
        emulator.write(b"\x1b[1;1HX")
        same = [a is b for a, b in zip(emulator.fb.rows, snap.rows)]
        assert same == [False, True, True, True, True, True]
