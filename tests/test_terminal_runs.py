"""Print runs: the run path against the per-character oracle.

The emulator writes printable ASCII a row segment at a time
(``Emulator.print_run``) and keeps ``Emulator._print`` for everything
else. The oracle below sends every character through ``_print``, which is
how the emulator printed before runs existed; on any input both must
leave exactly the same framebuffer, cell for cell, and the same drawing
state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terminal import cell as cell_module
from repro.terminal.cell import PEN_CELLS, PENS, Cell, canonical_cell
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.renditions import DEFAULT_RENDITIONS, rgb_color


class CharOracle(Emulator):
    """An emulator that prints one character at a time, always."""

    def print_run(self, text: str) -> None:
        for ch in text:
            self._print(ch)


_ascii_runs = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    min_size=1,
    max_size=30,
)

_tokens = st.one_of(
    _ascii_runs.map(str.encode),
    st.sampled_from([b"\r", b"\n", b"\b", b"\t", b"\r\n"]),
    st.builds(
        lambda r, c: f"\x1b[{r};{c}H".encode(),
        st.integers(1, 6),
        st.integers(1, 13),
    ),
    st.sampled_from(
        [
            b"\x1b[0m",
            b"\x1b[1;31m",
            b"\x1b[4m",
            b"\x1b[44m",
            b"\x1b[7;32;45m",
            b"\x1b[K",
            b"\x1b[1K",
            b"\x1b[2X",
            b"\x1b[4h",
            b"\x1b[4l",
            b"\x1b[?7l",
            b"\x1b[?7h",
            b"\x1b(0",
            b"\x1b(B",
            b"\x1b(A",
            b"\x0e",
            b"\x0f",
            b"\x1b)0",
        ]
    ),
    st.builds(
        lambda r, g, b: f"\x1b[48;2;{r};{g};{b}m".encode(),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
    ),
    # "é" twice: precomposed, then "e" plus a combining acute accent.
    st.sampled_from(["中", "é", "é", "中́", "ab中cd", "xéy"]).map(
        str.encode
    ),
    st.integers(0, 30).map(lambda n: f"\x1b[{n}b".encode()),
)


def _chunks(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({c % (len(data) + 1) for c in cuts})
    bounds = [0, *points, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _drawing_state(e: Emulator):
    fb = e.fb
    return (
        [row.cells for row in fb.rows],
        [row.wrap for row in fb.rows],
        fb.cursor_row,
        fb.cursor_col,
        fb.next_print_wraps,
        fb.pen,
        e._last_graphic,
    )


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 6),
    tokens=st.lists(_tokens, max_size=40),
    cuts=st.lists(st.integers(0, 10_000), max_size=8),
)
def test_run_path_matches_char_oracle(width, height, tokens, cuts):
    data = b"".join(tokens)
    runs = Emulator(width, height)
    oracle = CharOracle(width, height)
    before = runs.fb.copy()
    for chunk in _chunks(data, cuts):
        runs.write(chunk)
        oracle.write(chunk)
        assert _drawing_state(runs) == _drawing_state(oracle)
    # The display diff round-trips on the same inputs.
    client = Emulator(width, height)
    client.fb = before
    client.write(Display.new_frame(before, runs.fb))
    assert client.fb == runs.fb
    repainted = Emulator(width, height)
    repainted.write(Display.new_frame(None, runs.fb))
    assert repainted.fb == runs.fb


class TestRunPath:
    def test_rep_is_clamped_to_one_screen(self):
        e = Emulator(10, 3)
        oracle = CharOracle(10, 3)
        for emulator in (e, oracle):
            emulator.write(b"a\x1b[65535b")
        # 1 + 30 repeats: the screen fills, then wraps and scrolls once.
        assert e.fb.screen_text() == "\n".join(["a" * 10, "a" * 10, "a".ljust(10)])
        assert _drawing_state(e) == _drawing_state(oracle)

    def test_rep_in_dec_graphics_translates_each_repeat(self):
        e = Emulator(10, 2)
        e.write(b"q\x1b(0\x1b[3b")
        assert e.fb.row_text(0).rstrip() == "q───"

    def test_run_cells_are_shared(self):
        e = Emulator(20, 2)
        e.write(b"aaaa\x1b[31maa")
        cells = e.fb.rows[0].cells
        assert cells[0] is cells[3]
        assert cells[4] is cells[5]
        assert cells[0] is not cells[4]
        assert cells[0] is canonical_cell("a", 1, DEFAULT_RENDITIONS)

    def test_ascii_overwrites_half_of_wide_char(self):
        e = Emulator(10, 2)
        e.write("中文\x1b[1;2Hab".encode())
        assert [c.contents for c in e.fb.rows[0].cells[:5]] == ["", "a", "b", "", ""]
        assert all(c.width == 1 for c in e.fb.rows[0].cells)

    def test_cell_table_is_bounded(self):
        e = Emulator(10, 2)
        for i in range(PENS * 2):
            e.write(f"\x1b[38;2;{i};0;0m\rx".encode())
        assert len(cell_module._pens) == PENS
        pen = DEFAULT_RENDITIONS.with_attr(foreground=rgb_color(PENS * 2 - 1, 0, 0))
        assert e.fb.rows[0].cells[0] == Cell("x", 1, pen)
        assert e.fb.rows[0].cells[0] is canonical_cell("x", 1, pen)
        # One pen's cells are bounded too: the oldest are demoted.
        e.write("".join(chr(0x100 + i) for i in range(PEN_CELLS * 2)).encode())
        assert len(e.fb.pen.cells) == PEN_CELLS
        assert all(c.canonical for c in e.fb.pen.cells.values())
