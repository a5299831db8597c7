"""Differential test: the one-pass row diff against the four-pass one it replaced.

``reference_new_frame`` keeps the frame diff's earlier row path: a per-row
``differ`` list, a continuation sweep over every column, a separate gather
loop and a run printer over each gathered slice, with a row of blanks
standing in for every scrolled-in row. ``Display.new_frame`` must produce
the same bytes for every framebuffer pair: the client runs each byte
through its own emulator, and the wire fingerprints pin them. The goldens
cannot stand in for this test, because they only hold frames that an
emulator drew. The pairs here are built cell by cell instead. They cover
scrolled-in rows with BCE backgrounds, coloured erase runs followed by
blank gaps of 3 to 6 cells, trailing erase runs, wide and continuation
cells at gap edges, non-canonical cells and pens, and rows of
``BLANK_CELL`` that no scroll left.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.terminal.cell import (
    BLANK_CELL,
    PENS,
    Cell,
    Row,
    canonical_cell,
    canonical_pen,
    erase_cell,
)
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.renditions import (
    DEFAULT_RENDITIONS,
    Renditions,
    indexed_color,
    rgb_color,
)

# ----------------------------------------------------------------------
# The reference: the row path as it stood before the one-pass walk
# ----------------------------------------------------------------------


def _cup(row: int, col: int) -> bytes:
    return f"\x1b[{row + 1};{col + 1}H".encode("ascii")


def reference_new_frame(old: Framebuffer | None, new: Framebuffer) -> bytes:
    if old is None or (old.width, old.height) != (new.width, new.height):
        return _reference_repaint(new)
    out = bytearray()
    pen_state: list[Renditions | None] = [None]
    old_rows = old.rows
    shift = Display._detect_scroll(old, new)
    if shift:
        out += b"\x1b[0m"
        pen_state[0] = DEFAULT_RENDITIONS
        out += f"\x1b[{shift}S".encode("ascii")
        blank = Row.blank(new.width)
        old_rows = old.rows[shift:] + [blank] * shift
    for r in range(new.height):
        old_row, new_row = old_rows[r], new.rows[r]
        if (
            old_row is new_row
            or old_row.gen == new_row.gen
            or old_row.cells == new_row.cells
        ):
            continue
        _emit_row_diff(out, r, old_row, new_row, pen_state)
    Display._emit_modes(out, old, new)
    Display._finish(out, new, pen_state)
    return bytes(out)


def _reference_repaint(new: Framebuffer) -> bytes:
    out = bytearray()
    out += b"\x1b[0m\x1b[2J"
    pen_state: list[Renditions | None] = [None]
    for r in range(new.height):
        if any(
            c is not BLANK_CELL and (c.canonical or c != BLANK_CELL)
            for c in new.rows[r].cells
        ):
            _emit_row_segment(out, r, 0, new.rows[r].cells, pen_state)
    Display._emit_modes(out, None, new)
    Display._finish(out, new, pen_state)
    return bytes(out)


def _emit_row_diff(out, row_idx, old_row, new_row, pen_state) -> None:
    old_cells, new_cells = old_row.cells, new_row.cells
    width = len(new_cells)
    differ = [
        a is not b and ((a.canonical and b.canonical) or a != b)
        for a, b in zip(old_cells, new_cells)
    ]
    for c in range(width - 1, 0, -1):
        if differ[c] and new_cells[c].width == 0:
            differ[c - 1] = True
    differ.append(True)
    col = differ.index(True)
    while col < width:
        if new_cells[col].width == 0:
            col = differ.index(True, col + 1)
            continue
        end = col + 1
        gap = 0
        while end < width:
            if differ[end] or new_cells[end].width == 0:
                end += 1
                gap = 0
            elif gap < 4:
                end += 1
                gap += 1
            else:
                break
        end -= gap
        _emit_row_segment(out, row_idx, col, new_cells[col:end], pen_state)
        col = differ.index(True, end)


def _emit_row_segment(out, row_idx, start_col, cells, pen_state) -> None:
    out += _cup(row_idx, start_col)
    is_erase = Display._is_erase_cell
    i = 0
    n = len(cells)
    while i < n:
        cell = cells[i]
        if cell.width == 0:
            out += b"\x1b[1C"
            i += 1
            continue
        pen = cell.renditions
        if is_erase(cell):
            j = i + 1
            bg = pen.background
            while (
                j < n
                and is_erase(cells[j])
                and cells[j].renditions.background == bg
            ):
                j += 1
            run = j - i
            Display._set_pen(out, pen_state, pen)
            out += f"\x1b[{run}X".encode("ascii")
            i = j
            if i < n:
                out += f"\x1b[{run}C".encode("ascii")
            continue
        if cell.width == 2:
            Display._set_pen(out, pen_state, pen)
            out += cell.display_text().encode("utf-8")
            i += 2
            continue
        j = i + 1
        while j < n:
            nxt = cells[j]
            other = nxt.renditions
            if (
                nxt.width != 1
                or (
                    other is not pen
                    and ((other.canonical and pen.canonical) or other != pen)
                )
                or (not nxt.contents and is_erase(nxt))
            ):
                break
            j += 1
        Display._set_pen(out, pen_state, pen)
        out += "".join([c.contents or " " for c in cells[i:j]]).encode("utf-8")
        i = j


# ----------------------------------------------------------------------
# Framebuffer pairs, built cell by cell
# ----------------------------------------------------------------------

BLUE = indexed_color(4)
BACKGROUNDS = (indexed_color(1), BLUE, indexed_color(200))
PLAIN_PENS = (
    DEFAULT_RENDITIONS,
    Renditions(bold=True),
    Renditions(foreground=indexed_color(2)),
    Renditions(background=BLUE),
    Renditions(underlined=True, background=indexed_color(1)),
)


class Cells:
    """Random row pieces; ``plain`` mints cells and pens that are not
    canonical (the ones a test builds directly)."""

    def __init__(self, rng: random.Random, plain: float = 0.0) -> None:
        self.rng = rng
        self.plain = plain

    def _plain(self) -> bool:
        return self.rng.random() < self.plain

    def pen(self) -> Renditions:
        pen = self.rng.choice(PLAIN_PENS)
        if self._plain():
            return replace(pen)  # a fresh object is never canonical
        return canonical_pen(pen)

    def cell(self, contents: str, width: int, pen: Renditions) -> Cell:
        if self._plain() or not pen.canonical:
            return Cell(contents, width, pen)
        return canonical_cell(contents, width, pen)

    def blank(self) -> Cell:
        return Cell() if self._plain() else BLANK_CELL

    def erase(self, bg: int) -> Cell:
        if self._plain():
            return Cell("", 1, Renditions(background=bg))
        return erase_cell(bg)

    def piece(self, room: int) -> list[Cell]:
        """One run of cells, at most ``room`` wide and never splitting a
        wide character."""
        rng = self.rng
        n = rng.randint(1, min(room, 8))
        kind = rng.random()
        if kind < 0.3:
            pen = self.pen()
            return [self.cell(rng.choice("abc xyz"), 1, pen) for _ in range(n)]
        if kind < 0.5:
            return [self.blank() for _ in range(n)]
        if kind < 0.65:
            bg = rng.choice(BACKGROUNDS)
            return [self.erase(bg) for _ in range(n)]
        if kind < 0.8 and room >= 2:
            pen = self.pen()
            return [self.cell("中", 2, pen), self.cell("", 0, pen)]
        if kind < 0.9:
            # Drawn blanks: no contents, but a pen an erase never leaves.
            pen = canonical_pen(Renditions(bold=True))
            return [self.cell("", 1, pen) for _ in range(n)]
        return [self.cell(" ", 1, self.pen()) for _ in range(n)]

    def row(self, width: int) -> list[Cell]:
        cells: list[Cell] = []
        while len(cells) < width:
            cells += self.piece(width - len(cells))
        return cells

    def edit(self, cells: list[Cell]) -> list[Cell]:
        """``cells`` with a few pieces overwritten, wide characters kept whole."""
        cells = list(cells)
        width = len(cells)
        for _ in range(self.rng.randint(1, 4)):
            col = self.rng.randrange(width)
            piece = self.piece(width - col)
            cells[col : col + len(piece)] = piece
        return _whole_wide_chars(cells)


def _whole_wide_chars(cells: list[Cell]) -> list[Cell]:
    """Blank every half of a wide character whose other half is gone, as
    the framebuffer does after a cell-shifting edit."""
    last = len(cells) - 1
    for col, cell in enumerate(cells):
        if (cell.width == 2 and (col == last or cells[col + 1].width != 0)) or (
            cell.width == 0 and (col == 0 or cells[col - 1].width != 2)
        ):
            cells[col] = erase_cell(cell.renditions.background)
    return cells


def framebuffer(rows: list[list[Cell]], width: int) -> Framebuffer:
    fb = Framebuffer(width, len(rows))
    fb.rows = [Row(cells=cells) for cells in rows]
    return fb


def random_pair(
    rng: random.Random, width: int = 24, height: int = 12
) -> tuple[Framebuffer, Framebuffer]:
    """An old frame and a new one: some rows kept, edited, rewritten or
    cleared, and sometimes the screen scrolled first."""
    make = Cells(rng, plain=rng.choice((0.0, 0.0, 0.2, 1.0)))
    old = framebuffer(
        [
            [BLANK_CELL] * width if rng.random() < 0.25 else make.row(width)
            for _ in range(height)
        ],
        width,
    )
    new = old.copy()
    shift = rng.choice((0, 0, 1, 2, 3))
    if shift:
        # Scroll with BCE: the rows that come in carry a background.
        bg = rng.choice((0, 0) + BACKGROUNDS)
        new.rows = new.rows[shift:] + [
            Row.blank(width, bg) for _ in range(shift)
        ]
    for r in range(height):
        roll = rng.random()
        if roll < (0.6 if shift and r < height - shift else 0.2):
            continue  # the same Row object
        if roll < 0.4:
            new.rows[r] = Row(cells=list(new.rows[r].cells))  # new generation
        elif roll < 0.7:
            new.rows[r] = Row(cells=make.edit(new.rows[r].cells))
        elif roll < 0.85:
            new.rows[r] = Row(cells=make.row(width))
        else:
            new.rows[r] = Row(cells=[BLANK_CELL] * width)
    new.cursor_row = rng.randrange(height)
    new.cursor_col = rng.randrange(width)
    new.cursor_visible = rng.random() < 0.8
    return old, new


def assert_same_bytes(old: Framebuffer | None, new: Framebuffer) -> bytes:
    diff = Display.new_frame(old, new)
    assert diff == reference_new_frame(old, new)
    return diff


def assert_applies(old: Framebuffer, new: Framebuffer, diff: bytes) -> None:
    """The diff takes a client showing ``old`` to ``new`` (for frames an
    emulator could draw: a drawn blank prints as a space)."""
    client = Emulator(old.width, old.height)
    client.fb = old.copy()
    client.write(diff)
    assert client.fb == new


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_random_pairs_match_the_reference(seed):
    rng = random.Random(seed)
    scrolled = 0
    for _ in range(25):
        old, new = random_pair(rng, width=rng.choice((12, 24, 40)))
        assert_same_bytes(old, new)
        assert_same_bytes(None, new)
        scrolled += Display._detect_scroll(old, new) > 0
    assert scrolled >= 3


@pytest.mark.parametrize("gap", [3, 4, 5, 6])
@pytest.mark.parametrize("tail", ["text", "wide", "erase", "end"])
@pytest.mark.parametrize("base", ["scrolled", "blank", "drawn"])
def test_coloured_erase_run_then_blank_gap(gap, tail, base):
    """``\\x1b[0;44m\\x1b[3X`` and then ``gap`` blanks: a CUF hop is owed
    only when the span goes on past the gap."""
    width = 20
    blue = erase_cell(BLUE)
    cells = [canonical_cell(ch, 1, DEFAULT_RENDITIONS) for ch in "ab"]
    cells += [blue] * 3 + [BLANK_CELL] * gap
    if tail == "text":
        cells.append(canonical_cell("z", 1, DEFAULT_RENDITIONS))
    elif tail == "wide":
        cells += [
            canonical_cell("中", 2, DEFAULT_RENDITIONS),
            canonical_cell("", 0, DEFAULT_RENDITIONS),
        ]
    elif tail == "erase":
        # A trailing erase run in another colour, to the end of the row.
        cells += [erase_cell(BACKGROUNDS[0])] * (width - len(cells))
    cells += [BLANK_CELL] * (width - len(cells))
    filler = [canonical_cell("q", 1, DEFAULT_RENDITIONS)] * width
    height = 10
    if base == "scrolled":
        rows = [list(filler) for _ in range(height)]
        old = framebuffer(rows, width)
        new = old.copy()
        new.rows = new.rows[1:] + [Row(cells=cells)]
    else:
        base_cells = [BLANK_CELL] * width if base == "blank" else filler
        old = framebuffer([list(base_cells) for _ in range(height)], width)
        new = old.copy()
        new.rows[4] = Row(cells=list(cells))
    diff = assert_same_bytes(old, new)
    assert_applies(old, new, diff)
    # Over a drawn row every blank differs, so the span always goes on.
    owed = base == "drawn" or (gap <= 4 and tail != "end")
    assert (b"44m\x1b[3X\x1b[3C" in diff) == owed


@pytest.mark.parametrize("seed", range(10))
def test_demoted_pens_and_cells_match_the_reference(seed):
    """Cells whose pen was evicted from the canonical table compare by
    value; churning more than ``PENS`` pens demotes the early ones."""
    rng = random.Random(1000 + seed)
    width, height = 24, 6
    make = Cells(rng)
    old = framebuffer([make.row(width) for _ in range(height)], width)
    new = old.copy()
    for r in range(height):
        if rng.random() < 0.7:
            new.rows[r] = Row(cells=make.edit(new.rows[r].cells))
    for i in range(PENS + 8):
        canonical_pen(Renditions(foreground=rgb_color(seed, i, 7)))
    assert any(
        not cell.canonical for row in new.rows for cell in row.cells
    ), "the churn demoted nothing"
    # Mix in freshly minted canonical twins of demoted cells.
    for r in range(height):
        if rng.random() < 0.5:
            new.rows[r] = Row(
                cells=[
                    canonical_cell(c.contents, c.width, c.renditions)
                    if not c.canonical and rng.random() < 0.5
                    else c
                    for c in new.rows[r].cells
                ]
            )
    assert_same_bytes(old, new)


@pytest.mark.parametrize("seed", range(20))
def test_blank_rows_that_no_scroll_left(seed):
    """Rows of ``BLANK_CELL`` in the old frame are diffed by identity
    against the blank, like scrolled-in ones."""
    rng = random.Random(2000 + seed)
    width, height = 30, 6
    make = Cells(rng, plain=0.1)
    old = framebuffer([[BLANK_CELL] * width for _ in range(height)], width)
    new = old.copy()
    for r in range(height):
        new.rows[r] = Row(cells=make.row(width))
    assert_same_bytes(old, new)


@pytest.mark.parametrize("seed", range(20))
def test_stray_wide_halves_match_the_reference(seed):
    """Rows that break the wide-character invariant (a leader with no
    continuation, a continuation with no leader) still diff byte for byte
    like the reference."""
    rng = random.Random(3000 + seed)
    width, height = 16, 6
    make = Cells(rng, plain=0.2)
    pen = canonical_pen(DEFAULT_RENDITIONS)
    stray = (canonical_cell("", 0, pen), canonical_cell("中", 2, pen))

    def scatter(cells: list[Cell]) -> list[Cell]:
        cells = list(cells)
        for _ in range(rng.randint(1, 3)):
            cells[rng.randrange(width)] = rng.choice(stray)
        return cells

    for _ in range(20):
        old = framebuffer(
            [scatter(make.row(width)) for _ in range(height)], width
        )
        new = old.copy()
        if rng.random() < 0.5:
            new.rows = new.rows[1:] + [Row.blank(width)]
        for r in range(height):
            if rng.random() < 0.7:
                new.rows[r] = Row(cells=scatter(make.row(width)))
        assert_same_bytes(old, new)
        assert_same_bytes(None, new)
