"""The framebuffer: a grid of styled cells plus cursor and mode state.

This is the object SSP synchronizes from server to client (wrapped in
:class:`repro.terminal.complete.Complete`). Its equality relation defines
what "the same screen" means, and the display diff
(:mod:`repro.terminal.display`) is constructed so that::

    emulator_holding(a).write(Display.new_frame(a, b))  =>  state == b

Consequently ``__eq__`` observes exactly the features the diff reproduces:
cell contents and renditions, cursor position and visibility, window title,
bell count, and the client-visible modes (reverse video, bracketed paste,
application cursor keys / keypad, mouse reporting). Server-internal drawing
state (the pen, tab stops, scroll region, pending-wrap flag) is excluded:
it influences how *future* host output is interpreted but is invisible in
the frame itself.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import TerminalError
from repro.terminal.cell import BLANK_CELL, PENS, Cell, Row, erase_cell
from repro.terminal.renditions import COLOR_DEFAULT, DEFAULT_RENDITIONS, Renditions

MAX_DIMENSION = 4096

_NO_MODES: frozenset[int] = frozenset()


@lru_cache(maxsize=PENS)
def _default_tab_stops(width: int) -> frozenset[int]:
    """The power-on tab stops, every 8 columns: one set per width."""
    return frozenset(range(0, width, 8))


class Framebuffer:
    """Screen contents and terminal state for one frame."""

    def __init__(self, width: int, height: int) -> None:
        if not (0 < width <= MAX_DIMENSION and 0 < height <= MAX_DIMENSION):
            raise TerminalError(f"bad framebuffer size {width}x{height}")
        self.width = width
        self.height = height
        self.rows: list[Row] = [Row.blank(width)] * height

        # Cursor and pen (drawing state).
        self.cursor_row = 0
        self.cursor_col = 0
        self.pen: Renditions = DEFAULT_RENDITIONS
        self.next_print_wraps = False

        # Scrolling region, 0-based inclusive.
        self.scroll_top = 0
        self.scroll_bottom = height - 1

        # Modes.
        self.origin_mode = False
        self.wraparound = True  # DECAWM
        self.insert_mode = False  # IRM
        self.cursor_visible = True  # DECTCEM
        self.reverse_video = False  # DECSCNM
        self.application_cursor_keys = False  # DECCKM
        self.application_keypad = False  # DECKPAM
        self.bracketed_paste = False
        self.mouse_modes = _NO_MODES

        # Client-visible extras.
        self.window_title = ""
        self.icon_title = ""
        self.bell_count = 0

        # Server-internal state.
        # Replaced, never mutated, so snapshots share it.
        self.tab_stops = _default_tab_stops(width)
        self.saved_cursor: tuple[int, int, Renditions, bool] | None = None
        self._alt_active = False
        self._alt_saved: tuple[list[Row], int, int] | None = None
        # Scrollback: lines that scrolled off the top of the primary
        # screen. The paper lists history browsing as future work (§2);
        # here it lives server-side, where the authoritative terminal is —
        # not part of the synchronized state, so it costs nothing on the
        # wire. ``None`` disables collection (state copies never collect).
        self.scrollback: list[Row] | None = []
        self.scrollback_limit = 2000

    # ------------------------------------------------------------------
    # Copying and equality
    # ------------------------------------------------------------------

    def copy(self) -> "Framebuffer":
        """Snapshot this framebuffer, sharing rows copy-on-write.

        O(height): row objects are aliased, not cloned; each is marked
        ``shared`` so the next mutation of either side clones it first
        (:meth:`writable_row`). The tab stops are shared too: HTS and TBC
        replace the frozenset rather than change it.
        """
        dup = Framebuffer.__new__(Framebuffer)
        dup.width = self.width
        dup.height = self.height
        for row in self.rows:
            row.shared = True
        dup.rows = list(self.rows)
        dup.cursor_row = self.cursor_row
        dup.cursor_col = self.cursor_col
        dup.pen = self.pen
        dup.next_print_wraps = self.next_print_wraps
        dup.scroll_top = self.scroll_top
        dup.scroll_bottom = self.scroll_bottom
        dup.origin_mode = self.origin_mode
        dup.wraparound = self.wraparound
        dup.insert_mode = self.insert_mode
        dup.cursor_visible = self.cursor_visible
        dup.reverse_video = self.reverse_video
        dup.application_cursor_keys = self.application_cursor_keys
        dup.application_keypad = self.application_keypad
        dup.bracketed_paste = self.bracketed_paste
        dup.mouse_modes = self.mouse_modes
        dup.window_title = self.window_title
        dup.icon_title = self.icon_title
        dup.bell_count = self.bell_count
        dup.tab_stops = self.tab_stops
        dup.saved_cursor = self.saved_cursor
        dup._alt_active = self._alt_active
        if self._alt_saved is None:
            dup._alt_saved = None
        else:
            rows, r, c = self._alt_saved
            for row in rows:
                row.shared = True
            dup._alt_saved = (list(rows), r, c)
        # Scrollback stays with the live terminal: protocol state copies
        # neither carry nor collect history.
        dup.scrollback = None
        dup.scrollback_limit = self.scrollback_limit
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Framebuffer):
            return NotImplemented
        if (self.width, self.height) != (other.width, other.height):
            return False
        if (
            self.cursor_row,
            self.cursor_col,
            self.cursor_visible,
            self.reverse_video,
            self.application_cursor_keys,
            self.application_keypad,
            self.bracketed_paste,
            self.mouse_modes,
            self.window_title,
            self.icon_title,
        ) != (
            other.cursor_row,
            other.cursor_col,
            other.cursor_visible,
            other.reverse_video,
            other.application_cursor_keys,
            other.application_keypad,
            other.bracketed_paste,
            other.mouse_modes,
            other.window_title,
            other.icon_title,
        ):
            return False
        # Per-row short-circuit: COW snapshots alias untouched rows, so
        # the identity / generation checks hit for every row the emulator
        # has not rewritten; only the rows it rewrote fall back to the
        # cell-by-cell comparison.
        return all(
            a is b or a.gen == b.gen or a.cells == b.cells
            for a, b in zip(self.rows, other.rows)
        )

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def clamp(self) -> None:
        self.cursor_row = min(max(self.cursor_row, 0), self.height - 1)
        self.cursor_col = min(max(self.cursor_col, 0), self.width - 1)

    def set_scrolling_region(self, top: int, bottom: int) -> None:
        if top < 0 or bottom >= self.height or top >= bottom:
            # Invalid regions reset to the full screen, like real
            # terminals do for out-of-range DECSTBM.
            top, bottom = 0, self.height - 1
        self.scroll_top = top
        self.scroll_bottom = bottom

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------

    def cell_at(self, row: int, col: int) -> Cell:
        return self.rows[row].cells[col]

    def writable_row(self, idx: int) -> Row:
        """The row at ``idx``, safe to mutate.

        If a snapshot shares the row it is cloned first (copy-on-write).
        Every mutation of row contents — here, in the emulator, or in
        overlays — must go through this accessor rather than
        ``self.rows[idx]``.
        """
        row = self.rows[idx]
        if row.shared:
            row = row.copy()
            self.rows[idx] = row
        return row

    def set_cell(self, row: int, col: int, cell: Cell) -> None:
        self.writable_row(row).set_cell(col, cell)

    def row_text(self, row: int) -> str:
        """Plain text of a row (for tests and examples)."""
        return "".join(cell.display_text() for cell in self.rows[row].cells)

    def scrollback_text(self, last_n: int | None = None) -> list[str]:
        """Plain text of scrolled-off history, oldest first."""
        if not self.scrollback:
            return []
        rows = self.scrollback if last_n is None else self.scrollback[-last_n:]
        return [
            "".join(cell.display_text() for cell in row.cells).rstrip()
            for row in rows
        ]

    def screen_text(self) -> str:
        return "\n".join(self.row_text(r) for r in range(self.height))

    # ------------------------------------------------------------------
    # Scrolling / line ops
    # ------------------------------------------------------------------

    def _blank_rows(self, n: int) -> list[Row]:
        """``n`` blank rows in the pen's background (BCE): the shared blank
        row, or private rows of a colour, which writes change in place."""
        background = self.pen.background
        if background == COLOR_DEFAULT:
            return [Row.blank(self.width)] * n
        return [Row.blank(self.width, background) for _ in range(n)]

    def scroll(self, n: int) -> None:
        """Positive n scrolls up, negative scrolls down, within the region."""
        if n == 0:
            return
        top, bottom = self.scroll_top, self.scroll_bottom
        region = self.rows[top : bottom + 1]
        if n > 0:
            n = min(n, len(region))
            if (
                self.scrollback is not None
                and top == 0
                and not self._alt_active
            ):
                self.scrollback.extend(region[:n])
                overflow = len(self.scrollback) - self.scrollback_limit
                if overflow > 0:
                    del self.scrollback[:overflow]
            region = region[n:] + self._blank_rows(n)
        else:
            n = min(-n, len(region))
            region = self._blank_rows(n) + region[: len(region) - n]
        self.rows[top : bottom + 1] = region

    def insert_lines(self, at_row: int, n: int) -> None:
        """IL: insert blank lines at ``at_row``, pushing lines down within
        the scrolling region."""
        if not self.scroll_top <= at_row <= self.scroll_bottom:
            return
        n = min(max(n, 0), self.scroll_bottom - at_row + 1)
        if n == 0:
            return
        region = self.rows[at_row : self.scroll_bottom + 1]
        region = self._blank_rows(n) + region[: len(region) - n]
        self.rows[at_row : self.scroll_bottom + 1] = region

    def delete_lines(self, at_row: int, n: int) -> None:
        """DL: delete lines at ``at_row``, pulling lines up within the
        scrolling region."""
        if not self.scroll_top <= at_row <= self.scroll_bottom:
            return
        n = min(max(n, 0), self.scroll_bottom - at_row + 1)
        if n == 0:
            return
        region = self.rows[at_row : self.scroll_bottom + 1]
        region = region[n:] + self._blank_rows(n)
        self.rows[at_row : self.scroll_bottom + 1] = region

    # ------------------------------------------------------------------
    # In-row ops
    # ------------------------------------------------------------------

    def _erase_cell(self) -> Cell:
        return erase_cell(self.pen.background)

    def insert_cells(self, row: int, col: int, n: int) -> None:
        """ICH: shift cells right, dropping off the row end."""
        n = min(max(n, 0), self.width - col)
        if n == 0:
            return
        r = self.writable_row(row)
        blank = self._erase_cell()
        r.cells[col:] = [blank] * n + r.cells[col : self.width - n]
        self._sanitize_row(r)
        r.touch()

    def delete_cells(self, row: int, col: int, n: int) -> None:
        """DCH: shift cells left, blank-filling the row end."""
        n = min(max(n, 0), self.width - col)
        if n == 0:
            return
        r = self.writable_row(row)
        blank = self._erase_cell()
        r.cells[col:] = r.cells[col + n :] + [blank] * n
        self._sanitize_row(r)
        r.touch()

    def erase_cells(self, row: int, col: int, n: int) -> None:
        """ECH / EL segments: blank ``n`` cells in place.

        Erasing a whole row in the default background installs the shared
        blank row instead.
        """
        n = min(max(n, 0), self.width - col)
        if n == 0:
            return
        if n == self.width and self.pen.background == COLOR_DEFAULT:
            self.rows[row] = Row.blank(n)
            return
        r = self.writable_row(row)
        blank = self._erase_cell()
        for i in range(col, col + n):
            r.cells[i] = blank
        r.wrap = False if col + n >= self.width else r.wrap
        self._sanitize_row(r)
        r.touch()

    @staticmethod
    def _sanitize_row(row: Row) -> None:
        """Restore the canonical wide-character invariant.

        Cell-shifting operations can strand half of a wide character: a
        width-2 leader with no continuation, or a width-0 continuation with
        no leader. Real terminals blank the orphaned half; doing so keeps
        every framebuffer reachable by the display diff's print/erase
        vocabulary (the round-trip invariant depends on this).
        """
        cells = row.cells
        last = len(cells) - 1
        for col, cell in enumerate(cells):
            if (
                cell.width == 2 and (col == last or cells[col + 1].width != 0)
            ) or (
                cell.width == 0 and (col == 0 or cells[col - 1].width != 2)
            ):
                cells[col] = erase_cell(cell.renditions.background)

    def erase_rows(self, start: int, count: int) -> None:
        count = min(max(count, 0), self.height - start)
        self.rows[start : start + count] = self._blank_rows(count)

    # ------------------------------------------------------------------
    # Alternate screen
    # ------------------------------------------------------------------

    def enter_alternate_screen(self, clear: bool) -> None:
        if self._alt_active:
            return
        self._alt_saved = (self.rows, self.cursor_row, self.cursor_col)
        self.rows = [Row.blank(self.width)] * self.height
        if not clear:
            # Mode 47 historically starts with previous alt contents; we
            # always start blank, which xterm also does on first use.
            pass
        self._alt_active = True

    def exit_alternate_screen(self) -> None:
        if not self._alt_active or self._alt_saved is None:
            return
        rows, r, c = self._alt_saved
        # The saved screen may predate a resize.
        rows = self._fit_rows(rows, self.width, self.height)
        self.rows = rows
        self.cursor_row = min(r, self.height - 1)
        self.cursor_col = min(c, self.width - 1)
        self._alt_saved = None
        self._alt_active = False

    @property
    def alternate_screen_active(self) -> bool:
        return self._alt_active

    # ------------------------------------------------------------------
    # Resize
    # ------------------------------------------------------------------

    @staticmethod
    def _fit_rows(rows: list[Row], width: int, height: int) -> list[Row]:
        fitted: list[Row] = []
        for row in rows[:height]:
            if row.all_blank:
                fitted.append(Row.blank(width))
                continue
            if len(row.cells) != width and row.shared:
                row = row.copy()  # never resize a row a snapshot aliases
            if len(row.cells) < width:
                row.cells.extend([BLANK_CELL] * (width - len(row.cells)))
                row.touch()
            elif len(row.cells) > width:
                del row.cells[width:]
                Framebuffer._sanitize_row(row)  # truncation may halve a wide char
                row.touch()
            fitted.append(row)
        fitted += [Row.blank(width)] * (height - len(fitted))
        return fitted

    def resize(self, width: int, height: int) -> None:
        if not (0 < width <= MAX_DIMENSION and 0 < height <= MAX_DIMENSION):
            raise TerminalError(f"bad resize {width}x{height}")
        if (width, height) == (self.width, self.height):
            return
        self.rows = self._fit_rows(self.rows, width, height)
        if self._alt_saved is not None:
            saved_rows, r, c = self._alt_saved
            self._alt_saved = (
                self._fit_rows(saved_rows, width, height),
                min(r, height - 1),
                min(c, width - 1),
            )
        self.width = width
        self.height = height
        self.scroll_top = 0
        self.scroll_bottom = height - 1
        self.tab_stops = _default_tab_stops(width)
        self.next_print_wraps = False
        self.clamp()

    # ------------------------------------------------------------------
    # Soft reset / full reset
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """RIS: everything back to power-on state (size preserved)."""
        self.rows = [Row.blank(self.width)] * self.height
        self.cursor_row = 0
        self.cursor_col = 0
        self.pen = DEFAULT_RENDITIONS
        self.next_print_wraps = False
        self.scroll_top = 0
        self.scroll_bottom = self.height - 1
        self.origin_mode = False
        self.wraparound = True
        self.insert_mode = False
        self.cursor_visible = True
        self.reverse_video = False
        self.application_cursor_keys = False
        self.application_keypad = False
        self.bracketed_paste = False
        self.mouse_modes = _NO_MODES
        self.tab_stops = _default_tab_stops(self.width)
        self.saved_cursor = None
        self._alt_active = False
        self._alt_saved = None
        if self.scrollback is not None:
            self.scrollback = []

    def soft_reset(self) -> None:
        """DECSTR: reset modes but keep screen contents."""
        self.origin_mode = False
        self.wraparound = True
        self.insert_mode = False
        self.cursor_visible = True
        self.application_cursor_keys = False
        self.scroll_top = 0
        self.scroll_bottom = self.height - 1
        self.pen = DEFAULT_RENDITIONS
        self.saved_cursor = None

    def __repr__(self) -> str:
        return (
            f"Framebuffer({self.width}x{self.height}, "
            f"cursor=({self.cursor_row},{self.cursor_col}))"
        )
