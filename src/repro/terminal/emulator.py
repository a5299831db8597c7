"""The terminal emulator: parsed actions applied to a framebuffer.

Implements the ECMA-48 / vt220 subset used by xterm, gnome-terminal,
Terminal.app, and PuTTY (§3.1): cursor motion, character and line editing,
erasure, renditions and colors, scrolling regions, tab stops, modes, the
alternate screen, window titles, and terminal reports. The protocol is
bidirectional — reports the host requests (cursor position, device
attributes) accumulate in :attr:`Emulator.outbox` for the pty layer to
write back.

Text arrives from the parser as runs. A run of printable ASCII is written
a row segment at a time (:meth:`Emulator._print_run`): one slice
assignment of the pen's canonical narrow cells per row, with autowrap
between segments. Everything a segment cannot express — non-ASCII, wide and
combining characters, insert mode, autowrap off, and any character set
but ASCII — goes through the per-character :meth:`Emulator._print`.

Every cell the emulator writes comes from the canonical table
(:mod:`repro.terminal.cell`), and every pen it selects is canonical, so
the frame diff can compare cells by identity. SGR transitions are
memoised per pen.
"""

from __future__ import annotations

import re

from repro.terminal import charsets
from repro.terminal.cell import (
    canonical_cell,
    canonical_pen,
    erase_cell,
    pen_transition,
)
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.parser import (
    CsiDispatch,
    EscDispatch,
    Execute,
    OscDispatch,
    Parser,
    Print,
)
from repro.terminal.renditions import (
    COLOR_DEFAULT,
    DEFAULT_RENDITIONS,
    Renditions,
    indexed_color,
    rgb_color,
)
from repro.terminal.unicode_width import char_width, is_combining

#: Splits text into alternating printable-ASCII and other pieces (the
#: other pieces at the odd indices).
_NOT_PRINTABLE_ASCII = re.compile(r"([^\x20-\x7e]+)")


class Emulator:
    """Drives a :class:`Framebuffer` with host output bytes."""

    def __init__(self, width: int = 80, height: int = 24) -> None:
        self.fb = Framebuffer(width, height)
        self._parser = Parser()
        #: Replies to host queries (DSR, DA); pty layer drains this.
        self.outbox = bytearray()
        self._g0 = charsets.CHARSET_ASCII
        self._g1 = charsets.CHARSET_ASCII
        self._shift = 0  # 0 = G0 active, 1 = G1 active
        self._last_graphic = ""  # for REP (CSI b)

    # ------------------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Interpret a chunk of host output."""
        for action in self._parser.input(data):
            if isinstance(action, Print):
                self._print_run(action.text)
            elif isinstance(action, Execute):
                self._execute(action.byte)
            elif isinstance(action, CsiDispatch):
                self._csi(action)
            elif isinstance(action, EscDispatch):
                self._esc(action)
            elif isinstance(action, OscDispatch):
                self._osc(action)

    def drain_outbox(self) -> bytes:
        """Take pending replies to host queries (DSR/DA responses)."""
        out = bytes(self.outbox)
        self.outbox.clear()
        return out

    def resize(self, width: int, height: int) -> None:
        """Change the screen dimensions, preserving content."""
        self.fb.resize(width, height)

    # ------------------------------------------------------------------
    # Printing
    # ------------------------------------------------------------------

    def _print_run(self, text: str) -> None:
        """Print ``text``, printable ASCII a row segment at a time.

        Segments need autowrap on, insert mode off and the ASCII
        character set in use; otherwise, and for every character outside
        printable ASCII, this defers to :meth:`_print`.
        """
        fb = self.fb
        if (
            fb.insert_mode
            or not fb.wraparound
            or (self._g1 if self._shift else self._g0) != charsets.CHARSET_ASCII
        ):
            for ch in text:
                self._print(ch)
        elif text.isascii() and text.isprintable():
            self._print_ascii(text)
        else:
            for i, piece in enumerate(_NOT_PRINTABLE_ASCII.split(text)):
                if i % 2:
                    for ch in piece:
                        self._print(ch)
                elif piece:
                    self._print_ascii(piece)

    def _print_ascii(self, text: str) -> None:
        """Write printable ASCII: one slice of canonical cells per row segment.

        Equivalent to :meth:`_print` per character with autowrap on and
        insert mode off. Only a segment's two end cells can overlap a wide
        character outside it, so only they are checked.
        """
        fb = self.fb
        pen = fb.pen
        if not pen.canonical:
            pen = fb.pen = canonical_pen(pen)
        cells = pen.cells
        width = fb.width
        pos = 0
        end = len(text)
        while pos < end:
            if fb.next_print_wraps:
                self._wrap_line()
            row_idx = fb.cursor_row
            col = fb.cursor_col
            stop = pos + width - col
            if stop > end:
                stop = end
            last = col + stop - pos - 1  # the segment's last column
            old = fb.rows[row_idx].cells
            if old[col].width != 1:
                self._clear_wide_overlap(row_idx, col)
            if last > col and old[last].width != 1:
                self._clear_wide_overlap(row_idx, last)
            row = fb.writable_row(row_idx)
            row.cells[col : last + 1] = map(cells.__getitem__, text[pos:stop])
            row.touch()
            if last == width - 1:
                fb.cursor_col = last
                fb.next_print_wraps = True
            else:
                fb.cursor_col = last + 1
            pos = stop
        self._last_graphic = text[-1]

    def _wrap_line(self) -> None:
        """Autowrap: mark the cursor row soft-wrapped, go to the next line."""
        fb = self.fb
        row = fb.writable_row(fb.cursor_row)
        row.wrap = True
        row.touch()
        fb.cursor_col = 0
        self._line_feed()

    def _print(self, ch: str) -> None:
        fb = self.fb
        charset = self._g1 if self._shift else self._g0
        ch = charsets.translate(charset, ch)
        width = char_width(ch)
        if width:
            self._last_graphic = ch

        if width == 0:
            if is_combining(ch):
                self._combine(ch)
            return
        if width > fb.width:
            return  # a wide character cannot fit a one-column screen

        if fb.next_print_wraps and fb.wraparound:
            self._wrap_line()
        fb.next_print_wraps = False

        if width == 2 and fb.cursor_col == fb.width - 1:
            # A wide character cannot straddle the margin: wrap (or stay).
            if fb.wraparound:
                self._clear_wide_overlap(fb.cursor_row, fb.cursor_col)
                fb.set_cell(fb.cursor_row, fb.cursor_col, fb._erase_cell())
                self._wrap_line()
            else:
                fb.cursor_col -= 1

        if fb.insert_mode:
            fb.insert_cells(fb.cursor_row, fb.cursor_col, width)

        # Overwriting half of an existing wide character blanks the other
        # half, preserving the canonical wide-cell invariant.
        self._clear_wide_overlap(fb.cursor_row, fb.cursor_col)
        if width == 2:
            self._clear_wide_overlap(fb.cursor_row, fb.cursor_col + 1)

        pen = fb.pen = canonical_pen(fb.pen)
        fb.set_cell(
            fb.cursor_row, fb.cursor_col, canonical_cell(ch, width, pen)
        )
        if width == 2 and fb.cursor_col + 1 < fb.width:
            fb.set_cell(
                fb.cursor_row, fb.cursor_col + 1, canonical_cell("", 0, pen)
            )

        if fb.cursor_col + width >= fb.width:
            fb.cursor_col = fb.width - 1
            fb.next_print_wraps = True
            if width == 2 and fb.cursor_col > 0:
                fb.cursor_col = fb.width - 1
        else:
            fb.cursor_col += width

    def _clear_wide_overlap(self, row: int, col: int) -> None:
        """Blank the partner half when overwriting part of a wide char."""
        fb = self.fb
        if col >= fb.width:
            return
        old = fb.cell_at(row, col)
        if old.width == 0 and col > 0:
            leader = fb.cell_at(row, col - 1)
            if leader.width == 2:
                fb.set_cell(row, col - 1, erase_cell(leader.renditions.background))
        elif old.width == 2 and col + 1 < fb.width:
            fb.set_cell(row, col + 1, erase_cell(old.renditions.background))

    def _combine(self, ch: str) -> None:
        """Append a combining mark to the previously printed cell."""
        fb = self.fb
        row, col = fb.cursor_row, fb.cursor_col
        if not fb.next_print_wraps:
            col -= 1
        if col < 0:
            return
        target = fb.cell_at(row, col)
        if target.width == 0 and col > 0:
            col -= 1
            target = fb.cell_at(row, col)
        if target.width == 0:
            return
        base = target.contents or " "
        if len(base) >= 8:
            return  # cap runaway combining sequences
        fb.set_cell(
            row, col, canonical_cell(base + ch, target.width, target.renditions)
        )

    # ------------------------------------------------------------------
    # C0 controls
    # ------------------------------------------------------------------

    def _execute(self, byte: int) -> None:
        fb = self.fb
        if byte == 0x07:  # BEL
            fb.bell_count += 1
        elif byte == 0x08:  # BS
            fb.next_print_wraps = False
            if fb.cursor_col > 0:
                fb.cursor_col -= 1
        elif byte == 0x09:  # HT
            self._horizontal_tab()
        elif byte in (0x0A, 0x0B, 0x0C):  # LF VT FF
            self._line_feed()
        elif byte == 0x0D:  # CR
            fb.cursor_col = 0
            fb.next_print_wraps = False
        elif byte == 0x0E:  # SO: G1
            self._shift = 1
        elif byte == 0x0F:  # SI: G0
            self._shift = 0

    def _horizontal_tab(self) -> None:
        fb = self.fb
        col = fb.cursor_col + 1
        while col < fb.width and col not in fb.tab_stops:
            col += 1
        fb.cursor_col = min(col, fb.width - 1)
        fb.next_print_wraps = False

    def _back_tab(self) -> None:
        fb = self.fb
        col = fb.cursor_col - 1
        while col > 0 and col not in fb.tab_stops:
            col -= 1
        fb.cursor_col = max(col, 0)

    def _line_feed(self) -> None:
        fb = self.fb
        if fb.cursor_row == fb.scroll_bottom:
            fb.scroll(1)
        elif fb.cursor_row < fb.height - 1:
            fb.cursor_row += 1
        fb.next_print_wraps = False

    def _reverse_line_feed(self) -> None:
        fb = self.fb
        if fb.cursor_row == fb.scroll_top:
            fb.scroll(-1)
        elif fb.cursor_row > 0:
            fb.cursor_row -= 1
        fb.next_print_wraps = False

    # ------------------------------------------------------------------
    # ESC dispatch
    # ------------------------------------------------------------------

    def _esc(self, action: EscDispatch) -> None:
        fb = self.fb
        inter, final = action.intermediates, action.final
        if inter == "":
            if final == "7":  # DECSC
                fb.saved_cursor = (
                    fb.cursor_row,
                    fb.cursor_col,
                    fb.pen,
                    fb.origin_mode,
                )
            elif final == "8":  # DECRC
                if fb.saved_cursor is not None:
                    row, col, pen, origin = fb.saved_cursor
                    fb.cursor_row = min(row, fb.height - 1)
                    fb.cursor_col = min(col, fb.width - 1)
                    fb.pen = pen
                    fb.origin_mode = origin
                    fb.next_print_wraps = False
            elif final == "c":  # RIS
                fb.reset()
                self._g0 = charsets.CHARSET_ASCII
                self._g1 = charsets.CHARSET_ASCII
                self._shift = 0
            elif final == "D":  # IND
                self._line_feed()
            elif final == "E":  # NEL
                fb.cursor_col = 0
                self._line_feed()
            elif final == "M":  # RI
                self._reverse_line_feed()
            elif final == "H":  # HTS
                fb.tab_stops.add(fb.cursor_col)
            elif final == "=":  # DECKPAM
                fb.application_keypad = True
            elif final == ">":  # DECKPNM
                fb.application_keypad = False
        elif inter == "#":
            if final == "8":  # DECALN: fill screen with E
                e_cell = canonical_cell("E", 1, DEFAULT_RENDITIONS)
                for row in range(fb.height):
                    for col in range(fb.width):
                        fb.set_cell(row, col, e_cell)
                fb.cursor_row = 0
                fb.cursor_col = 0
        elif inter == "(":
            self._g0 = final
        elif inter == ")":
            self._g1 = final

    # ------------------------------------------------------------------
    # CSI dispatch
    # ------------------------------------------------------------------

    def _csi(self, a: CsiDispatch) -> None:
        fb = self.fb
        if a.private == "?":
            if a.final == "h":
                self._dec_mode(a, True)
            elif a.final == "l":
                self._dec_mode(a, False)
            return
        if a.private:
            if a.final == "c" and a.private == ">":
                # Secondary DA: "vt220, firmware 1.0"
                self.outbox += b"\x1b[>1;10;0c"
            return
        if a.intermediates == "!" and a.final == "p":
            fb.soft_reset()  # DECSTR
            return
        if a.intermediates:
            return

        final = a.final
        n = a.param(0, 1)
        if final == "@":  # ICH
            fb.insert_cells(fb.cursor_row, fb.cursor_col, n)
        elif final == "A":  # CUU
            fb.cursor_row = max(
                fb.cursor_row - n,
                fb.scroll_top if fb.cursor_row >= fb.scroll_top else 0,
            )
            fb.next_print_wraps = False
        elif final == "B" or final == "e":  # CUD / VPR
            fb.cursor_row = min(
                fb.cursor_row + n,
                fb.scroll_bottom if fb.cursor_row <= fb.scroll_bottom
                else fb.height - 1,
            )
            fb.next_print_wraps = False
        elif final == "C" or final == "a":  # CUF / HPR
            fb.cursor_col = min(fb.cursor_col + n, fb.width - 1)
            fb.next_print_wraps = False
        elif final == "D":  # CUB
            fb.cursor_col = max(fb.cursor_col - n, 0)
            fb.next_print_wraps = False
        elif final == "E":  # CNL
            fb.cursor_col = 0
            fb.cursor_row = min(fb.cursor_row + n, fb.height - 1)
            fb.next_print_wraps = False
        elif final == "F":  # CPL
            fb.cursor_col = 0
            fb.cursor_row = max(fb.cursor_row - n, 0)
            fb.next_print_wraps = False
        elif final == "G" or final == "`":  # CHA / HPA
            fb.cursor_col = min(max(a.param(0, 1) - 1, 0), fb.width - 1)
            fb.next_print_wraps = False
        elif final == "H" or final == "f":  # CUP / HVP
            self._cursor_position(a.param(0, 1) - 1, a.param(1, 1) - 1)
        elif final == "I":  # CHT
            for _ in range(n):
                self._horizontal_tab()
        elif final == "J":  # ED
            self._erase_display(a.raw_param(0, 0))
        elif final == "K":  # EL
            self._erase_line(a.raw_param(0, 0))
        elif final == "L":  # IL
            fb.insert_lines(fb.cursor_row, n)
            fb.cursor_col = 0
        elif final == "M":  # DL
            fb.delete_lines(fb.cursor_row, n)
            fb.cursor_col = 0
        elif final == "P":  # DCH
            fb.delete_cells(fb.cursor_row, fb.cursor_col, n)
        elif final == "S":  # SU
            fb.scroll(n)
        elif final == "T":  # SD
            fb.scroll(-n)
        elif final == "X":  # ECH
            fb.erase_cells(fb.cursor_row, fb.cursor_col, n)
        elif final == "Z":  # CBT
            for _ in range(n):
                self._back_tab()
        elif final == "b":  # REP: repeat the preceding graphic character
            if self._last_graphic:
                self._print_run(
                    self._last_graphic * min(n, fb.width * fb.height)
                )
        elif final == "d":  # VPA
            row = min(max(a.param(0, 1) - 1, 0), fb.height - 1)
            fb.cursor_row = row
            fb.next_print_wraps = False
        elif final == "g":  # TBC
            if a.raw_param(0, 0) == 3:
                fb.tab_stops.clear()
            else:
                fb.tab_stops.discard(fb.cursor_col)
        elif final == "h":  # SM
            if 4 in a.params:
                fb.insert_mode = True
        elif final == "l":  # RM
            if 4 in a.params:
                fb.insert_mode = False
        elif final == "m":  # SGR
            self._sgr(a.params)
        elif final == "n":  # DSR
            self._device_status(a.raw_param(0, 0))
        elif final == "r":  # DECSTBM
            top = a.param(0, 1) - 1
            bottom = a.param(1, fb.height) - 1
            fb.set_scrolling_region(top, bottom)
            self._cursor_position(0, 0)
        elif final == "s":  # SCOSC
            fb.saved_cursor = (fb.cursor_row, fb.cursor_col, fb.pen, fb.origin_mode)
        elif final == "u":  # SCORC
            if fb.saved_cursor is not None:
                row, col, pen, origin = fb.saved_cursor
                fb.cursor_row = min(row, fb.height - 1)
                fb.cursor_col = min(col, fb.width - 1)
                fb.pen = pen
                fb.origin_mode = origin
        elif final == "c":  # Primary DA
            self.outbox += b"\x1b[?62;1c"  # vt220 with 132 columns
        # 't' (window ops), 'q' (DECSCA) and others are ignored.

    def _cursor_position(self, row: int, col: int) -> None:
        fb = self.fb
        if fb.origin_mode:
            row += fb.scroll_top
            row = min(max(row, fb.scroll_top), fb.scroll_bottom)
        else:
            row = min(max(row, 0), fb.height - 1)
        fb.cursor_row = row
        fb.cursor_col = min(max(col, 0), fb.width - 1)
        fb.next_print_wraps = False

    def _erase_display(self, mode: int) -> None:
        fb = self.fb
        if mode == 0:  # cursor to end
            fb.erase_cells(fb.cursor_row, fb.cursor_col, fb.width - fb.cursor_col)
            fb.erase_rows(fb.cursor_row + 1, fb.height - fb.cursor_row - 1)
        elif mode == 1:  # start to cursor
            fb.erase_rows(0, fb.cursor_row)
            fb.erase_cells(fb.cursor_row, 0, fb.cursor_col + 1)
        elif mode in (2, 3):  # all (3 also clears scrollback, which we lack)
            fb.erase_rows(0, fb.height)
        fb.next_print_wraps = False

    def _erase_line(self, mode: int) -> None:
        fb = self.fb
        if mode == 0:
            fb.erase_cells(fb.cursor_row, fb.cursor_col, fb.width - fb.cursor_col)
        elif mode == 1:
            fb.erase_cells(fb.cursor_row, 0, fb.cursor_col + 1)
        elif mode == 2:
            fb.erase_cells(fb.cursor_row, 0, fb.width)

    def _dec_mode(self, a: CsiDispatch, enable: bool) -> None:
        fb = self.fb
        for mode in a.params:
            if mode == 1:
                fb.application_cursor_keys = enable
            elif mode == 3:  # DECCOLM: clear screen and home
                fb.erase_rows(0, fb.height)
                fb.cursor_row = 0
                fb.cursor_col = 0
            elif mode == 5:
                fb.reverse_video = enable
            elif mode == 6:
                fb.origin_mode = enable
                self._cursor_position(0, 0)
            elif mode == 7:
                fb.wraparound = enable
                fb.next_print_wraps = False
            elif mode == 25:
                fb.cursor_visible = enable
            elif mode == 47:
                if enable:
                    fb.enter_alternate_screen(clear=False)
                else:
                    fb.exit_alternate_screen()
            elif mode == 1047:
                if enable:
                    fb.enter_alternate_screen(clear=True)
                else:
                    fb.exit_alternate_screen()
            elif mode == 1048:
                if enable:
                    fb.saved_cursor = (
                        fb.cursor_row,
                        fb.cursor_col,
                        fb.pen,
                        fb.origin_mode,
                    )
                elif fb.saved_cursor is not None:
                    row, col, pen, origin = fb.saved_cursor
                    fb.cursor_row = min(row, fb.height - 1)
                    fb.cursor_col = min(col, fb.width - 1)
                    fb.pen = pen
                    fb.origin_mode = origin
            elif mode == 1049:
                if enable:
                    fb.saved_cursor = (
                        fb.cursor_row,
                        fb.cursor_col,
                        fb.pen,
                        fb.origin_mode,
                    )
                    fb.enter_alternate_screen(clear=True)
                else:
                    fb.exit_alternate_screen()
                    if fb.saved_cursor is not None:
                        row, col, pen, origin = fb.saved_cursor
                        fb.cursor_row = min(row, fb.height - 1)
                        fb.cursor_col = min(col, fb.width - 1)
                        fb.pen = pen
                        fb.origin_mode = origin
            elif mode == 2004:
                fb.bracketed_paste = enable
            elif mode in (9, 1000, 1001, 1002, 1003, 1005, 1006, 1015):
                modes = set(fb.mouse_modes)
                if enable:
                    modes.add(int(mode))
                else:
                    modes.discard(int(mode))
                fb.mouse_modes = frozenset(modes)

    def _device_status(self, request: int) -> None:
        if request == 5:  # operating status
            self.outbox += b"\x1b[0n"
        elif request == 6:  # cursor position report
            fb = self.fb
            row = fb.cursor_row + 1
            col = fb.cursor_col + 1
            if fb.origin_mode:
                row -= fb.scroll_top
            self.outbox += f"\x1b[{row};{col}R".encode("ascii")

    # ------------------------------------------------------------------
    # SGR
    # ------------------------------------------------------------------

    def _sgr(self, params: tuple[int | None, ...]) -> None:
        """Select the canonical pen ``params`` turn the current one into.

        The transition is memoised on the current pen, so a repeated SGR
        is one dict hit.
        """
        self.fb.pen = pen_transition(self.fb.pen, params, self._sgr_pen)

    def _sgr_pen(
        self, pen: Renditions, params: tuple[int | None, ...]
    ) -> Renditions:
        if not params:
            params = (0,)
        values = [0 if p is None else p for p in params]
        i = 0
        while i < len(values):
            v = values[i]
            if v == 0:
                pen = DEFAULT_RENDITIONS
            elif v == 1:
                pen = pen.with_attr(bold=True)
            elif v == 2:
                pen = pen.with_attr(faint=True)
            elif v == 3:
                pen = pen.with_attr(italic=True)
            elif v == 4 or v == 21:
                pen = pen.with_attr(underlined=True)
            elif v == 5 or v == 6:
                pen = pen.with_attr(blink=True)
            elif v == 7:
                pen = pen.with_attr(inverse=True)
            elif v == 8:
                pen = pen.with_attr(invisible=True)
            elif v == 9:
                pen = pen.with_attr(strikethrough=True)
            elif v == 22:
                pen = pen.with_attr(bold=False, faint=False)
            elif v == 23:
                pen = pen.with_attr(italic=False)
            elif v == 24:
                pen = pen.with_attr(underlined=False)
            elif v == 25:
                pen = pen.with_attr(blink=False)
            elif v == 27:
                pen = pen.with_attr(inverse=False)
            elif v == 28:
                pen = pen.with_attr(invisible=False)
            elif v == 29:
                pen = pen.with_attr(strikethrough=False)
            elif 30 <= v <= 37:
                pen = pen.with_attr(foreground=indexed_color(v - 30))
            elif v == 39:
                pen = pen.with_attr(foreground=COLOR_DEFAULT)
            elif 40 <= v <= 47:
                pen = pen.with_attr(background=indexed_color(v - 40))
            elif v == 49:
                pen = pen.with_attr(background=COLOR_DEFAULT)
            elif 90 <= v <= 97:
                pen = pen.with_attr(foreground=indexed_color(v - 90 + 8))
            elif 100 <= v <= 107:
                pen = pen.with_attr(background=indexed_color(v - 100 + 8))
            elif v in (38, 48):
                color, consumed = self._extended_color(values[i + 1 :])
                if color is None:
                    break  # malformed; drop the rest like xterm
                if v == 38:
                    pen = pen.with_attr(foreground=color)
                else:
                    pen = pen.with_attr(background=color)
                i += consumed
            i += 1
        return pen

    @staticmethod
    def _extended_color(rest: list[int]) -> tuple[int | None, int]:
        """Parse 5;n or 2;r;g;b after SGR 38/48; returns (color, consumed)."""
        if len(rest) >= 2 and rest[0] == 5:
            index = rest[1]
            if 0 <= index <= 255:
                return indexed_color(index), 2
            return None, 2
        if len(rest) >= 4 and rest[0] == 2:
            r, g, b = rest[1], rest[2], rest[3]
            if all(0 <= c <= 255 for c in (r, g, b)):
                return rgb_color(r, g, b), 4
            return None, 4
        return None, len(rest)

    # ------------------------------------------------------------------
    # OSC
    # ------------------------------------------------------------------

    def _osc(self, action: OscDispatch) -> None:
        number, _, text = action.text.partition(";")
        if number in ("0", "2"):
            self.fb.window_title = text
        if number in ("0", "1"):
            self.fb.icon_title = text
