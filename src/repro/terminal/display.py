"""Minimal-update frame diffs.

``Display.new_frame(old, new)`` produces the ANSI byte string that
transforms a terminal showing ``old`` into one showing ``new`` — "the
minimal message that transforms the client's frame to the current one"
(§2.3). The fundamental invariant, enforced by property-based tests::

    e = emulator showing old
    e.write(Display.new_frame(old, new))
    e.fb == new                      # Framebuffer equality

The diff speaks a restricted vocabulary — CUP, SGR, ECH, printed text, OSC
title, BEL, and mode toggles — whose interpretation does not depend on any
receiver state outside Framebuffer equality, so applying a diff can never
desynchronize a client that was content-equal to ``old``.

Cells and pens are compared by identity when both sides are canonical
(:mod:`repro.terminal.cell`: for canonical objects ``a is b`` exactly when
``a == b``) and by value otherwise, so the bytes never depend on which
cells happen to be canonical.

Each changed row is walked once. Rows the emulator left alone are
skipped by identity or generation. A row that scrolled in, or whose old
cells are all ``BLANK_CELL``, differs exactly where its cells are not
blanks, so the run printer diffs it in the same walk that prints it: a
run of default blanks is a gap, absorbed into the span around it when it
is at most 4 cells long, and the end of the span otherwise. Any other row
is compared column by column, and each span of work is printed as it
closes. Up to 4 equal cells
between changes are reprinted rather than hopped, and a changed
continuation cell is reprinted through its leader. The repaint and both
row paths share the one run printer (pen runs as text, erase runs as ECH,
a CUF hop over an ECH only when the span goes on).
"""

from __future__ import annotations

from itertools import repeat
from operator import eq, is_

from repro.terminal.cell import BLANK_CELL, Cell, Row, erase_cell
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.renditions import COLOR_DEFAULT, DEFAULT_RENDITIONS, Renditions


class Display:
    """Stateless frame-diff generator."""

    @staticmethod
    def new_frame(
        old: Framebuffer | None,
        new: Framebuffer,
        scroll_optimization: bool = True,
    ) -> bytes:
        """Bytes transforming ``old`` into ``new``.

        ``old=None`` (or a size mismatch) produces a full repaint preceded
        by a reset-style clear. ``scroll_optimization`` controls whether a
        detected vertical shift is expressed as one scroll sequence plus
        the fresh rows (like Mosh) instead of rewriting every moved row.
        """
        if old is not None and (old.width, old.height) == (
            new.width,
            new.height,
        ):
            return Display._incremental(old, new, scroll_optimization)
        return Display._repaint(new)

    # ------------------------------------------------------------------

    @staticmethod
    def _repaint(new: Framebuffer) -> bytes:
        out = bytearray()
        out += b"\x1b[0m\x1b[2J"  # reset pen, clear screen
        pen_state: list[Renditions | None] = [None]
        # BLANK_CELL is what \x1b[2J leaves in every cell.
        for r, row in enumerate(new.rows):
            if not row.all_blank and any(
                c is not BLANK_CELL and (c.canonical or c != BLANK_CELL)
                for c in row.cells
            ):
                Display._emit_runs(out, r, row.cells, 0, new.width, pen_state)
        Display._emit_modes(out, None, new)
        Display._finish(out, new, pen_state)
        return bytes(out)

    @staticmethod
    def _detect_scroll(old: Framebuffer, new: Framebuffer) -> int:
        """Rows the screen scrolled up by (0 = no worthwhile scroll).

        Scrolling preserves Row identity in the framebuffer, so surviving
        rows keep their generation numbers — matching generations across a
        vertical shift is both cheap and unambiguous. Generations are
        unique within one framebuffer (every mutation mints a fresh one)
        except the shared blank row's, so instead of scanning every (row,
        shift) pair, each new row looks up the old position of its
        generation and votes for that shift: O(height) rather than
        O(height × max-shift). The blank row stands in many slots and
        cannot say which one it came from, so it is left out of the map
        and proposes no shift. At the shifts the other rows propose, it
        counts wherever the old row it would come from is blank too, as
        the blank rows that moved with the scroll would have. The smallest
        shift with the most matches wins. Only generations decide, so a
        deep copy that keeps them votes like the original.
        """
        height = new.height
        max_shift = min(height, 24)
        old_pos = {row.gen: r for r, row in enumerate(old.rows)}
        blank_gen = Row.blank(new.width).gen
        old_has_blank = old_pos.pop(blank_gen, None) is not None
        votes: dict[int, int] = {}
        for r, row in enumerate(new.rows):
            j = old_pos.get(row.gen)
            if j is not None:
                shift = j - r
                if 1 <= shift < max_shift:
                    votes[shift] = votes.get(shift, 0) + 1
        if not votes:
            return 0
        if old_has_blank:
            new_gens = [row.gen for row in new.rows]
            if blank_gen in new_gens:
                old_gens = [row.gen for row in old.rows]
                for shift in votes:
                    votes[shift] = sum(map(eq, new_gens, old_gens[shift:]))
        best_matches = max(votes.values())
        best_shift = min(s for s, v in votes.items() if v == best_matches)
        if best_matches >= max(4, (height - best_shift) // 2):
            return best_shift
        return 0

    @staticmethod
    def _incremental(
        old: Framebuffer, new: Framebuffer, scroll_optimization: bool = True
    ) -> bytes:
        out = bytearray()
        pen_state: list[Renditions | None] = [None]
        old_rows: list[Row | None] = old.rows
        shift = Display._detect_scroll(old, new) if scroll_optimization else 0
        if shift:
            # One scroll sequence moves the surviving rows; only the rows
            # that actually changed (usually just the new bottom lines)
            # are rewritten below. Reset the pen first so the scrolled-in
            # blanks are default-background erase cells; None stands for
            # such a row.
            out += b"\x1b[0m"
            pen_state[0] = DEFAULT_RENDITIONS
            out += b"\x1b[%dS" % shift
            old_rows = old_rows[shift:] + [None] * shift
        emit_runs = Display._emit_runs
        width = new.width
        new_rows = new.rows
        # COW snapshots alias untouched rows, so the identity and
        # generation checks skip every row the emulator left alone.
        for r, new_row in enumerate(new_rows):
            old_row = old_rows[r]
            if old_row is new_row:
                continue
            new_cells = new_row.cells
            if old_row is None:
                emit_runs(out, r, new_cells, 0, width, pen_state, True)
            elif old_row.gen != new_row.gen:
                old_cells = old_row.cells
                if old_row.all_blank or all(map(is_, old_cells, repeat(BLANK_CELL))):
                    emit_runs(out, r, new_cells, 0, width, pen_state, True)
                else:
                    Display._emit_row_diff(out, r, old_cells, new_cells, pen_state)
        Display._emit_modes(out, old, new)
        # The bell is synchronized as an explicit field of the Complete
        # state object, not as BEL bytes (an unbounded BEL delta would
        # otherwise bloat a diff).
        Display._finish(out, new, pen_state)
        return bytes(out)

    # ------------------------------------------------------------------
    # Row rendering
    # ------------------------------------------------------------------

    @staticmethod
    def _emit_row_diff(
        out: bytearray,
        row_idx: int,
        old_cells: list[Cell],
        new_cells: list[Cell],
        pen_state: list[Renditions | None],
    ) -> None:
        """Rewrite the cells of a row that differ from ``old_cells``.

        One pass over the columns decides which cells changed, marks the
        leader of a changed continuation cell, and gathers spans of work
        that absorb equal gaps of up to 4 cells, so the diff does not
        spend a cursor move on every other cell. Each span is printed as
        it closes. Continuation cells are work wherever they fall: their
        leader reprints them.
        """
        width = len(new_cells)
        start = 0  # first column of the open span
        last = -6  # last column of work in the open span (< 0: none open)
        for col, cell in enumerate(new_cells):
            # Identity decides: a row cloned from a snapshot shares every
            # Cell object except the ones actually overwritten, and two
            # distinct canonical cells always differ. Only a pair with a
            # non-canonical cell needs the dataclass comparison.
            old_cell = old_cells[col]
            if cell is old_cell or (
                not (old_cell.canonical and cell.canonical) and old_cell == cell
            ):
                continue
            if cell.width and col - last <= 5:
                last = col  # joins the open span across a short gap
                continue
            # A changed continuation cell is repaired by reprinting its
            # leader (the canonical invariant guarantees one exists).
            lead = col
            while lead and new_cells[lead].width == 0:
                lead -= 1
            if last < 0:
                if new_cells[lead].width == 0:
                    continue  # no leader to start from: column 0
                start = lead
            elif lead > last + 5:
                # Five or more equal cells lie between: the span closes
                # unless continuation cells among them split the gap.
                c = last + 1
                while c < lead:
                    if new_cells[c].width == 0:
                        last = c
                    elif c - last == 5:
                        Display._emit_runs(
                            out, row_idx, new_cells, start, last + 1, pen_state
                        )
                        start = lead
                        break
                    c += 1
            last = col
        if last < 0:
            return
        c = last + 1
        while c < width:
            if new_cells[c].width == 0:
                last = c
            elif c - last == 5:
                break
            c += 1
        Display._emit_runs(out, row_idx, new_cells, start, last + 1, pen_state)

    @staticmethod
    def _emit_runs(
        out: bytearray,
        row_idx: int,
        cells: list[Cell],
        i: int,
        end: int,
        pen_state: list[Renditions | None],
        blank_gaps: bool = False,
    ) -> None:
        """Write ``cells[i:end]`` at (row_idx, i) as pen runs, ECH and CUF.

        With ``blank_gaps`` the cells are diffed against a row of
        ``BLANK_CELL`` (what a scroll leaves, or a row never drawn), in the
        same walk: a run of default blanks equals what it covers, so up
        to 4 are absorbed into the span around them, while 5 or more, a
        run to the end of the row, or blanks before the first drawn cell
        are skipped, and the next span opens with its own cursor move.
        """
        is_erase = Display._is_erase_cell
        opened = False  # whether the cursor has been moved into this span
        hop = 0  # cells an ECH left under the cursor, owed as CUF
        while i < end:
            cell = cells[i]
            pen = cell.renditions
            run = 0  # the ECH length, for a run of erase cells
            if cell.width == 0:
                if blank_gaps and not opened:
                    i += 1  # no span starts on a continuation cell
                    continue
            elif cell is pen.erase if cell.canonical else is_erase(cell):
                # A run of erase cells in one background is one ECH.
                bg = pen.background
                j = i + 1
                while j < end and (
                    cells[j] is cell
                    or (is_erase(cells[j]) and cells[j].renditions.background == bg)
                ):
                    j += 1
                run = j - i
                if blank_gaps and bg == COLOR_DEFAULT:
                    # A blank just before a continuation cell is work: it
                    # stands where the continuation's leader belongs.
                    gap = run - (j < end and cells[j].width == 0)
                    if not opened or gap >= 5 or j == end:
                        opened = False
                        hop = 0
                        i += gap
                        if gap:
                            continue
                        # else a lone blank before a continuation opens it
            if not opened:
                out += b"\x1b[%d;%dH" % (row_idx + 1, i + 1)
                opened = True
            if hop:
                out += b"\x1b[%dC" % hop  # hop over the erased cells
                hop = 0
            if cell.width == 0:
                # Unreachable under the canonical invariant (continuations
                # are consumed by their leader), but stay aligned anyway.
                out += b"\x1b[1C"
                i += 1
                continue
            if pen is not pen_state[0]:
                Display._set_pen(out, pen_state, pen)
            if run:
                out += b"\x1b[%dX" % run
                hop = run  # owed only if the span goes on
                i += run
                continue
            if cell.width == 2:
                out += cell.display_text().encode("utf-8")
                i += 2  # skip the continuation inside our span
                continue
            # A run of narrow drawn cells in one pen prints as one string.
            j = i + 1
            while j < end:
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
            out += "".join([c.contents or " " for c in cells[i:j]]).encode("utf-8")
            i = j

    @staticmethod
    def _is_erase_cell(cell: Cell) -> bool:
        """Whether ``cell`` is what an erase in its background leaves."""
        if cell.canonical:
            return cell is cell.renditions.erase
        return cell.contents == "" and cell == erase_cell(
            cell.renditions.background
        )

    # ------------------------------------------------------------------
    # Modes, cursor, title
    # ------------------------------------------------------------------

    @staticmethod
    def _emit_modes(
        out: bytearray, old: Framebuffer | None, new: Framebuffer
    ) -> None:
        def changed(attr: str) -> bool:
            return old is None or getattr(old, attr) != getattr(new, attr)

        if changed("reverse_video"):
            out += b"\x1b[?5h" if new.reverse_video else b"\x1b[?5l"
        if changed("application_cursor_keys"):
            out += b"\x1b[?1h" if new.application_cursor_keys else b"\x1b[?1l"
        if changed("application_keypad"):
            out += b"\x1b=" if new.application_keypad else b"\x1b>"
        if changed("bracketed_paste"):
            out += b"\x1b[?2004h" if new.bracketed_paste else b"\x1b[?2004l"
        old_mouse = old.mouse_modes if old is not None else frozenset()
        for mode in sorted(old_mouse - new.mouse_modes):
            out += f"\x1b[?{mode}l".encode("ascii")
        for mode in sorted(new.mouse_modes - old_mouse):
            out += f"\x1b[?{mode}h".encode("ascii")
        if changed("window_title") or changed("icon_title"):
            if new.window_title == new.icon_title:
                out += b"\x1b]0;" + new.window_title.encode("utf-8") + b"\x07"
            else:
                out += b"\x1b]1;" + new.icon_title.encode("utf-8") + b"\x07"
                out += b"\x1b]2;" + new.window_title.encode("utf-8") + b"\x07"

    @staticmethod
    def _finish(
        out: bytearray,
        new: Framebuffer,
        pen_state: list[Renditions | None],
    ) -> None:
        out += b"\x1b[%d;%dH" % (new.cursor_row + 1, new.cursor_col + 1)
        out += b"\x1b[?25h" if new.cursor_visible else b"\x1b[?25l"

    @staticmethod
    def _set_pen(
        out: bytearray,
        pen_state: list[Renditions | None],
        renditions: Renditions,
    ) -> None:
        current = pen_state[0]
        if current is not renditions and (
            current is None
            or (current.canonical and renditions.canonical)
            or current != renditions
        ):
            out += renditions.sgr()
            pen_state[0] = renditions
