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
"""

from __future__ import annotations

from repro.terminal.cell import BLANK_CELL, Cell, Row, erase_cell
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.renditions import DEFAULT_RENDITIONS, Renditions


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
        for r in range(new.height):
            if any(
                c is not BLANK_CELL and (c.canonical or c != BLANK_CELL)
                for c in new.rows[r].cells
            ):
                Display._emit_row_segment(
                    out, r, 0, new.rows[r].cells, pen_state
                )
        Display._emit_modes(out, None, new)
        Display._finish(out, new, pen_state)
        return bytes(out)

    @staticmethod
    def _detect_scroll(old: Framebuffer, new: Framebuffer) -> int:
        """Rows the screen scrolled up by (0 = no worthwhile scroll).

        Scrolling preserves Row identity in the framebuffer, so surviving
        rows keep their generation numbers — matching generations across a
        vertical shift is both cheap and unambiguous. Generations are
        unique within one framebuffer (every mutation mints a fresh one),
        so instead of scanning every (row, shift) pair, each new row looks
        up the old position of its generation and votes for that shift:
        O(height) rather than O(height × max-shift), with identical
        results — the smallest shift with the most matches wins.
        """
        height = new.height
        max_shift = min(height, 24)
        old_pos = {row.gen: r for r, row in enumerate(old.rows)}
        votes: dict[int, int] = {}
        for r, row in enumerate(new.rows):
            j = old_pos.get(row.gen)
            if j is not None:
                shift = j - r
                if 1 <= shift < max_shift:
                    votes[shift] = votes.get(shift, 0) + 1
        if not votes:
            return 0
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
        old_rows = old.rows
        shift = Display._detect_scroll(old, new) if scroll_optimization else 0
        if shift:
            # One scroll sequence moves the surviving rows; only the rows
            # that actually changed (usually just the new bottom lines)
            # are rewritten below. Reset the pen first so the scrolled-in
            # blanks are default-background erase cells.
            out += b"\x1b[0m"
            pen_state[0] = DEFAULT_RENDITIONS
            out += f"\x1b[{shift}S".encode("ascii")
            blank = Row.blank(new.width)
            old_rows = old.rows[shift:] + [blank] * shift
        for r in range(new.height):
            old_row, new_row = old_rows[r], new.rows[r]
            # COW snapshots alias untouched rows, so the identity and
            # generation checks skip every row the emulator left alone.
            if (
                old_row is new_row
                or old_row.gen == new_row.gen
                or old_row.cells == new_row.cells
            ):
                continue
            Display._emit_row_diff(out, r, old_row, new_row, pen_state)
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
        old_row: Row,
        new_row: Row,
        pen_state: list[Renditions | None],
    ) -> None:
        old_cells, new_cells = old_row.cells, new_row.cells
        width = len(new_cells)
        # Identity decides: a row cloned from a snapshot shares every Cell
        # object except the ones actually overwritten, and two distinct
        # canonical cells always differ. Only a pair with a non-canonical
        # cell needs the dataclass comparison.
        differ = [
            a is not b and ((a.canonical and b.canonical) or a != b)
            for a, b in zip(old_cells, new_cells)
        ]
        # A differing continuation cell is repaired by reprinting its
        # leader (the canonical invariant guarantees one exists).
        for c in range(width - 1, 0, -1):
            if differ[c] and new_cells[c].width == 0:
                differ[c - 1] = True
        differ.append(True)  # a sentinel past the last column
        col = differ.index(True)
        while col < width:
            if new_cells[col].width == 0:
                col = differ.index(True, col + 1)
                continue
            # Gather a span of work, absorbing short equal gaps so we
            # don't emit a cursor move for every other cell.
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
            Display._emit_row_segment(
                out, row_idx, col, new_cells[col:end], pen_state
            )
            col = differ.index(True, end)

    @staticmethod
    def _emit_row_segment(
        out: bytearray,
        row_idx: int,
        start_col: int,
        cells: list[Cell],
        pen_state: list[Renditions | None],
    ) -> None:
        """Write ``cells`` at (row_idx, start_col) via prints and ECH."""
        out += Display._cup(row_idx, start_col)
        is_erase = Display._is_erase_cell
        i = 0
        n = len(cells)
        while i < n:
            cell = cells[i]
            if cell.width == 0:
                # Unreachable under the canonical invariant (continuations
                # are consumed by their leader), but stay aligned anyway.
                out += b"\x1b[1C"
                i += 1
                continue
            pen = cell.renditions
            if is_erase(cell):
                # Group a run of erase-form cells into one ECH.
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
                    out += f"\x1b[{run}C".encode("ascii")  # hop over
                continue
            if cell.width == 2:
                Display._set_pen(out, pen_state, pen)
                out += cell.display_text().encode("utf-8")
                i += 2  # skip the continuation inside our slice
                continue
            # A run of narrow drawn cells in one pen prints as one string.
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
        out += Display._cup(new.cursor_row, new.cursor_col)
        out += b"\x1b[?25h" if new.cursor_visible else b"\x1b[?25l"

    @staticmethod
    def _cup(row: int, col: int) -> bytes:
        return f"\x1b[{row + 1};{col + 1}H".encode("ascii")

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
