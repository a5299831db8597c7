"""The prediction engine (a port of Mosh's overlay machinery).

Life of a prediction:

1. ``new_user_byte`` — the user hits a key. A printable byte yields a cell
   prediction at the predicted cursor, plus a cursor-move prediction.
   Control bytes, arrows, and word wrap make the engine *tentative*: the
   epoch counter increments, and predictions from the new epoch stay
   hidden until one of them is confirmed.
2. ``report_frame`` — an authoritative frame arrives with its echo-ack.
   Each prediction is checked: if the screen shows the predicted glyph the
   prediction is *correct* (confirming its epoch); if the echo-ack covers
   the triggering keystroke but the glyph is absent, it is *wrong* — all
   predictions are dropped (the screen repairs within one RTT) and the
   engine loses confidence.
3. ``apply`` — overlay the active predictions on a copy of the local frame
   for display, underlining them when the link is slow enough that a wrong
   guess would mislead ("flagging").

Confidence follows Mosh's adaptive policy: predictions display when the
smoothed RTT exceeds 30 ms (hysteresis at 20 ms) or after a recent glitch;
underlines turn on above an 80 ms SRTT (hysteresis at 50 ms) or after
repeated slow confirmations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.terminal.cell import canonical_cell, underlined
from repro.terminal.framebuffer import Framebuffer

SRTT_TRIGGER_LOW = 20.0
SRTT_TRIGGER_HIGH = 30.0
FLAG_TRIGGER_LOW = 50.0
FLAG_TRIGGER_HIGH = 80.0
GLITCH_THRESHOLD_MS = 250.0
GLITCH_REPAIR_COUNT = 10
GLITCH_REPAIR_MININTERVAL_MS = 150.0
GLITCH_FLAG_THRESHOLD = 5000


class DisplayPreference(enum.Enum):
    ALWAYS = "always"
    NEVER = "never"
    ADAPTIVE = "adaptive"
    EXPERIMENTAL = "experimental"  # display even tentative epochs


class _Validity(enum.Enum):
    PENDING = 0
    CORRECT = 1
    #: The screen matches, but it already did before the keystroke — no
    #: evidence the application echoes, so the epoch earns no confirmation.
    CORRECT_NO_CREDIT = 2
    INCORRECT = 3


@dataclass
class _CellPrediction:
    row: int
    col: int
    replacement: str  # predicted contents ('' = predicted erase)
    original: str  # what the cell held when the guess was made
    tentative_until_epoch: int
    prediction_time: float
    input_index: int
    displayed: bool = False


@dataclass
class _CursorPrediction:
    row: int
    col: int
    tentative_until_epoch: int
    prediction_time: float
    input_index: int


@dataclass
class PredictionStats:
    """Counters the evaluation harness reads."""

    keystrokes: int = 0
    predictions_made: int = 0
    displayed_immediately: int = 0
    confirmed: int = 0
    #: Wrong guesses that were actually on screen — the paper's 0.9 %
    #: "erroneous prediction, which it fixed within an RTT" statistic.
    mispredicted: int = 0
    #: Wrong guesses that never displayed (background epochs); harmless.
    background_misses: int = 0
    epochs: int = 0


class PredictionEngine:
    """Client-side speculative echo."""

    def __init__(
        self,
        preference: DisplayPreference = DisplayPreference.ADAPTIVE,
    ) -> None:
        self.preference = preference
        self._cells: dict[tuple[int, int], _CellPrediction] = {}
        self._cursor: _CursorPrediction | None = None
        self._prediction_epoch = 1
        self._confirmed_epoch = 0
        self._srtt_trigger = False
        self._flag_trigger = False
        self._glitch_trigger = 0
        self._last_quick_confirmation = -1e12
        self.stats = PredictionStats()

    # ------------------------------------------------------------------
    # Confidence
    # ------------------------------------------------------------------

    def active(self) -> bool:
        """Whether predictions are currently shown to the user."""
        if self.preference == DisplayPreference.NEVER:
            return False
        if self.preference in (
            DisplayPreference.ALWAYS,
            DisplayPreference.EXPERIMENTAL,
        ):
            return True
        return self._srtt_trigger or self._glitch_trigger > 0

    def flagging(self) -> bool:
        """Whether displayed predictions are underlined."""
        if self.preference == DisplayPreference.EXPERIMENTAL:
            return False
        return self._flag_trigger or self._glitch_trigger > GLITCH_FLAG_THRESHOLD

    def _observe_srtt(self, srtt_ms: float) -> None:
        if srtt_ms > SRTT_TRIGGER_HIGH:
            self._srtt_trigger = True
        elif self._srtt_trigger and srtt_ms < SRTT_TRIGGER_LOW and not self._cells:
            self._srtt_trigger = False
        if srtt_ms > FLAG_TRIGGER_HIGH:
            self._flag_trigger = True
        elif self._flag_trigger and srtt_ms < FLAG_TRIGGER_LOW and not self._cells:
            self._flag_trigger = False

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------

    def _become_tentative(self) -> None:
        if self._prediction_epoch == self._confirmed_epoch + 1 and not any(
            p.tentative_until_epoch >= self._prediction_epoch
            for p in self._cells.values()
        ):
            # Already tentative with nothing riding on the current epoch.
            return
        self._prediction_epoch += 1
        self.stats.epochs += 1

    def _epoch_visible(self, tentative_until_epoch: int) -> bool:
        if self.preference == DisplayPreference.EXPERIMENTAL:
            return True
        return tentative_until_epoch <= self._confirmed_epoch

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def new_user_byte(
        self,
        byte: int,
        fb: Framebuffer,
        now: float,
        input_index: int,
        srtt_ms: float,
    ) -> bool:
        """Register one keystroke; returns True if its effect displays
        immediately (the metric Figure 2 reports)."""
        self.stats.keystrokes += 1
        self._observe_srtt(srtt_ms)
        if self.preference == DisplayPreference.NEVER:
            return False

        row, col = self._predicted_cursor(fb)

        if 0x20 <= byte <= 0x7E:  # printable ASCII: predict the echo
            if col + 1 >= fb.width:
                # Word wrap moves text at unpredictable times (the paper's
                # 0.9% miss case); stop guessing until confirmed again.
                self._become_tentative()
                return False
            prediction = _CellPrediction(
                row=row,
                col=col,
                replacement=chr(byte),
                original=self._cell_contents(fb, row, col),
                tentative_until_epoch=self._prediction_epoch,
                prediction_time=now,
                input_index=input_index,
            )
            self._cells[(row, col)] = prediction
            self._set_cursor_prediction(row, col + 1, now, input_index)
            self.stats.predictions_made += 1
            shown = self.active() and self._epoch_visible(
                prediction.tentative_until_epoch
            )
            prediction.displayed = shown
            if shown:
                self.stats.displayed_immediately += 1
            return shown

        if byte in (0x7F, 0x08):  # backspace: predict the erasure
            if col > 0:
                target = col - 1
                prediction = _CellPrediction(
                    row=row,
                    col=target,
                    replacement="",
                    original=self._cell_contents(fb, row, target),
                    tentative_until_epoch=self._prediction_epoch,
                    prediction_time=now,
                    input_index=input_index,
                )
                self._cells[(row, target)] = prediction
                self._set_cursor_prediction(row, target, now, input_index)
                self.stats.predictions_made += 1
                shown = self.active() and self._epoch_visible(
                    prediction.tentative_until_epoch
                )
                prediction.displayed = shown
                if shown:
                    self.stats.displayed_immediately += 1
                return shown
            return False

        if byte == 0x0D:  # CR: predict the newline, tentatively
            self._become_tentative()
            # In raw-mode full-screen programs (editors, chat clients) the
            # cursor usually lands at the start of the next line; if the
            # guess confirms, the fresh epoch is immediately trusted.
            new_row = min(row + 1, fb.height - 1)
            self._set_cursor_prediction(new_row, 0, now, input_index)
            return False

        # ESC, arrows, other control characters: "likely to alter the
        # host's echo state ... or are otherwise hard to predict" — lose
        # confidence and start a fresh tentative epoch.
        self._become_tentative()
        self._cursor = None
        return False

    @staticmethod
    def _cell_contents(fb: Framebuffer, row: int, col: int) -> str:
        if row >= fb.height or col >= fb.width:
            return ""
        return fb.cell_at(row, col).contents

    def _predicted_cursor(self, fb: Framebuffer) -> tuple[int, int]:
        if self._cursor is not None:
            return self._cursor.row, self._cursor.col
        return fb.cursor_row, fb.cursor_col

    def _set_cursor_prediction(
        self, row: int, col: int, now: float, input_index: int
    ) -> None:
        self._cursor = _CursorPrediction(
            row=row,
            col=col,
            tentative_until_epoch=self._prediction_epoch,
            prediction_time=now,
            input_index=input_index,
        )

    # ------------------------------------------------------------------
    # Validation against authoritative frames
    # ------------------------------------------------------------------

    def report_frame(
        self, fb: Framebuffer, echo_ack: int, now: float, srtt_ms: float
    ) -> None:
        """Validate predictions against a new authoritative frame."""
        self._observe_srtt(srtt_ms)
        wrong: list[_CellPrediction] = []
        done: list[tuple[int, int]] = []
        for key, pred in self._cells.items():
            validity = self._validity(fb, pred, echo_ack)
            if validity == _Validity.CORRECT:
                self._credit(pred, now)
                done.append(key)
            elif validity == _Validity.CORRECT_NO_CREDIT:
                # The screen agrees, but it already did — no proof the
                # application echoes, so the epoch stays unconfirmed.
                done.append(key)
            elif validity == _Validity.INCORRECT:
                wrong.append(pred)
        for key in done:
            del self._cells[key]
        if wrong:
            self._misprediction(now, any(p.displayed for p in wrong))
            return
        if self._cursor is not None and echo_ack >= self._cursor.input_index:
            if (fb.cursor_row, fb.cursor_col) != (
                self._cursor.row,
                self._cursor.col,
            ):
                self._misprediction(
                    now,
                    self.active()
                    and self._epoch_visible(self._cursor.tentative_until_epoch),
                )
            else:
                # A confirmed cursor move vouches for its epoch (this is
                # what lets typing continue uninterrupted across ENTER in
                # editors and chat clients).
                if self._cursor.tentative_until_epoch > self._confirmed_epoch:
                    self._confirmed_epoch = self._cursor.tentative_until_epoch
                self._cursor = None

    def _validity(
        self, fb: Framebuffer, pred: _CellPrediction, echo_ack: int
    ) -> _Validity:
        if pred.row >= fb.height or pred.col >= fb.width:
            return _Validity.INCORRECT
        current = fb.cell_at(pred.row, pred.col)
        predicted_blank = pred.replacement in ("", " ")
        if predicted_blank:
            matches = current.contents in ("", " ")
            already_matched = pred.original in ("", " ")
        else:
            matches = current.contents == pred.replacement
            already_matched = pred.original == pred.replacement
        if matches:
            if already_matched:
                return _Validity.CORRECT_NO_CREDIT
            return _Validity.CORRECT
        if echo_ack >= pred.input_index:
            return _Validity.INCORRECT
        return _Validity.PENDING

    def _credit(self, pred: _CellPrediction, now: float) -> None:
        self.stats.confirmed += 1
        if pred.tentative_until_epoch > self._confirmed_epoch:
            self._confirmed_epoch = pred.tentative_until_epoch
        elapsed = now - pred.prediction_time
        if elapsed > GLITCH_THRESHOLD_MS and not pred.displayed:
            # Confirmation was slow: predictions would have helped.
            self._glitch_trigger = min(
                self._glitch_trigger + 1, 2 * GLITCH_FLAG_THRESHOLD
            )
        elif (
            self._glitch_trigger > 0
            and now - self._last_quick_confirmation
            >= GLITCH_REPAIR_MININTERVAL_MS
        ):
            self._glitch_trigger -= 1
            self._last_quick_confirmation = now

    def _misprediction(self, now: float, was_displayed: bool) -> None:
        if was_displayed:
            self.stats.mispredicted += 1
        else:
            self.stats.background_misses += 1
        self._cells.clear()
        self._cursor = None
        self._become_tentative()
        if was_displayed:
            # A visible mistake: hold off showing tentative output again
            # until the epoch re-confirms.
            self._confirmed_epoch = min(
                self._confirmed_epoch, self._prediction_epoch - 1
            )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def apply(self, fb: Framebuffer) -> Framebuffer:
        """Overlay displayed predictions onto a copy of ``fb``."""
        if not self.active() or (not self._cells and self._cursor is None):
            return fb
        shown = fb.copy()
        underline = self.flagging()
        for pred in self._cells.values():
            if not self._epoch_visible(pred.tentative_until_epoch):
                continue
            pred.displayed = True
            if pred.row >= shown.height or pred.col >= shown.width:
                continue
            renditions = shown.cell_at(pred.row, pred.col).renditions
            if underline and pred.replacement:
                renditions = underlined(renditions)
            shown.set_cell(
                pred.row,
                pred.col,
                canonical_cell(pred.replacement, 1, renditions),
            )
        if self._cursor is not None and self._epoch_visible(
            self._cursor.tentative_until_epoch
        ):
            shown.cursor_row = min(self._cursor.row, shown.height - 1)
            shown.cursor_col = min(self._cursor.col, shown.width - 1)
        return shown

    def reset(self) -> None:
        """Forget all predictions (e.g. after a resize)."""
        self._cells.clear()
        self._cursor = None
        self._become_tentative()
