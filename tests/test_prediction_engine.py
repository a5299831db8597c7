"""The speculative-echo engine: epochs, confidence, validation, repair."""

from dataclasses import replace

from repro.prediction.engine import (
    FLAG_TRIGGER_HIGH,
    SRTT_TRIGGER_HIGH,
    DisplayPreference,
    PredictionEngine,
)
from repro.terminal.emulator import Emulator

FAST = 10.0  # below every trigger
SLOW = 200.0  # above every trigger


def typed(engine, fb, text: bytes, start_index=1, now=0.0, srtt=SLOW):
    flags = []
    for i, byte in enumerate(text):
        flags.append(
            engine.new_user_byte(byte, fb, now + i, start_index + i, srtt)
        )
    return flags


class TestConfidence:
    def test_inactive_on_fast_links(self):
        engine = PredictionEngine()
        e = Emulator(20, 5)
        typed(engine, e.fb, b"a", srtt=FAST)
        assert not engine.active()

    def test_active_on_slow_links(self):
        engine = PredictionEngine()
        e = Emulator(20, 5)
        typed(engine, e.fb, b"a", srtt=SRTT_TRIGGER_HIGH + 1)
        assert engine.active()

    def test_hysteresis_holds_while_predictions_outstanding(self):
        engine = PredictionEngine()
        e = Emulator(20, 5)
        typed(engine, e.fb, b"a", srtt=SLOW)
        assert engine.active()
        # RTT improves but a prediction is pending: stay active.
        engine.report_frame(e.fb, echo_ack=0, now=10.0, srtt_ms=5.0)
        assert engine.active()

    def test_flagging_above_flag_trigger(self):
        engine = PredictionEngine()
        e = Emulator(20, 5)
        typed(engine, e.fb, b"a", srtt=FLAG_TRIGGER_HIGH + 1)
        assert engine.flagging()

    def test_never_preference(self):
        engine = PredictionEngine(DisplayPreference.NEVER)
        e = Emulator(20, 5)
        flags = typed(engine, e.fb, b"abc")
        assert flags == [False, False, False]
        assert not engine.active()

    def test_always_preference(self):
        engine = PredictionEngine(DisplayPreference.ALWAYS)
        assert engine.active()


class TestEpochs:
    def _confirmed_engine(self):
        """Engine whose first prediction has been confirmed."""
        engine = PredictionEngine()
        server = Emulator(40, 8)
        typed(engine, server.fb, b"x", start_index=1)
        server.write(b"x")  # the echo arrives
        engine.report_frame(server.fb, echo_ack=1, now=100.0, srtt_ms=SLOW)
        return engine, server

    def test_first_epoch_is_tentative(self):
        engine = PredictionEngine()
        e = Emulator(40, 8)
        flags = typed(engine, e.fb, b"hello")
        assert flags == [False] * 5  # nothing confirmed yet

    def test_confirmation_reveals_epoch(self):
        engine, server = self._confirmed_engine()
        flags = typed(engine, server.fb, b"more", start_index=2, now=200.0)
        assert flags == [True] * 4

    def test_control_chars_break_epoch(self):
        engine, server = self._confirmed_engine()
        engine.new_user_byte(0x1B, server.fb, 200.0, 2, SLOW)  # ESC
        flags = typed(engine, server.fb, b"zz", start_index=3, now=201.0)
        assert flags == [False, False]

    def test_up_arrow_bytes_break_epoch(self):
        engine, server = self._confirmed_engine()
        for i, byte in enumerate(b"\x1b[A"):
            engine.new_user_byte(byte, server.fb, 200.0, 2 + i, SLOW)
        assert typed(engine, server.fb, b"q", start_index=5) == [False]

    def test_word_wrap_goes_tentative(self):
        engine, server = self._confirmed_engine()
        server.write(b"\x1b[1;39H")  # next-to-last column of 40-wide term
        engine._cursor = None  # re-anchor to the real cursor
        flags = typed(engine, server.fb, b"ab", start_index=2)
        assert flags[1] is False  # the wrapping char is never guessed


class TestValidation:
    def test_correct_prediction_confirmed(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        typed(engine, server.fb, b"k")
        server.write(b"k")
        engine.report_frame(server.fb, echo_ack=1, now=50.0, srtt_ms=SLOW)
        assert engine.stats.confirmed == 1
        assert engine.stats.mispredicted == 0

    def test_wrong_hidden_prediction_is_background_miss(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        typed(engine, server.fb, b"n")  # tentative epoch
        server.write(b"\x1b[2;1Hdifferent")  # screen changed elsewhere
        engine.report_frame(server.fb, echo_ack=1, now=50.0, srtt_ms=SLOW)
        assert engine.stats.background_misses == 1
        assert engine.stats.mispredicted == 0

    def test_wrong_displayed_prediction_counts(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        # Confirm the epoch with a real echo first.
        typed(engine, server.fb, b"a", start_index=1)
        server.write(b"a")
        engine.report_frame(server.fb, echo_ack=1, now=10.0, srtt_ms=SLOW)
        # Next keystroke displays instantly, but the app echoes something
        # else (e.g. the line wrapped).
        flags = typed(engine, server.fb, b"b", start_index=2, now=20.0)
        assert flags == [True]
        server.write(b"Z")
        engine.report_frame(server.fb, echo_ack=2, now=40.0, srtt_ms=SLOW)
        assert engine.stats.mispredicted == 1

    def test_pending_until_echo_ack(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        typed(engine, server.fb, b"p")
        # Frame arrives without the echo, but echo_ack doesn't cover it:
        # the prediction must survive (no flicker — §3.2).
        engine.report_frame(server.fb, echo_ack=0, now=50.0, srtt_ms=SLOW)
        assert engine.stats.background_misses == 0
        assert engine.stats.confirmed == 0

    def test_match_without_change_gives_no_credit(self):
        """A guess matching pre-existing screen content must not confirm
        the epoch (the mail-reader trap)."""
        engine = PredictionEngine()
        server = Emulator(40, 8)
        server.write(b"n")  # screen already shows 'n' at (0,0)
        server.write(b"\x1b[1;1H")
        typed(engine, server.fb, b"n")
        engine.report_frame(server.fb, echo_ack=1, now=50.0, srtt_ms=SLOW)
        flags = typed(engine, server.fb, b"n", start_index=2)
        assert flags == [False]  # epoch was never confirmed


class TestBackspaceAndCr:
    def test_backspace_predicts_erasure(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        server.write(b"ab")
        engine.new_user_byte(0x7F, server.fb, 0.0, 1, SLOW)
        engine.apply(server.fb)
        # engine is active (slow link) but epoch tentative: not drawn yet
        server.write(b"\x08 \x08")
        engine.report_frame(server.fb, echo_ack=1, now=50.0, srtt_ms=SLOW)
        assert engine.stats.confirmed == 1

    def test_cr_newline_confirmation(self):
        """A confirmed CR cursor move vouches for the new epoch."""
        engine = PredictionEngine()
        server = Emulator(40, 8)
        engine.new_user_byte(0x0D, server.fb, 0.0, 1, SLOW)
        server.write(b"\r\n")
        engine.report_frame(server.fb, echo_ack=1, now=60.0, srtt_ms=SLOW)
        flags = typed(engine, server.fb, b"next", start_index=2, now=70.0)
        assert flags == [True] * 4


class TestRendering:
    def test_apply_overlays_prediction(self):
        engine = PredictionEngine(DisplayPreference.ALWAYS)
        server = Emulator(40, 8)
        engine._confirmed_epoch = engine._prediction_epoch  # force visible
        typed(engine, server.fb, b"Q", srtt=SLOW)
        shown = engine.apply(server.fb)
        assert shown.cell_at(0, 0).contents == "Q"
        assert shown.cursor_col == 1
        assert server.fb.cell_at(0, 0).contents == ""  # original untouched

    def test_underline_when_flagging(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        engine._confirmed_epoch = engine._prediction_epoch
        typed(engine, server.fb, b"u", srtt=FLAG_TRIGGER_HIGH + 20)
        shown = engine.apply(server.fb)
        assert shown.cell_at(0, 0).renditions.underlined

    def test_underlined_pen_is_the_canonical_sgr_4_pen(self):
        """A flagged prediction draws in the pen the host's own SGR 4 would
        select from the cell's pen: equal in value, and the same object."""
        engine = PredictionEngine()
        server = Emulator(40, 8)
        server.write(b"\x1b[1;32mab\x1b[H")
        bold_green = server.fb.pen
        engine._confirmed_epoch = engine._prediction_epoch
        typed(engine, server.fb, b"u", srtt=FLAG_TRIGGER_HIGH + 20)
        host = Emulator(40, 8)
        host.write(b"\x1b[1;32m\x1b[4m")
        for _ in range(2):  # the second display hits the memo
            pen = engine.apply(server.fb).cell_at(0, 0).renditions
            assert pen == replace(bold_green, underlined=True)
            assert pen is host.fb.pen

    def test_no_underline_below_flag_trigger(self):
        engine = PredictionEngine()
        server = Emulator(40, 8)
        engine._confirmed_epoch = engine._prediction_epoch
        typed(engine, server.fb, b"u", srtt=40.0)  # active but not flagging
        shown = engine.apply(server.fb)
        assert not shown.cell_at(0, 0).renditions.underlined

    def test_repair_within_frame(self):
        """A wrong displayed guess disappears when the frame lands."""
        engine = PredictionEngine()
        server = Emulator(40, 8)
        typed(engine, server.fb, b"a", start_index=1)
        server.write(b"a")
        engine.report_frame(server.fb, echo_ack=1, now=10.0, srtt_ms=SLOW)
        typed(engine, server.fb, b"b", start_index=2, now=20.0)
        server.write(b"X")
        engine.report_frame(server.fb, echo_ack=2, now=50.0, srtt_ms=SLOW)
        shown = engine.apply(server.fb)
        assert shown.cell_at(0, 1).contents == "X"  # repaired

    def test_reset_clears_everything(self):
        engine = PredictionEngine(DisplayPreference.ALWAYS)
        server = Emulator(40, 8)
        typed(engine, server.fb, b"abc")
        engine.reset()
        shown = engine.apply(server.fb)
        assert shown.cell_at(0, 0).contents == ""
