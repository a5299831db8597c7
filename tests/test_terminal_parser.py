"""Escape-sequence parser state machine.

The parser calls a handler rather than returning records, so these tests
drive it with :class:`Recorder`, a handler that rebuilds each call as a
tagged tuple (``Print``, ``Execute``, ``EscDispatch``, ``CsiDispatch``,
``OscDispatch``) to compare against.
"""

from collections import namedtuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terminal import parser as parser_module
from repro.terminal.emulator import Emulator, _param
from repro.terminal.parser import Parser


def _call(name, fields):
    """A tuple type for one handler method; the trailing ``kind`` tag keeps
    two calls with equal arguments but different methods unequal."""
    return namedtuple(name, [*fields, "kind"], defaults=[name])


Print = _call("Print", ["text"])
Execute = _call("Execute", ["byte"])
EscDispatch = _call("EscDispatch", ["intermediates", "final"])
CsiDispatch = _call("CsiDispatch", ["private", "params", "intermediates", "final"])
OscDispatch = _call("OscDispatch", ["text"])


class Recorder:
    """A parser handler that records every call it receives."""

    def __init__(self):
        self.calls = []

    def print_run(self, text):
        self.calls.append(Print(text))

    def execute(self, byte):
        self.calls.append(Execute(byte))

    def esc(self, intermediates, final):
        self.calls.append(EscDispatch(intermediates, final))

    def csi(self, private, params, intermediates, final):
        self.calls.append(CsiDispatch(private, params, intermediates, final))

    def osc(self, text):
        self.calls.append(OscDispatch(text))


def feed(parser, data: bytes):
    """The calls ``parser`` makes for one chunk of input."""
    recorder = Recorder()
    parser.input(data, recorder)
    return recorder.calls


def parse(data: bytes):
    return feed(Parser(), data)


def merge_prints(actions):
    """Join adjacent Print runs (where a run breaks depends on chunking)."""
    merged = []
    for action in actions:
        if merged and isinstance(action, Print) and isinstance(merged[-1], Print):
            merged[-1] = Print(merged[-1].text + action.text)
        else:
            merged.append(action)
    return merged


class TestPrinting:
    def test_ascii(self):
        actions = parse(b"hi")
        assert actions == [Print("hi")]

    def test_run_breaks_at_controls(self):
        assert parse(b"ab\r\ncd") == [
            Print("ab"),
            Execute(0x0D),
            Execute(0x0A),
            Print("cd"),
        ]

    def test_utf8_multibyte(self):
        actions = parse("héllo".encode("utf-8"))
        assert actions == [Print("héllo")]

    def test_utf8_split_across_feeds(self):
        parser = Parser()
        data = "中".encode("utf-8")
        assert feed(parser, data[:1]) == []
        assert feed(parser, data[1:]) == [Print("中")]

    def test_invalid_utf8_replaced(self):
        actions = parse(b"\xff")
        assert actions == [Print("�")]

    def test_del_ignored(self):
        assert parse(b"\x7f") == []


class TestControls:
    def test_c0_executed(self):
        assert parse(b"\x07") == [Execute(0x07)]
        assert parse(b"\r\n") == [Execute(0x0D), Execute(0x0A)]

    def test_c0_inside_csi(self):
        actions = parse(b"\x1b[2\x0aC")
        assert Execute(0x0A) in actions
        assert actions[-1].final == "C"


class TestEsc:
    def test_simple_dispatch(self):
        assert parse(b"\x1bM") == [EscDispatch("", "M")]

    def test_intermediate(self):
        assert parse(b"\x1b(0") == [EscDispatch("(", "0")]

    def test_deccsa_alignment(self):
        assert parse(b"\x1b#8") == [EscDispatch("#", "8")]

    def test_can_aborts(self):
        assert parse(b"\x1b\x18A") == [Print("A")]

    def test_esc_restarts_escape(self):
        actions = parse(b"\x1b\x1bM")
        assert actions == [EscDispatch("", "M")]


class TestCsi:
    def test_no_params(self):
        (action,) = parse(b"\x1b[H")
        assert action == CsiDispatch("", (), "", "H")

    def test_params(self):
        (action,) = parse(b"\x1b[5;10H")
        assert action.params == (5, 10)
        assert action.final == "H"

    def test_empty_params_are_none(self):
        (action,) = parse(b"\x1b[;5m")
        assert action.params == (None, 5)

    def test_param_defaulting(self):
        (action,) = parse(b"\x1b[0K")
        assert _param(action.params, 0, 1) == 1  # 0 maps to default
        assert action.params == (0,)  # raw keeps 0

    def test_private_marker(self):
        (action,) = parse(b"\x1b[?25h")
        assert action.private == "?"
        assert action.params == (25,)

    def test_gt_marker(self):
        (action,) = parse(b"\x1b[>c")
        assert action.private == ">"

    def test_intermediate(self):
        (action,) = parse(b"\x1b[!p")
        assert action.intermediates == "!"
        assert action.final == "p"

    def test_colon_separators(self):
        (action,) = parse(b"\x1b[38:5:196m")
        assert action.params == (38, 5, 196)

    def test_huge_param_clamped(self):
        (action,) = parse(b"\x1b[999999999A")
        assert action.params[0] == 0xFFFF

    def test_too_many_params_capped(self):
        data = b"\x1b[" + b"1;" * 64 + b"m"
        (action,) = parse(data)
        assert len(action.params) <= 32

    def test_non_ascii_superscript_digit_ignored(self):
        # "²".isdigit() is true but int("²") raises: the sequence must be
        # ignored, not crash the parser (or the session feeding it).
        assert parse("\x1b[²AX".encode()) == [Print("X")]
        Emulator(80, 24).write("\x1b[²A".encode())

    def test_non_ascii_decimal_digit_ignored(self):
        # Arabic-Indic three is a decimal digit to Python, not to ECMA-48.
        assert parse("\x1b[٣AX".encode()) == [Print("X")]
        e = Emulator(80, 24)
        e.write("\x1b[5;5H\x1b[٣A".encode())
        assert (e.fb.cursor_row, e.fb.cursor_col) == (4, 4)

    def test_csi_ignore_on_bad_byte(self):
        # '?' after params is invalid -> sequence consumed, nothing emitted
        actions = parse(b"\x1b[12?mX")
        assert actions == [Print("X")]


class TestOsc:
    def test_bel_terminated(self):
        (action,) = parse(b"\x1b]0;my title\x07")
        assert action == OscDispatch("0;my title")

    def test_st_terminated(self):
        (action,) = parse(b"\x1b]2;other\x1b\\")
        assert action == OscDispatch("2;other")

    def test_unterminated_swallows(self):
        assert parse(b"\x1b]0;never ends") == []

    def test_can_aborts_osc(self):
        actions = parse(b"\x1b]0;x\x18Y")
        assert actions == [Print("Y")]


class TestStringIgnore:
    def test_dcs_ignored(self):
        actions = parse(b"\x1bPsome dcs junk\x1b\\after")
        assert actions == [Print("after")]

    def test_apc_ignored(self):
        actions = parse(b"\x1b_payload\x1b\\X")
        assert actions == [Print("X")]


_SEQUENCE_PIECES = st.sampled_from(
    [
        b"\x1b[", b"\x1b", b"[", b"]", b"0", b"7", b"12", b"0000070000",
        b"9" * 12, b";", b":", b"?", b">", b" ", b"!", b"m", b"H", b"A",
        b"h", b"~", b"\x07", b"\x18", b"\n", b"\x7f", b"x", b"\x1bP",
        b"\x1b\\", "²".encode(), "中".encode(), b"\xc2",
    ]
)


class TestSequenceFastPath:
    """Whole CSI sequences are taken in one regex match when they arrive
    in one read; fed a byte at a time they walk the state machine. Both
    must give the same actions."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SEQUENCE_PIECES | st.binary(max_size=4), max_size=40))
    def test_whole_read_matches_byte_at_a_time(self, pieces):
        data = b"".join(pieces)
        whole = parse(data)
        parser = Parser()
        single = [a for i in range(len(data)) for a in feed(parser, data[i : i + 1])]
        assert merge_prints(whole) == merge_prints(single)

    def test_huge_parameter_does_not_raise(self):
        # int() refuses strings over 4300 digits; the parser must not.
        (action, after) = parse(b"\x1b[" + b"1" * 5000 + b"AX")
        assert action.params == (0xFFFF,)
        assert after == Print("X")

    def test_leading_zeros(self):
        (action,) = parse(b"\x1b[0000000005;000m")
        assert action.params == (5, 0)

    def test_separators_past_the_cap_are_not_split(self):
        # The unsplit remainder ("1;2" here) is dropped, never parsed.
        data = b"\x1b[" + b"7;" * 32 + b"1;2m"
        (action,) = parse(data)
        assert action.params == (7,) * 32
        parser = Parser()
        single = [a for i in range(len(data)) for a in feed(parser, data[i : i + 1])]
        assert single == [action]

    def test_a_flood_of_separators_yields_capped_params(self):
        (action, after) = parse(b"\x1b[" + b";" * 200_000 + b"mX")
        assert action.params == (None,) * 32
        assert after == Print("X")


_HOSTILE_CSI = st.builds(
    lambda digits, final: b"\x1b[" + digits.encode() + final,
    st.text(alphabet="0123456789;:", max_size=80),
    st.sampled_from([b"m", b"H", b"J", b"r", b"b", b"h"]),
)


class TestRobustness:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_HOSTILE_CSI | st.binary(max_size=60), max_size=30))
    def test_emulator_never_raises_and_the_param_memo_stays_bounded(self, pieces):
        memo = parser_module._params_memo
        # A small bound, so a few hostile sequences reach it.
        with mock.patch.object(parser_module, "PARAM_MEMO", 8), mock.patch.dict(
            memo, clear=True
        ):
            e = Emulator(20, 6)
            for piece in pieces:
                e.write(piece)
                assert len(memo) <= 8
            assert all(len(key) <= parser_module.PARAM_MEMO_KEY for key in memo)

    def test_param_memo_holds_its_bound_under_distinct_strings(self):
        e = Emulator(20, 6)
        for i in range(3 * parser_module.PARAM_MEMO):
            e.write(f"\x1b[{i};{i}m\x1b[{i}{'0' * 30}m".encode())
        memo = parser_module._params_memo
        assert len(memo) <= parser_module.PARAM_MEMO
        assert all(len(key) <= parser_module.PARAM_MEMO_KEY for key in memo)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300) | st.text(max_size=150).map(str.encode))
    def test_never_raises(self, data):
        parse(data)

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=200), st.integers(1, 10))
    def test_chunking_invariant(self, data, chunks):
        """Feeding in chunks gives the same actions as all at once (up to
        where Print runs break) and drives an emulator to the same screen."""
        whole = parse(data)
        parser = Parser()
        split = []
        size = max(1, len(data) // chunks)
        for i in range(0, len(data), size):
            split.extend(feed(parser, data[i : i + size]))
        assert merge_prints(whole) == merge_prints(split)
        assert all(action.text for action in split if isinstance(action, Print))
        fed_whole = Emulator(20, 6)
        fed_whole.write(data)
        fed_split = Emulator(20, 6)
        for i in range(0, len(data), size):
            fed_split.write(data[i : i + size])
        assert fed_whole.fb == fed_split.fb
