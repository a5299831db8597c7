"""Escape-sequence parser.

A port of the classic VT500-series state machine (the same design Mosh,
xterm, and libvterm use): bytes are first decoded from UTF-8 incrementally,
then walked through states that call a :class:`Handler` — print a run of
text, execute a C0 control, or dispatch an ESC / CSI / OSC sequence.
Malformed input never raises; unrecognized sequences are consumed and
ignored, which is what real terminals do.

The handler is an argument of each :meth:`Parser.input` call, never
stored: a parser holds no reference to the emulator it drives.

Printable text is the bulk of host output, so the ground state does not
walk it a character at a time: one regex match takes the maximal run of
printable characters at the read position and hands it to
``print_run``. A C0 control in the ground state executes at once, and a
complete, well-formed CSI sequence is taken in one match; its parameter
string is parsed once per distinct string, through a bounded memo.
Everything else — other escapes, strings, and any sequence split across
two reads — goes through the state machine one character at a time,
which makes the same calls.
"""

from __future__ import annotations

import codecs
import re
from typing import Protocol

_MAX_PARAMS = 32
_MAX_OSC = 4096

#: A maximal run of characters the ground state prints: everything except
#: the C0 controls and DEL.
_PRINTABLE_RUN = re.compile(r"[^\x00-\x1f\x7f]+")

#: A CSI sequence the state machine would dispatch without detour: an
#: optional private marker, parameters, intermediates, then the final byte.
#: Anything else inside (controls, a misplaced marker) falls through to the
#: state machine.
_CSI_SEQUENCE = re.compile(r"\x1b\[([<-?]?)([0-9;:]*)([ -/]*)([@-~])")
_PARAM_SEPARATOR = re.compile(r"[;:]")

#: Parsed CSI parameter strings, shared by every parser: the client applies
#: each diff through a fresh snapshot's parser. Cursor moves (``row;col``)
#: dominate the distinct strings; an 80x24 screen has 1,920 of them, so the
#: memo holds ``PARAM_MEMO`` entries and empties when full. Only strings of
#: at most ``PARAM_MEMO_KEY`` characters are stored, so a host cannot grow it.
PARAM_MEMO = 2048
PARAM_MEMO_KEY = 16
_params_memo: dict[str, tuple[int | None, ...]] = {}


class Handler(Protocol):
    """What the parser calls; :class:`~repro.terminal.emulator.Emulator`
    is the one in use.

    ``print_run(text)`` gets a non-empty run of printable characters,
    ``execute(byte)`` a C0 control code, ``esc(intermediates, final)`` an
    ESC sequence and ``osc(text)`` an OSC string. ``csi(private, params,
    intermediates, final)`` gets a CSI sequence: ``private`` is ``'?'``,
    ``'>'``, ``'<'``, ``'='`` or ``''``, and ``params`` a tuple of at most
    32 values, each ``None`` when empty and otherwise at most 0xFFFF
    (colon sub-parameters are flattened into it).
    """

    def print_run(self, text: str) -> None: ...
    def execute(self, byte: int) -> None: ...
    def esc(self, intermediates: str, final: str) -> None: ...
    def csi(self, private: str, params: tuple, intermediates: str, final: str) -> None: ...
    def osc(self, text: str) -> None: ...


def _param_value(digits: str) -> int | None:
    """A CSI parameter: None when empty, else clamped to 0xFFFF.

    Never hands int() more than five digits, so a host cannot make it
    raise (it refuses strings over 4300 digits) or spend time on bignums.
    """
    if not digits:
        return None
    digits = digits.lstrip("0")
    if len(digits) > 5:
        return 0xFFFF
    return min(int(digits or "0"), 0xFFFF)


def _csi_params(digits: str) -> tuple[int | None, ...]:
    """The parameters of a whole CSI parameter string, memoised if short.

    Splits off at most ``_MAX_PARAMS`` of them, so a string of any length
    costs one bounded split; the unsplit remainder is dropped.
    """
    params = ()
    if digits:
        pieces = _PARAM_SEPARATOR.split(digits, _MAX_PARAMS)[:_MAX_PARAMS]
        params = tuple(map(_param_value, pieces))
    if len(digits) <= PARAM_MEMO_KEY:
        if len(_params_memo) >= PARAM_MEMO:
            _params_memo.clear()
        _params_memo[digits] = params
    return params


# Parser states.
_GROUND = 0
_ESCAPE = 1
_ESCAPE_INTERMEDIATE = 2
_CSI_ENTRY = 3
_CSI_PARAM = 4
_CSI_INTERMEDIATE = 5
_CSI_IGNORE = 6
_OSC_STRING = 7
_STRING_IGNORE = 8  # DCS / SOS / PM / APC


class Parser:
    """Incremental parser: feed bytes and a handler to call."""

    def __init__(self) -> None:
        self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self._state = _GROUND
        self._intermediates = ""
        self._private = ""
        self._params: list[int | None] = []
        self._osc = ""
        self._osc_esc_pending = False
        self._param_digits = ""

    # ------------------------------------------------------------------

    def input(self, data: bytes, handler: Handler) -> None:
        """Parse a chunk of host output (may end mid-sequence) into calls
        on ``handler``.

        Each maximal run of printable characters met in the ground state
        is one ``print_run``; a run split across two calls comes out as
        two.
        """
        text = self._decoder.decode(data)
        print_run = handler.print_run
        execute = handler.execute
        csi = handler.csi
        memo = _params_memo
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if self._state == _GROUND:
                if ch >= " ":
                    if ch != "\x7f":
                        run = _PRINTABLE_RUN.match(text, i)
                        print_run(run.group())
                        i = run.end()
                        continue
                elif ch == "\x1b":
                    seq = _CSI_SEQUENCE.match(text, i)
                    if seq is not None:
                        private, digits, intermediates, final = seq.groups()
                        params = memo.get(digits)
                        if params is None:
                            params = _csi_params(digits)
                        csi(private, params, intermediates, final)
                        i = seq.end()
                        continue
                elif ch != "\x18" and ch != "\x1a":
                    execute(ord(ch))
                    i += 1
                    continue
            self._consume(ch, handler)
            i += 1

    # ------------------------------------------------------------------

    def _consume(self, ch: str, handler: Handler) -> None:
        code = ord(ch)
        state = self._state

        # String-collecting states handle controls specially.
        if state == _OSC_STRING:
            self._consume_osc(ch, code, handler)
            return
        if state == _STRING_IGNORE:
            self._consume_string_ignore(ch, code)
            return

        # CAN and SUB abort any sequence; ESC restarts one.
        if code == 0x18 or code == 0x1A:
            self._state = _GROUND
            return
        if code == 0x1B:
            self._state = _ESCAPE
            self._intermediates = ""
            return
        # Other C0 controls execute immediately, even inside sequences.
        if code < 0x20:
            handler.execute(code)
            return
        if code == 0x7F:
            return  # DEL is ignored

        # Printable text in the ground state never gets here: input()
        # takes it as whole runs.
        if state == _ESCAPE:
            self._in_escape(ch, code, handler)
        elif state == _ESCAPE_INTERMEDIATE:
            if 0x20 <= code <= 0x2F:
                self._intermediates += ch
            else:
                handler.esc(self._intermediates, ch)
                self._state = _GROUND
        elif state == _CSI_ENTRY:
            self._in_csi_entry(ch, code, handler)
        elif state == _CSI_PARAM:
            self._in_csi_param(ch, code, handler)
        elif state == _CSI_INTERMEDIATE:
            if 0x20 <= code <= 0x2F:
                self._intermediates += ch
            elif 0x40 <= code <= 0x7E:
                self._dispatch_csi(ch, handler)
            else:
                self._state = _CSI_IGNORE
        elif state == _CSI_IGNORE:
            if 0x40 <= code <= 0x7E:
                self._state = _GROUND

    # ------------------------------------------------------------------

    def _in_escape(self, ch: str, code: int, handler: Handler) -> None:
        if ch == "[":
            self._state = _CSI_ENTRY
            self._private = ""
            self._params = []
            self._intermediates = ""
            self._param_digits = ""
        elif ch == "]":
            self._state = _OSC_STRING
            self._osc = ""
            self._osc_esc_pending = False
        elif ch in "PX^_":
            self._state = _STRING_IGNORE
            self._osc_esc_pending = False
        elif 0x20 <= code <= 0x2F:
            self._intermediates = ch
            self._state = _ESCAPE_INTERMEDIATE
        elif 0x30 <= code <= 0x7E:
            handler.esc("", ch)
            self._state = _GROUND
        else:
            self._state = _GROUND

    # ------------------------------------------------------------------

    def _push_param(self) -> None:
        if len(self._params) < _MAX_PARAMS:
            self._params.append(_param_value(self._param_digits))
        self._param_digits = ""

    def _in_csi_entry(self, ch: str, code: int, handler: Handler) -> None:
        if 0x3C <= code <= 0x3F:  # < = > ?
            self._private = ch
            self._state = _CSI_PARAM
        elif "0" <= ch <= "9" or ch == ";" or ch == ":":
            self._state = _CSI_PARAM
            self._in_csi_param(ch, code, handler)
        elif 0x20 <= code <= 0x2F:
            self._intermediates += ch
            self._state = _CSI_INTERMEDIATE
        elif 0x40 <= code <= 0x7E:
            self._dispatch_csi(ch, handler)
        else:
            self._state = _CSI_IGNORE

    def _in_csi_param(self, ch: str, code: int, handler: Handler) -> None:
        # Only ASCII digits: str.isdigit() also accepts "²" and "٣", which
        # int() rejects or reads as a number no terminal would.
        if "0" <= ch <= "9":
            self._param_digits += ch
        elif ch == ";" or ch == ":":
            # Colon sub-parameters (SGR 38:5:n) are flattened, which the
            # SGR handler copes with.
            self._push_param()
        elif 0x20 <= code <= 0x2F:
            self._intermediates += ch
            self._state = _CSI_INTERMEDIATE
        elif 0x3C <= code <= 0x3F:
            self._state = _CSI_IGNORE
        elif 0x40 <= code <= 0x7E:
            self._dispatch_csi(ch, handler)
        else:
            self._state = _CSI_IGNORE

    def _dispatch_csi(self, final: str, handler: Handler) -> None:
        if self._param_digits or self._params:
            self._push_param()
        handler.csi(self._private, tuple(self._params), self._intermediates, final)
        self._state = _GROUND

    # ------------------------------------------------------------------

    def _consume_osc(self, ch: str, code: int, handler: Handler) -> None:
        if self._osc_esc_pending:
            self._osc_esc_pending = False
            if ch == "\\":  # ST
                handler.osc(self._osc)
                self._state = _GROUND
                return
            # ESC followed by something else: abort the string, reprocess.
            self._state = _ESCAPE
            self._intermediates = ""
            self._consume(ch, handler)
            return
        if code == 0x07:  # BEL terminator
            handler.osc(self._osc)
            self._state = _GROUND
        elif code == 0x1B:
            self._osc_esc_pending = True
        elif code == 0x18 or code == 0x1A:
            self._state = _GROUND
        elif code >= 0x20 and len(self._osc) < _MAX_OSC:
            self._osc += ch

    def _consume_string_ignore(self, ch: str, code: int) -> None:
        if self._osc_esc_pending:
            self._osc_esc_pending = False
            if ch == "\\":
                self._state = _GROUND
                return
            if ch == "[":
                # Treat as a fresh CSI after an aborted string.
                self._state = _CSI_ENTRY
                self._private = ""
                self._params = []
                self._intermediates = ""
                self._param_digits = ""
                return
            self._state = _GROUND
            return
        if code == 0x1B:
            self._osc_esc_pending = True
        elif code == 0x07 or code == 0x18 or code == 0x1A:
            self._state = _GROUND
