"""Escape-sequence parser.

A port of the classic VT500-series state machine (the same design Mosh,
xterm, and libvterm use): bytes are first decoded from UTF-8 incrementally,
then walked through states that emit actions — print a run of text,
execute a C0 control, or dispatch an ESC / CSI / OSC sequence. Malformed
input never raises; unrecognized sequences are consumed and ignored, which
is what real terminals do.

Printable text is the bulk of host output, so the ground state does not
walk it a character at a time: one regex match takes the maximal run of
printable characters at the read position and emits it as a single
:class:`Print`. A complete, well-formed CSI sequence is likewise taken in
one match. Everything else — other escapes, strings, controls, and any
sequence split across two reads — goes through the state machine one
character at a time, which yields the same actions.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Print:
    """Print ``text``, a non-empty run of printable characters."""

    text: str


@dataclass(frozen=True)
class Execute:
    byte: int  # C0 control code


@dataclass(frozen=True)
class EscDispatch:
    intermediates: str
    final: str


@dataclass(frozen=True)
class CsiDispatch:
    private: str  # '?', '>', '<', '=' or ''
    params: tuple[int | None, ...]
    intermediates: str
    final: str

    def param(self, index: int, default: int) -> int:
        """Parameter ``index`` with ECMA-48 defaulting (0 → default too)."""
        if index >= len(self.params):
            return default
        value = self.params[index]
        if value is None or value == 0:
            return default
        return value

    def raw_param(self, index: int, default: int) -> int:
        """Parameter with only missing/None defaulted (0 stays 0)."""
        if index >= len(self.params):
            return default
        value = self.params[index]
        return default if value is None else value


@dataclass(frozen=True)
class OscDispatch:
    text: str


Action = Print | Execute | EscDispatch | CsiDispatch | OscDispatch


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
    """Incremental parser: feed bytes, receive a list of actions."""

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

    def input(self, data: bytes) -> list[Action]:
        """Parse a chunk of host output (may end mid-sequence).

        Each maximal run of printable characters met in the ground state
        becomes one :class:`Print`; a run split across two calls comes out
        as two.
        """
        actions: list[Action] = []
        text = self._decoder.decode(data)
        consume = self._consume
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if self._state == _GROUND:
                if ch >= " " and ch != "\x7f":
                    run = _PRINTABLE_RUN.match(text, i)
                    actions.append(Print(run.group()))
                    i = run.end()
                    continue
                if ch == "\x1b":
                    csi = _CSI_SEQUENCE.match(text, i)
                    if csi is not None:
                        private, digits, intermediates, final = csi.groups()
                        params = (
                            tuple(map(_param_value, _PARAM_SEPARATOR.split(digits)))
                            if digits
                            else ()
                        )
                        actions.append(
                            CsiDispatch(private, params[:_MAX_PARAMS], intermediates, final)
                        )
                        i = csi.end()
                        continue
            consume(ch, actions)
            i += 1
        return actions

    # ------------------------------------------------------------------

    def _consume(self, ch: str, out: list[Action]) -> None:
        code = ord(ch)
        state = self._state

        # String-collecting states handle controls specially.
        if state == _OSC_STRING:
            self._consume_osc(ch, code, out)
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
            out.append(Execute(code))
            return
        if code == 0x7F:
            return  # DEL is ignored

        # Printable text in the ground state never gets here: input()
        # takes it as whole runs.
        if state == _ESCAPE:
            self._in_escape(ch, code, out)
        elif state == _ESCAPE_INTERMEDIATE:
            if 0x20 <= code <= 0x2F:
                self._intermediates += ch
            else:
                out.append(EscDispatch(self._intermediates, ch))
                self._state = _GROUND
        elif state == _CSI_ENTRY:
            self._in_csi_entry(ch, code, out)
        elif state == _CSI_PARAM:
            self._in_csi_param(ch, code, out)
        elif state == _CSI_INTERMEDIATE:
            if 0x20 <= code <= 0x2F:
                self._intermediates += ch
            elif 0x40 <= code <= 0x7E:
                self._dispatch_csi(ch, out)
            else:
                self._state = _CSI_IGNORE
        elif state == _CSI_IGNORE:
            if 0x40 <= code <= 0x7E:
                self._state = _GROUND

    # ------------------------------------------------------------------

    def _in_escape(self, ch: str, code: int, out: list[Action]) -> None:
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
            out.append(EscDispatch("", ch))
            self._state = _GROUND
        else:
            self._state = _GROUND

    # ------------------------------------------------------------------

    def _push_param(self) -> None:
        if len(self._params) < _MAX_PARAMS:
            self._params.append(_param_value(self._param_digits))
        self._param_digits = ""

    def _in_csi_entry(self, ch: str, code: int, out: list[Action]) -> None:
        if 0x3C <= code <= 0x3F:  # < = > ?
            self._private = ch
            self._state = _CSI_PARAM
        elif "0" <= ch <= "9" or ch == ";" or ch == ":":
            self._state = _CSI_PARAM
            self._in_csi_param(ch, code, out)
        elif 0x20 <= code <= 0x2F:
            self._intermediates += ch
            self._state = _CSI_INTERMEDIATE
        elif 0x40 <= code <= 0x7E:
            self._dispatch_csi(ch, out)
        else:
            self._state = _CSI_IGNORE

    def _in_csi_param(self, ch: str, code: int, out: list[Action]) -> None:
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
            self._dispatch_csi(ch, out)
        else:
            self._state = _CSI_IGNORE

    def _dispatch_csi(self, final: str, out: list[Action]) -> None:
        if self._param_digits or self._params:
            self._push_param()
        out.append(
            CsiDispatch(
                private=self._private,
                params=tuple(self._params),
                intermediates=self._intermediates,
                final=final,
            )
        )
        self._state = _GROUND

    # ------------------------------------------------------------------

    def _consume_osc(self, ch: str, code: int, out: list[Action]) -> None:
        if self._osc_esc_pending:
            self._osc_esc_pending = False
            if ch == "\\":  # ST
                out.append(OscDispatch(self._osc))
                self._state = _GROUND
                return
            # ESC followed by something else: abort the string, reprocess.
            self._state = _ESCAPE
            self._intermediates = ""
            self._consume(ch, out)
            return
        if code == 0x07:  # BEL terminator
            out.append(OscDispatch(self._osc))
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
