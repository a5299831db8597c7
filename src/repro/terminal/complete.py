"""Complete: the terminal state object SSP synchronizes to the client.

Combines the emulated framebuffer with the paper's server-side echo
acknowledgment (§3.2): the state carries an ``echo_ack`` field naming the
latest user input that has been presented to the application for at least
50 ms, "and whose effects ought to be reflected in the current screen."
The client validates its speculative echoes against this field rather than
running timeouts of its own, so network jitter cannot cause flicker.

The wire diff is a sequence of sections::

    1 byte  section type     (1=resize, 2=display bytes, 3=echo ack, 4=bell)
    4 bytes payload length
    N bytes payload

Display bytes are exactly :meth:`repro.terminal.display.Display.new_frame`
output; applying them to a content-equal framebuffer reproduces the target
frame.
"""

from __future__ import annotations

import itertools
import struct
from collections import deque

from repro.errors import StateError
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.parser import Parser
from repro.transport.state import StateObject

#: "A server-side timeout of 50 ms, chosen to contain the vast majority of
#: legitimate application echoes on loaded servers" (§3.2).
ECHO_TIMEOUT_MS = 50.0

_SECTION = struct.Struct("!BI")
_RESIZE = 1
_DISPLAY = 2
_ECHO_ACK = 3
_BELL = 4

_version_counter = itertools.count(1)


class Complete(StateObject):
    """Terminal emulator + echo ack, as a synchronizable state object."""

    def __init__(self, width: int = 80, height: int = 24) -> None:
        self._emulator = Emulator(width, height)
        self.echo_ack = 0
        # (input index, arrival time) pairs not yet covered by echo_ack;
        # server-side bookkeeping, not part of the synchronized state.
        self._input_log: deque[tuple[int, float]] = deque()
        self._version = next(_version_counter)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def fb(self) -> Framebuffer:
        return self._emulator.fb

    @property
    def emulator(self) -> Emulator:
        return self._emulator

    # ------------------------------------------------------------------
    # Server-side mutation
    # ------------------------------------------------------------------

    def act(self, host_bytes: bytes) -> None:
        """Interpret host output (writes from the application)."""
        if not host_bytes:
            return
        self._emulator.write(host_bytes)
        self._version = next(_version_counter)

    def resize(self, width: int, height: int) -> None:
        """Resize the terminal (driven by the client's Resize event)."""
        self._emulator.resize(width, height)
        self._version = next(_version_counter)

    def drain_terminal_replies(self) -> bytes:
        """Responses to host queries (DSR/DA), to feed back to the pty."""
        return self._emulator.drain_outbox()

    def register_input(self, input_index: int, now: float) -> None:
        """Record that user input ``input_index`` reached the application."""
        self._input_log.append((input_index, now))

    def set_echo_ack(self, now: float) -> list[float]:
        """Advance echo_ack past inputs older than the 50 ms timeout.

        Returns the arrival times of the inputs this call retired, empty
        unless the state changed (the server then owes the client a
        frame, "often an extra datagram 50 ms after a keystroke").
        """
        advanced = False
        retired: list[float] = []
        while self._input_log and now - self._input_log[0][1] >= ECHO_TIMEOUT_MS:
            index, arrived = self._input_log.popleft()
            retired.append(arrived)
            if index > self.echo_ack:
                self.echo_ack = index
                advanced = True
        if not advanced:
            return []
        self._version = next(_version_counter)
        return retired

    def next_echo_ack_time(self) -> float | None:
        """When set_echo_ack next needs to run (None if nothing pending).

        Padded past the exact threshold so an event scheduled at this time
        is guaranteed to satisfy ``now - arrival >= ECHO_TIMEOUT_MS`` even
        after floating-point rounding (a zero-delay rescheduling loop
        otherwise pins a simulated clock in place).
        """
        if not self._input_log:
            return None
        return self._input_log[0][1] + ECHO_TIMEOUT_MS + 0.01

    # ------------------------------------------------------------------
    # StateObject interface
    # ------------------------------------------------------------------

    def copy(self) -> "Complete":
        """Snapshot this state (fresh parser; history stays with the live
        terminal). O(height) — rows are shared copy-on-write."""
        dup = Complete.__new__(Complete)
        dup._emulator = Emulator.__new__(Emulator)
        dup._emulator.fb = self.fb.copy()
        dup._emulator._parser = Parser()  # fresh parser: diffs are
        dup._emulator.outbox = bytearray()  # whole sequences, never split
        dup._emulator._g0 = self._emulator._g0
        dup._emulator._g1 = self._emulator._g1
        dup._emulator._shift = self._emulator._shift
        dup._emulator._pen_cells_for = None
        dup.echo_ack = self.echo_ack
        dup._input_log = deque()  # bookkeeping stays with the original
        dup._version = self._version
        return dup

    def diff_from(self, source: "Complete") -> bytes:
        """The sectioned wire diff that takes ``source`` to this state."""
        out = bytearray()
        same_size = (source.fb.width, source.fb.height) == (
            self.fb.width,
            self.fb.height,
        )
        if not same_size:
            payload = struct.pack("!HH", self.fb.width, self.fb.height)
            out += _SECTION.pack(_RESIZE, len(payload)) + payload
        if not same_size or source.fb != self.fb:
            display = Display.new_frame(source.fb if same_size else None, self.fb)
            out += _SECTION.pack(_DISPLAY, len(display)) + display
        if source.echo_ack != self.echo_ack:
            payload = struct.pack("!Q", self.echo_ack)
            out += _SECTION.pack(_ECHO_ACK, len(payload)) + payload
        if source.fb.bell_count != self.fb.bell_count:
            payload = struct.pack("!Q", self.fb.bell_count)
            out += _SECTION.pack(_BELL, len(payload)) + payload
        return bytes(out)

    def apply_diff(self, diff: bytes) -> None:
        """Apply a diff produced by :meth:`diff_from`."""
        offset = 0
        n = len(diff)
        while offset < n:
            if offset + _SECTION.size > n:
                raise StateError("truncated section header")
            kind, length = _SECTION.unpack_from(diff, offset)
            offset += _SECTION.size
            if offset + length > n:
                raise StateError("truncated section payload")
            payload = diff[offset : offset + length]
            offset += length
            if kind == _RESIZE:
                width, height = struct.unpack("!HH", payload)
                self._emulator.resize(width, height)
            elif kind == _DISPLAY:
                self._emulator.write(payload)
            elif kind == _ECHO_ACK:
                (self.echo_ack,) = struct.unpack("!Q", payload)
            elif kind == _BELL:
                (self.fb.bell_count,) = struct.unpack("!Q", payload)
            else:
                raise StateError(f"unknown section type {kind}")
        self._version = next(_version_counter)

    def fingerprint(self) -> int:
        """Lineage version counter (equal values imply equal states)."""
        return self._version

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complete):
            return NotImplemented
        return (
            self.echo_ack == other.echo_ack
            and self.fb.bell_count == other.fb.bell_count
            and self.fb == other.fb
        )

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Complete({self.fb!r}, echo_ack={self.echo_ack})"
