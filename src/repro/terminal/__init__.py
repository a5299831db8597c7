"""Character-cell terminal emulation (§3.1).

Mosh "contains a server-side terminal emulator and ... synchronize[s]
terminal screen states over the network". This package implements the
ISO/IEC 6429 / ECMA-48 subset used by xterm-class emulators:

* :mod:`repro.terminal.parser` — the escape-sequence state machine;
* :mod:`repro.terminal.emulator` — the parser's handler: drives a
  framebuffer;
* :mod:`repro.terminal.framebuffer` — the grid of styled cells plus cursor
  and mode state;
* :mod:`repro.terminal.display` — computes the minimal ANSI byte string
  that transforms one frame into another (the screen-state "diff");
* :mod:`repro.terminal.complete` — the SSP state object combining the
  emulator with the 50 ms echo-ack (§3.2).
"""

from repro.terminal.cell import Cell
from repro.terminal.complete import Complete
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.renditions import Renditions

__all__ = [
    "Cell",
    "Complete",
    "Display",
    "Emulator",
    "Framebuffer",
    "Renditions",
]
