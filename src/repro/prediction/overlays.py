"""Client-side overlays beyond predictions: the notification bar.

One of SSP's design goals is "to allow the client to warn the user when it
hasn't recently heard from the server" (§2.2) — the heartbeat exists partly
so this warning can be prompt. Like Mosh, the client draws a reverse-video
bar across the top row once the server has been silent too long, updating
the elapsed time, and clears it the moment contact resumes.
"""

from __future__ import annotations

from repro.terminal.cell import canonical_pen
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.renditions import DEFAULT_RENDITIONS

#: Server silence before the bar appears. Heartbeats arrive every 3 s, so
#: by 6.5 s at least two in a row have gone missing.
WARN_AFTER_MS = 6500.0

_BAR_RENDITIONS = DEFAULT_RENDITIONS.with_attr(inverse=True, bold=True)


class NotificationEngine:
    """Tracks server liveness and renders the warning bar."""

    def __init__(self) -> None:
        self._last_heard: float | None = None
        self._last_ack_sent: float | None = None
        #: Optional sticky message (e.g. a client-side error), shown even
        #: while the connection is healthy.
        self.message = ""

    # ------------------------------------------------------------------

    def server_heard(self, now: float) -> None:
        self._last_heard = now

    def last_heard_age(self, now: float) -> float | None:
        if self._last_heard is None:
            return None
        return now - self._last_heard

    def warning_active(self, now: float) -> bool:
        age = self.last_heard_age(now)
        if age is None:
            # Never heard at all: warn once the threshold passes from
            # engine creation — callers seed server_heard() at connect.
            return False
        return age >= WARN_AFTER_MS

    def bar_text(self, now: float) -> str | None:
        """The text to show, or None when no bar is needed."""
        if self.message and not self.warning_active(now):
            return self.message
        if not self.warning_active(now):
            return None
        seconds = int(self.last_heard_age(now) / 1000.0)
        base = f"mosh: Last contact {seconds} seconds ago."
        if self.message:
            base = f"{self.message}  {base}"
        return base

    # ------------------------------------------------------------------

    def apply(self, fb: Framebuffer, now: float) -> Framebuffer:
        """Overlay the bar onto a display frame (copy-on-write)."""
        text = self.bar_text(now)
        if text is None:
            return fb
        shown = fb.copy()
        # writable_row, not rows[0]: the copy shares rows with the live
        # framebuffer until one of them writes (COW).
        row = shown.writable_row(0)
        bar = f" {text} ".ljust(shown.width)[: shown.width]
        cells = canonical_pen(_BAR_RENDITIONS).cells
        row.cells[: len(bar)] = map(cells.__getitem__, bar)
        row.touch()
        return shown
