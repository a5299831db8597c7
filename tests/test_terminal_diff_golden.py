"""Golden diff bytes: the frame-diff encoding must not move.

``tests/data/diff_golden.json`` holds SHA-256 digests of every
``Complete.diff_from`` and ``Display.new_frame(None, …)`` output over a
script of terminal features the wire fingerprint in
``benchmarks/bench_hotpath.py`` does not exercise: autowrap at the right
margin, ASCII overwriting half of a wide character, insert mode, DEC
line drawing, combining marks, REP, underlined and coloured blanks, BCE
erases and truecolor. The digests were recorded from commit 04787c9,
before printing moved from one character at a time to whole runs; any
change to how text is parsed, emulated or encoded that alters a single
diff byte fails here. Re-record (only for a deliberate wire-format
change) with ``PYTHONPATH=src python tests/test_terminal_diff_golden.py``.
"""

import hashlib
import json
import os
import sys

from repro.terminal.complete import Complete
from repro.terminal.display import Display

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "diff_golden.json")

GEOMETRIES = ((80, 24), (12, 5))

SCRIPT = [
    # Autowrap: text running over the right margin, then exactly to it.
    b"x" * 100 + b"\r\n",
    b"\r" + b"m" * 80 + b"after-margin\r\n",
    # A wide character, then ASCII overwriting each half of it.
    "中文 wide\r\n".encode(),
    "中文字\x1b[1G".encode() + b"a" + b"\x1b[4Gb\r\n",
    # Insert mode pushes existing text right.
    b"abcdefgh\x1b[4G\x1b[4hXY\x1b[4lZ\r\n",
    # DEC Special Graphics, shifted in and designated.
    b"\x1b(0lqqk\x1b(B x\x0e\x1b)0lqk\x0f\r\n",
    # Combining marks, on a narrow and on a wide base.
    "été 中́\r\n".encode(),
    # REP of ASCII, of a wide character and after an SGR change.
    b"ab\x1b[5b|\x1b[31m\x1b[3b\x1b[0m\r\n",
    "中\x1b[3b\r\n".encode(),
    # Underlined and reverse-video blanks, and spaces in colour.
    b"\x1b[4m   \x1b[0m|\x1b[7m  \x1b[0m|\x1b[44m   \x1b[0m\r\n",
    # BCE erases: EL, ECH and ED with a coloured background.
    b"keep this line\x1b[45m\x1b[5G\x1b[K\x1b[0m\r\n",
    b"0123456789\x1b[42m\x1b[3G\x1b[4X\x1b[0m\r\n",
    b"\x1b[46m\x1b[J\x1b[0mbelow\r\n",
    # Truecolor foreground and background, and a truecolor erase.
    b"\x1b[38;2;255;128;0mtrue\x1b[48;2;10;20;30mcolor\x1b[K\x1b[0m\r\n",
    # Scroll the whole screen and overwrite in place.
    b"line\r\n" * 30,
    b"\x1b[2;3Hmid\x1b[1;1H\x1b[2Ktop",
    # Fill the last column and leave the wrap pending.
    b"\x1b[24;1H" + b"z" * 80,
]


def digests(width, height):
    """(diff, repaint) SHA-256 hex pairs, one per script step."""
    term = Complete(width, height)
    prev = term.copy()
    out = []
    for chunk in SCRIPT:
        term.act(chunk)
        diff = term.diff_from(prev)
        repaint = Display.new_frame(None, term.fb)
        out.append(
            [hashlib.sha256(diff).hexdigest(), hashlib.sha256(repaint).hexdigest()]
        )
        client = prev.copy()
        client.apply_diff(diff)
        assert client == term
        prev = term.copy()
    return out


def record():
    return {f"{w}x{h}": digests(w, h) for w, h in GEOMETRIES}


def test_diff_bytes_match_golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record() == golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
