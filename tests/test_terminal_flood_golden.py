"""Golden flood frames: a coloured build log through both emulators.

A flood is the terminal's heaviest load: the server's emulator takes every
host byte, and the client's emulator takes every frame diff (§2.3, §3.1),
so the escape parser runs on both ends. This test feeds a seeded,
SGR-coloured, scrolling build log into :meth:`Complete.act` in 16-96 byte
chunks, as a pty delivers it, and snapshots the screen every few chunks
the way the sender paces frames. It pins the SHA-256 of every
:meth:`Complete.diff_from` between consecutive snapshots, and replays each
diff into a client copy through :meth:`Complete.apply_diff`, which must
equal the server's snapshot at every frame.

``tests/data/flood_golden.json`` was recorded before the parser began
calling the emulator's handlers directly; any change to how host output
is parsed, emulated or encoded that alters a single diff byte fails here.
Re-record (only for a deliberate wire-format change) with
``PYTHONPATH=src python tests/test_terminal_flood_golden.py``.
"""

import hashlib
import json
import os
import random
import sys

from repro.terminal.complete import Complete

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "flood_golden.json")

GEOMETRIES = ((80, 24), (40, 10))

#: Chunks between two snapshots (the sender's frame pacing, roughly).
CHUNKS_PER_FRAME = 4

LOG_BYTES = 24 * 1024


def build_log(rng: random.Random, total_bytes: int) -> bytes:
    """A coloured build log: progress, warnings with carets, a status line."""
    dirs = ("net", "crypto", "term", "ui", "util", "proto")
    lines = []
    size = 0
    n = 0
    while size < total_bytes:
        n += 1
        pct = min(99, n * 100 // max(1, total_bytes // 60))
        unit = f"src/{rng.choice(dirs)}/{rng.choice(('conn', 'diff'))}_{rng.randrange(400)}"
        roll = rng.random()
        if roll < 0.08:
            col = rng.randrange(4, 60)
            line = (
                f"\x1b[1m{unit}.cpp:{rng.randrange(1, 900)}:{col}: "
                f"\x1b[1;35mwarning:\x1b[0m\x1b[1m unused variable 'tmp{n}' "
                f"[-Wunused-variable]\x1b[0m\r\n"
                f"    int tmp{n} = compute(state, {rng.randrange(100)});\r\n"
                f"{' ' * (col + 3)}\x1b[1;32m^\x1b[0m\r\n"
            )
        elif roll < 0.12:
            line = (
                f"[{pct:3d}%] \x1b[1;32mLinking CXX static library "
                f"lib{rng.choice(dirs)}.a\x1b[0m\r\n"
            )
        elif roll < 0.16:
            # A status line redrawn in place: CR, 256-colour and truecolor
            # pens, erase to end of line.
            line = (
                f"\r\x1b[38;5;{rng.randrange(256)}m[{pct:3d}%]\x1b[0m "
                f"\x1b[48;2;{rng.randrange(256)};40;{rng.randrange(256)}m"
                f"jobs {rng.randrange(1, 9)}\x1b[0m\x1b[K"
                f"\r\x1b[2K[{pct:3d}%] done\r\n"
            )
        else:
            line = (
                f"[{pct:3d}%] \x1b[32mBuilding CXX object "
                f"{unit}.dir/{unit.rsplit('/', 1)[1]}.cpp.o\x1b[0m\r\n"
            )
        data = line.encode()
        lines.append(data)
        size += len(data)
    return b"".join(lines)


def chunks(seed: int = 2012):
    """The log cut into 16-96 byte host writes."""
    rng = random.Random(seed)
    log = build_log(rng, LOG_BYTES)
    out = []
    pos = 0
    while pos < len(log):
        size = rng.randint(16, 96)
        out.append(log[pos : pos + size])
        pos += size
    return out


def digests(width, height):
    """SHA-256 hex of each frame diff, checking the client replay."""
    server = Complete(width, height)
    prev = server.copy()
    client = server.copy()
    out = []
    pieces = chunks()
    for start in range(0, len(pieces), CHUNKS_PER_FRAME):
        for piece in pieces[start : start + CHUNKS_PER_FRAME]:
            server.act(piece)
        snap = server.copy()
        diff = snap.diff_from(prev)
        out.append(hashlib.sha256(diff).hexdigest())
        client.apply_diff(diff)
        assert client == snap, f"client diverged at frame {len(out) - 1}"
        prev = snap
    return out


def record():
    return {f"{w}x{h}": digests(w, h) for w, h in GEOMETRIES}


def test_flood_frames_match_golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record() == golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
