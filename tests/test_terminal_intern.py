"""Canonical pens and cells: identity decisions against value decisions.

The emulator draws only with canonical pens and cells
(``repro.terminal.cell``), and the frame diff compares two canonical
cells by identity, falling back to ``==`` for any other. These tests
check that this changes nothing but speed:

* a differential property: on random host output that churns more pens
  and more cells than the table holds, the framebuffer equals a copy
  rebuilt from fresh non-canonical cells, cell for cell, and both give
  byte-identical diffs and repaints; the diff still round-trips;
* the invariant itself: no two canonical cells are equal but distinct,
  even when another emulator sharing the table evicts a pen in use;
* the bound: an adversary choosing 100k truecolor pens and 10k combining
  sequences leaves every table at or under its constant, and the
  retained memory under a ceiling derived from those constants.
"""

import gc
import tracemalloc
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terminal import cell as cell_module
from repro.terminal.cell import (
    PEN_CELLS,
    PEN_TRANSITIONS,
    PENS,
    Cell,
    Row,
    canonical_cell,
)
from repro.terminal.display import Display
from repro.terminal.emulator import Emulator
from repro.terminal.framebuffer import Framebuffer
from repro.terminal.renditions import Renditions, rgb_color

# Combining marks U+0300..U+036F: two of them after a base letter give
# 112 × 112 distinct sequences.
_MARKS = [chr(0x300 + i) for i in range(112)]


def _pen_churn(seed: int) -> bytes:
    """More distinct truecolor pens than the table holds, each printed."""
    out = []
    for k in range(PENS + 8):
        out.append(f"\x1b[48;2;{seed % 256};{k % 256};{k // 256}m{k % 10}")
    return "".join(out).encode()


def _cell_churn(start: int) -> bytes:
    """More distinct narrow characters in one pen than its table holds."""
    return "".join(
        chr(0x100 + (start + i) % 0x200) for i in range(PEN_CELLS + 8)
    ).encode()


_tokens = st.one_of(
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        min_size=1,
        max_size=20,
    ).map(str.encode),
    st.sampled_from([b"\r", b"\n", b"\r\n", b"\b", b"\t"]),
    st.builds(
        lambda r, c: f"\x1b[{r};{c}H".encode(),
        st.integers(1, 6),
        st.integers(1, 13),
    ),
    # Indexed SGR: attributes, 8/16 colours, the 256-colour cube.
    st.lists(
        st.sampled_from(
            [0, 1, 2, 3, 4, 5, 7, 8, 9, 22, 24, 27, 31, 32, 39, 44, 49, 93, 104]
        ),
        min_size=1,
        max_size=3,
    ).map(lambda ps: f"\x1b[{';'.join(map(str, ps))}m".encode()),
    st.builds(
        lambda fg, n: f"\x1b[{fg};5;{n}m".encode(),
        st.sampled_from([38, 48]),
        st.integers(0, 255),
    ),
    st.builds(
        lambda fg, r, g, b: f"\x1b[{fg};2;{r};{g};{b}m".encode(),
        st.sampled_from([38, 48]),
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
    ),
    st.integers(0, 255).map(_pen_churn),
    st.integers(0, 0x1FF).map(_cell_churn),
    # Wide characters and combining sequences.
    st.sampled_from(["中", "文字", "é", "中́", "ạ̈", "x中y"]).map(
        str.encode
    ),
    st.builds(
        lambda a, b: f"o{_MARKS[a]}{_MARKS[b]}".encode(),
        st.integers(0, 111),
        st.integers(0, 111),
    ),
    # ECH, EL, ICH, DCH, REP and scrolls.
    st.builds(
        lambda op, n: f"\x1b[{n}{op}".encode(),
        st.sampled_from(["X", "@", "P", "b", "S", "T", "L", "M"]),
        st.integers(0, 14),
    ),
    st.sampled_from([b"\x1b[K", b"\x1b[1K", b"\x1b[2K", b"\x1b[J", b"\x1b[2J"]),
)


def _plain(fb: Framebuffer) -> Framebuffer:
    """``fb`` with every cell rebuilt as a fresh non-canonical Cell."""
    dup = fb.copy()
    dup.rows = [
        Row(
            cells=[
                Cell(c.contents, c.width, replace(c.renditions)) for c in row.cells
            ],
            wrap=row.wrap,
            gen=row.gen,
        )
        for row in fb.rows
    ]
    return dup


def _assert_canonical_unique(*fbs: Framebuffer) -> None:
    """No two canonical cells are equal but distinct."""
    seen: dict[tuple, Cell] = {}
    for fb in fbs:
        for row in fb.rows:
            for c in row.cells:
                if c.canonical:
                    assert c.renditions.canonical
                    key = (c.contents, c.width, c.renditions)
                    assert seen.setdefault(key, c) is c


@settings(max_examples=120, deadline=None)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 6),
    before=st.lists(_tokens, max_size=12),
    after=st.lists(_tokens, max_size=12),
)
def test_identity_diff_matches_value_diff(width, height, before, after):
    e = Emulator(width, height)
    e.write(b"".join(before))
    old = e.fb.copy()
    e.write(b"".join(after))
    new = e.fb
    plain_old, plain_new = _plain(old), _plain(new)
    assert not any(c.canonical for row in plain_new.rows for c in row.cells)
    assert [r.cells for r in new.rows] == [r.cells for r in plain_new.rows]
    _assert_canonical_unique(old, new)

    diff = Display.new_frame(old, new)
    assert diff == Display.new_frame(plain_old, plain_new)
    assert Display.new_frame(None, new) == Display.new_frame(None, plain_new)
    assert Display.new_frame(old, new, scroll_optimization=False) == (
        Display.new_frame(plain_old, plain_new, scroll_optimization=False)
    )

    client = Emulator(width, height)
    client.fb = old.copy()
    client.write(diff)
    assert client.fb == new
    _assert_canonical_unique(client.fb, new)


def test_pen_evicted_by_another_emulator_mints_no_duplicate():
    a, b = Emulator(20, 4), Emulator(20, 4)
    a.write(b"\x1b[31mred ")
    held = a.fb.pen.cells
    # b churns every pen out of the shared table, a's included.
    b.write(_pen_churn(7))
    assert not held.live and not held
    assert not held["q"].canonical  # a dead table mints plain cells
    a.write(b"more red")
    b.write(b"\x1b[H\x1b[0;31mred too")
    a_row, b_row = a.fb.rows[0].cells, b.fb.rows[0].cells
    assert a_row[0] == b_row[0] and a_row[0] is not b_row[0]  # a's is demoted
    assert not a_row[0].canonical
    assert a_row[6] is b_row[0]  # "more red" re-interned the pen
    _assert_canonical_unique(a.fb, b.fb)


def test_blank_in_a_drawing_pen_is_not_an_erase_cell():
    # Prediction overlays can place a blank in any pen: only a blank in a
    # background-only pen is what an erase leaves.
    old = Framebuffer(6, 1)
    new = old.copy()
    bold = Renditions(bold=True, background=rgb_color(1, 2, 3))
    for col, pen in enumerate([bold, Renditions(background=rgb_color(1, 2, 3))]):
        new.set_cell(0, col, canonical_cell("", 1, pen))
    assert not Display._is_erase_cell(new.rows[0].cells[0])
    assert Display._is_erase_cell(new.rows[0].cells[1])
    assert Display.new_frame(old, new) == Display.new_frame(old, _plain(new))


#: Retained bytes allowed per table entry. A canonical cell is a 4-slot
#: object plus its contents string (a combining sequence is a 3-character
#: UCS-2 string) and its dict slot; a memo entry is a 5-int params tuple
#: plus its dict slot; a pen is the pen object, its attribute dict, its
#: cached SGR bytes and its two dicts' fixed cost.
_CELL_BYTES = 256
_MEMO_BYTES = 256
_PEN_BYTES = 4096
_CEILING = PENS * (
    PEN_CELLS * _CELL_BYTES + PEN_TRANSITIONS * _MEMO_BYTES + _PEN_BYTES
)


def _assert_tables_bounded() -> None:
    pens = cell_module._pens
    assert len(pens) <= PENS
    for pen in pens.values():
        assert len(pen.cells) <= PEN_CELLS
        assert len(pen.transitions) <= PEN_TRANSITIONS


def _round_trips(chunks: list[bytes]) -> None:
    """Write each chunk to a server emulator, then carry it to a client."""
    server, client = Emulator(20, 5), Emulator(20, 5)
    shown = server.fb.copy()
    for chunk in chunks:
        server.write(chunk)
        client.write(Display.new_frame(shown, server.fb))
        assert client.fb == server.fb
        shown = server.fb.copy()
        _assert_tables_bounded()


def test_adversary_pens_and_combining_sequences_stay_bounded():
    # 100k distinct truecolor pens, each printing a cell.
    pens = [
        f"\x1b[38;2;{k % 256};{k // 256 % 256};{k // 65536}m".encode()
        for k in range(100_000)
    ]
    _round_trips(
        [b"".join(p + b"x" for p in pens[i : i + 2000]) for i in range(0, 100_000, 2000)]
    )
    # Then the worst case for memory: every pen's table full of combining
    # sequences, 10k distinct ones in all. Every pen interned before is
    # evicted here, so what the tables retain was allocated while traced.
    combining = [f"a{a}{b}".encode() for a in _MARKS for b in _MARKS][:10_000]
    per_pen = PEN_CELLS
    chunks = [
        f"\x1b[48;2;{k};0;0m".encode()
        + b"".join(
            combining[(k * per_pen + i) % len(combining)] for i in range(per_pen)
        )
        for k in range(PENS + 8)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        _round_trips(chunks)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < _CEILING, (retained, _CEILING)
