"""Cells and rows of the framebuffer, and the canonical pen and cell table.

Cells are immutable so framebuffer copies (taken for every sent SSP state)
can share them freely. Rows are shared copy-on-write: a framebuffer
snapshot marks every row ``shared`` and aliases the row objects, and the
first mutation after a snapshot clones the row
(:meth:`repro.terminal.framebuffer.Framebuffer.writable_row`). Rows carry
a generation number from a global counter: two rows with equal generations
are guaranteed content-equal, which makes the per-frame diff scan cheap.

A row nobody drew is one object: :meth:`Row.blank` returns the width's
canonical blank row (every cell ``BLANK_CELL``, ``all_blank`` set),
``shared`` from birth so the first write clones it. One such row fills
every blank slot of every screen of its width, so its generation is the
one generation that is not unique within a frame. The table keeps the
:data:`PENS` most recently used widths; an evicted row keeps its
``all_blank`` mark, which stays true because nothing writes to it.

Because pens and cells are immutable, the emulator draws with *canonical*
ones: :func:`canonical_pen` keeps one instance per distinct pen, and each
canonical pen keeps one cell per ``(contents, width)`` in its
:class:`PenCells` table. The table keeps one invariant: at most one live
canonical object exists per value, and an object demoted on eviction never
becomes canonical again. So for two canonical cells (or pens) ``a is b``
exactly when ``a == b``, and the frame diff decides equality by identity,
falling back to ``==`` only when an operand is not canonical — a cell a
test built directly, or one evicted while a frame still held it.

The table is bounded, because truecolor pens and combining sequences are
chosen by the host: at most :data:`PENS` pens, each with at most
:data:`PEN_CELLS` cells and :data:`PEN_TRANSITIONS` memoised SGR
transitions. Past a bound the oldest entry is demoted (first in, first
out). The default pen and every pen's blank cell are pinned.

The table takes no lock. The apps and the daemon run every terminal on
one thread; where two threads do share it (the localhost demo), a race
can at worst leave two canonical copies of one value, which identity
reads as different: a longer diff, never a wrong one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

from repro.terminal.renditions import COLOR_DEFAULT, DEFAULT_RENDITIONS, Renditions

#: Canonical pens kept at once.
PENS = 64
#: Canonical cells kept per pen: printable ASCII, the blank, and room for
#: a text's other characters.
PEN_CELLS = 256
#: SGR transitions memoised per pen (see :func:`pen_transition`).
PEN_TRANSITIONS = 32


@dataclass(frozen=True, slots=True)
class Cell:
    """One character cell.

    ``contents`` is the base character plus any combining characters; an
    empty string means blank (rendered as a space). ``width`` is 1 or 2
    for a leading cell, 0 for the continuation of a wide character.
    ``canonical`` is set only by the cell's :class:`PenCells` table.
    """

    contents: str = ""
    width: int = 1
    renditions: Renditions = DEFAULT_RENDITIONS
    canonical: bool = field(default=False, init=False, compare=False, repr=False)

    def display_text(self) -> str:
        """What to print for this cell (blank cells print a space)."""
        if self.width == 0:
            return ""
        return self.contents if self.contents else " "


class PenCells(dict):
    """A canonical pen's canonical cells, built on first use.

    Keyed by ``contents`` for width-1 cells and by ``(contents, width)``
    for the others. The first key is the pen's blank cell ``""``, which is
    pinned. The table itself knows whether it is live: once its pen is
    demoted it holds nothing and mints only plain cells, so a caller still
    holding it can never produce a second canonical cell.
    """

    __slots__ = ("pen", "live")

    def __init__(self, pen: Renditions) -> None:
        super().__init__()
        self.pen = pen
        self.live = True
        self[""]  # mint the pinned blank

    def __missing__(self, key: str | tuple[str, int]) -> Cell:
        contents, width = (key, 1) if key.__class__ is str else key
        cell = Cell(contents, width, self.pen)
        if self.live:
            if len(self) >= PEN_CELLS:
                keys = iter(self)
                next(keys)  # the pinned blank
                _demote(self.pop(next(keys)))
            object.__setattr__(cell, "canonical", True)
            self[key] = cell
        return cell

    def demote(self) -> None:
        """Drop every cell from the canonical table, for good."""
        self.live = False
        for cell in self.values():
            _demote(cell)
        self.clear()


def _demote(obj: Cell | Renditions) -> None:
    object.__setattr__(obj, "canonical", False)


_pens: dict[Renditions, Renditions] = {}


def _promote(pen: Renditions) -> Renditions:
    """Make ``pen``, never canonical before, the canonical instance of its value.

    A canonical pen carries its cell table (``cells``), its SGR memo
    (``transitions``) and ``erase``: its blank cell when the pen is what
    an erase leaves (background only), else None.
    """
    cells = PenCells(pen)
    object.__setattr__(pen, "cells", cells)
    object.__setattr__(pen, "transitions", {})
    erases = pen == Renditions(background=pen.background)
    object.__setattr__(pen, "erase", cells[""] if erases else None)
    object.__setattr__(pen, "canonical", True)
    _pens[pen] = pen  # published last, fully built
    return pen


def canonical_pen(pen: Renditions) -> Renditions:
    """The canonical pen equal to ``pen``, interned on first use."""
    if pen.canonical:
        return pen
    found = _pens.get(pen)
    if found is not None:
        return found
    if len(_pens) >= PENS:
        keys = iter(_pens)
        next(keys)  # the pinned default pen
        old = _pens.pop(next(keys))
        _demote(old)
        old.cells.demote()
        old.transitions.clear()
    # A demoted pen is never promoted again: its value gets a fresh object.
    return _promote(replace(pen) if "cells" in pen.__dict__ else pen)


def pen_transition(
    pen: Renditions,
    params: tuple[int | None, ...],
    make: Callable[[Renditions, tuple[int | None, ...]], Renditions],
) -> Renditions:
    """The canonical pen SGR ``params`` turn ``pen`` into.

    Memoised on the canonical pen's ``transitions``, so a repeated
    transition is one dict hit; ``make(pen, params)`` builds it on a miss.
    """
    pen = canonical_pen(pen)
    memo = pen.transitions
    nxt = memo.get(params)
    if nxt is None or not nxt.canonical:
        nxt = canonical_pen(make(pen, params))
        if len(memo) >= PEN_TRANSITIONS:
            del memo[next(iter(memo))]
        memo[params] = nxt
    return nxt


def _underline(pen: Renditions, params: tuple[int | None, ...]) -> Renditions:
    return pen.with_attr(underlined=True)


def underlined(pen: Renditions) -> Renditions:
    """The canonical pen equal to ``pen`` with underline on (SGR 4)."""
    return pen_transition(pen, (4,), _underline)


_promote(DEFAULT_RENDITIONS)

#: The default pen's blank, which every screen starts as.
BLANK_CELL = DEFAULT_RENDITIONS.erase


def canonical_cell(contents: str, width: int, pen: Renditions) -> Cell:
    """The canonical cell with these values."""
    cells = canonical_pen(pen).cells
    return cells[contents] if width == 1 else cells[contents, width]


def erase_cell(background: int) -> Cell:
    """The blank cell an erase leaves behind.

    ECMA-48 erases take the pen's background colour (BCE) and nothing
    else.
    """
    if background == COLOR_DEFAULT:
        return BLANK_CELL
    return canonical_pen(Renditions(background=background)).erase


_row_gen = itertools.count(1)


@dataclass
class Row:
    """A row of cells plus the soft-wrap flag.

    ``shared`` marks a row aliased by at least one framebuffer snapshot;
    mutators must clone it first (``Framebuffer.writable_row``).
    ``all_blank`` marks a canonical blank row (:meth:`blank`), which is
    always shared. Both flags are bookkeeping, not content, so they are
    excluded from equality, and a clone carries neither.
    """

    cells: list[Cell]
    wrap: bool = False
    gen: int = field(default_factory=lambda: next(_row_gen))
    shared: bool = field(default=False, compare=False, repr=False)
    all_blank: bool = field(default=False, compare=False, repr=False)

    @classmethod
    def blank(cls, width: int, background: int = COLOR_DEFAULT) -> "Row":
        """A row of erase cells with ``background`` (BCE).

        In the default background this is the width's canonical blank row;
        a coloured background gets a private row of its own.
        """
        if background != COLOR_DEFAULT:
            return cls(cells=[erase_cell(background)] * width)
        return _blank_row(width)

    def copy(self) -> "Row":
        return Row(cells=list(self.cells), wrap=self.wrap, gen=self.gen)

    def touch(self) -> None:
        """Mark mutated: allocate a fresh generation."""
        self.gen = next(_row_gen)

    def set_cell(self, col: int, cell: Cell) -> None:
        self.cells[col] = cell
        self.touch()

    def content_equals(self, other: "Row") -> bool:
        if self.gen == other.gen:
            return True
        return self.cells == other.cells and self.wrap == other.wrap


@lru_cache(maxsize=PENS)
def _blank_row(width: int) -> Row:
    """The canonical blank row of ``width`` (see :meth:`Row.blank`)."""
    return Row([BLANK_CELL] * width, shared=True, all_blank=True)
