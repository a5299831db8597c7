"""Cells and rows of the framebuffer.

Cells are immutable so framebuffer copies (taken for every sent SSP state)
can share them freely. Rows are shared copy-on-write: a framebuffer
snapshot marks every row ``shared`` and aliases the row objects, and the
first mutation after a snapshot clones the row
(:meth:`repro.terminal.framebuffer.Framebuffer.writable_row`). Rows carry
a generation number from a global counter: two rows with equal generations
are guaranteed content-equal, which makes the per-frame diff scan cheap.

Because cells are immutable, the common ones are shared rather than built
per write: :func:`erase_cell` per background colour, and
:func:`narrow_cells` per pen for printable ASCII. Both tables are bounded,
since truecolor pens are chosen by the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from repro.terminal.renditions import COLOR_DEFAULT, DEFAULT_RENDITIONS, Renditions


@dataclass(frozen=True)
class Cell:
    """One character cell.

    ``contents`` is the base character plus any combining characters; an
    empty string means blank (rendered as a space). ``width`` is 1 or 2
    for a leading cell, 0 for the continuation of a wide character.
    """

    contents: str = ""
    width: int = 1
    renditions: Renditions = DEFAULT_RENDITIONS

    def is_blank(self) -> bool:
        return self.contents in ("", " ") and self.width == 1

    def display_text(self) -> str:
        """What to print for this cell (blank cells print a space)."""
        if self.width == 0:
            return ""
        return self.contents if self.contents else " "


BLANK_CELL = Cell()


@lru_cache(maxsize=256)
def erase_cell(background: int) -> Cell:
    """The blank cell an erase leaves behind.

    ECMA-48 erases take the pen's background colour (BCE) and nothing
    else. Memoised, and bounded because truecolor backgrounds are chosen
    by the host.
    """
    if background == COLOR_DEFAULT:
        return BLANK_CELL
    return Cell(renditions=DEFAULT_RENDITIONS.with_attr(background=background))


#: Pens whose narrow cells :func:`narrow_cells` keeps at once; the oldest
#: pen's table is dropped when a new pen would exceed it.
NARROW_PENS = 64


class _PenCells(dict):
    """One pen's narrow cells, keyed by character and built on first use."""

    __slots__ = ("pen",)

    def __init__(self, pen: Renditions) -> None:
        super().__init__()
        self.pen = pen

    def __missing__(self, ch: str) -> Cell:
        cell = self[ch] = Cell(ch, 1, self.pen)
        return cell


_narrow_tables: dict[Renditions, _PenCells] = {}


def narrow_cells(pen: Renditions) -> dict[str, Cell]:
    """The shared width-1 cells drawn with ``pen``, keyed by character.

    Only printable ASCII is looked up here, so each table holds at most 95
    cells and all of them at most ``NARROW_PENS`` × 95.
    """
    table = _narrow_tables.get(pen)
    if table is None:
        if len(_narrow_tables) >= NARROW_PENS:
            del _narrow_tables[next(iter(_narrow_tables))]
        table = _narrow_tables[pen] = _PenCells(pen)
    return table

_row_gen = itertools.count(1)


@dataclass
class Row:
    """A row of cells plus the soft-wrap flag.

    ``shared`` marks a row aliased by at least one framebuffer snapshot;
    mutators must clone it first (``Framebuffer.writable_row``). The flag
    is bookkeeping, not content, so it is excluded from equality.
    """

    cells: list[Cell]
    wrap: bool = False
    gen: int = field(default_factory=lambda: next(_row_gen))
    shared: bool = field(default=False, compare=False, repr=False)

    @classmethod
    def blank(cls, width: int, background: int = COLOR_DEFAULT) -> "Row":
        """A row of erase cells with ``background`` (BCE)."""
        return cls(cells=[erase_cell(background)] * width)

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
