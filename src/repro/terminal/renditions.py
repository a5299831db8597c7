"""Character renditions (SGR state): attributes and colors.

Colors are stored as small tagged integers so cells stay hashable and
comparisons are cheap:

* ``0`` — terminal default;
* ``0x0100_0000 | index`` — indexed color 0..255 (the classic 8/16 colors
  are indexes 0..15);
* ``0x0200_0000 | (r << 16 | g << 8 | b)`` — 24-bit truecolor.

The emulator draws with canonical pens, one instance per distinct value
(:func:`repro.terminal.cell.canonical_pen`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

COLOR_DEFAULT = 0
_INDEXED_TAG = 0x0100_0000
_RGB_TAG = 0x0200_0000


def indexed_color(index: int) -> int:
    if not 0 <= index <= 255:
        raise ValueError(f"color index {index} out of range")
    return _INDEXED_TAG | index


def rgb_color(r: int, g: int, b: int) -> int:
    for v in (r, g, b):
        if not 0 <= v <= 255:
            raise ValueError(f"rgb component {v} out of range")
    return _RGB_TAG | (r << 16) | (g << 8) | b


def _color_sgr(color: int, is_background: bool) -> list[int]:
    """SGR parameter list selecting ``color``."""
    base = 40 if is_background else 30
    if color == COLOR_DEFAULT:
        return [base + 9]  # 39 / 49
    if color & _INDEXED_TAG:
        index = color & 0xFF
        if index < 8:
            return [base + index]
        if index < 16:
            return [(100 if is_background else 90) + index - 8]
        return [base + 8, 5, index]
    r = (color >> 16) & 0xFF
    g = (color >> 8) & 0xFF
    b = color & 0xFF
    return [base + 8, 2, r, g, b]


@dataclass(frozen=True)
class Renditions:
    """One cell's (or the pen's) graphic state.

    ``canonical`` is true only on the interned instance of a value, which
    also carries its cell table, SGR memo and erase cell
    (:func:`repro.terminal.cell.canonical_pen`).
    """

    bold: bool = False
    faint: bool = False
    italic: bool = False
    underlined: bool = False
    blink: bool = False
    inverse: bool = False
    invisible: bool = False
    strikethrough: bool = False
    foreground: int = COLOR_DEFAULT
    background: int = COLOR_DEFAULT

    canonical = False  # not a field: set on the interned instance only

    def with_attr(self, **kwargs: object) -> "Renditions":
        return replace(self, **kwargs)

    def sgr(self) -> bytes:
        """The escape sequence that sets this rendition from a reset pen.

        Built once per instance; pens are immutable.
        """
        cached = self.__dict__.get("_sgr")
        if cached is not None:
            return cached
        params: list[int] = [0]
        if self.bold:
            params.append(1)
        if self.faint:
            params.append(2)
        if self.italic:
            params.append(3)
        if self.underlined:
            params.append(4)
        if self.blink:
            params.append(5)
        if self.inverse:
            params.append(7)
        if self.invisible:
            params.append(8)
        if self.strikethrough:
            params.append(9)
        if self.foreground != COLOR_DEFAULT:
            params.extend(_color_sgr(self.foreground, is_background=False))
        if self.background != COLOR_DEFAULT:
            params.extend(_color_sgr(self.background, is_background=True))
        body = ";".join(str(p) for p in params)
        cached = f"\x1b[{body}m".encode("ascii")
        object.__setattr__(self, "_sgr", cached)
        return cached


#: The default pen: all attributes off, default colors.
DEFAULT_RENDITIONS = Renditions()
