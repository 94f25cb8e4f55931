"""Partitions, content coloring, the row check of staircase families, and
border strips.

Conventions: rows are 1-based and grow downward, a partition's leftmost
column is column 1, and the staircase extension of a partition with N rows
prepends cells at columns r - N .. 0 of each row r.  A cell's content is
``col - row`` and its color is the content reduced mod ``n``, so colors are
constant along diagonals.
"""

from __future__ import annotations

from functools import total_ordering
from typing import NamedTuple

from .frozen import Frozen


@total_ordering
class Partition(Frozen):
    """Weakly decreasing positive parts, () for the empty partition; compared and hashed by them."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must weakly decrease, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        return self.parts == other.parts if type(other) is Partition else NotImplemented

    def __lt__(self, other):
        return self.parts < other.parts if type(other) is Partition else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    @staticmethod
    def of(*parts: int) -> "Partition":
        return Partition(tuple(parts))

    @staticmethod
    def from_text(text: str) -> "Partition":
        """Parse comma-separated parts; "" and "0" denote the empty partition."""
        text = text.strip()
        if text in ("", "0"):
            return Partition(())
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"bad partition text {text!r}")
        return Partition(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def part(self, row: int) -> int:
        """The row-th part, 0 beyond the last row."""
        return self.parts[row - 1] if 1 <= row <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(r) >= other.part(r) for r in range(1, len(other) + 1))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


def content_color(row: int, col: int, n: int) -> int:
    """Color of a cell: its content ``col - row`` reduced to [0, n)."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return (col - row) % n


def require_rows(lam: Partition, N: int) -> None:
    """Raise ValueError unless N >= len(lam): a staircase family of ``lam``
    needs a row for every part."""
    if N < len(lam):
        raise ValueError(f"need N >= {len(lam)} rows for partition {lam}, got {N}")


class BorderStripAddition(NamedTuple):
    """A partition ``sigma`` containing the base partition, plus the strip height.

    The height is the number of rows the strip occupies, minus one.
    """

    sigma: Partition
    height: int


def is_border_strip(sigma: Partition, lam: Partition, m: int) -> bool:
    """True when ``sigma \\ lam`` is an edge-connected m-cell strip with no 2x2 block.

    This is the reference predicate: it checks the definition directly on the
    cell set and is used to cross-check :func:`enumerate_border_strips`.
    """
    if not sigma.contains(lam) or sigma.size - lam.size != m:
        return False
    cells = {
        (r, c)
        for r in range(1, len(sigma) + 1)
        for c in range(lam.part(r) + 1, sigma.part(r) + 1)
    }
    for r, c in cells:
        if {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        r, c = cell
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return len(seen) == m


def enumerate_border_strips(lam: Partition, m: int) -> list[BorderStripAddition]:
    """All ways of adding a length-``m`` border strip to ``lam``, by moving beads.

    Pad ``lam`` with m empty rows, so that every strip fits, and take its
    beta-set: bead ``lam_r + rows - r`` for each row r.  Adding an m-strip is
    moving one bead b to the empty position b + m, and the strip's height is
    the number of beads jumped (James-Kerber 1981).  Results are sorted
    lexicographically by sigma.
    """
    if m < 1:
        raise ValueError(f"strip length must be positive, got {m}")
    rows = len(lam) + m
    beads = {lam.part(r) + rows - r for r in range(1, rows + 1)}
    found = []
    for b in beads:
        if b + m in beads:
            continue
        moved = sorted(beads - {b} | {b + m}, reverse=True)
        parts = (bead - rows + r for r, bead in enumerate(moved, start=1))
        height = sum(b < c < b + m for c in beads)
        found.append(BorderStripAddition(Partition(tuple(p for p in parts if p)), height))
    found.sort(key=lambda strip: strip.sigma.parts)
    return found
