"""Partitions, content coloring, staircase extensions, and border strips.

Conventions: rows are 1-based and grow downward, a partition's leftmost
column is column 1, and the staircase cells prepended by the extended shapes
occupy columns <= 0.  A cell's content is ``col - row`` and its color is the
content reduced mod ``n``, so colors are constant along diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True, order=True)
class Partition:
    """Weakly decreasing positive parts; the empty tuple is the empty partition."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must weakly decrease, got {self.parts}")

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


YOUNG = "young"
EXTENDED = "extended"
EXTENDED_ROW = "extended_row"


@dataclass(frozen=True, slots=True)
class Shape:
    """A finite cell set with content coloring.

    Three kinds are supported: the Young diagram of a partition, the
    staircase extension where row r spans columns r-N .. lam_r, and the
    staircase extension with ``extra`` cells appended to the right end of one
    row.  Build instances through the factory functions below.
    """

    kind: str
    lam: Partition
    n: int
    N: int = 0
    extra: int = 0
    row: int = 0

    @property
    def num_rows(self) -> int:
        return len(self.lam) if self.kind == YOUNG else self.N

    def bounds(self, r: int) -> tuple[int, int]:
        """Inclusive (first, last) column of row r; empty rows return (1, 0)."""
        if not 1 <= r <= self.num_rows:
            raise ValueError(f"row {r} outside 1..{self.num_rows}")
        if self.kind == YOUNG:
            return 1, self.lam.part(r)
        end = self.lam.part(r) + (self.extra if r == self.row else 0)
        return r - self.N, end

    def row_length(self, r: int) -> int:
        lo, hi = self.bounds(r)
        return hi - lo + 1

    def cells(self) -> Iterator[tuple[int, int]]:
        """Yield (row, col) in reading order: rows top to bottom, left to right."""
        for r in range(1, self.num_rows + 1):
            lo, hi = self.bounds(r)
            for c in range(lo, hi + 1):
                yield r, c

    def contains(self, r: int, c: int) -> bool:
        if not 1 <= r <= self.num_rows:
            return False
        lo, hi = self.bounds(r)
        return lo <= c <= hi

    def color(self, r: int, c: int) -> int:
        return content_color(r, c, self.n)

    @property
    def cell_count(self) -> int:
        return sum(self.row_length(r) for r in range(1, self.num_rows + 1))


def make_young(lam: Partition, n: int) -> Shape:
    """Young diagram of ``lam`` colored mod ``n``."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return Shape(YOUNG, lam, n)


def make_extended(lam: Partition, N: int, n: int) -> Shape:
    """Staircase extension: row r spans columns r-N .. lam_r for r = 1..N.

    Requires N >= len(lam) so that every part of ``lam`` has a row.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    require_rows(lam, N)
    return Shape(EXTENDED, lam, n, N=N)


def require_rows(lam: Partition, N: int) -> None:
    """Raise ValueError unless N >= len(lam): a staircase family of ``lam``
    needs a row for every part."""
    if N < len(lam):
        raise ValueError(f"need N >= {len(lam)} rows for partition {lam}, got {N}")


def make_extended_row(lam: Partition, N: int, m: int, i: int, n: int) -> Shape:
    """Staircase extension with ``m`` cells appended at the right of row ``i``."""
    if m < 0:
        raise ValueError(f"appended cell count must be nonnegative, got {m}")
    if m == 0:
        return make_extended(lam, N, n)
    base = make_extended(lam, N, n)
    if not 1 <= i <= N:
        raise ValueError(f"row {i} outside 1..{N}")
    return Shape(EXTENDED_ROW, lam, base.n, N=N, extra=m, row=i)


@dataclass(frozen=True, slots=True)
class BorderStripAddition:
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
