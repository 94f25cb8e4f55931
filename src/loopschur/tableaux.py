"""Semistandard tableaux and the generating-function builders.

The weight of a filled cell is its entry; the monomial attached to a tableau
multiplies one variable ``x(color, weight)`` per cell.  Shifted weights add
``l * content / n`` to the entry, where the content is the true ``col - row``
of the cell (not reduced mod n).  Keeping the raw content makes the shifted
weight invariant under every move that shifts a cell by a multiple of n
columns while compensating the entry, which is exactly what the pairing maps
in :mod:`loopschur.involutions` do.  On an ordinary Young diagram all shifted
weights stay positive; on staircase extensions they may reach zero or below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .polyring import Monomial, Polynomial
from .shapes import Partition, Shape, make_extended, make_young


@dataclass(frozen=True, slots=True)
class ShiftParams:
    """Modulus ``n`` and shift ``l`` with 0 <= l < n."""

    n: int
    l: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if not 0 <= self.l < self.n:
            raise ValueError(f"shift must satisfy 0 <= l < {self.n}, got {self.l}")


@dataclass(frozen=True, slots=True)
class Tableau:
    """An assignment of positive integers to the cells of a shape.

    ``rows[r-1]`` lists the entries of row r from its leftmost column on.
    """

    shape: Shape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        expected = [self.shape.row_length(r) for r in range(1, self.shape.num_rows + 1)]
        got = [len(row) for row in self.rows]
        if expected != got:
            raise ValueError(f"row lengths {got} do not match shape rows {expected}")


def enumerate_ssyt(lam: Partition, N: int, n: int = 1) -> Iterator[Tableau]:
    """Stream all semistandard tableaux of shape ``lam`` with entries in [1, N].

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Emission is lexicographic in the row-by-row reading word.  The
    stream is empty when N < len(lam); the empty partition yields exactly the
    empty tableau.  The cells are filled by a loop, not by recursion, so any
    number of cells works.
    """
    shape = make_young(lam, n)
    if not lam.parts:
        yield Tableau(shape, ())
        return
    if len(lam) > N:
        return
    rows: list[list[int]] = [[0] * p for p in lam.parts]
    cells = [(r, c) for r, p in enumerate(lam.parts) for c in range(p)]
    # One iterator of candidate entries per filled cell, in reading order.
    stack = [iter(range(1, N + 1))]
    while stack:
        value = next(stack[-1], None)
        if value is None:
            stack.pop()
            continue
        r, c = cells[len(stack) - 1]
        rows[r][c] = value
        if len(stack) == len(cells):
            yield Tableau(shape, tuple(map(tuple, rows)))
            continue
        r, c = cells[len(stack)]
        lo = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        stack.append(iter(range(lo, N + 1)))


@lru_cache(maxsize=1024)
def cell_weights(start: int, length: int, n: int, l: int = 0) -> tuple[tuple[int, int], ...]:
    """``(color, weight offset)`` of each cell of a row whose first cell has content ``start``.

    A cell of content c has color c mod n and contributes the weight numerator
    ``n * entry + l * c``.
    """
    return tuple(((start + q) % n, l * (start + q)) for q in range(length))


def rows_monomial(rows, cells, n: int) -> Monomial:
    """The (shifted) weight monomial of a filling given as row tuples.

    ``cells[r]`` holds the :func:`cell_weights` of row r, at least as long as
    the row; :func:`staircase_cells` and :func:`_shape_cells` build them.
    Every weight monomial in the package is computed here.  Raises ValueError
    when the rows do not fit the tables, rather than drop cells.
    """
    if len(rows) != len(cells):
        raise ValueError(f"{len(rows)} rows for {len(cells)} cell tables")
    factors: dict[tuple[int, int], int] = {}
    for row, row_cells in zip(rows, cells):
        if len(row) > len(row_cells):
            raise ValueError(f"row {row} is longer than its {len(row_cells)} cells")
        for (color, offset), value in zip(row_cells, row):
            key = (color, n * value + offset)
            factors[key] = factors.get(key, 0) + 1
    return Monomial.from_exponents(factors)


@lru_cache(maxsize=256)
def staircase_cells(lam: Partition, N: int, d: int, n: int, l: int = 0) -> tuple:
    """The row cell tables of the staircase family of ``lam`` with N rows and d
    cells appended to one row.  Every row starts at content -N, so one
    :func:`cell_weights` table, as long as the longest row, serves all N rows.
    Raises ValueError unless 0 <= l < n.
    """
    ShiftParams(n, l)
    return (cell_weights(-N, lam.part(1) + N + d, n, l),) * N


@lru_cache(maxsize=256)
def _shape_cells(shape: Shape, l: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    rows = []
    for r in range(1, shape.num_rows + 1):
        lo, hi = shape.bounds(r)
        rows.append(cell_weights(lo - r, hi - lo + 1, shape.n, l))
    return tuple(rows)


def weight_monomial(t: Tableau) -> Monomial:
    """Product over cells of ``x(color, entry)``."""
    return rows_monomial(t.rows, _shape_cells(t.shape, 0), t.shape.n)


def shifted_weight_monomial(t: Tableau, shift: ShiftParams) -> Monomial:
    """Product over cells of ``x(color, entry + l * content / n)``.

    Weight numerators are ``n * entry + l * (col - row)``; the color index is
    still the content mod n.  With l = 0 this is :func:`weight_monomial`.
    """
    if shift.n != t.shape.n:
        raise ValueError(f"shift modulus {shift.n} does not match shape modulus {t.shape.n}")
    return rows_monomial(t.rows, _shape_cells(t.shape, shift.l), shift.n)


def _monomial_sum(n: int, monomials: Iterator[Monomial]) -> Polynomial:
    terms: dict[Monomial, int] = {}
    for m in monomials:
        terms[m] = terms.get(m, 0) + 1
    return Polynomial(n, terms)


def loop_schur(lam: Partition, n: int, N: int) -> Polynomial:
    """Truncated loop Schur function: the weight generating function of
    semistandard tableaux of ``lam`` with entries at most N, colored mod n."""
    return _monomial_sum(n, (weight_monomial(t) for t in enumerate_ssyt(lam, N, n)))


def shifted_loop_schur(lam: Partition, shift: ShiftParams, N: int) -> Polynomial:
    """Truncated shifted loop Schur function over the same tableau family."""
    return _monomial_sum(
        shift.n,
        (shifted_weight_monomial(t, shift) for t in enumerate_ssyt(lam, N, shift.n)),
    )


def loop_power_sum(k: int, n: int, N: int) -> Polynomial:
    """The truncated loop power sum: sum over j <= N of (prod_i x(i, j))^k."""
    if k < 1:
        raise ValueError(f"exponent must be positive, got {k}")
    terms: dict[Monomial, int] = {}
    for j in range(1, N + 1):
        m = Monomial.from_exponents({(i, n * j): k for i in range(n)})
        terms[m] = terms.get(m, 0) + 1
    return Polynomial(n, terms)


def standard_staircase(N: int, n: int) -> Tableau:
    """The tableau on the empty-partition staircase whose row j is filled with j."""
    if N < 1:
        raise ValueError(f"need at least one row, got {N}")
    shape = make_extended(Partition(), N, n)
    return Tableau(shape, tuple(tuple([j] * (N - j + 1)) for j in range(1, N + 1)))


def staircase_monomial(N: int, n: int, l: int = 0) -> Monomial:
    """(Shifted) weight monomial of the standard staircase filling.

    This is the common monomial factor carried by every fixed point of the
    first pairing map, and the minimum-degree term among row-weakly-increasing
    fillings of the staircase.
    """
    rows = standard_staircase(N, n).rows
    return rows_monomial(rows, staircase_cells(Partition(), N, 0, n, l), n)
