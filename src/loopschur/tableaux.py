"""Semistandard tableaux and the generating-function builders.

The weight of a filled cell is its entry; the monomial attached to a tableau
multiplies one variable ``x(color, weight)`` per cell.  Shifted weights add
``l * content / n`` to the entry, where the content is the true ``col - row``
of the cell (not reduced mod n).  Keeping the raw content makes the shifted
weight invariant under every move that shifts a cell by a multiple of n
columns while compensating the entry, which is exactly what the pairing maps
in :mod:`loopschur.involutions` do.  On an ordinary Young diagram all shifted
weights stay positive; on staircase extensions they may reach zero or below.

Weights are counted as packed integer keys (:class:`WeightCode`).
:func:`ssyt_keys`, behind every SSYT builder and identity check, walks the
rows one at a time: the first row comes from :func:`enumerate_ssyt`; each later
row visits its groups, one per distinct set of entries above it, in sorted
order, so one column step refills only the columns where consecutive groups
differ, and its keys are added to every key of the rows above in C.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations_with_replacement, groupby, product, repeat, starmap
from operator import add, itemgetter
from typing import Iterator

from .frozen import Frozen
from .polyring import Monomial, Polynomial
from .shapes import Partition, require_rows


class ShiftParams(Frozen):
    """Modulus ``n`` and shift ``l`` with 0 <= l < n; a frozen value, equal by both."""

    __slots__ = ("n", "l")

    def __init__(self, n: int, l: int = 0):
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        if not 0 <= l < n:
            raise ValueError(f"shift must satisfy 0 <= l < {n}, got {l}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l", l)

    def __eq__(self, other):
        return (self.n, self.l) == (other.n, other.l) if type(other) is ShiftParams else NotImplemented

    def __hash__(self):
        return hash((self.n, self.l))


def enumerate_ssyt(lam: Partition, N: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Stream all semistandard tableaux of shape ``lam`` with entries in [1, N]
    as row tuples: ``rows[r-1]`` lists the entries of row r.

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Emission is lexicographic in the row-by-row reading word.  The
    stream is empty when N < len(lam); the empty partition yields exactly the
    empty tableau ``()``.  The cells are filled by a loop, not by recursion,
    so any number of cells works.
    """
    if not lam.parts:
        yield ()
        return
    if len(lam) > N:
        return
    if len(lam) == 1:
        yield from zip(combinations_with_replacement(range(1, N + 1), lam.parts[0]))
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
            yield tuple(map(tuple, rows))
            continue
        r, c = cells[len(stack)]
        lo = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        stack.append(iter(range(lo, N + 1)))


def cell_weights(start: int, length: int, n: int, l: int = 0) -> tuple[tuple[int, int], ...]:
    """``(color, weight offset)`` of each cell of a row whose first cell has content ``start``.

    A cell of content c has color c mod n and contributes the weight numerator
    ``n * entry + l * c``.  Built on each call, as are the tables made of it.
    """
    return tuple(((start + q) % n, l * (start + q)) for q in range(length))


def rows_monomial(rows, cells, n: int) -> Monomial:
    """The (shifted) weight monomial of a filling given as row tuples.

    ``cells[r]`` holds the :func:`cell_weights` of row r, at least as long as
    the row; :func:`staircase_cells` and :func:`young_cells` build them.
    This is the reference for :class:`WeightCode`, which the member checks,
    signed sums and builders use instead, and it weighs the first member of each
    distinct key of a signed sum through :meth:`SignedTableau.monomial`.
    Raises ValueError when the rows do not fit the tables, rather than drop
    cells.
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


def staircase_cells(lam: Partition, N: int, d: int, n: int, l: int = 0) -> tuple:
    """The row cell tables of the staircase family of ``lam`` with N rows and d
    cells appended to one row.  Every row starts at content -N, so one
    :func:`cell_weights` table, as long as the longest row, serves all N rows;
    a family check builds one for each :class:`WeightCode` it keeps.
    Raises ValueError unless 0 <= l < n and N >= len(lam).
    """
    ShiftParams(n, l)
    require_rows(lam, N)
    return (cell_weights(-N, lam.part(1) + N + d, n, l),) * N


def young_cells(lam: Partition, n: int, l: int = 0) -> tuple:
    """The row cell tables of the Young diagram of ``lam``, whose row r starts
    at content 1 - r, built on each call.  Raises ValueError unless 0 <= l < n."""
    ShiftParams(n, l)
    return tuple(cell_weights(1 - r, p, n, l) for r, p in enumerate(lam.parts, start=1))


class _RowKeys(dict):
    """The keys of fillings of one row table, each computed on first use from
    ``bits``, the row's :meth:`WeightCode.cell_bits`."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        super().__init__()
        self.bits = bits

    def __missing__(self, row) -> int:
        if len(row) > len(self.bits):
            raise ValueError(f"row {row} is longer than its {len(self.bits)} cells")
        key = self[row] = sum(map(dict.__getitem__, self.bits, row))
        return key

    def keyer(self, count: int):
        """The key function of fillings of ``count`` rows that share this memo's
        table: :func:`rows_monomial`'s row-count check, then one C-level sum."""
        lookup = self.__getitem__
        def key(rows) -> int:
            if len(rows) != count:
                raise ValueError(f"{len(rows)} rows for {count} cell tables")
            return sum(map(lookup, rows))
        return key


class WeightCode:
    """The weight monomials of fillings of ``cells`` and ``others``, as integer keys.

    Variable j of ``variables`` (every ``(color, weight_num)`` that a cell of
    a table takes with an entry in 1..N, in canonical order) owns bits
    j*width .. (j+1)*width - 1 of a key, which hold its exponent, so the key
    of a product is the sum of the keys.  ``width`` is the bit length of the
    largest table's cell count, so a field holds any exponent of a monomial
    with that many cells: fields never carry, and equal keys mean equal
    monomials.  Above all variable fields, from bit ``top``, a key holds its
    monomial's degree numerator (n times the degree): each variable's unit
    key carries its ``weight_num`` there.  So ``key >> top`` is n times the
    degree, and the least key has the least degree.  On a shifted staircase
    code that field can be negative, and so can the key; Python's integers
    keep the fields below ``top`` exact all the same.  Row keys are memoized
    per key function (:meth:`keyer`); ``key`` keeps its memos for the life of
    the code, one family or call.  A staircase code's rows share one table
    (none at N = 0), so ``key`` reads one ``memo`` by bound lookup, as the
    signed sums do inline; on codes with several tables ``memo`` is None.
    """

    def __init__(self, cells, n: int, N: int, others=()):
        tables = (cells, *others)
        values = range(1, N + 1)
        self.n = n
        self.variables = sorted({(color, n * v + offset) for table in tables
                                 for row in table for color, offset in row for v in values})
        self.width = max(sum(map(len, table)) for table in tables).bit_length()
        self.top = len(self.variables) * self.width
        self.unit = {var: (1 << (j * self.width)) + (var[1] << self.top)
                     for j, var in enumerate(self.variables)}
        # bits[c][v] per row of a table: the key of entry v in cell c.
        self._bits = {row: tuple({v: self.unit[(color, n * v + offset)] for v in values}
                                 for color, offset in row) for row in set().union(*tables)}
        self._powers: dict[tuple[int, int], int] = {}
        self.memo = _RowKeys(self._bits[cells[0]] if cells else ()) if len(set(cells)) < 2 else None
        self.key = self.memo.keyer(len(cells)) if self.memo is not None else self.keyer(cells)

    def keyer(self, cells):
        """The key function of fillings of ``cells``, whose rows are rows of the
        code's tables: the key of :func:`rows_monomial`, raising ValueError as it does.
        Row keys are memoized on the function, one memo per distinct row table,
        so a filling's key is one C-level sum that zips its rows with their
        memos.  A staircase code's own ``key`` reads its one ``memo`` instead
        (:meth:`_RowKeys.keyer`)."""
        memos = {row: _RowKeys(self._bits[row]) for row in cells}
        tables = tuple(memos[row] for row in cells)
        count = len(tables)
        def key(rows) -> int:
            if len(rows) != count:
                raise ValueError(f"{len(rows)} rows for {count} cell tables")
            return sum(map(dict.__getitem__, tables, rows))
        return key

    def cell_bits(self, row) -> tuple:
        """The keys of the entries of each cell of ``row``, a row of the code's
        tables: ``cell_bits(row)[c][v]`` is the key of entry v in cell c."""
        return self._bits[row]

    def power_key(self, j: int, k: int) -> int:
        """The key of (prod_i x(i, j))^k, the j-th term of the loop power sum;
        each is computed once per code."""
        key = self._powers.get((j, k))
        if key is None:
            key = self._powers[(j, k)] = k * sum(self.unit[(i, self.n * j)] for i in range(self.n))
        return key

    def decode(self, key: int) -> Monomial:
        """The monomial of a key, in the variables' canonical order.  The degree
        field is masked off first; a run of empty fields is skipped in one
        shift, to the field of the lowest set bit."""
        width, mask, variables, out, j = self.width, (1 << self.width) - 1, self.variables, [], 0
        key &= (1 << self.top) - 1
        while key:
            exp = key & mask
            if exp:
                out.append((*variables[j], exp))
                key >>= width
                j += 1
            else:
                skip = ((key & -key).bit_length() - 1) // width
                key >>= skip * width
                j += skip
        return Monomial(tuple(out))

    def polynomial(self, counts) -> Polynomial:
        """The polynomial of a key-to-coefficient map, decoding each nonzero term once."""
        return Polynomial(self.n, {self.decode(key): c for key, c in counts.items() if c})


class KeyPolynomial(dict):
    """A polynomial as a map from integer key to nonzero coefficient, on a
    layout whose fields never carry, so that a product's key is the sum of its
    factors' keys.  It has ``+``, ``-`` and ``*``: all :func:`subset_expansion` needs."""

    def __add__(self, other: "KeyPolynomial", sign: int = 1) -> "KeyPolynomial":
        out = KeyPolynomial(self)
        for key, c in other.items():
            c = out.pop(key, 0) + sign * c
            if c:
                out[key] = c
        return out

    def __sub__(self, other: "KeyPolynomial") -> "KeyPolynomial":
        return self.__add__(other, -1)

    def __mul__(self, other: "KeyPolynomial") -> "KeyPolynomial":
        out: dict[int, int] = {}
        get = out.get
        for a, ca in self.items():
            for b, cb in other.items():
                key = a + b
                out[key] = get(key, 0) + ca * cb
        return KeyPolynomial({key: c for key, c in out.items() if c})


def weight_monomial(rows, lam: Partition, n: int, l: int = 0) -> Monomial:
    """Product over the cells of the filling ``rows`` of ``lam`` of
    ``x(color, entry + l * content / n)``: weight numerators are
    ``n * entry + l * (col - row)``, colors the content mod n, and l = 0 gives
    the unshifted weight.  Raises ValueError unless 0 <= l < n and the row
    lengths are the parts of ``lam``.
    """
    cells = young_cells(lam, n, l)
    got = tuple(map(len, rows))
    if got != lam.parts:
        raise ValueError(f"row lengths {list(got)} do not match shape rows {list(lam.parts)}")
    return rows_monomial(rows, cells, n)


def ssyt_code(shapes, n: int, l: int, N: int) -> WeightCode:
    """One :class:`WeightCode` for the (shifted) SSYT of ``shapes``; ``key`` weighs the first."""
    cells = [young_cells(lam, n, l) for lam in shapes]
    return WeightCode(cells[0], n, N, cells[1:])


def _row_keys(bits, floors, N: int, states: list):
    """The keys, as an iterable, of every weakly increasing filling of a row
    with entries at most N whose entry in column c exceeds ``floors[c]``;
    ``bits`` holds the :meth:`WeightCode.cell_bits` of the cells filled.  Each
    column extends the partial fillings ending at or below each value in one
    ``map`` per value.  ``states``, one list per walk over one ``bits``, keeps
    each column's floor and partial fillings from the call before, and only the
    columns from the first floor that differs are refilled."""
    c = 0
    while c < len(states) and states[c][0] == floors[c]:
        c += 1
    del states[c:]
    ends = states[-1][1] if states else [[0]] + [[] for _ in range(N)]  # ends[v]: keys ending in v
    for cell, floor in zip(bits[c:], floors[c:]):
        reach, extended = [], [[] for _ in range(N + 1)]
        for v in range(N + 1):
            reach += ends[v]
            if v > floor:
                extended[v] = list(map(cell[v].__add__, reach))
        ends = extended
        states.append((floor, ends))
    return chain.from_iterable(ends)


def _heads(bits, above, N: int) -> list[tuple[tuple[int, ...], int]]:
    """Each weakly increasing row of entries at most N whose column c exceeds
    ``above[c]``, with its key from ``bits``."""
    heads = [((), 0)]
    for cell, floor in zip(bits, above):
        heads = [(head + (v,), key + cell[v]) for head, key in heads
                 for v in range(max(floor + 1, head[-1] if head else 0), N + 1)]
    return heads


def ssyt_keys(lam: Partition, n: int, l: int, N: int, code: WeightCode) -> Counter:
    """The (shifted) weight keys of the SSYT of ``lam`` with entries at most
    N, counted; ``code`` is an :func:`ssyt_code` whose shapes include ``lam``.

    The rows are walked one at a time, the keys of rows 1..r grouped by the
    first ``lam.part(r + 1)`` entries of row r, all that row r + 1 depends on.
    The first row comes from :func:`enumerate_ssyt`, keyed in bulk.  Each later
    row visits its groups in sorted order, so that consecutive groups share the
    column states of :func:`_row_keys` up to their first differing floor; that
    one column step fills the last row and each tail (the entries after the
    head that names the next group), floors raised to start it at the head's
    last entry, through a memo that lives for one row.  Heads and their keys are
    built once per run of groups with the same entries above them; when the
    next row is as long, a head is the whole row and its key alone is added to
    the group's keys.  Row keys are added to every key of the group by C-level
    iteration, the last row's straight into the counts.  Groups are released as
    they are filled, so beside the counts the call holds at most one key per
    tableau of the rows above the last.
    """
    if not lam.parts:
        return Counter((0,))
    bits, parts = [code.cell_bits(row) for row in young_cells(lam, n, l)], lam.parts + (0,)
    groups: dict[tuple[int, ...], list[int]] = {}
    first_rows = map(itemgetter(0), enumerate_ssyt(Partition(parts[:1]), N))
    for above, rows in groupby(first_rows, itemgetter(slice(parts[1]))):
        groups.setdefault(above, []).extend(
            map(sum, map(map, repeat(dict.__getitem__), repeat(bits[0]), rows)))
    counts = Counter(groups.get((), ()) if len(lam) == 1 else ())  # a first row that is the last
    for r in range(1, len(lam)):
        m, grown, tails, states, tail_states, prefix = parts[r + 1], {}, {}, [], [], None
        for above in sorted(groups):  # popped, so each group's memory is reused
            keys = groups.pop(above)
            if not m:  # the last row
                counts.update(starmap(add, product(keys, _row_keys(bits[r], above, N, states))))
                continue
            if m == parts[r]:  # each head is a whole row, its tail empty
                for head, head_key in _heads(bits[r], above, N):
                    grown.setdefault(head, []).extend(map(head_key.__add__, keys))
                continue
            if above[:m] != prefix:  # heads and their keys by last entry, once per prefix
                prefix, heads = above[:m], {}
                for head, head_key in _heads(bits[r], prefix, N):
                    heads.setdefault(head[-1], []).append((head, head_key))
            for last, same_last in heads.items():
                floors = tuple(map(max, above[m:], repeat(last - 1)))
                tail = tails.get(floors)
                if tail is None:
                    tail = tails[floors] = list(_row_keys(bits[r][m:], floors, N, tail_states))
                if not tail:
                    continue
                if len(same_last) == 1:  # a lone head's key joins its tail, in one pass
                    head, head_key = same_last[0]
                    grown.setdefault(head, []).extend(
                        starmap(add, product(keys, map(head_key.__add__, tail))))
                    continue
                grouped = list(starmap(add, product(keys, tail)))
                for head, head_key in same_last:
                    grown.setdefault(head, []).extend(map(head_key.__add__, grouped))
        groups = grown
    return counts


def loop_schur(lam: Partition, n: int, N: int) -> Polynomial:
    """Truncated loop Schur function: the weight generating function of
    semistandard tableaux of ``lam`` with entries at most N, colored mod n."""
    return shifted_loop_schur(lam, ShiftParams(n), N)


def shifted_loop_schur(lam: Partition, shift: ShiftParams, N: int) -> Polynomial:
    """Truncated shifted loop Schur function over the same tableau family.
    Counts the weight keys of the tableaux, then decodes each distinct key once."""
    code = ssyt_code((lam,), shift.n, shift.l, N)
    return code.polynomial(ssyt_keys(lam, shift.n, shift.l, N, code))


def loop_power_sum(k: int, n: int, N: int) -> Polynomial:
    """The truncated loop power sum: sum over j <= N of (prod_i x(i, j))^k."""
    if k < 1:
        raise ValueError(f"exponent must be positive, got {k}")
    terms: dict[Monomial, int] = {}
    for j in range(1, N + 1):
        m = Monomial.from_exponents({(i, n * j): k for i in range(n)})
        terms[m] = terms.get(m, 0) + 1
    return Polynomial(n, terms)


def staircase_monomial(N: int, n: int, l: int = 0) -> Monomial:
    """(Shifted) weight monomial of the standard staircase filling: row j holds j.

    This is the common monomial factor carried by every fixed point of the
    first pairing map, and the minimum-degree term among row-weakly-increasing
    fillings of the staircase.
    """
    rows = tuple((j,) * (N - j + 1) for j in range(1, N + 1))
    return rows_monomial(rows, staircase_cells(Partition(), N, 0, n, l), n)
