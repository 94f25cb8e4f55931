"""Row-labeled tableau families on staircase extensions and the four pairing maps.

A member of a family is a pair (T, tau): a row-weakly-increasing filling of a
staircase extension with entries in {1..N}, together with row labels tau (a
permutation of 1..N) such that the leftmost entry of row j is at least tau_j.
The pair contributes sgn(tau) times its weight monomial to a signed sum.

The base family lives on the plain staircase extension of the partition; the
augmented family lives on the staircase extension with k*n cells appended to
the right of one row i, ranging over i = 1..N.  Each family is counted and
sampled from one label table: the augmented family's sum over i is the ε part
(ε² = 0) of one permanent, carried as a second table of integers beside the
first.  Four involutions act on these families:

``i1``
    finds the rightmost, then highest, vertically adjacent cell pair whose
    upper entry is at least the lower entry, swaps every entry strictly left
    of the upper cell with the entry to its southeast, and transposes the two
    row labels.  Fixed points are exactly the column-strict fillings.
``i2``
    on the augmented family: moves the leading k*n cells of the lengthened
    row to the row labeled by their last entry.  Fixed points are the members
    whose lengthened row starts with k*n copies of its own label.
``i3``
    swaps the two equal-length rows outright when the lengthened row ties
    another row; otherwise slides the lengthened row northwest until row
    lengths strictly decrease, applies ``i1`` there, and slides back.
``i4``
    like ``i2`` but compensates entries by +-k*l so that the shifted weight
    is preserved; defined on members whose lengthened row stays at or below
    N - k*l, and it has no fixed points for l >= 1.

Every map is an involution, reverses the label sign on non-fixed points, and
preserves the (shifted, where stated) weight monomial.  Cells only ever move
along their diagonals or jump a multiple of n columns, which is why the
weights survive.  Row r of a staircase extension with N rows spans columns
r - N .. lam_r, so a cell's content depends only on its index within its row;
the maps below exploit this by operating on row tuples positionally.

A family is named by plain parameters ``(lam, N, d)``, with d cells appended
to the lengthened row (d = 0: the base family).  A member is plain data, a
:data:`Member` ``(rows, tau, i)``: the row tuples, the labels and the
lengthened row (0 on the base family).  Each map is written once, on members:
it trusts its input, validates nothing and builds nothing, and
:func:`validate_in_family` is the one membership check.  ``check_involution``
(:mod:`loopschur.verify`) applies the maps and checks every member by the
steps that its ``_check_member`` states, reading which members a map fixes or
moves off the rules here (:func:`is_column_strict`, :func:`i2_is_fixed`,
:func:`i3_swaps`, :func:`in_low_family`).  Enumerated and sampled members
are valid by construction.  Every stream yields plain members, and a
:class:`SignedTableau` pairs one with its family only to weigh or document it.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product, repeat
from operator import le
from typing import Iterator, NamedTuple

from .errors import CapExceededError, MembershipError
from .polyring import Monomial, Polynomial
from .shapes import Partition, require_rows
from .tableaux import ShiftParams, WeightCode, rows_monomial, staircase_cells

DEFAULT_CAP = 10**7

Member = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]
"""A family member as plain data: rows, labels tau, lengthened row (0 on the base family)."""


def permutation_sign(tau: tuple[int, ...]) -> int:
    """sgn(tau) for a permutation tau of 1..N: (-1) ** (N - its number of
    cycles), walking each cycle once, so O(N)."""
    seen = bytearray(len(tau) + 1)
    parity = len(tau)
    for start in tau:
        if not seen[start]:
            parity -= 1
            value = start
            while not seen[value]:
                seen[value] = 1
                value = tau[value - 1]
    return -1 if parity % 2 else 1


class SignedTableau(NamedTuple):
    """A member with its family's parameters: the family ``lam, n, N, d``
    (colored mod n, d cells appended) and the member ``rows, tau, i`` (see
    :data:`Member`).

    The signed sums weigh the first member of each distinct key with
    :meth:`monomial`, and a failing check's witness is its
    :meth:`to_document`.  Construction checks nothing; :meth:`monomial`
    raises ValueError when the rows do not fit the family.
    """

    lam: Partition
    n: int
    N: int
    d: int
    rows: tuple[tuple[int, ...], ...]
    tau: tuple[int, ...]
    i: int

    def monomial(self, l: int = 0) -> Monomial:
        """The (shifted) weight monomial, read off the family's cell table."""
        cells = staircase_cells(self.lam, self.N, self.d, self.n, l)
        return rows_monomial(self.rows, cells, self.n)

    def to_document(self) -> dict:
        doc = {
            "kind": "extended_row" if self.d else "extended",
            "lambda": list(self.lam.parts),
            "N": self.N,
            "n": self.n,
            "rows": [list(row) for row in self.rows],
            "tau": list(self.tau),
        }
        if self.d:
            doc["extra"] = self.d
            doc["extended_row"] = self.i
        return doc


def validate_in_family(member: Member, lam: Partition, N: int, d: int) -> None:
    """Raise :class:`MembershipError` unless ``member`` belongs to the family of
    ``lam`` with N rows and d cells appended to its lengthened row (d = 0: the
    base family)."""
    rows, tau, i = member
    if not (1 <= i <= N if d else i == 0):
        raise MembershipError(f"lengthened row {i} outside the family")
    lengths = tuple(map(len, rows))
    if lengths != _row_lengths(lam, N, d, i):
        raise MembershipError(f"row lengths {lengths} do not match the family")
    if sorted(tau) != list(range(1, N + 1)):
        raise MembershipError(f"labels {tau} are not a permutation of 1..{N}")
    for r, row in enumerate(rows, start=1):
        # A weakly increasing row inside 1..N passes whole; any other is walked
        # entry by entry to name its first fault.
        if not (1 <= row[0] and row[-1] <= N and all(map(le, row, row[1:]))):
            for idx, value in enumerate(row):
                if not 1 <= value <= N:
                    raise MembershipError(f"entry {value} in row {r} outside 1..{N}")
                if idx and row[idx - 1] > value:
                    raise MembershipError(f"row {r} is not weakly increasing: {row}")
        if row[0] < tau[r - 1]:
            raise MembershipError(
                f"row {r} starts with {row[0]}, below its label {tau[r - 1]}"
            )


# ---------------------------------------------------------------------------
# Family counting, enumeration, and uniform sampling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)  # reused by every validated image of a family
def _row_lengths(lam: Partition, N: int, d: int = 0, i: int = 0) -> tuple[int, ...]:
    """The row lengths of the family of ``lam`` with N rows and d cells
    appended to row i; every counter and sampler reaches this before building
    a label table, so N < len(lam) is refused here."""
    require_rows(lam, N)
    return tuple(
        lam.part(r) + (N - r + 1) + (d if r == i else 0)
        for r in range(1, N + 1)
    )


def count_weakly_increasing(lo: int, hi: int, length: int) -> int:
    """Number of weakly increasing sequences of the given length over [lo, hi]."""
    values = hi - lo + 1
    if length == 0:
        return 1
    if values <= 0:
        return 0
    return math.comb(values + length - 1, length)


def unrank_weakly_increasing(lo: int, hi: int, length: int, index: int) -> tuple[int, ...]:
    """The index-th weakly increasing sequence over [lo, hi] in lexicographic
    order, by one ``math.comb``: the count, which bounds the index."""
    total = count_weakly_increasing(lo, hi, length)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside 0..{total - 1}")
    return _unrank(lo, hi, length, index, total)


def _unrank(lo: int, hi: int, length: int, index: int, block: int) -> tuple[int, ...]:
    """:func:`unrank_weakly_increasing` given ``block``, the sequences' count.

    With ``rest`` places after the current one, the sequences that put value v
    there number C(a, rest) with a = hi - v + rest.  Exact steps carry the
    block to the next place, C(a, rest) = C(a + 1, rest + 1) * (rest + 1) //
    (a + 1), and to the next value, C(a - 1, rest) = C(a, rest) * (a - rest) // a.
    """
    seq, value, a = [], lo, hi - lo + length
    for rest in range(length - 1, -1, -1):
        block = block * (rest + 1) // a
        a -= 1
        while index >= block:
            index -= block
            block = block * (a - rest) // a
            a -= 1
            value += 1
        seq.append(value)
    return tuple(seq)


class _LabelTable(NamedTuple):
    """Counts of one row-labeled family, as integers, by subset dynamic programming.

    ``lengths`` are the row lengths and ``fillings[r][t]`` the number of
    weakly increasing fillings of row r + 1 with entries in [t + 1, N], that
    is, with label t + 1; ``longer[r][t]`` counts the same row lengthened by d
    cells, with entries at most ``top``.  ``subsets[S]`` is the number of
    fillings of the last |S| rows whose labels are exactly the set S (bit t is
    label t + 1), and ``lengthened[S]`` the number in which one of those rows
    is the lengthened one: the ε part of the permanent of fillings + ε·longer.
    """

    d: int
    top: int
    lengths: tuple[int, ...]
    fillings: tuple[tuple[int, ...], ...]
    longer: tuple[tuple[int, ...], ...]
    subsets: tuple[int, ...]
    lengthened: tuple[int, ...]


def subset_expansion(matrix, zero, one, signed=False) -> list:
    """Laplace expansion of an N x N ``matrix`` (integer or polynomial entries,
    with the ring's ``zero`` and ``one``) over column subsets.

    Entry S of the returned list is the permanent of the last |S| rows on the
    columns in S (bit t is column t); with ``signed``, the term at column t
    carries the sign (-1) ** (columns of S below t), so entry S is that minor
    and the last entry the determinant.  O(2^N * N) products, 2^N entries.
    """
    N = len(matrix)
    subsets = [one] + [zero] * ((1 << N) - 1)
    for subset in range(1, 1 << N):
        row = matrix[N - subset.bit_count()]
        total = zero
        rest = subset
        odd = False
        while rest:
            bit = rest & -rest
            rest ^= bit
            term = row[bit.bit_length() - 1] * subsets[subset ^ bit]
            total = total - term if odd else total + term
            odd ^= signed
        subsets[subset] = total
    return subsets


@lru_cache(maxsize=64)  # reused by every draw of a sampled check
def _label_table(lam: Partition, N: int, d: int = 0, top: int = 0) -> _LabelTable:
    """The :class:`_LabelTable` of the family of ``lam`` with N rows and d
    cells appended to a lengthened row whose entries stay at most ``top``
    (d = 0: the base family).

    The base family's subset counts are one unsigned :func:`subset_expansion`
    of the row counts; the augmented family's run its loop with the ε part on
    a second integer list: with r = N - |S|, ``lengthened[S]`` sums
    ``fillings[r][t]·lengthened[S-t] + longer[r][t]·subsets[S-t]`` over t in S.
    O(2^N * N) integer products and 2^N entries a part.
    """
    lengths = _row_lengths(lam, N)
    fillings, longer = (
        tuple(tuple(count_weakly_increasing(t, hi, length + extra) for t in range(1, N + 1))
              for length in lengths)
        for hi, extra in ((N, 0), (top, d))
    )
    if not d:
        subsets = tuple(subset_expansion(fillings, 0, 1))
        return _LabelTable(d, top, lengths, fillings, longer, subsets, ())
    subsets, lengthened = [1] + [0] * ((1 << N) - 1), [0] * (1 << N)
    for subset in range(1, 1 << N):
        r = N - subset.bit_count()
        row, long_row, rest = fillings[r], longer[r], subset
        plain = either = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            t, below = bit.bit_length() - 1, subset ^ bit
            plain += row[t] * subsets[below]
            either += row[t] * lengthened[below] + long_row[t] * subsets[below]
        subsets[subset], lengthened[subset] = plain, either
    return _LabelTable(d, top, lengths, fillings, longer, tuple(subsets), tuple(lengthened))


def _augmented_table(lam: Partition, n: int, k: int, N: int, l: int) -> _LabelTable:
    """The table of the augmented family whose lengthened row stays at or below
    N - k*l; n < 1 and k < 1 name no such family and are refused first."""
    ShiftParams(n)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _label_table(lam, N, k * n, N - k * l)


def count_staircase_tableaux(lam: Partition, N: int) -> int:
    """Exact size of the base family, by subset dynamic programming over the
    labels: O(2^N * N) time and a 2^N-entry table, not a sum over N! labelings."""
    return _label_table(lam, N).subsets[-1]


def count_augmented_tableaux(lam: Partition, n: int, k: int, N: int, l: int = 0) -> int:
    """Exact size of the augmented family, summed over the lengthened row i
    as the ε part of one label table: O(2^N * N) integer products, two
    2^N-entry tables.  With ``l`` >= 1, the size of the fourth map's low family
    (lengthened row at or below N - k*l), from a table of its own."""
    return _augmented_table(lam, n, k, N, l).lengthened[-1]


def _members(lam: Partition, N: int, d: int, lengthened, top: int) -> Iterator[Member]:
    """Every member of the family of ``lam`` with N rows and d cells appended
    whose lengthened row stays at or below ``top``, for each lengthened row in
    turn (d = 0 and row 0: the base family, where ``top`` bounds nothing).
    The members come in the order of the unbounded stream."""
    for i in lengthened:
        lengths = _row_lengths(lam, N, d, i)
        for tau in permutations(range(1, N + 1)):
            options = [
                combinations_with_replacement(range(tau[r], (top if r == i - 1 else N) + 1),
                                              lengths[r])
                for r in range(N)
            ]
            yield from zip(product(*options), repeat(tau), repeat(i))


def enumerate_staircase_tableaux(
    lam: Partition, n: int, N: int, cap: int = DEFAULT_CAP
) -> Iterator[Member]:
    """Deterministic exhaustive stream of the base family, colored mod n, as
    plain data; ValueError for n < 1.

    Counts the family when called, and refuses with :class:`CapExceededError`
    when the exact member count exceeds ``cap``, before the stream is made;
    counting costs O(2^N * N), so a refusal is cheap.
    """
    ShiftParams(n)
    count = count_staircase_tableaux(lam, N)
    if count > cap:
        raise CapExceededError(count, cap)
    return _members(lam, N, 0, (0,), N)


def enumerate_augmented_tableaux(
    lam: Partition, n: int, k: int, N: int, cap: int = DEFAULT_CAP, l: int = 0
) -> Iterator[Member]:
    """Like :func:`enumerate_staircase_tableaux` for the augmented family, i
    ascending; a refusal costs one label table.  With ``l`` >= 1 only the low
    family of the fourth map comes out, the members whose lengthened row stays
    at or below N - k*l, in the same order; the cap still counts the whole family."""
    count = count_augmented_tableaux(lam, n, k, N)
    if count > cap:
        raise CapExceededError(count, cap)
    return _members(lam, N, k * n, range(1, N + 1), N - k * l)


def _draw(table: _LabelTable, seed: int | random.Random) -> Member:
    """A uniform member of ``table``'s family, deterministic given a seed.

    One index below the family's size is unranked top-down: each row walks
    its free labels t, lowest first, and weighs its fillings with label t, then
    (until the lengthened row is placed) its lengthened ones, by the members
    left for the rows below.  Each row is then unranked among its fillings.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    d, top, lengths, fillings, longer, subsets, lengthened = table
    N, total = len(lengths), (lengthened if d else subsets)[-1]
    if total <= 0:
        raise ValueError("family is empty")
    index, free, tau, counts, i = rng.randrange(total), (1 << N) - 1, [], [], 0
    labels = list(range(N))  # the free labels, lowest first: the set bits of free
    for r in range(N):
        placed = i or not d  # whether the rows below need no lengthened row
        row, long_row, below = fillings[r], longer[r], subsets if placed else lengthened
        for t in labels:
            left = free ^ (1 << t)  # the labels left for the rows below
            count = row[t]
            if index < (block := count * below[left]):
                break
            index -= block
            if not placed:
                count = long_row[t]
                if index < (block := count * subsets[left]):
                    i = r + 1
                    break
                index -= block
        labels.remove(t)
        tau.append(t + 1)
        counts.append(count)
        free ^= 1 << t
        index //= count
    rows = []
    for r, (t, length, count) in enumerate(zip(tau, lengths, counts), start=1):
        hi, length = (top, length + d) if r == i else (N, length)
        rows.append(_unrank(t, hi, length, rng.randrange(count), count))
    return tuple(rows), tuple(tau), i


def sample_staircase_tableau(lam: Partition, n: int, N: int, seed: int | random.Random) -> Member:
    """A uniformly random member of the base family, deterministic given a seed.

    Labelings are drawn proportionally to the fillings they admit, then each
    row uniformly, which makes the draw uniform over the family.  The table of
    :func:`count_staircase_tableaux` costs O(2^N * N) time and 2^N entries to
    build once.  A member then costs N + 1 ``randrange`` calls, at most
    N(N + 1)/2 integer products for its labels, and per row one exact step a
    cell and a value skipped, with no ``math.comb`` (:func:`_unrank`).
    ValueError for n < 1.
    """
    ShiftParams(n)
    return _draw(_label_table(lam, N), seed)


def sample_augmented_tableau(
    lam: Partition, n: int, k: int, N: int, seed: int | random.Random, l: int = 0
) -> Member:
    """A uniformly random member of the augmented family, deterministic given a seed.

    With ``l`` >= 1 the draw is uniform over the low family of the fourth
    map, whose lengthened row stays at or below N - k*l.  The labeling and
    the lengthened row are unranked together from the one table of
    :func:`count_augmented_tableaux`, row by row and label first, so members
    are not grouped by lengthened row.  Building the table costs O(2^N * N)
    integer products, three for each of the base table's, and two 2^N-entry
    tables of integers; a member then costs what one of
    :func:`sample_staircase_tableau` does, with two choices per free label
    until the lengthened row is placed.
    """
    return _draw(_augmented_table(lam, n, k, N, l), seed)


# ---------------------------------------------------------------------------
# The pairing maps
# ---------------------------------------------------------------------------


def _swapped(items: tuple, a: int, b: int) -> tuple:
    out = list(items)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def _moved(items: tuple, a: int, b: int) -> tuple:
    """``items`` with its a-th entry (1-based) moved to place b."""
    out = list(items)
    out.insert(b - 1, out.pop(a - 1))
    return tuple(out)


@lru_cache(maxsize=256)  # reused by neighbouring members of an exhaustive walk
def _pair_violation(upper: tuple[int, ...], lower: tuple[int, ...]) -> int:
    """The rightmost position q >= 1 of ``upper`` with upper[q] >= lower[q-1],
    or 0 when the pair of rows is column-strict.  Only the two rows decide it,
    so the scans of neighbouring members and of images share it.  Members
    enumerated in product order share most pairs with the members just
    before them, and sampled ones rarely do, so a small memo keeps the hits
    and little memory."""
    for q in range(min(len(upper), len(lower) + 1) - 1, 0, -1):
        if upper[q] >= lower[q - 1]:
            return q
    return 0


def column_violation(rows) -> tuple[int, int] | None:
    """Rightmost, then highest, vertical pair with upper entry >= lower entry.

    Returns (r, q) where the violating upper cell is the q-th entry (0-based)
    of row r (0-based), or None when the filling is column-strict.  A cell's
    column is its row index offset by its position, so the pair at column c
    sits at positions q and q-1 of rows r and r+1, and c grows with r + q.
    """
    best, reach = None, 0
    for r, q in enumerate(map(_pair_violation, rows, rows[1:])):
        if q and r + q > reach:
            best, reach = (r, q), r + q
    return best


def is_column_strict(rows) -> bool:
    """True when no vertical pair of cells has its upper entry at or above the
    lower; stops at the first pair of rows that has one."""
    return not any(map(_pair_violation, rows, rows[1:]))


def staircase_entries_standard(rows) -> bool:
    """True when every cell in columns <= 0 carries its own row index."""
    N = len(rows)
    return all(value == r for r, row in enumerate(rows, start=1) for value in row[:N - r + 1])


def i1(member: Member) -> Member:
    """First pairing map, on the base family.

    Locates the rightmost-then-highest column violation, exchanges the
    prefixes of the two rows along their diagonals, and transposes the two
    labels.  Column-strict members are fixed; for them the staircase entries
    are forced to their row index and the labels to the identity.
    """
    rows, tau, i = member
    hit = column_violation(rows)
    if hit is None:
        return member
    r, q = hit
    upper, lower = rows[r], rows[r + 1]
    rows = rows[:r] + (lower[:q] + upper[q:], upper[:q] + lower[q:]) + rows[r + 2:]
    return rows, _swapped(tau, r, r + 1), i


def i2_is_fixed(member: Member, d: int) -> bool:
    """Whether :func:`i2` fixes the member: its lengthened row starts with d
    copies of its own label."""
    rows, tau, i = member
    return rows[i - 1][d - 1] == tau[i - 1]


def i2(member: Member, d: int) -> Member:
    """Second pairing map, on the augmented family with d = k*n appended cells.

    Fixed when the lengthened row i starts with d copies of its label.
    Otherwise the leading block ends with some value v > tau_i: the block
    moves to the left end of the row labeled v, that row slides right to make
    room, and the two labels swap.  Entries never change, and the vacated and
    filled cells cover the same contents, so the weight is preserved while
    the sign flips.
    """
    if i2_is_fixed(member, d):
        return member
    rows, tau, i = member
    row = rows[i - 1]
    j = tau.index(row[d - 1]) + 1
    moved = list(rows)
    moved[i - 1] = row[d:]
    moved[j - 1] = row[:d] + rows[j - 1]
    return tuple(moved), _swapped(tau, i - 1, j - 1), j


def extract_power_sum_factor(member: Member, d: int) -> Member:
    """Split a fixed point of :func:`i2` into a base-family member; its
    lengthened row i is ``member[2]``.

    Drops the leading block of row i; the block contributes the k-th power
    of the product of all colors at weight tau_i, so the weight of the input
    equals that factor times the weight of the output.  The labels, and
    hence the sign, are untouched.
    """
    rows, tau, i = member
    return rows[:i - 1] + (rows[i - 1][d:],) + rows[i:], tau, 0


def insert_power_sum_factor(member: Member, i: int, d: int) -> Member:
    """Inverse of :func:`extract_power_sum_factor`: prepend d = k*n copies of
    its label to row i of a base-family member."""
    rows, tau, _ = member
    return rows[:i - 1] + ((tau[i - 1],) * d + rows[i - 1],) + rows[i:], tau, i


def _climb(rows, i: int) -> tuple[int, bool]:
    """Where the lengthened row i stops sliding northwest past shorter rows,
    and whether the row it stops under has its own length.  The other rows
    strictly decrease in length, and only those above i can be as long, so
    that row is the only one that can tie."""
    length, p = len(rows[i - 1]), i
    while p > 1 and len(rows[p - 2]) < length:
        p -= 1
    return p, p > 1 and len(rows[p - 2]) == length


def i3_swaps(lam: Partition, N: int, d: int, i: int) -> bool:
    """Whether the lengthened row i of the family of ``lam`` with N rows and d
    cells appended is exactly as long as a row above it.  The row lengths
    decide it, so :func:`i3` swaps two equal rows of every such member and
    fixes none of them."""
    lengths = _row_lengths(lam, N, d, i)
    return lengths[i - 1] in lengths[:i - 1]


def slide_to_border_strip(member: Member) -> tuple[tuple[int, ...], int, Member]:
    """Carry a fixed point of :func:`i3` to its border-strip staircase family.

    Slides the lengthened row northwest, exchanging whole rows, until row
    lengths strictly decrease.  Rows start at column r - N, so exchanging the
    row tuples moves every cell one step along its diagonal.  Returns
    (parts, height, member): the parts of the partition sigma the slid rows
    fill, which enlarges the base partition by a border strip whose height
    equals the number of slides, and the slid member, a column-strict (hence
    :func:`i1`-fixed) element of the base family of sigma with the same
    weight.  The sign picks up (-1)**height.
    """
    rows, tau, i = member
    p = _climb(rows, i)[0]
    rows = _moved(rows, i, p)
    N = len(rows)
    parts = [len(row) - (N - r) for r, row in enumerate(rows)]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts), i - p, (rows, _moved(tau, i, p), 0)


def slide_from_border_strip(member: Member, top: int, bottom: int) -> Member:
    """Inverse of :func:`slide_to_border_strip`: slide row ``top`` back down
    to row ``bottom``, the lengthened row; :func:`strip_rows` gives both."""
    rows, tau, _ = member
    return _moved(rows, top, bottom), _moved(tau, top, bottom), bottom


def i3(member: Member) -> Member:
    """Third pairing map, on the augmented family.

    Equal-length branch: when the lengthened row i ties another row j, the
    two rows cover the same contents, so swapping their entries and labels
    preserves the weight and flips the sign.  Distinct-length branch: slide
    row i northwest until row lengths strictly decrease, landing on the
    staircase extension of a border-strip enlargement; apply :func:`i1`
    there; slide back.  Fixed points are the members whose slide lands on a
    column-strict filling.  A row that does not climb needs no slide.
    """
    rows, tau, i = member
    p, tie = _climb(rows, i)
    if tie:
        return _swapped(rows, i - 1, p - 2), _swapped(tau, i - 1, p - 2), i
    if p == i:
        rows, tau, _ = i1((rows, tau, 0))
        return rows, tau, i
    return slide_from_border_strip(i1((_moved(rows, i, p), _moved(tau, i, p), 0)), p, i)


def strip_rows(sigma: Partition, lam: Partition) -> tuple[int, int]:
    """First and last row of the strip sigma / lam; ValueError unless sigma
    contains lam and exceeds it in a nonempty run of contiguous rows."""
    if not sigma.contains(lam):
        raise ValueError(f"{sigma} does not contain {lam}")
    rows = [r for r in range(1, max(len(sigma), len(lam)) + 1) if sigma.part(r) > lam.part(r)]
    if not rows:
        raise ValueError(f"{sigma} equals {lam}; no strip to undo")
    top, bottom = rows[0], rows[-1]
    if rows != list(range(top, bottom + 1)):
        raise ValueError(f"{sigma} minus {lam} does not occupy contiguous rows")
    return top, bottom


def in_low_family(member: Member, kl: int) -> bool:
    """True when the lengthened row stays at or below N - kl, kl = k*l."""
    rows, _, i = member
    return rows[i - 1][-1] <= len(rows) - kl


def i4(member: Member, d: int, kl: int) -> Member:
    """Fourth pairing map, on augmented members whose lengthened row stays low.

    Defined on the low family (:func:`in_low_family`), with d = k*n
    appended cells and kl = k*l: every entry of the lengthened row i is at
    most N - k*l.  The leading block of row i moves to the row labeled
    m + k*l, where m is the block's last entry; the remainder of row i slides
    left k*n columns with k*l added to each entry, and the receiving row
    slides right with k*l subtracted.  Entry compensation exactly offsets the
    column jumps, so the shifted weight is preserved while the sign flips.
    For l >= 1 the map has no fixed points.
    """
    rows, tau, i = member
    row = rows[i - 1]
    j = tau.index(row[d - 1] + kl) + 1
    moved = list(rows)
    moved[i - 1] = tuple(map(kl.__add__, row[d:]))
    moved[j - 1] = row[:d] + tuple(map((-kl).__add__, moved[j - 1]))
    return tuple(moved), _swapped(tau, i - 1, j - 1), j


# ---------------------------------------------------------------------------
# Signed weight sums
# ---------------------------------------------------------------------------


def _signed_sum(members: Iterator[Member], lam: Partition, n: int, N: int, d: int,
                l: int) -> Polynomial:
    """Count the members' signed keys on one :class:`WeightCode` over the
    family's cells, built once the cap has admitted the family, and weigh the
    first member of each distinct key.  A member is keyed inline, as the
    code's ``key`` would: the row-count check, then one sum of bound lookups
    in its one ``memo``.  Members arrive grouped by labeling: one sign per
    run of equal labels."""
    terms: dict[int, list] = {}  # key: [signed count, first member]
    lookup = tau = sign = None
    for m in members:
        if lookup is None:
            lookup = WeightCode(staircase_cells(lam, N, d, n, l), n, N).memo.__getitem__
        if m[1] != tau:
            tau, sign = m[1], permutation_sign(m[1])
        rows = m[0]
        if len(rows) != N:
            raise ValueError(f"{len(rows)} rows for {N} cell tables")
        k = sum(map(lookup, rows))
        term = terms.get(k)
        if term is None:
            terms[k] = [sign, m]
        else:
            term[0] += sign
    return Polynomial(n, {SignedTableau(lam, n, N, d, *m).monomial(l): c
                          for c, m in terms.values() if c})


def staircase_signed_sum(
    lam: Partition, n: int, N: int, l: int = 0, cap: int = DEFAULT_CAP
) -> Polynomial:
    """Sum of sgn(tau) times the (shifted) weight over the base family; a bad
    shift is refused before the family is counted."""
    ShiftParams(n, l)
    return _signed_sum(enumerate_staircase_tableaux(lam, n, N, cap), lam, n, N, 0, l)


def augmented_signed_sum(
    lam: Partition, n: int, k: int, N: int, l: int = 0, cap: int = DEFAULT_CAP
) -> Polynomial:
    """Sum of sgn(tau) times the (shifted) weight over the augmented family.

    This is the generating function that equals both the power-sum product
    and the signed border-strip sum.  One cell table serves every lengthened
    row; a bad shift is refused before the family is counted.
    """
    ShiftParams(n, l)
    return _signed_sum(enumerate_augmented_tableaux(lam, n, k, N, cap), lam, n, N, k * n, l)
