import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, mul, sub

import pytest

from loopschur import (
    Monomial,
    Partition,
    Polynomial,
    ShiftParams,
    enumerate_ssyt,
    loop_power_sum,
    loop_schur,
    sample_staircase_tableau,
    shifted_loop_schur,
    specialize_forget_color,
    staircase_monomial,
    weight_monomial,
)
from loopschur.involutions import enumerate_augmented_tableaux, enumerate_staircase_tableaux
from loopschur.tableaux import (
    KeyPolynomial,
    WeightCode,
    rows_monomial,
    ssyt_code,
    ssyt_keys,
    staircase_cells,
    young_cells,
)

from conftest import assert_code_matches_rows_monomial, brute_partitions, random_polynomial


def hook_content_count(lam: Partition, N: int) -> int:
    """Number of semistandard fillings with entries <= N, by the product formula."""
    numerator, denominator = 1, 1
    conjugate = [sum(1 for p in lam.parts if p > c) for c in range(lam.part(1))]
    for r in range(1, len(lam) + 1):
        for c in range(1, lam.part(r) + 1):
            numerator *= N + c - r
            denominator *= (lam.part(r) - c) + (conjugate[c - 1] - r) + 1
    return numerator // denominator


SUBPARTITIONS_321 = [(), (1,), (2,), (3,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2),
                     (1, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1)]


def recursive_ssyt_rows(parts, N):
    """Reference enumeration: one recursive call per cell in reading order,
    entries ascending, so emission is lexicographic in the reading word."""
    if not parts:
        return [()]
    if len(parts) > N:
        return []
    rows = [[0] * p for p in parts]
    out = []

    def fill(r, c):
        if r == len(parts):
            out.append(tuple(tuple(row) for row in rows))
            return
        next_r, next_c = (r, c + 1) if c + 1 < parts[r] else (r + 1, 0)
        lo = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        for value in range(lo, N + 1):
            rows[r][c] = value
            fill(next_r, next_c)

    fill(0, 0)
    return out


class TestEnumerateSsyt:
    def test_row_of_two_with_two_entries(self):
        rows = list(enumerate_ssyt(Partition.of(2), 2))
        assert rows == [((1, 1),), ((1, 2),), ((2, 2),)]

    def test_column_strictness_impossible(self):
        assert list(enumerate_ssyt(Partition.of(1, 1), 1)) == []

    def test_count_via_product_formula(self):
        lam = Partition.of(2, 1)
        assert hook_content_count(lam, 5) == 40
        assert sum(1 for _ in enumerate_ssyt(lam, 5)) == 40

    def test_empty_partition_single_empty_tableau(self):
        tableaux = list(enumerate_ssyt(Partition(), 3))
        assert len(tableaux) == 1 and tableaux[0] == ()

    def test_counts_match_product_formula_on_grid(self):
        for parts in [(1,), (2,), (1, 1), (3, 1), (2, 2, 1)]:
            lam = Partition(parts)
            for N in range(1, 6):
                assert sum(1 for _ in enumerate_ssyt(lam, N)) == hook_content_count(lam, N)

    def test_all_valid_and_lexicographic(self):
        seen = []
        for rows in enumerate_ssyt(Partition.of(2, 2), 4):
            for r in range(1, 3):
                row = rows[r - 1]
                assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
            assert all(rows[0][c] < rows[1][c] for c in range(2))
            seen.append(sum(rows, ()))
        assert seen == sorted(seen)

    @pytest.mark.parametrize("parts", SUBPARTITIONS_321, ids=str)
    def test_emission_order_matches_recursive_reference(self, parts):
        lam = Partition(parts)
        for N in range(6):
            got = list(enumerate_ssyt(lam, N))
            assert all(tuple(map(len, rows)) == lam.parts for rows in got)
            assert got == recursive_ssyt_rows(parts, N)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_one_row_is_every_weakly_increasing_tuple_in_order(self, p):
        for N in range(7):
            expected = [(row,) for row in combinations_with_replacement(range(1, N + 1), p)]
            assert list(enumerate_ssyt(Partition.of(p), N)) == expected

    def test_a_thousand_cells_do_not_exhaust_the_stack(self):
        tableaux = list(enumerate_ssyt(Partition.of(1200), 2))
        assert len(tableaux) == 1201
        assert tableaux[0] == ((1,) * 1200,) and tableaux[-1] == ((2,) * 1200,)


FEATURED_LAM = Partition.of(4, 3, 3, 1)
FEATURED = ((1, 1, 2, 4), (2, 3, 3), (4, 4, 6), (7,))


class TestWeightMonomials:
    def test_featured_colored_tableau(self):
        expected = Monomial.from_exponents({
            (0, 3): 1, (0, 9): 1, (0, 12): 1, (0, 18): 1, (0, 21): 1,
            (1, 3): 1, (1, 9): 1, (1, 12): 1,
            (2, 6): 2, (2, 12): 1,
        })
        assert weight_monomial(FEATURED, FEATURED_LAM, 3) == expected

    def test_empty_tableau(self):
        rows = next(enumerate_ssyt(Partition(), 1))
        assert weight_monomial(rows, Partition(), 1).is_one

    def test_single_cell(self):
        assert weight_monomial(((5,),), Partition.of(1), 2) == Monomial.from_exponents({(0, 10): 1})

    def test_shift_zero_equals_unshifted(self):
        lam = Partition.of(2, 1)
        for rows in enumerate_ssyt(lam, 3):
            assert weight_monomial(rows, lam, 3, 0) == weight_monomial(rows, lam, 3)

    def test_shifted_single_cell(self):
        # cell (1, 2) holds 1; content 1, so the weight becomes 1 + 2/3
        m = weight_monomial(((1, 1),), Partition.of(2), 3, 2)
        assert ((1, 5, 1) in m.vars)

    def test_content_zero_cell_unshifted(self):
        for l in range(3):
            assert (weight_monomial(((4,),), Partition.of(1), 3, l)
                    == weight_monomial(((4,),), Partition.of(1), 3))

    def test_refuses_rows_off_the_shape_and_a_bad_shift(self):
        with pytest.raises(ValueError, match=r"row lengths \[2, 2\] do not match shape rows \[2, 1\]"):
            weight_monomial(((1, 1), (2, 2)), Partition.of(2, 1), 2)
        with pytest.raises(ValueError, match=r"row lengths \[\] do not match"):
            weight_monomial((), Partition.of(1), 2)
        for l in (-1, 2):
            with pytest.raises(ValueError, match=f"shift must satisfy 0 <= l < 2, got {l}"):
                weight_monomial(((1,),), Partition.of(1), 2, l)


class TestWeightCode:
    @pytest.mark.parametrize("parts", [p for size in range(6) for p in brute_partitions(size)],
                             ids=str)
    def test_decoded_keys_are_the_reference_monomials(self, parts):
        lam = Partition(parts)
        for n in (1, 2, 3):
            for l in range(n):
                cells = young_cells(lam, n, l)
                for N in range(5):
                    fillings = list(enumerate_ssyt(lam, N))
                    assert_code_matches_rows_monomial(WeightCode(cells, n, N), fillings, cells, n)

    @pytest.mark.parametrize("m", [1, 3, 7, 8, 15, 16])
    def test_one_variable_fills_its_field_without_carrying(self, m):
        # lambda = (m) with n = N = 1 puts every cell on x(0, 1), so the one
        # field holds the cell count m: all ones at m = 7 and 15, a new top
        # bit at m = 8 and 16.
        lam = Partition.of(m)
        cells = young_cells(lam, 1)
        code = WeightCode(cells, 1, 1)
        assert code.width == m.bit_length()
        key = code.key(((1,) * m,))
        # Below the degree field the one field holds m; x(0, 1) has degree
        # numerator 1, so the degree field holds m as well.
        assert key & ((1 << code.top) - 1) == m
        assert key >> code.top == m
        assert code.decode(m) == Monomial.from_exponents({(0, 1): m})
        assert loop_schur(lam, 1, 1) == Polynomial.from_term(1, code.decode(m))
        # With N = 2 the second variable's field sits just above the first.
        fillings = list(enumerate_ssyt(lam, 2))
        assert_code_matches_rows_monomial(WeightCode(cells, 1, 2), fillings, cells, 1)

    def test_chunked_decode_equals_the_field_by_field_reference(self):
        # Young codes of width 0 (no cell) to 4 (9 cells), and shifted staircase
        # codes at n = 4, l = 3, whose degree field goes below zero from N = 2;
        # both include N = 0 codes, which have no variable.
        rng = random.Random(33)
        codes = [WeightCode(young_cells(Partition(parts), n, l), n, N)
                 for parts in [(), (1,), (2, 1), (3, 2, 1), (4, 3, 2)]
                 for n in (1, 2, 3) for l in range(n) for N in range(5)]
        codes += [WeightCode(staircase_cells(Partition(parts), N, d, 4, 3), 4, N)
                  for parts, d in [((), 0), ((1,), 0), ((), 2), ((2,), 1)] for N in range(len(parts), 4)]
        widths, partial, negative = set(), set(), False
        for code in codes:
            width, mask = code.width, (1 << code.width) - 1
            widths.add(width)
            # A chunk holds 12 // width fields; a count that is no multiple of it
            # leaves the last chunk partly empty.
            if width and len(code.variables) % (12 // width):
                partial.add(width)
            full = [[mask] * len(code.variables)]  # every field at its largest exponent
            for exponents in full + [[rng.choice((0, 0, 0, rng.randint(1, mask))) for _ in code.variables]
                                     for _ in range(30)]:
                key = sum(e * code.unit[var] for e, var in zip(exponents, code.variables))
                negative |= key < 0
                expected = Monomial(tuple((*var, key >> j * width & mask)
                                          for j, var in enumerate(code.variables)
                                          if key >> j * width & mask))
                assert code.decode(key) == expected == code.decode(key), (code.variables, key)
        assert {1, 2, 3, 4} <= partial and 0 in widths and negative
        assert any(not code.variables for code in codes)

    def test_decode_tables_are_made_on_the_first_decode(self):
        # Staircase codes weigh members and never decode: building one, or
        # keying with it, makes no chunk memo.  The first decode makes them,
        # and equals the field-by-field reference of the test above.
        lam, cells = Partition.of(2, 1), staircase_cells(Partition.of(2, 1), 8, 3, 3, 1)
        code = WeightCode(cells, 3, 8)
        rows = tuple((j,) * (lam.part(j) + 9 - j + (3 if j == 2 else 0)) for j in range(1, 9))
        key, width, mask = code.key(rows), code.width, (1 << code.width) - 1
        assert "_chunks" not in vars(code)
        expected = Monomial(tuple((*var, key >> j * width & mask)
                                  for j, var in enumerate(code.variables) if key >> j * width & mask))
        assert code.decode(key) == expected == rows_monomial(rows, cells, 3)
        assert "_chunks" in vars(code)

    def test_power_keys_are_the_power_sum_terms(self):
        code = WeightCode(young_cells(Partition.of(2, 1), 3), 3, 4)
        for j in range(1, 5):
            for k in (1, 2):
                expected = Monomial.from_exponents({(i, 3 * j): k for i in range(3)})
                assert code.decode(code.power_key(j, k)) == expected

    def test_rows_off_the_table_are_refused(self):
        cells = young_cells(Partition.of(2, 1), 2)
        code = WeightCode(cells, 2, 3)
        with pytest.raises(ValueError, match="1 rows for 2 cell tables"):
            code.key(((1, 1),))
        with pytest.raises(ValueError, match="longer than"):
            code.key(((1, 1, 1), (2,)))

    @pytest.mark.parametrize("parts,k,negative", [
        ((), 0, True), ((), 1, False), ((1,), 2, False), ((2, 1), 1, False),
    ], ids=str)
    def test_staircase_keys_equal_the_per_table_walk(self, parts, k, negative):
        # A staircase code has one table for all its rows, so its key function
        # sums one memo of row keys; a key must still be the sum of every
        # cell's bits, cold or memoized, on plain and shifted codes, and with
        # N = 0.  ``negative``: the degree field, and so some keys, go below
        # zero (n = 4, l = 3, N = 3).
        lam, signs = Partition(parts), set()
        for n in (1, 2, 4):
            for l in range(n):
                for N in range(len(lam), 4):
                    cells = staircase_cells(lam, N, k * n, n, l)
                    family = (enumerate_augmented_tableaux(lam, n, k, N) if k
                              else enumerate_staircase_tableaux(lam, n, N))
                    fillings = [rows for rows, _, _ in family] or [()]
                    code = WeightCode(cells, n, N)
                    walked = [sum(code.cell_bits(table)[c][v] for table, row in zip(cells, rows)
                                  for c, v in enumerate(row)) for rows in fillings]
                    assert list(map(code.key, fillings)) == walked
                    assert list(map(code.key, reversed(fillings))) == walked[::-1]
                    signs |= {key < 0 for key in walked}
                    rows = fillings[-1]
                    for wrong in [rows + ((1,),)] + ([rows[:-1]] if N else []):
                        with pytest.raises(ValueError, match=f"^{len(wrong)} rows for {N} cell tables$"):
                            code.key(wrong)
                    if N:
                        long_row = (1,) * (len(cells[0]) + 1)
                        message = f"row {long_row} is longer than its {len(cells[0])} cells"
                        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                            code.key((long_row,) + rows[1:])
        assert signs == {False, True} if negative else signs == {False}


class TestKeyPolynomial:
    def test_ring_operations_match_polynomial(self):
        # A layout local to the test: each variable that random_polynomial
        # draws at n = 2 owns a 3-bit field, and no exponent of a product of
        # two of its terms exceeds 6.
        n, width = 2, 3
        variables = [(c, w) for c in range(n) for w in range(-2 * n, 4 * n + 1)]

        def encode(p):
            return KeyPolynomial({sum(e << variables.index((c, w)) * width for c, w, e in m.vars): coeff
                                  for m, coeff in p.terms()})

        def decode(keys):
            return Polynomial(n, {Monomial.from_exponents({var: key >> j * width & 7
                                                           for j, var in enumerate(variables)}): c
                                  for key, c in keys.items()})

        rng = random.Random(11)
        for _ in range(300):
            p, q = random_polynomial(rng, n), random_polynomial(rng, n)
            for op in (add, sub, mul):
                result = op(encode(p), encode(q))
                assert type(result) is KeyPolynomial and 0 not in result.values()
                assert decode(result) == op(p, q)
            assert encode(p) - encode(p) == {}


def reference_ssyt_keys(lam, n, l, N, code):
    """Key every tableau of ``enumerate_ssyt`` in full and count the keys."""
    return Counter(map(code.keyer(young_cells(lam, n, l)), enumerate_ssyt(lam, N)))


class TestSsytKeys:
    @pytest.mark.parametrize("parts", SUBPARTITIONS_321 + [(4,)], ids=str)
    def test_bulk_last_row_matches_the_reference(self, parts):
        # The grid holds the empty partition, one-row shapes and N < len(lam).
        lam = Partition(parts)
        for n in (1, 2, 3):
            for l in range(n):
                for N in range(7):
                    code = ssyt_code((lam,), n, l, N)
                    got = ssyt_keys(lam, n, l, N, code)
                    assert got == reference_ssyt_keys(lam, n, l, N, code)
                    assert sum(got.values()) == hook_content_count(lam, N)

    def test_a_code_shared_by_several_shapes(self):
        # As mn-verify builds it: one code over lambda and its strip shapes.
        shapes = [Partition.of(2, 1), Partition.of(5, 1), Partition.of(3, 3),
                  Partition.of(2, 2, 2), Partition.of(2, 1, 1, 1, 1)]
        for n, l in ((3, 0), (3, 1), (2, 1)):
            for N in (4, 6):
                code = ssyt_code(shapes, n, l, N)
                for lam in shapes:
                    got = ssyt_keys(lam, n, l, N, code)
                    assert got == reference_ssyt_keys(lam, n, l, N, code)
                    assert sum(got.values()) == hook_content_count(lam, N)

    @pytest.mark.parametrize("parts, sizes", [
        *(pytest.param(parts, (7, 8), id=str(parts))
          for parts in [(2, 2, 2), (3, 3, 1), (3, 3, 2), (4, 4), (3, 2, 2, 1), (2, 2, 1, 1, 1),
                        (3, 1, 1, 1, 1, 1)]),
        pytest.param((3, 3, 3), range(2, 7), id="(3, 3, 3)"),
        pytest.param((2, 2, 2, 2), range(3, 7), id="(2, 2, 2, 2)")])
    def test_strip_shapes_match_the_reference(self, parts, sizes):
        # Equal consecutive rows and three or more rows: each row's groups are
        # walked in sorted order, sharing heads and column states; the
        # rectangles start below their number of rows.
        lam = Partition(parts)
        for n in (1, 2, 3):
            for l in range(n):
                for N in sizes:
                    code = ssyt_code((lam,), n, l, N)
                    got = ssyt_keys(lam, n, l, N, code)
                    assert got == reference_ssyt_keys(lam, n, l, N, code)
                    assert sum(got.values()) == hook_content_count(lam, N)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_first_rows_in_any_order(self, order, monkeypatch):
        # The first rows are grouped by their leading entries, and the groups
        # walked in sorted order, whatever order the stream yields them in,
        # split runs included.
        from loopschur import tableaux

        def stream(lam, N):
            rows = list(enumerate_ssyt(lam, N))
            if order == "reversed":
                return reversed(rows)
            random.Random(1).shuffle(rows)
            return iter(rows)

        monkeypatch.setattr(tableaux, "enumerate_ssyt", stream)
        for parts in [(2,), (2, 1), (3, 1), (3, 3), (4, 4), (3, 3, 1), (2, 2, 2), (3, 2, 2, 1)]:
            lam = Partition(parts)
            code = ssyt_code((lam,), 3, 1, 6)
            assert ssyt_keys(lam, 3, 1, 6, code) == reference_ssyt_keys(lam, 3, 1, 6, code)

    def test_memory_of_a_signed_strip_sum_stays_bounded(self):
        # Nothing ssyt_keys builds outlives its call: a tail memo kept across
        # the four strips' calls would peak above the bound.
        from loopschur import verify

        tracemalloc.start()
        try:
            total, strips, _ = verify._signed_border_strip_sum(Partition.of(2, 1), 3, 1, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strips == 4 and total
        assert peak < 6.5 * 2**20

    def test_upper_rows_that_leave_the_last_row_no_room(self):
        # Most fillings of the five rows above leave no entry for the sixth.
        lam = Partition.of(3, 1, 1, 1, 1, 1)
        assert sum(1 for _ in enumerate_ssyt(Partition.of(3, 1, 1, 1, 1), 7)) == 540
        assert hook_content_count(lam, 7) == 189
        for n, l in ((1, 0), (2, 1), (3, 2)):
            code = ssyt_code((lam,), n, l, 7)
            got = ssyt_keys(lam, n, l, 7, code)
            assert got == reference_ssyt_keys(lam, n, l, 7, code)
            assert sum(got.values()) == 189


class TestLoopSchur:
    def test_empty_partition_is_one(self):
        assert loop_schur(Partition(), 2, 3) == Polynomial.one(2)

    def test_two_cells_two_colors(self):
        expected = Polynomial(2, {
            Monomial.from_exponents({(0, 2): 1, (1, 2): 1}): 1,
            Monomial.from_exponents({(0, 2): 1, (1, 4): 1}): 1,
            Monomial.from_exponents({(0, 4): 1, (1, 4): 1}): 1,
        })
        assert loop_schur(Partition.of(2), 2, 2) == expected

    def test_single_color_matches_classical(self):
        from loopschur import classical_schur
        for parts in [(1,), (2, 1), (2, 2)]:
            lam = Partition(parts)
            for N in (2, 3, 4):
                assert specialize_forget_color(loop_schur(lam, 1, N)) == classical_schur(lam, N)

    def test_monotone_truncation(self):
        for parts in [(2,), (2, 1), (3, 1)]:
            lam = Partition(parts)
            for n in (1, 2, 3):
                for N in (1, 2, 3, 4):
                    small = loop_schur(lam, n, N)
                    large = loop_schur(lam, n, N + 1)
                    for m, c in small.terms():
                        assert large.coefficient(m) >= c

    def test_nonnegative_coefficients(self):
        for n in (1, 2, 3):
            assert all(c > 0 for c in loop_schur(Partition.of(3, 1), n, 4).coefficients())
            assert all(c > 0 for c in shifted_loop_schur(Partition.of(2, 1), ShiftParams(n, n - 1), 4).coefficients())
            assert all(c > 0 for c in loop_power_sum(2, n, 4).coefficients())


class TestShiftedLoopSchur:
    def test_shift_zero_equals_plain(self):
        lam = Partition.of(2, 1)
        assert shifted_loop_schur(lam, ShiftParams(2, 0), 3) == loop_schur(lam, 2, 3)

    def test_single_color_zero_cell(self):
        expected = Polynomial(2, {
            Monomial.from_exponents({(0, 2): 1}): 1,
            Monomial.from_exponents({(0, 4): 1}): 1,
        })
        assert shifted_loop_schur(Partition.of(1), ShiftParams(2, 1), 2) == expected

    def test_one_row_shifted(self):
        # single filling (1, 1); the second cell has content 1, weight 1 + 1/2
        expected = Polynomial(2, {
            Monomial.from_exponents({(0, 2): 1, (1, 3): 1}): 1,
        })
        assert shifted_loop_schur(Partition.of(2), ShiftParams(2, 1), 1) == expected


class TestLoopPowerSum:
    def test_two_colors(self):
        expected = Polynomial(2, {
            Monomial.from_exponents({(0, 2): 1, (1, 2): 1}): 1,
            Monomial.from_exponents({(0, 4): 1, (1, 4): 1}): 1,
        })
        assert loop_power_sum(1, 2, 2) == expected

    def test_single_color_squares(self):
        expected = Polynomial(1, {
            Monomial.from_exponents({(0, 1): 2}): 1,
            Monomial.from_exponents({(0, 2): 2}): 1,
        })
        assert loop_power_sum(2, 1, 2) == expected

    def test_specializes_to_classical_power_sum(self):
        for n in (1, 2, 3):
            for k in (1, 2):
                for N in (1, 2, 3):
                    expected = Polynomial(1, {
                        Monomial.from_exponents({(0, j): k * n}): 1 for j in range(1, N + 1)
                    })
                    assert specialize_forget_color(loop_power_sum(k, n, N)) == expected

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            loop_power_sum(0, 1, 2)


class TestStaircaseMonomial:
    def test_single_cell(self):
        assert staircase_monomial(1, 1) == Monomial.from_exponents({(0, 1): 1})

    def test_two_rows_two_colors(self):
        expected = Monomial.from_exponents({(1, 2): 1, (0, 2): 1, (0, 4): 1})
        assert staircase_monomial(2, 2) == expected

    def test_matches_standard_filling(self):
        # Row r of the staircase on N = 5 rows spans columns r - 5 .. 0 and
        # holds r: x(content mod n, n * r + l * content) per cell (r, c).
        cells = [(r, c) for r in range(1, 6) for c in range(r - 5, 1)]
        assert [r for r, _ in cells] == [1] * 5 + [2] * 4 + [3] * 3 + [4] * 2 + [5]
        for l in (0, 1, 2):
            factors = {}
            for r, c in cells:
                key = ((c - r) % 3, 3 * r + l * (c - r))
                factors[key] = factors.get(key, 0) + 1
            assert staircase_monomial(5, 3, l) == Monomial.from_exponents(factors)

    def test_no_rows_is_the_empty_product_and_fewer_are_refused(self):
        for l in (0, 1):
            assert staircase_monomial(0, 2, l).is_one
        with pytest.raises(ValueError, match="need N >= 0 rows for partition 0, got -1"):
            staircase_monomial(-1, 2)

    def test_degree_floor_over_random_members(self):
        # base-family members bound every entry of row j below by its label,
        # so the standard filling minimizes the (shifted) degree
        rng = random.Random(99)
        for n, l, N in ((2, 1, 4), (3, 1, 5), (3, 2, 5)):
            floor = staircase_monomial(N, n, l).degree(n)
            cells = staircase_cells(Partition(), N, 0, n, l)
            for _ in range(1000):
                rows, _, _ = sample_staircase_tableau(Partition(), n, N, rng)
                degree = rows_monomial(rows, cells, n).degree(n)
                assert degree >= floor
