"""Tests of the pairing maps on every member of the small families: lambda
within (2,1), n <= 3, k <= 2, N <= 3 and every shift l < n.

Each map's image must belong to its family, each map must be an involution,
the power-sum factor and the border-strip slide must round-trip, the
row-tuple weight must agree with a cell-by-cell reference, the family's
weight code with the row-tuple weight, and the one-pass sum of the fourth
map's check with ``augmented_signed_sum``.  Each map has one entry point.
"""

import pytest

from loopschur import (
    Monomial,
    Partition,
    Polynomial,
    SignedTableau,
    augmented_signed_sum,
    enumerate_augmented_tableaux,
    enumerate_staircase_tableaux,
    extract_power_sum_factor,
    i1,
    i2,
    i2_is_fixed,
    i3,
    i3_swaps,
    i4,
    in_low_family,
    insert_power_sum_factor,
    is_border_strip,
    is_column_strict,
    permutation_sign,
    slide_from_border_strip,
    slide_to_border_strip,
    staircase_entries_standard,
    validate_in_family,
)
from loopschur import involutions, verify
from loopschur.involutions import DEFAULT_CAP, column_violation, strip_rows
from loopschur.tableaux import WeightCode, cell_weights, rows_monomial, staircase_cells

from conftest import assert_code_matches_rows_monomial

PARTITIONS = [(), (1,), (2,), (1, 1), (2, 1)]
BASE = [(Partition(p), n, N) for p in PARTITIONS for n in (1, 2, 3)
        for N in range(max(1, len(p)), 4)]
AUGMENTED = [(lam, n, k, N) for lam, n, N in BASE for k in (1, 2)]


def reference_weight(rows, n, N, l):
    """The cell-by-cell formula: row r of a staircase extension starts at
    column r - N, and a cell at (r, c) has content c - r."""
    variables = []
    for r in range(1, N + 1):
        lo = r - N
        for idx, value in enumerate(rows[r - 1]):
            content = lo + idx - r
            variables.append((content % n, n * value + l * content))
    return Monomial.from_variables(variables)


def assert_weights(m, lam, n, N, d):
    # Every row of a staircase extension starts at content -N.
    longest = lam.part(1) + N + d
    st = SignedTableau(lam, n, N, d, *m)
    for l in range(n):
        cells = (cell_weights(-N, longest, n, l),) * N
        expected = reference_weight(m[0], n, N, l)
        assert rows_monomial(m[0], cells, n) == expected
        assert st.monomial(l) == expected


@pytest.mark.parametrize("lam,n,N", BASE, ids=str)
def test_base_family_map_is_a_closed_involution(lam, n, N):
    for m in enumerate_staircase_tableaux(lam, n, N):
        image = i1(m)
        validate_in_family(image, lam, N, 0)
        assert i1(image) == m
        assert (image == m) == is_column_strict(m[0])
        if image == m:
            assert staircase_entries_standard(m[0]) and m[1] == tuple(range(1, N + 1))
        assert_weights(m, lam, n, N, 0)


@pytest.mark.parametrize("lam,n,k,N", AUGMENTED, ids=str)
def test_augmented_family_maps_are_closed_involutions(lam, n, k, N):
    d = k * n
    for m in enumerate_augmented_tableaux(lam, n, k, N):
        image = i2(m, d)
        validate_in_family(image, lam, N, d)
        assert i2(image, d) == m
        assert (image == m) == i2_is_fixed(m, d)
        if i2_is_fixed(m, d):
            base = extract_power_sum_factor(m, d)
            validate_in_family(base, lam, N, 0)
            assert insert_power_sum_factor(base, m[2], d) == m
        image = i3(m)
        validate_in_family(image, lam, N, d)
        assert i3(image) == m
        if image == m:
            parts, _, landed = slide_to_border_strip(m)
            sigma = Partition(parts)
            assert is_border_strip(sigma, lam, d)
            validate_in_family(landed, sigma, N, 0)
            assert is_column_strict(landed[0])
            assert slide_from_border_strip(landed, *strip_rows(sigma, lam)) == m
        for l in range(1, n):
            if in_low_family(m, k * l):
                image = i4(m, d, k * l)
                validate_in_family(image, lam, N, d)
                assert in_low_family(image, k * l) and image != m
                assert i4(image, d, k * l) == m
        assert_weights(m, lam, n, N, d)


@pytest.mark.parametrize("lam,k,N", [(lam, 0, N) for lam, n, N in BASE if n == 1]
                         + [(lam, k, N) for lam, n, k, N in AUGMENTED if n == 1], ids=str)
def test_column_strictness_agrees_with_the_full_scan(lam, k, N):
    # is_column_strict stops at the first violating pair of rows; the scan
    # for the rightmost violation reads them all.  k = 0 is the base family.
    family = (enumerate_augmented_tableaux(lam, 1, k, N) if k
              else enumerate_staircase_tableaux(lam, 1, N))
    for rows, _, _ in family:
        assert is_column_strict(rows) == (column_violation(rows) is None)


@pytest.mark.parametrize("lam,n,k,N", AUGMENTED, ids=str)
def test_third_map_moves_every_member_whose_row_lengths_tie(lam, n, k, N):
    d = k * n
    for m in enumerate_augmented_tableaux(lam, n, k, N):
        rows, _, i = m
        tie = len(rows[i - 1]) in map(len, rows[:i - 1])
        assert i3_swaps(lam, N, d, i) == tie
        if tie:
            assert i3(m) != m


@pytest.mark.parametrize("module", [involutions, verify], ids=lambda module: module.__name__)
def test_each_map_has_one_entry_point(module):
    # No trusted "*_core" twin beside a map: check_involution and the callers
    # apply the same function.
    assert [name for name in vars(module) if name.endswith("_core")] == []


@pytest.mark.parametrize("lam,n,k,N", [(lam, n, 0, N) for lam, n, N in BASE] + AUGMENTED,
                         ids=str)
def test_weight_code_decodes_to_the_row_tuple_weight(lam, n, k, N):
    # k = 0 is the base family; every shift, l = 0 being the plain weight.
    family = (enumerate_augmented_tableaux(lam, n, k, N) if k
              else enumerate_staircase_tableaux(lam, n, N))
    fillings = [rows for rows, _, _ in family]
    for l in range(n):
        cells = staircase_cells(lam, N, k * n, n, l)
        assert_code_matches_rows_monomial(WeightCode(cells, n, N), fillings, cells, n)


@pytest.mark.parametrize("lam,n,k,N", [case for case in AUGMENTED if case[1] > 1], ids=str)
def test_one_pass_sum_of_the_fourth_map(lam, n, k, N):
    # The per-member walk of check_involution accumulates the reachable
    # members' signed shifted sum and requires it to vanish; with the
    # unreachable members' sum it must make up the whole signed sum.  The
    # pair walk cancels each pair it checks, so it leaves that sum empty.
    # Both walk the low stream that check_involution hands them.
    for l in range(1, n):
        check = verify._FamilyCheck(verify._MAPS["I4"], lam, n, N, k * n, l)
        verify._walk_each(check, enumerate_augmented_tableaux(lam, n, k, N, DEFAULT_CAP, l))
        unreachable: dict = {}
        for m in enumerate_augmented_tableaux(lam, n, k, N):
            if not in_low_family(m, check.kl):
                weight = check.shifted_key(m[0])
                unreachable[weight] = unreachable.get(weight, 0) + permutation_sign(m[1])
        pair = verify._FamilyCheck(verify._MAPS["I4"], lam, n, N, k * n, l)
        low = enumerate_augmented_tableaux(lam, n, k, N, DEFAULT_CAP, l)
        assert verify._walk_pairs(pair, low) is not None
        assert not pair.reachable
        assert not check.failures
        decode = check.shifted.decode
        reachable = Polynomial(n, {decode(key): c for key, c in check.reachable.items()})
        assert reachable.is_zero
        unreachable_sum = Polynomial(n, {decode(key): c for key, c in unreachable.items()})
        assert unreachable_sum + reachable == augmented_signed_sum(lam, n, k, N, l)
