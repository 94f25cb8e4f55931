"""Differential tests of the pairing-map cores on every member of the small
families: lambda within (2,1), n <= 3, k <= 2, N <= 3 and every shift l < n.

Each core must agree with its validating public wrapper, the row-tuple weight
with a cell-by-cell reference, the family's weight code with the row-tuple
weight, and the one-pass sum of the fourth map's check with
``augmented_signed_sum``.
"""

import pytest

from loopschur import (
    Monomial,
    Partition,
    Polynomial,
    ShiftParams,
    augmented_signed_sum,
    enumerate_augmented_tableaux,
    enumerate_staircase_tableaux,
    extract_power_sum_factor,
    i1,
    i2,
    i2_is_fixed,
    i3,
    i4,
    in_low_family,
    insert_power_sum_factor,
    is_column_strict,
    permutation_sign,
    slide_from_border_strip,
    slide_to_border_strip,
    staircase_entries_standard,
)
from loopschur import verify
from loopschur.involutions import (
    augmented_members,
    column_violation,
    entries_standard_core,
    extract_core,
    i1_core,
    i2_core,
    i2_fixed_core,
    i3_core,
    i4_core,
    in_low_core,
    insert_core,
    slide_from_strip_core,
    slide_to_strip_core,
    staircase_members,
    strip_rows,
)
from loopschur.tableaux import WeightCode, cell_weights, rows_monomial, staircase_cells

from conftest import assert_code_matches_rows_monomial

PARTITIONS = [(), (1,), (2,), (1, 1), (2, 1)]
BASE = [(Partition(p), n, N) for p in PARTITIONS for n in (1, 2, 3)
        for N in range(max(1, len(p)), 4)]
AUGMENTED = [(lam, n, k, N) for lam, n, N in BASE for k in (1, 2)]


def reference_weight(st, l):
    """The cell-by-cell formula: row r of a staircase extension starts at
    column r - N, and a cell at (r, c) has content c - r."""
    n = st.n
    variables = []
    for r in range(1, st.N + 1):
        lo = r - st.N
        for idx, value in enumerate(st.rows[r - 1]):
            content = lo + idx - r
            variables.append((content % n, n * value + l * content))
    return Monomial.from_variables(variables)


def as_member(st):
    return st.rows, st.tau, st.i


def assert_weights(st, lam, n, N, d):
    # Every row of a staircase extension starts at content -N.
    longest = lam.part(1) + N + d
    for l in range(n):
        cells = (cell_weights(-N, longest, n, l),) * N
        expected = reference_weight(st, l)
        assert rows_monomial(st.rows, cells, n) == expected
        assert st.monomial(l) == expected


@pytest.mark.parametrize("lam,n,N", BASE, ids=str)
def test_base_family_cores_match_wrappers(lam, n, N):
    for st in enumerate_staircase_tableaux(lam, n, N):
        m = as_member(st)
        assert i1_core(m) == as_member(i1(st))
        assert (column_violation(m[0]) is None) == is_column_strict(st)
        assert entries_standard_core(m[0]) == staircase_entries_standard(st)
        assert_weights(st, lam, n, N, 0)


@pytest.mark.parametrize("lam,n,k,N", AUGMENTED, ids=str)
def test_augmented_family_cores_match_wrappers(lam, n, k, N):
    d = k * n
    for st in enumerate_augmented_tableaux(lam, n, k, N):
        m = as_member(st)
        assert i2_core(m, d) == as_member(i2(st))
        assert i2_fixed_core(m, d) == i2_is_fixed(st)
        if i2_is_fixed(st):
            base, i = extract_power_sum_factor(st)
            assert (extract_core(m, d), m[2]) == (as_member(base), i)
            inserted = insert_power_sum_factor(base, i, k)
            assert insert_core(as_member(base), i, d) == as_member(inserted)
        image = i3(st)
        assert i3_core(m) == as_member(image)
        if image == st:
            sigma, height, landed = slide_to_border_strip(st)
            assert slide_to_strip_core(m) == (sigma.parts, height, as_member(landed))
            assert (slide_from_strip_core(as_member(landed), *strip_rows(sigma, lam))
                    == as_member(slide_from_border_strip(landed, lam)))
        for l in range(1, n):
            shift = ShiftParams(n, l)
            assert in_low_core(m, k * l) == in_low_family(st, shift)
            if in_low_family(st, shift):
                assert i4_core(m, d, k * l) == as_member(i4(st, shift))
        assert_weights(st, lam, n, N, d)


@pytest.mark.parametrize("lam,n,k,N", [(lam, n, 0, N) for lam, n, N in BASE] + AUGMENTED,
                         ids=str)
def test_weight_code_decodes_to_the_row_tuple_weight(lam, n, k, N):
    # k = 0 is the base family; every shift, l = 0 being the plain weight.
    family = augmented_members(lam, n, k, N) if k else staircase_members(lam, N)
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
    for l in range(1, n):
        check = verify._FamilyCheck(lam, n, N, k * n, l)
        verify._walk_each(check, "I4", augmented_members(lam, n, k, N))
        unreachable: dict = {}
        for m in augmented_members(lam, n, k, N):
            if not in_low_core(m, check.kl):
                weight = check.shifted_key(m[0])
                unreachable[weight] = unreachable.get(weight, 0) + permutation_sign(m[1])
        pair = verify._FamilyCheck(lam, n, N, k * n, l)
        assert verify._walk_pairs(pair, "I4", augmented_members(lam, n, k, N)) is not None
        assert not pair.reachable
        assert not check.failures
        decode = check.shifted.decode
        reachable = Polynomial(n, {decode(key): c for key, c in check.reachable.items()})
        assert reachable.is_zero
        unreachable_sum = Polynomial(n, {decode(key): c for key, c in unreachable.items()})
        assert unreachable_sum + reachable == augmented_signed_sum(lam, n, k, N, l)
