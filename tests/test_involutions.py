import inspect
import json
import math
import random
from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest

from loopschur import (
    CapExceededError,
    MembershipError,
    Monomial,
    Partition,
    Polynomial,
    ShiftParams,
    SignedTableau,
    augmented_signed_sum,
    check_involution,
    count_augmented_tableaux,
    count_staircase_tableaux,
    enumerate_augmented_tableaux,
    enumerate_border_strips,
    enumerate_ssyt,
    enumerate_staircase_tableaux,
    extract_power_sum_factor,
    i1,
    i2,
    i2_is_fixed,
    i3,
    i4,
    in_low_family,
    insert_power_sum_factor,
    is_border_strip,
    is_column_strict,
    loop_power_sum,
    loop_schur,
    permutation_sign,
    sample_augmented_tableau,
    sample_staircase_tableau,
    slide_from_border_strip,
    slide_to_border_strip,
    staircase_entries_standard,
    staircase_monomial,
    staircase_signed_sum,
    to_document,
    validate_in_family,
    verify_expansion,
)
import loopschur.involutions as involutions_mod
import loopschur.verify as verify_mod
from loopschur.cli import main
from loopschur.involutions import (
    DEFAULT_CAP,
    count_weakly_increasing,
    strip_rows,
    unrank_weakly_increasing,
)
from loopschur.tableaux import rows_monomial, staircase_cells

LAM21 = Partition.of(2, 1)


def member(rows, tau, i=0):
    """A member as plain data, lengthened at row i (0: the base family)."""
    return tuple(tuple(r) for r in rows), tuple(tau), i


def weight(m, lam, n, N, d=0, l=0):
    """The (shifted) weight of a member of the family of ``lam`` with N rows
    and d cells appended, colored mod n."""
    return rows_monomial(m[0], staircase_cells(lam, N, d, n, l), n)


def sign(m):
    return permutation_sign(m[1])


class TestMembership:
    def test_small_family_is_forced(self):
        assert list(enumerate_staircase_tableaux(Partition(), 1, 1)) == [(((1,),), (1,), 0)]

    def test_example_pairs_are_members(self):
        left = member([(2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2), (3,)],
                      (2, 5, 4, 1, 3))
        right = member([(2, 2, 3, 4, 4, 4, 5), (4, 4, 5, 5, 5), (5, 5, 5), (2, 2), (3,)],
                       (2, 4, 5, 1, 3))
        validate_in_family(left, LAM21, 5, 0)
        validate_in_family(right, LAM21, 5, 0)

    def test_rejects_low_leading_entry(self):
        with pytest.raises(MembershipError):
            validate_in_family(member([(1, 1), (1,)], (1, 2)), Partition(), 2, 0)

    def test_rejects_decreasing_row(self):
        with pytest.raises(MembershipError):
            validate_in_family(member([(2, 1), (2,)], (1, 2)), Partition(), 2, 0)

    def test_rejects_large_entries(self):
        with pytest.raises(MembershipError):
            validate_in_family(member([(1, 3), (2,)], (1, 2)), Partition(), 2, 0)

    def test_rejects_non_permutation(self):
        with pytest.raises(MembershipError):
            validate_in_family(member([(1, 1), (2,)], (1, 1)), Partition(), 2, 0)

    # The maps trust their input, so row lengths that disagree with the
    # family must be caught by the membership check.
    @pytest.mark.parametrize("rows", [[(1, 1, 1), (2,)], [(1,), (2,)], [(1, 1)],
                                      [(1, 1), (2,), (2,)]], ids=str)
    def test_rejects_row_lengths_off_the_shape(self, rows):
        with pytest.raises(MembershipError, match="row lengths"):
            validate_in_family(member(rows, (1, 2)), Partition(), 2, 0)

    # The weight reads the family's cell table, which is as long as the
    # longest row; a cell past it, or a row without a table, must not be
    # dropped silently.
    @pytest.mark.parametrize("rows", [[(1, 1, 1, 1, 1), (2,)], [(1, 1)], [(1, 1), (2,), (2,)]],
                             ids=str)
    def test_monomial_refuses_rows_off_the_cell_table(self, rows):
        st = SignedTableau(Partition(), 1, 2, 0, *member(rows, (1, 2)))
        with pytest.raises(ValueError):
            st.monomial()

    @pytest.mark.parametrize("rows", [[(1, 1, 1), (2,)], [(1, 1), (2,)], [(1, 1), (2, 2, 2)]],
                             ids=str)
    def test_rejects_augmented_row_lengths_off_the_shape(self, rows):
        with pytest.raises(MembershipError, match="row lengths"):
            validate_in_family(member(rows, (1, 2), 2), Partition(), 2, 1)

    # Each row list below has two faults; the message names the first one in
    # row-major reading order, the row's label checked after its entries.
    @pytest.mark.parametrize("rows,tau,message", [
        ([(2, 1, 4), (2, 2), (3,)], (1, 2, 3), "row 1 is not weakly increasing: (2, 1, 4)"),
        ([(0, 2, 1), (2, 2), (3,)], (1, 2, 3), "entry 0 in row 1 outside 1..3"),
        ([(1, 0, 2), (2, 2), (3,)], (1, 2, 3), "entry 0 in row 1 outside 1..3"),
        ([(1, 1, 1), (3, 2), (3,)], (1, 2, 3), "row 2 is not weakly increasing: (3, 2)"),
        ([(1, 2, 3), (4, 3), (3,)], (2, 1, 3), "row 1 starts with 1, below its label 2"),
        ([(3, 3, 3), (1, 1), (4,)], (1, 2, 3), "row 2 starts with 1, below its label 2"),
    ], ids=str)
    def test_names_the_first_fault_in_reading_order(self, rows, tau, message):
        with pytest.raises(MembershipError) as err:
            validate_in_family((tuple(rows), tau, 0), Partition(), 3, 0)
        assert str(err.value) == message


class TestCountsAndEnumeration:
    @pytest.mark.parametrize("lam,N", [((), 2), ((), 3), ((1,), 2), ((1,), 3)])
    def test_base_count_matches_stream(self, lam, N):
        lam = Partition(lam)
        count = count_staircase_tableaux(lam, N)
        assert count == sum(1 for _ in enumerate_staircase_tableaux(lam, 2, N))

    @pytest.mark.parametrize("lam,n,k,N", [((), 1, 1, 2), ((), 2, 1, 3), ((1,), 2, 1, 3)])
    def test_augmented_count_matches_stream(self, lam, n, k, N):
        lam = Partition(lam)
        count = count_augmented_tableaux(lam, n, k, N)
        assert count == sum(1 for _ in enumerate_augmented_tableaux(lam, n, k, N))

    def test_tiny_augmented_count_by_hand(self):
        # lam empty, n=1, k=1, N=2: row options per labeling multiply out to 12
        assert count_augmented_tableaux(Partition(), 1, 1, 2) == 12

    def test_cap_guard_reports_count(self):
        with pytest.raises(CapExceededError) as err:
            list(enumerate_augmented_tableaux(Partition(), 1, 1, 2, cap=5))
        assert err.value.count == 12 and err.value.cap == 5

    @pytest.mark.parametrize("stream,count", [
        (lambda cap: enumerate_staircase_tableaux(Partition(), 1, 2, cap), 5),
        (lambda cap: enumerate_augmented_tableaux(Partition(), 1, 1, 2, cap), 12),
    ], ids=["staircase", "augmented"])
    def test_streams_refuse_above_the_cap_when_called(self, stream, count):
        # The stream is refused when it is asked for, before any member.
        with pytest.raises(CapExceededError) as err:
            stream(count - 1)
        assert err.value.count == count and err.value.cap == count - 1
        assert sum(1 for _ in stream(count)) == count

    @pytest.mark.parametrize("lam,n,N", [((), 1, 2), ((1,), 2, 3), ((2, 1), 3, 3)], ids=str)
    def test_base_stream_yields_the_plain_members(self, lam, n, N):
        lam = Partition(lam)
        stream = enumerate_staircase_tableaux(lam, n, N)
        assert inspect.isgenerator(stream)  # bench/tracing.py closes it
        members = list(stream)
        assert {type(m) for m in members} == {tuple}

    @pytest.mark.parametrize("lam,n,k,N", [((), 1, 1, 2), ((1,), 2, 1, 3), ((), 3, 2, 2)], ids=str)
    def test_augmented_stream_yields_the_plain_members(self, lam, n, k, N):
        lam = Partition(lam)
        stream = enumerate_augmented_tableaux(lam, n, k, N)
        assert inspect.isgenerator(stream)
        members = list(stream)
        assert {type(m) for m in members} == {tuple}

    @pytest.mark.parametrize("parts", [(), (1,), (2,), (1, 1), (2, 1)], ids=str)
    def test_low_stream_is_the_low_part_of_the_whole_stream(self, parts):
        # With l >= 1 the stream bounds the lengthened row by N - k*l: it yields
        # the members of the whole stream that the fourth map reaches, in the
        # same order, as many as the low family's table counts, while the cap
        # of an exhaustive fourth-map check still counts the whole family.
        lam = Partition(parts)
        for n in (2, 3):
            for k in (1, 2):
                for N in range(len(lam), 4):
                    whole = list(enumerate_augmented_tableaux(lam, n, k, N))
                    for l in range(1, n):
                        low = list(enumerate_augmented_tableaux(lam, n, k, N, DEFAULT_CAP, l))
                        assert low == [m for m in whole if in_low_family(m, k * l)]
                        assert len(low) == involutions_mod._augmented_table(lam, n, k, N, l).lengthened[-1]
                        with pytest.raises(CapExceededError) as err:
                            check_involution("I4", lam, n, k, N, l=l, cap=len(whole) - 1)
                        assert err.value.count == len(whole)

    def test_unranking_matches_lexicographic_order(self):
        # hi = lo - 1 is an empty value range: no sequence of length >= 1, and
        # one empty sequence of length 0.
        for lo in range(1, 7):
            for hi in range(lo - 1, 8):
                for length in range(6):
                    expected = list(combinations_with_replacement(range(lo, hi + 1), length))
                    total = count_weakly_increasing(lo, hi, length)
                    assert total == len(expected)
                    got = [unrank_weakly_increasing(lo, hi, length, i) for i in range(total)]
                    assert got == expected
                    for index in (-1, total, total + 1):
                        with pytest.raises(ValueError, match=rf"^index {index} outside 0\.\.{total - 1}$"):
                            unrank_weakly_increasing(lo, hi, length, index)
        # Wide value ranges and long rows, where the carried blocks are large:
        # the first and last index and seeded random ones rank back to their
        # index by a sum of binomial blocks, one per value skipped at a place.
        def rank(seq, lo, hi):
            index, value = 0, lo
            for place, entry in enumerate(seq):
                rest = len(seq) - place - 1
                index += sum(math.comb(hi - v + rest, rest) for v in range(value, entry))
                value = entry
            return index

        rng = random.Random(215)
        for values in range(1, 21):
            lo = 1 + values % 3
            hi = lo + values - 1
            for length in range(16):
                total = count_weakly_increasing(lo, hi, length)
                for index in {0, total - 1, *(rng.randrange(total) for _ in range(200))}:
                    seq = unrank_weakly_increasing(lo, hi, length, index)
                    assert len(seq) == length and list(seq) == sorted(seq)
                    assert not seq or lo <= seq[0] and seq[-1] <= hi
                    assert rank(seq, lo, hi) == index


def filled_member(lam, N, d):
    """Row r filled with r, the first row lengthened by d when d > 0: a member
    of the family wherever that family exists."""
    rows = tuple((r,) * (lam.part(r) + N - r + 1 + (d if r == 1 else 0))
                 for r in range(1, N + 1))
    return rows, tuple(range(1, N + 1)), 1 if d else 0


class TestRefusals:
    # A modulus below 1, or fewer rows than parts, names no family.
    @pytest.mark.parametrize("lam,n,N", [((1,), 0, 2), ((1,), -1, 2), ((2, 1), 2, 1)], ids=str)
    @pytest.mark.parametrize("build", [
        lambda lam, n, N: list(enumerate_staircase_tableaux(lam, n, N)),
        lambda lam, n, N: list(enumerate_augmented_tableaux(lam, n, 1, N)),
        lambda lam, n, N: sample_staircase_tableau(lam, n, N, 0),
        lambda lam, n, N: sample_augmented_tableau(lam, n, 1, N, 0),
        lambda lam, n, N: SignedTableau(lam, n, N, 0, *filled_member(lam, N, 0)).monomial(),
        lambda lam, n, N: SignedTableau(lam, n, N, 2, *filled_member(lam, N, 2)).monomial(),
    ], ids=["enumerate_staircase", "enumerate_augmented", "sample_staircase",
            "sample_augmented", "signed_tableau_monomial", "signed_tableau_monomial_augmented"])
    def test_no_family_is_refused(self, build, lam, n, N):
        with pytest.raises(ValueError):
            build(Partition(lam), n, N)

    @pytest.mark.parametrize("d", [0, 2])
    def test_membership_refuses_too_few_rows(self, d):
        lam = Partition.of(2, 1)
        with pytest.raises(ValueError, match="need N >= 2 rows"):
            validate_in_family(filled_member(lam, 1, d), lam, 1, d)

    def test_filled_members_belong_where_the_family_exists(self):
        lam = Partition.of(2, 1)
        validate_in_family(filled_member(lam, 2, 0), lam, 2, 0)
        validate_in_family(filled_member(lam, 2, 2), lam, 2, 2)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_augmented_tableau(LAM21, 3, 1, 5, seed=123)
        b = sample_augmented_tableau(LAM21, 3, 1, 5, seed=123)
        assert a == b

    def test_samples_are_members(self):
        rng = random.Random(4)
        for _ in range(200):
            validate_in_family(sample_augmented_tableau(Partition.of(1), 2, 1, 4, rng),
                               Partition.of(1), 4, 2)
        for _ in range(200):
            validate_in_family(sample_staircase_tableau(Partition.of(1), 2, 4, rng),
                               Partition.of(1), 4, 0)

    def test_uniformity_within_three_sigma(self):
        # every member of the 12-element family should appear ~200 times
        population = {m: 0 for m in enumerate_augmented_tableaux(Partition(), 1, 1, 2)}
        assert len(population) == 12
        draws = 2400
        rng = random.Random(2718)
        for _ in range(draws):
            population[sample_augmented_tableau(Partition(), 1, 1, 2, rng)] += 1
        expected = draws / 12
        sigma = math.sqrt(draws * (1 / 12) * (11 / 12))
        for count in population.values():
            assert abs(count - expected) <= 3 * sigma


class TestFirstMap:
    def test_worked_example_pair(self):
        left = member([(2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2), (3,)],
                      (2, 5, 4, 1, 3))
        right = member([(2, 2, 3, 4, 4, 4, 5), (4, 4, 5, 5, 5), (5, 5, 5), (2, 2), (3,)],
                       (2, 4, 5, 1, 3))
        assert i1(left) == right
        assert i1(right) == left

    def test_column_strict_members_fixed(self):
        # semistandard filling glued onto the standard staircase, identity labels
        lam, n, N = Partition.of(2, 1), 2, 4
        for ssyt in enumerate_ssyt(lam, N):
            rows = [
                tuple([r] * (N - r + 1)) + ssyt[r - 1] if r <= len(lam) else tuple([r] * (N - r + 1))
                for r in range(1, N + 1)
            ]
            st = member(rows, range(1, N + 1))
            assert i1(st) == st

    def test_single_row_always_fixed(self):
        for rows in combinations_with_replacement((1,), 1):
            st = member([rows], (1,))
            assert i1(st) == st

    def test_exhaustive_properties(self):
        lam, n, N = Partition.of(1), 2, 3
        fixed = 0
        for st in enumerate_staircase_tableaux(lam, n, N):
            image = i1(st)
            assert i1(image) == st
            if image == st:
                fixed += 1
                assert is_column_strict(st[0])
                assert staircase_entries_standard(st[0])
                assert st[1] == (1, 2, 3)
            else:
                assert sign(image) == -sign(st)
                assert weight(image, lam, n, N) == weight(st, lam, n, N)
                assert weight(image, lam, n, N, l=1) == weight(st, lam, n, N, l=1)
        assert fixed == sum(1 for _ in enumerate_ssyt(lam, N))

    def test_signed_sum_factors_through_schur(self):
        # hand-checked instance: the survivors carry x(0,1)^2 * x(0,2)
        total = staircase_signed_sum(Partition(), 1, 2)
        assert total == Polynomial.from_term(
            1, Monomial.from_exponents({(0, 1): 2, (0, 2): 1})
        )

    @pytest.mark.parametrize("lam,n,N", [((), 1, 2), ((), 2, 3), ((1,), 2, 2), ((1,), 2, 3)])
    def test_signed_sum_identity(self, lam, n, N):
        lam = Partition(lam)
        lhs = staircase_signed_sum(lam, n, N)
        rhs = Polynomial.from_term(n, staircase_monomial(N, n)) * loop_schur(lam, n, N)
        assert lhs == rhs

    # I1 trusts its input: a member lengthened at a row lies outside its
    # domain, the base family, and the membership check refuses it there.
    def test_rejects_augmented_shapes(self):
        st = member([(1, 1, 1), (2,)], (1, 2), 1)
        validate_in_family(st, Partition(), 2, 1)
        with pytest.raises(MembershipError, match="lengthened row"):
            validate_in_family(st, Partition(), 2, 0)


class TestSecondMap:
    def test_worked_example_pair(self):
        a = member([(2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2, 3, 4, 5), (3,)],
                   (2, 5, 4, 1, 3), 4)
        b = member([(2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (4, 5), (2, 2, 3, 3)],
                   (2, 5, 4, 3, 1), 5)
        assert i2(a, 3) == b
        assert i2(b, 3) == a

    def test_fixed_rule(self):
        fixed = member([(1, 1, 2), (2,)], (1, 2), 1)
        assert i2_is_fixed(fixed, 1) and i2(fixed, 1) == fixed
        moved = member([(2, 2, 2), (2,)], (1, 2), 1)
        assert not i2_is_fixed(moved, 1) and i2(moved, 1) != moved

    def test_involution_on_samples(self):
        rng = random.Random(31)
        for _ in range(1000):
            st = sample_augmented_tableau(LAM21, 3, 1, 5, rng)
            image = i2(st, 3)
            assert i2(image, 3) == st
            if image != st:
                assert sign(image) == -sign(st)
                assert weight(image, LAM21, 3, 5, 3) == weight(st, LAM21, 3, 5, 3)

    def test_factorization_weight_law_exhaustive(self):
        # every fixed point splits off the k-th power of a full color block
        n, k, N = 1, 1, 2
        lam, d = Partition(), k * n
        fixed_points = [st for st in enumerate_augmented_tableaux(lam, n, k, N)
                        if i2_is_fixed(st, d)]
        assert len(fixed_points) == 10
        seen = set()
        for st in fixed_points:
            base, i = extract_power_sum_factor(st, d), st[2]
            value = st[1][i - 1]
            factor = Monomial.from_exponents({(c, n * value): k for c in range(n)})
            assert factor * weight(base, lam, n, N) == weight(st, lam, n, N, d)
            assert sign(base) == sign(st)
            assert insert_power_sum_factor(base, i, d) == st
            seen.add((base[0], base[1], value))
        # the split is a bijection onto (base family) x (power-sum index)
        assert len(seen) == len(fixed_points)
        assert len(seen) == count_staircase_tableaux(lam, N) * N

    @pytest.mark.parametrize("lam,n,k,N", [((), 1, 1, 2), ((), 2, 1, 3), ((1,), 2, 1, 3), ((1,), 1, 2, 3)])
    def test_product_identity(self, lam, n, k, N):
        lam = Partition(lam)
        lhs = augmented_signed_sum(lam, n, k, N)
        rhs = (loop_power_sum(k, n, N)
               * Polynomial.from_term(n, staircase_monomial(N, n))
               * loop_schur(lam, n, N))
        assert lhs == rhs


class TestThirdMap:
    def test_equal_length_example_pair(self):
        a = member([(2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2, 3, 4, 5), (3,)],
                   (2, 5, 4, 1, 3), 4)
        c = member([(2, 2, 3, 4, 4, 4, 5), (2, 2, 3, 4, 5), (4, 4, 5), (5, 5, 5, 5, 5), (3,)],
                   (2, 1, 4, 5, 3), 4)
        assert i3(a) == c
        assert i3(c) == a

    def test_slide_example_pair(self):
        start = member([(2, 2, 3, 4, 4, 4, 4), (2, 2, 3, 4, 4), (4, 4, 5, 5, 5, 5), (5, 5), (3,)],
                       (2, 1, 4, 5, 3), 3)
        end = member([(2, 2, 3, 4, 4, 4, 4), (4, 4, 5, 5, 5), (2, 2, 3, 4, 4, 5), (5, 5), (3,)],
                     (2, 4, 1, 5, 3), 3)
        assert i3(start) == end
        assert i3(end) == start

    def test_zero_slide_fixed_point(self):
        # lengthening row 1 keeps lengths strictly decreasing: no slides
        st = member([(1, 1, 2), (2,)], (1, 2), 1)
        assert i3(st) == st
        parts, height, landed = slide_to_border_strip(st)
        assert Partition(parts) == Partition.of(1) and height == 0
        assert landed[0] == st[0] and landed[1] == st[1]
        assert slide_from_border_strip(landed, *strip_rows(Partition(parts), Partition())) == st

    def test_exhaustive_properties_and_strip_bijection(self):
        lam, n, k, N = Partition.of(1), 2, 1, 3
        landings: dict = {}
        d = k * n
        for st in enumerate_augmented_tableaux(lam, n, k, N):
            image = i3(st)
            assert i3(image) == st
            if image == st:
                parts, height, landed = slide_to_border_strip(st)
                sigma = Partition(parts)
                assert is_border_strip(sigma, lam, d)
                validate_in_family(landed, sigma, N, 0)
                assert i1(landed) == landed
                assert weight(landed, sigma, n, N) == weight(st, lam, n, N, d)
                assert weight(landed, sigma, n, N, l=1) == weight(st, lam, n, N, d, l=1)
                assert sign(st) == (-1) ** height * sign(landed)
                assert slide_from_border_strip(landed, *strip_rows(sigma, lam)) == st
                landings.setdefault((sigma, height), set()).add((landed[0], landed[1]))
            else:
                assert sign(image) == -sign(st)
                assert weight(image, lam, n, N, d) == weight(st, lam, n, N, d)
                assert weight(image, lam, n, N, d, l=1) == weight(st, lam, n, N, d, l=1)
        # fixed points land bijectively on the column-strict members per strip
        expected_strips = {(b.sigma, b.height) for b in enumerate_border_strips(lam, k * n)
                           if len(b.sigma) <= N}
        assert set(landings) == expected_strips
        for (sigma, _height), seen in landings.items():
            fixed_on_sigma = {(st[0], st[1]) for st in enumerate_staircase_tableaux(sigma, n, N)
                              if i1(st) == st}
            assert seen == fixed_on_sigma

    @pytest.mark.parametrize("lam,n,k,N", [((), 1, 1, 2), ((), 2, 1, 3), ((1,), 2, 1, 3)])
    def test_border_strip_identity(self, lam, n, k, N):
        lam = Partition(lam)
        lhs = augmented_signed_sum(lam, n, k, N)
        staircase = Polynomial.from_term(n, staircase_monomial(N, n))
        rhs = Polynomial.zero(n)
        for strip in enumerate_border_strips(lam, k * n):
            piece = staircase * loop_schur(strip.sigma, n, N)
            rhs = rhs + piece if strip.height % 2 == 0 else rhs - piece
        assert lhs == rhs


class TestFourthMap:
    def test_weight_preserved_by_hand(self):
        # lambda = 0, n = 2, k = 1, l = 1: d = 2 cells appended and kl = 1
        st = member([(1, 1, 1, 1, 1), (2, 2), (3,)], (1, 2, 3), 1)
        image = i4(st, 2, 1)
        assert image[2] == 2
        assert image[0] == ((2, 2, 2), (1, 1, 1, 1), (3,))
        assert image[1] == (2, 1, 3)
        assert weight(image, Partition(), 2, 3, 2, l=1) == weight(st, Partition(), 2, 3, 2, l=1)
        assert i4(image, 2, 1) == st

    def test_no_fixed_points_and_preservation_on_samples(self):
        # n = 3, k = 1, l = 1: d = 3 cells appended and kl = 1
        rng = random.Random(77)
        for _ in range(500):
            st = sample_augmented_tableau(LAM21, 3, 1, 5, rng)
            if not in_low_family(st, 1):
                continue
            image = i4(st, 3, 1)
            assert image != st
            assert in_low_family(image, 1)
            assert i4(image, 3, 1) == st
            assert sign(image) == -sign(st)
            assert weight(image, LAM21, 3, 5, 3, l=1) == weight(st, LAM21, 3, 5, 3, l=1)

    # I4 trusts its input: a lengthened row reaching above N - kl is a member
    # of the augmented family but outside the low family, I4's domain.
    def test_rejects_high_rows(self):
        # lambda = 0, n = 2, k = 1, l = 1: d = 2 cells appended and kl = 1
        st = member([(1, 1, 1, 1, 3), (2, 2), (3,)], (1, 2, 3), 1)
        validate_in_family(st, Partition(), 3, 2)
        assert not in_low_family(st, 1)
        low = member([(1, 1, 1, 1, 2), (2, 2), (3,)], (1, 2, 3), 1)
        validate_in_family(low, Partition(), 3, 2)
        assert in_low_family(low, 1)

    def test_unreachable_members_carry_the_shifted_sum(self):
        lam, n, k, N, l = Partition(), 2, 1, 3, 1
        d, kl = k * n, k * l
        total: dict = {}
        for st in enumerate_augmented_tableaux(lam, n, k, N):
            if in_low_family(st, kl):
                image = i4(st, d, kl)
                assert image != st and i4(image, d, kl) == st
                assert weight(image, lam, n, N, d, l) == weight(st, lam, n, N, d, l)
            else:
                m = weight(st, lam, n, N, d, l)
                total[m] = total.get(m, 0) + sign(st)
        assert Polynomial(n, total) == augmented_signed_sum(lam, n, k, N, l)


class TestShiftedSignedSums:
    @pytest.mark.parametrize("lam,n,k,N,l", [((), 2, 1, 3, 1), ((1,), 2, 1, 4, 1), ((), 3, 1, 4, 2)])
    def test_shifted_border_strip_identity(self, lam, n, k, N, l):
        # the slide map preserves shifted weights, so the identity lifts to l > 0
        lam = Partition(lam)
        from loopschur import shifted_loop_schur
        lhs = augmented_signed_sum(lam, n, k, N, l)
        staircase = Polynomial.from_term(n, staircase_monomial(N, n, l))
        rhs = Polynomial.zero(n)
        for strip in enumerate_border_strips(lam, k * n):
            piece = staircase * shifted_loop_schur(strip.sigma, ShiftParams(n, l), N)
            rhs = rhs + piece if strip.height % 2 == 0 else rhs - piece
        assert lhs == rhs


def reference_signed_sum(members, lam, n, N, d, l, sign=permutation_sign):
    """Sum of sign(tau) times the (shifted) weight over plain members of the
    family of ``lam`` with N rows and d cells appended, one ``rows_monomial``
    per member: the reference for the keyed signed sums."""
    cells = staircase_cells(lam, N, d, n, l)
    terms: dict = {}
    for rows, tau, _ in members:
        m = rows_monomial(rows, cells, n)
        terms[m] = terms.get(m, 0) + sign(tau)
    return Polynomial(n, terms)


def family_stream(lam, n, d, N):
    """The name on ``involutions`` of the enumerator of the family of ``lam``
    with N rows and d cells appended, and the members it streams."""
    if d:
        return "enumerate_augmented_tableaux", list(enumerate_augmented_tableaux(lam, n, d // n, N))
    return "enumerate_staircase_tableaux", list(enumerate_staircase_tableaux(lam, n, N))


def signed_sum(lam, n, d, N, l):
    """The keyed signed sum of that family."""
    return augmented_signed_sum(lam, n, d // n, N, l) if d else staircase_signed_sum(lam, n, N, l)


SUM_PARTITIONS = [(), (1,), (2,), (1, 1), (2, 1)]


class TestKeyedSignedSums:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", SUM_PARTITIONS)
    def test_base_sum_matches_the_reference(self, lam, n):
        lam = Partition(lam)
        for N in range(len(lam), 5):  # lambda = 0 from N = 0
            members = list(enumerate_staircase_tableaux(lam, n, N))
            for l in range(n):
                expected = reference_signed_sum(members, lam, n, N, 0, l)
                assert staircase_signed_sum(lam, n, N, l) == expected

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lam", SUM_PARTITIONS)
    def test_augmented_sum_matches_the_reference(self, lam, n, k):
        lam = Partition(lam)
        for N in range(len(lam), 4):
            members = list(enumerate_augmented_tableaux(lam, n, k, N))
            for l in range(n):
                expected = reference_signed_sum(members, lam, n, N, k * n, l)
                assert augmented_signed_sum(lam, n, k, N, l) == expected

    @pytest.mark.parametrize("edit", ["drop", "repeat"])
    @pytest.mark.parametrize("d,l", [(0, 0), (0, 1), (2, 0), (2, 1)])
    def test_the_sums_sum_exactly_their_stream(self, d, l, edit, monkeypatch):
        # The sums key every member of the stream they look up on
        # ``involutions``, and nothing else: a member dropped from it, or
        # repeated in it, moves the sum just as it moves the reference.
        lam, n, N = Partition.of(1), 2, 3
        name, members = family_stream(lam, n, d, N)
        at = len(members) // 2
        altered = members[:at] + members[at + 1:] if edit == "drop" else members[:at + 1] + members[at:]
        monkeypatch.setattr(involutions_mod, name, lambda *args: iter(altered))
        total = signed_sum(lam, n, d, N, l)
        assert total == reference_signed_sum(altered, lam, n, N, d, l)
        assert total != reference_signed_sum(members, lam, n, N, d, l)

    @pytest.mark.parametrize("N", [0, 1, 3])
    @pytest.mark.parametrize("d", [0, 2])
    def test_a_member_with_the_wrong_row_count_is_refused(self, d, N, monkeypatch):
        # Each member's row count is checked, also at N = 0, where a staircase
        # code has no cell table at all; an extra row that is a row of the
        # family must not be keyed as one.
        lam, n = Partition(), 2
        name, members = family_stream(lam, n, d, N)
        rows, tau, i = members[-1] if members else ((), (), 0)
        for wrong in [rows + (rows[-1] if N else (),)] + ([rows[:-1]] if N else []):
            stream = members + [(wrong, tau, i)]
            monkeypatch.setattr(involutions_mod, name, lambda *args: iter(stream))
            with pytest.raises(ValueError, match=f"^{len(wrong)} rows for {N} cell tables$"):
                signed_sum(lam, n, d, N, 0)

    def test_bad_shift_is_refused_before_counting(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("the family was counted")
        monkeypatch.setattr(involutions_mod, "count_staircase_tableaux", no_count)
        monkeypatch.setattr(involutions_mod, "count_augmented_tableaux", no_count)
        with pytest.raises(ValueError, match="shift"):
            staircase_signed_sum(Partition(), 2, 3, l=5, cap=1)
        with pytest.raises(ValueError, match="shift"):
            augmented_signed_sum(Partition(), 2, 1, 3, l=2, cap=1)

    def test_cap_refuses_before_the_code_is_built(self, monkeypatch):
        def no_code(*args):
            raise AssertionError("a weight code was built")
        monkeypatch.setattr(involutions_mod, "WeightCode", no_code)
        with pytest.raises(CapExceededError):
            staircase_signed_sum(Partition(), 2, 3, l=1, cap=1)
        with pytest.raises(CapExceededError):
            augmented_signed_sum(Partition(), 2, 1, 3, l=1, cap=1)

    @pytest.mark.parametrize("d,l", [(0, 0), (0, 1), (2, 0), (2, 1)])
    def test_one_signed_tableau_per_distinct_weight(self, d, l, monkeypatch):
        # Only the first member of each weight that survives the signed sum is
        # wrapped, to be weighed; the rest stay plain tuples.
        built = []

        class Counted(SignedTableau):
            def __new__(cls, *fields):
                built.append(fields)
                return super().__new__(cls, *fields)
        monkeypatch.setattr(involutions_mod, "SignedTableau", Counted)
        lam, n, N = Partition.of(1), 2, 3
        if d:
            total = augmented_signed_sum(lam, n, d // n, N, l)
            members = list(enumerate_augmented_tableaux(lam, n, d // n, N))
        else:
            total = staircase_signed_sum(lam, n, N, l)
            members = list(enumerate_staircase_tableaux(lam, n, N))
        cells = staircase_cells(lam, N, d, n, l)
        firsts, weights = {}, Counter()
        for m in members:
            weight = rows_monomial(m[0], cells, n)
            firsts.setdefault(weight, m)
            weights[weight] += permutation_sign(m[1])
        assert built == [(lam, n, N, d, *m) for weight, m in firsts.items() if weights[weight]]
        assert len(built) == len(total) < len(firsts) < len(members)

    @pytest.mark.parametrize("which,l", [("I1", 0), ("I2", 0), ("I3", 0), ("I4", 1)])
    def test_cap_refuses_before_the_family_check_is_built(self, which, l, monkeypatch):
        def no_check(*args):
            raise AssertionError("a family check was built")
        monkeypatch.setattr(verify_mod, "_FamilyCheck", no_check)
        involutions_mod._label_table.cache_clear()
        with pytest.raises(CapExceededError):
            check_involution(which, Partition(), 2, 1, 3, l=l, cap=1)
        assert involutions_mod._label_table.cache_info().currsize == 1

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_cap_refuses_before_the_staircase_factor_is_built(self, which, monkeypatch):
        def no_factor(*args):
            raise AssertionError("the staircase factor was built")
        monkeypatch.setattr(verify_mod, "staircase_monomial", no_factor)
        with pytest.raises(CapExceededError):
            verify_expansion(which, Partition(), 2, 1, 3, cap=1)

    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_flipped_labeling_sign_fails_with_the_difference(self, which, monkeypatch, capsys):
        lam, n, k, N = Partition.of(1), 2, 1, 3
        flipped_tau = (2, 1, 3)

        def flipped_sign(tau):
            return -permutation_sign(tau) if tau == flipped_tau else permutation_sign(tau)
        monkeypatch.setattr(involutions_mod, "permutation_sign", flipped_sign)
        if which == 1:
            members, d = enumerate_staircase_tableaux(lam, n, N), 0
        else:
            members, d = enumerate_augmented_tableaux(lam, n, k, N), k * n
        lhs = reference_signed_sum(members, lam, n, N, d, 0, sign=flipped_sign)
        rhs = Polynomial.from_term(n, staircase_monomial(N, n)) * loop_schur(lam, n, N)
        if which != 1:  # identity 3's strip sum equals this product (mn-verify)
            rhs = loop_power_sum(k, n, N) * rhs
        witness = {"difference": to_document(lhs - rhs)}

        report = verify_expansion(which, lam, n, k, N)
        assert not report.passed
        assert report.witness == witness
        status = main(["lemma-verify", "--which", str(which), "--lambda", "1", "--n", "2",
                       "--k", "1", "--N", "3", "--format", "structured"])
        out = capsys.readouterr().out
        assert status == 1
        document = json.loads(out)
        assert document["pass"] is False
        assert document["witness"] == json.loads(json.dumps(witness))


def test_permutation_sign():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((2, 5, 4, 1, 3)) == permutation_sign((2, 4, 5, 1, 3)) * -1


def test_permutation_sign_is_the_inversion_parity():
    for N in range(8):
        for tau in permutations(range(1, N + 1)):
            inversions = sum(a > b for x, a in enumerate(tau) for b in tau[x + 1:])
            assert permutation_sign(tau) == (-1) ** inversions


def test_dividing_out_the_staircase_monomial_recovers_schur():
    # every surviving term carries the staircase factor, so the quotient is exact
    from loopschur import poly_div_monomial

    lam, n, N = Partition.of(1), 2, 3
    total = staircase_signed_sum(lam, n, N)
    quotient = poly_div_monomial(total, staircase_monomial(N, n))
    assert quotient == loop_schur(lam, n, N)
