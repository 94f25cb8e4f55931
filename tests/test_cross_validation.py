"""Seeded spot checks beyond the fixed acceptance grids.

These exercise taller partitions, repeated parts, and larger truncations so
that a regression that happens to respect the small grids still gets caught.
"""

import random

import pytest

from loopschur import (
    Partition,
    ShiftParams,
    augmented_signed_sum,
    enumerate_augmented_tableaux,
    enumerate_border_strips,
    enumerate_ssyt,
    enumerate_staircase_tableaux,
    i1,
    i2,
    i3,
    i4,
    in_low_family,
    sample_augmented_tableau,
    shifted_loop_schur,
    staircase_monomial,
    validate_in_family,
    verify_degree_bound,
    verify_murnaghan_nakayama,
)
from loopschur.polyring import Polynomial


EXTRA_MN_INSTANCES = [
    ((2, 2), 1, 2, 6),
    ((1, 1, 1), 2, 2, 7),
    ((3, 2), 2, 1, 7),
    ((2, 1, 1), 3, 1, 7),
    ((4,), 1, 4, 8),
]


@pytest.mark.parametrize("lam,n,k,N", EXTRA_MN_INSTANCES)
def test_expansion_beyond_acceptance_grid(lam, n, k, N):
    report = verify_murnaghan_nakayama(Partition(lam), n, k, N)
    assert report.passed, report.text()


@pytest.mark.parametrize("lam,n,l", [((2, 2), 2, 1), ((1, 1), 3, 2)])
def test_degree_floor_beyond_acceptance_grid(lam, n, l):
    for N in range(n + len(lam) + 1, 8):
        report = verify_degree_bound(Partition(lam), n, 1, N, l)
        assert report.passed, report.text()


def test_shifted_master_sum_with_k_two():
    # k = 2 makes the lengthened row jump two full color cycles
    lam, n, k, N, l = Partition(), 2, 2, 4, 1
    lhs = augmented_signed_sum(lam, n, k, N, l)
    staircase = Polynomial.from_term(n, staircase_monomial(N, n, l))
    rhs = Polynomial.zero(n)
    for strip in enumerate_border_strips(lam, k * n):
        piece = staircase * shifted_loop_schur(strip.sigma, ShiftParams(n, l), N)
        rhs = rhs + piece if strip.height % 2 == 0 else rhs - piece
    assert lhs == rhs


def test_fixed_point_counts_match_tableau_counts():
    # i1 fixed points biject onto semistandard fillings of the base partition
    for lam, N in ((Partition.of(2, 2), 4), (Partition.of(1, 1), 3)):
        fixed = sum(1 for m in enumerate_staircase_tableaux(lam, 1, N) if i1(m) == m)
        assert fixed == sum(1 for _ in enumerate_ssyt(lam, N))


def test_involutions_commute_with_validation_on_random_walks():
    # random alternating applications never leave the families
    rng = random.Random(515)
    lam, n, k, N, l = Partition.of(2, 1), 3, 1, 5, 1
    d, kl = k * n, k * l
    for _ in range(200):
        m = sample_augmented_tableau(lam, n, k, N, rng)
        walked = i2(i2(i3(i3(m)), d), d)
        assert walked == m
        for image in (i3(m), i2(m, d)):
            validate_in_family(image, lam, N, d)
        if in_low_family(m, kl):
            image = i4(m, d, kl)
            validate_in_family(image, lam, N, d)
            assert i4(image, d, kl) == m


def test_exhaustive_family_with_tall_partition():
    # every member pairs consistently even when the base partition is a column
    lam, n, k, N = Partition.of(1, 1), 2, 1, 3
    d = k * n
    total = 0
    for m in enumerate_augmented_tableaux(lam, n, k, N):
        total += 1
        for image in (i2(m, d), i3(m)):
            validate_in_family(image, lam, N, d)
        assert i2(i2(m, d), d) == m
        assert i3(i3(m)) == m
    assert total > 0
