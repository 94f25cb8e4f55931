"""Determinant oracles built on :func:`subset_expansion`.

The row series here are local to the test: a row of cells whose first cell
has content c is weighed straight from the definition, the cell at index q
with entry v giving the variable of color (c + q) mod n and weight numerator
n * v + l * (c + q).  Nothing is read from the package's cell tables.
"""

import random
from itertools import combinations_with_replacement, permutations

import pytest

from loopschur import (
    Monomial,
    Partition,
    Polynomial,
    ShiftParams,
    augmented_signed_sum,
    classical_schur,
    loop_schur,
    shifted_loop_schur,
    staircase_signed_sum,
)
from loopschur.involutions import subset_expansion

from conftest import brute_partitions


def row_series(n: int, l: int, start: int, length: int, lo: int, N: int) -> Polynomial:
    """Sum of the weights of the weakly increasing fillings, with entries in
    [lo, N], of a row of ``length`` cells whose first cell has content ``start``."""
    if length < 0:
        return Polynomial.zero(n)
    terms: dict[Monomial, int] = {}
    for values in combinations_with_replacement(range(lo, N + 1), length):
        factors: dict[tuple[int, int], int] = {}
        for q, v in enumerate(values):
            key = ((start + q) % n, n * v + l * (start + q))
            factors[key] = factors.get(key, 0) + 1
        m = Monomial.from_exponents(factors)
        terms[m] = terms.get(m, 0) + 1
    return Polynomial(n, terms)


def complete_homogeneous(m: int, N: int) -> Polynomial:
    """h_m(y_1..y_N), with y_j = x(0, j) of modulus 1: one term per multiset of
    m indices in [1, N], and zero for m < 0."""
    if m < 0:
        return Polynomial.zero(1)
    return Polynomial(1, {Monomial.from_variables((0, j) for j in indices): 1
                          for indices in combinations_with_replacement(range(1, N + 1), m)})


def determinant(matrix, n: int) -> Polynomial:
    return subset_expansion(matrix, Polynomial.zero(n), Polynomial.one(n), signed=True)[-1]


def inversion_sign(perm) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


# Every lam contained in (3, 2), (2, 2, 1), (3, 1) or (2, 1, 1).
SMALL_SHAPES = sorted(
    p for total in range(6) for p in brute_partitions(total)
    if any(all(a <= b for a, b in zip(p, box)) and len(p) <= len(box)
           for box in ((3, 2), (2, 2, 1), (3, 1), (2, 1, 1)))
)


@pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
def test_loop_schur_is_the_colored_jacobi_trudi_determinant(lam):
    """Entry (i, j) is the row of lam_i - i + j cells that ends at content
    lam_i - i, the end of row i, so it starts at content 1 - j."""
    lam = Partition(lam)
    ell = len(lam)
    for n in (1, 2, 3):
        for l in range(n):
            for N in range(5):
                matrix = [
                    [row_series(n, l, 1 - j, lam.part(i) - i + j, 1, N) for j in range(1, ell + 1)]
                    for i in range(1, ell + 1)
                ]
                if l == 0:
                    expected = loop_schur(lam, n, N)
                else:
                    expected = shifted_loop_schur(lam, ShiftParams(n, l), N)
                assert determinant(matrix, n) == expected, (lam, n, l, N)


@pytest.mark.parametrize("lam", [p for size in range(7) for p in brute_partitions(size)], ids=str)
def test_classical_schur_is_the_jacobi_trudi_determinant(lam):
    """det[h_(lam_i - i + j)] in y_1..y_N for every N up to 6: one for the
    empty partition, and zero once len(lam) > N."""
    lam = Partition(lam)
    ell = len(lam)
    for N in range(7):
        matrix = [[complete_homogeneous(lam.part(i) - i + j, N) for j in range(1, ell + 1)]
                  for i in range(1, ell + 1)]
        assert classical_schur(lam, N) == determinant(matrix, 1), (lam, N)


def family_determinant(lam: Partition, n: int, l: int, N: int, d: int = 0, i: int = 0) -> Polynomial:
    """det[R_r(t)]: R_r(t) is the series of row r with label t.  Every row of a
    staircase family starts at content -N; row i has d more cells."""
    matrix = [
        [row_series(n, l, -N, lam.part(r) + N - r + 1 + (d if r == i else 0), t, N)
         for t in range(1, N + 1)]
        for r in range(1, N + 1)
    ]
    return determinant(matrix, n)


FAMILY_CASES = [
    (lam, n, N)
    for lam in ((), (1,), (2,), (1, 1))
    for n in (1, 2)
    for N in range(max(len(lam), 1), 4)
]


@pytest.mark.parametrize("lam,n,N", FAMILY_CASES, ids=str)
def test_family_signed_sums_are_label_determinants(lam, n, N):
    lam = Partition(lam)
    for l in range(n):
        assert staircase_signed_sum(lam, n, N, l) == family_determinant(lam, n, l, N)
        expected = Polynomial.zero(n)
        for i in range(1, N + 1):
            expected = expected + family_determinant(lam, n, l, N, d=n, i=i)
        assert augmented_signed_sum(lam, n, 1, N, l) == expected


@pytest.mark.parametrize("l", [0, 1])
def test_base_family_signed_sum_at_four_rows(l):
    assert staircase_signed_sum(Partition(), 2, 4, l) == family_determinant(Partition(), 2, l, 4)


@pytest.mark.parametrize("size", range(6))
def test_subset_expansion_matches_leibniz_on_every_subset(size):
    """Entry S is the permanent, or with ``signed`` the determinant, of the
    last |S| rows on the columns in S."""
    rng = random.Random(size)
    for _ in range(5):
        matrix = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        permanents = subset_expansion(matrix, 0, 1)
        minors = subset_expansion(matrix, 0, 1, signed=True)
        assert len(permanents) == len(minors) == 1 << size
        for S in range(1 << size):
            cols = [t for t in range(size) if S >> t & 1]
            rows = matrix[size - len(cols):]
            products = []
            for perm in permutations(cols):
                product = 1
                for row, c in zip(rows, perm):
                    product *= row[c]
                products.append((inversion_sign(perm), product))
            assert permanents[S] == sum(p for _, p in products)
            assert minors[S] == sum(s * p for s, p in products)
