"""Independent oracles for the benchmark's output checks.

Nothing here imports loopschur.  Each oracle reaches its answer by a route the
package does not take:

* ``hook_content`` counts semistandard tableaux with the hook-content formula
  (Stanley, EC2 Thm 7.21.2) instead of enumerating them.
* ``base_family_size`` and friends count row-labeled staircase families as a
  permanent, evaluated with Ryser's inclusion-exclusion formula, instead of
  summing over all N! labelings.
* ``border_strips`` adds border strips by moving beads on a beta-set (abacus)
  instead of walking rows.
* ``dominated_weight_count`` counts the monomials of a classical Schur
  polynomial from dominance order (Kostka positivity).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def _conjugate(parts: tuple[int, ...]) -> list[int]:
    return [sum(1 for p in parts if p > c) for c in range(parts[0])] if parts else []


def hook_content(parts: tuple[int, ...], N: int) -> int:
    """s_lambda(1^N): the number of SSYT of shape lambda with entries in 1..N."""
    conj = _conjugate(parts)
    num = den = 1
    for r, p in enumerate(parts):
        for c in range(p):
            num *= N + c - r
            den *= (p - c) + (conj[c] - r) - 1
    return num // den


def permanent(matrix: list[list[int]]) -> int:
    """Ryser's formula: perm A = (-1)^n sum over column sets S of (-1)^|S| prod_i sum_{j in S} a_ij."""
    n = len(matrix)
    total = 0
    for mask in range(1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        term = 1
        for row in matrix:
            term *= sum(row[j] for j in cols)
            if term == 0:
                break
        total += -term if len(cols) % 2 else term
    return -total if n % 2 else total


def _row_count(length: int, lo: int, hi: int) -> int:
    """Weakly increasing sequences of the given length over [lo, hi]."""
    if length == 0:
        return 1
    return comb(hi - lo + length, length) if hi >= lo else 0


def _family_matrix(parts, N, extra=0, row=0, top=None) -> list[list[int]]:
    """Rows r = 1..N of the staircase extension against labels t = 1..N.

    Entry (r, t) counts the fillings of row r when its label is t.  Row
    ``row`` carries ``extra`` appended cells and, when ``top`` is given, its
    entries are capped at ``top``.
    """
    matrix = []
    for r in range(1, N + 1):
        length = (parts[r - 1] if r <= len(parts) else 0) + N - r + 1
        hi = N
        if r == row:
            length += extra
            if top is not None:
                hi = top
        matrix.append([_row_count(length, t, hi) for t in range(1, N + 1)])
    return matrix


def base_family_size(parts: tuple[int, ...], N: int) -> int:
    """Members of the base family on the staircase extension of lambda."""
    return permanent(_family_matrix(parts, N))


def augmented_family_size(parts: tuple[int, ...], k: int, n: int, N: int) -> int:
    """Members of the augmented family: k*n cells appended to some row i."""
    return sum(permanent(_family_matrix(parts, N, k * n, i)) for i in range(1, N + 1))


def low_family_size(parts: tuple[int, ...], k: int, n: int, N: int, l: int) -> int:
    """Augmented members whose lengthened row stays at or below N - k*l."""
    return sum(
        permanent(_family_matrix(parts, N, k * n, i, N - k * l)) for i in range(1, N + 1)
    )


def border_strips(parts: tuple[int, ...], m: int) -> list[tuple[tuple[int, ...], int]]:
    """(sigma, height) for every length-m border strip added to lambda.

    On a beta-set of L beads, adding a border strip moves one bead from b to
    an empty position b + m; the strip's height is the number of beads
    jumped over.
    """
    L = len(parts) + m
    beads = [(parts[i] if i < len(parts) else 0) + L - 1 - i for i in range(L)]
    occupied = set(beads)
    found = []
    for b in beads:
        if b + m in occupied:
            continue
        height = sum(1 for x in beads if b < x < b + m)
        moved = sorted((occupied - {b}) | {b + m}, reverse=True)
        sigma = [x - (L - 1 - i) for i, x in enumerate(moved)]
        while sigma and sigma[-1] == 0:
            sigma.pop()
        found.append((tuple(sigma), height))
    return sorted(found)


def _partitions(total: int, largest: int, rows: int):
    if total == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first, rows - 1):
            yield (first,) + rest


def _dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if b > a:
            return False
    return True


def dominated_weight_count(parts: tuple[int, ...], N: int) -> int:
    """Monomials of s_lambda(y_1..y_N): weights alpha whose sorted form mu is
    dominated by lambda, counted with their distinct rearrangements."""
    count = 0
    for mu in _partitions(sum(parts), parts[0] if parts else 0, N):
        if _dominates(parts, mu):
            padded = mu + (0,) * (N - len(mu))
            arrangements = factorial(N)
            for value in set(padded):
                arrangements //= factorial(padded.count(value))
            count += arrangements
    return count


def degree_floor(n: int, k: int, N: int, l: int) -> Fraction:
    """The stated degree floor N(n - l)/n - k*n of the shifted strip sum."""
    return Fraction(N * (n - l), n) - k * n
