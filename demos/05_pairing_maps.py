"""Walking tableaux through the four sign-reversing pairing maps.

The expansion identities are proved by cancellation: each map pairs family
members of opposite sign and equal weight, leaving only the fixed points,
which biject onto something recognizable.  This demo shows each map acting
on a concrete member.
"""

from loopschur import (
    Partition,
    augmented_signed_sum,
    enumerate_augmented_tableaux,
    extract_power_sum_factor,
    i1,
    i2,
    i3,
    i4,
    loop_power_sum,
    loop_schur,
    permutation_sign,
    slide_to_border_strip,
    staircase_monomial,
    staircase_signed_sum,
    validate_in_family,
)
from loopschur.polyring import Polynomial
from loopschur.tableaux import rows_monomial, staircase_cells

lam, n, N = Partition.of(2, 1), 3, 5


def show(label, member):
    rows, tau, _ = member
    print(f"{label}: tau={tau} sign={permutation_sign(tau):+d}")
    for row in rows:
        print("   ", row)


def weight(member, lam, n, N, d=0, l=0):
    """The (shifted) weight monomial, read off the family's cell table."""
    return rows_monomial(member[0], staircase_cells(lam, N, d, n, l), n)


# Map 1 exchanges row prefixes along diagonals at the rightmost column
# violation, so the weight monomial cannot change while the sign flips.
# A member is plain data: the row tuples, the labels tau and the lengthened
# row i (0 on the base family).  Its family is named by plain parameters: the
# partition, the number of rows and d, the cells appended to row i (0 on the
# base family).  The maps trust their input; validate_in_family checks it.
st = ((2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2), (3,)), (2, 5, 4, 1, 3), 0
validate_in_family(st, lam, N, 0)
show("member", st)
show("i1 image", i1(st))
assert i1(i1(st)) == st and weight(i1(st), lam, n, N) == weight(st, lam, n, N)

# Map 2 relocates the leading block of the lengthened row; its fixed points
# factor as a power-sum variable block times a plain staircase member.
d = 3  # k * n with k = 1
st2 = ((2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2, 3, 4, 5), (3,)), (2, 5, 4, 1, 3), 4
validate_in_family(st2, lam, N, d)
show("augmented member", st2)
show("i2 image", i2(st2, d))

fixed = ((2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (1, 1, 1, 2, 5), (3,)), (2, 5, 4, 1, 3), 4
assert i2(fixed, d) == fixed
base = extract_power_sum_factor(fixed, d)
print(f"i2 fixed point splits off row {fixed[2]}; remaining member has tau={base[1]}")

# Map 3 slides the lengthened row to a border-strip staircase and runs i1
# there; each slide costs one sign, giving the strip-height sign rule.
st3 = i3(st2)
show("i3 image", st3)
assert i3(st3) == st2

fixed_point = next(m for m in enumerate_augmented_tableaux(Partition.of(1), 2, 1, 3)
                   if i3(m) == m and m[2] > 1)
show("an i3 fixed point", fixed_point)
parts, height, landed = slide_to_border_strip(fixed_point)
sigma = Partition(parts)
print(f"slides to the staircase family of sigma={sigma} after {height} step(s); "
      f"sign factor {(-1) ** height:+d}")
show("landing member", landed)
assert weight(landed, sigma, 2, 3) == weight(fixed_point, Partition.of(1), 2, 3, 2)

# Map 4 compensates entries so the *shifted* weight survives the move: with
# k = 1 and shift l = 1 it adds k*l to the entries it moves left.
l = 1
kl = 1  # k * l
st4 = ((1, 1, 1, 1, 1, 2), (2, 2), (3,)), (1, 2, 3), 1
img4 = i4(st4, d, kl)
show("low member", st4)
show("i4 image", img4)
assert weight(img4, Partition(), n, 3, d, l) == weight(st4, Partition(), n, 3, d, l)

# The cancellations add up: the signed sum over the augmented family equals
# the power-sum product times the staircase monomial.
small_lam, small_N = Partition.of(1), 3
total = augmented_signed_sum(small_lam, 2, 1, small_N)
product = (loop_power_sum(1, 2, small_N)
           * Polynomial.from_term(2, staircase_monomial(small_N, 2))
           * loop_schur(small_lam, 2, small_N))
print("augmented signed sum equals the power-sum product:", total == product)
print("base signed sum equals staircase times Schur:",
      staircase_signed_sum(small_lam, 2, small_N)
      == Polynomial.from_term(2, staircase_monomial(small_N, 2)) * loop_schur(small_lam, 2, small_N))
