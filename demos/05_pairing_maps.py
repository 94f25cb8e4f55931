"""Walking tableaux through the four sign-reversing pairing maps.

The expansion identities are proved by cancellation: each map pairs family
members of opposite sign and equal weight, leaving only the fixed points,
which biject onto something recognizable.  This demo shows each map acting
on a concrete member.
"""

from loopschur import (
    Partition,
    ShiftParams,
    SignedTableau,
    augmented_signed_sum,
    extract_power_sum_factor,
    i1,
    i2,
    i3,
    i4,
    loop_power_sum,
    loop_schur,
    slide_to_border_strip,
    staircase_monomial,
    staircase_signed_sum,
)
from loopschur.polyring import Polynomial

lam, n, N = Partition.of(2, 1), 3, 5


def show(label, st):
    print(f"{label}: tau={st.tau} sign={st.sign:+d}")
    for row in st.rows:
        print("   ", row)


# Map 1 exchanges row prefixes along diagonals at the rightmost column
# violation, so the weight monomial cannot change while the sign flips.
# A member carries its family as plain parameters: the partition, the modulus,
# the number of rows and d, the cells appended to the lengthened row i (both 0
# on the base family).
st = SignedTableau(lam, n, N, d=0,
                   rows=((2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2), (3,)),
                   tau=(2, 5, 4, 1, 3), i=0)
show("member", st)
show("i1 image", i1(st))
assert i1(i1(st)) == st and i1(st).monomial() == st.monomial()

# Map 2 relocates the leading block of the lengthened row; its fixed points
# factor as a power-sum variable block times a plain staircase member.
st2 = SignedTableau(lam, n, N, d=3,
                    rows=((2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (2, 2, 3, 4, 5), (3,)),
                    tau=(2, 5, 4, 1, 3), i=4)
show("augmented member", st2)
show("i2 image", i2(st2))

fixed = SignedTableau(lam, n, N, d=3,
                      rows=((2, 2, 3, 4, 4, 4, 5), (5, 5, 5, 5, 5), (4, 4, 5), (1, 1, 1, 2, 5), (3,)),
                      tau=(2, 5, 4, 1, 3), i=4)
assert i2(fixed) == fixed
base, row = extract_power_sum_factor(fixed)
print(f"i2 fixed point splits off row {row}; remaining member has tau={base.tau}")

# Map 3 slides the lengthened row to a border-strip staircase and runs i1
# there; each slide costs one sign, giving the strip-height sign rule.
st3 = i3(st2)
show("i3 image", st3)
assert i3(st3) == st2

from loopschur import enumerate_augmented_tableaux

fixed_point = next(st for st in enumerate_augmented_tableaux(Partition.of(1), 2, 1, 3)
                   if i3(st) == st and st.i > 1)
show("an i3 fixed point", fixed_point)
sigma, height, landed = slide_to_border_strip(fixed_point)
print(f"slides to the staircase family of sigma={sigma} after {height} step(s); "
      f"sign factor {(-1) ** height:+d}")
show("landing member", landed)
assert landed.monomial() == fixed_point.monomial()

# Map 4 compensates entries so the *shifted* weight survives the move.
shift = ShiftParams(n, 1)
st4 = SignedTableau(Partition(), n, 3, d=3, rows=((1, 1, 1, 1, 1, 2), (2, 2), (3,)),
                    tau=(1, 2, 3), i=1)
img4 = i4(st4, shift)
show("low member", st4)
show("i4 image", img4)
assert img4.monomial(shift.l) == st4.monomial(shift.l)

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
