"""Loop Schur functions as tableau generating functions.

Every semistandard filling contributes one monomial whose variables pair the
cell's color with its entry; truncation keeps entries at most N.
"""

from loopschur import (
    Partition,
    ShiftParams,
    classical_schur,
    enumerate_ssyt,
    loop_power_sum,
    loop_schur,
    shifted_loop_schur,
    specialize_forget_color,
    weight_monomial,
)

lam = Partition.of(2, 1)
n, N = 2, 3

print(f"semistandard fillings of {lam} with entries <= {N}:")
for rows in enumerate_ssyt(lam, N):
    print(" ", rows, "->", weight_monomial(rows, lam, n).format(n))

s = loop_schur(lam, n, N)
print(f"loop Schur function ({len(s)} terms):")
print(" ", s)

# Power sums use one variable of every color at a common weight.
p = loop_power_sum(1, n, N)
print("loop power sum:", p)

# The shift adds l * content / n to each entry; with l = 0 nothing changes.
shifted = shifted_loop_schur(lam, ShiftParams(n, 1), N)
print("1-shifted loop Schur function:")
print(" ", shifted)
assert shifted_loop_schur(lam, ShiftParams(n, 0), N) == s

# Forgetting colors recovers the classical Schur polynomial, which the
# package recomputes independently from a determinant of complete
# homogeneous sums.
flat = specialize_forget_color(s)
oracle = classical_schur(lam, N)
print("specialized equals the determinant oracle:", flat == oracle)
print(" ", oracle)
