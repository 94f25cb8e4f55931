"""Tour of the exact polynomial ring underneath everything else.

Variables carry a color in Z_n and a rational weight with denominator n.
Coefficients are arbitrary-precision integers; there is no floating point
anywhere, so every identity later on is checked exactly.
"""

from loopschur import (
    Monomial,
    Polynomial,
    parse,
    poly_div_monomial,
    serialize,
    specialize_forget_color,
)

n = 3  # the color modulus; weights live in (1/3) * Z

# x(color, weight): weight_num is the numerator over n, so x(0, 1) has
# weight_num 3 and x(2, 4/3) has weight_num 4.
x01 = Polynomial.from_term(n, Monomial.from_exponents({(0, 3): 1}))
x21 = Polynomial.from_term(n, Monomial.from_exponents({(2, 3): 1}))
x2_43 = Polynomial.from_term(n, Monomial.from_exponents({(2, 4): 1}))

p = (x01 + x21) * (x01 - x21)
print("difference of squares:", p)

q = p + Polynomial.from_term(n, Monomial.from_exponents({(0, 3): 2}), 1)
print("after adding x(0,1)^2:", q)

# q is divisible by x(0,1)^... no, only some terms are; divide something that is.
cube = x01 * x01 * x2_43
quotient = poly_div_monomial(cube, Monomial.from_exponents({(0, 3): 1}))
print("exact monomial quotient:", quotient)

print("min degree of", q, "is", q.min_degree())

# Serialization is canonical: equal polynomials give byte-identical JSON.
text = serialize(q)
print("canonical document:", text)
assert parse(text) == q

# Forgetting colors sends x(i, w) to the single-color variable of weight w.
flat = specialize_forget_color(q)
print("colors forgotten:", flat)
