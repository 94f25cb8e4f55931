import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopschur import (
    DocumentError,
    FractionalWeightError,
    Monomial,
    MonomialDivisionError,
    Partition,
    Polynomial,
    RingMismatchError,
    parse,
    poly_div_monomial,
    serialize,
    specialize_forget_color,
    to_document,
)
from loopschur.polyring import fraction_text

from loopschur.tableaux import WeightCode, staircase_cells

from conftest import canonical, random_polynomial, reference_document


def x(n, color, weight_num, exp=1, coeff=1):
    return Polynomial.from_term(n, Monomial.from_exponents({(color, weight_num): exp}), coeff)


class TestAddition:
    def test_additive_identity(self, rng):
        p = random_polynomial(rng, 3)
        assert p + Polynomial.zero(3) == p

    def test_additive_inverse_is_empty(self, rng):
        p = random_polynomial(rng, 2)
        assert p + -p == Polynomial.zero(2)
        assert (p + -p).is_zero

    def test_coefficient_merge(self):
        a = x(1, 0, 1)
        assert a + a == x(1, 0, 1, coeff=2)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            Polynomial.one(2) + Polynomial.one(3)


class TestMultiplication:
    def test_multiplicative_identity(self, rng):
        p = random_polynomial(rng, 3)
        assert p * Polynomial.one(3) == p

    def test_exponent_addition(self):
        a = x(1, 0, 1)
        assert a * a == x(1, 0, 1, exp=2)

    def test_difference_of_squares(self):
        n = 1
        a = x(n, 0, 1) + x(n, 0, 2)
        b = x(n, 0, 1) - x(n, 0, 2)
        assert a * b == x(n, 0, 1, exp=2) - x(n, 0, 2, exp=2)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            Polynomial.one(2) * Polynomial.one(1)


class TestRingAxioms:
    def test_axioms_on_thousand_random_triples(self):
        rng = random.Random(11)
        for trial in range(1000):
            n = rng.choice([1, 2, 3])
            p = random_polynomial(rng, n)
            q = random_polynomial(rng, n)
            r = random_polynomial(rng, n)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r


class TestDivision:
    def test_exponent_subtraction(self):
        n = 2
        p = x(n, 0, 2, exp=2) * x(n, 1, 2)
        m = Monomial.from_exponents({(0, 2): 1})
        assert poly_div_monomial(p, m) == x(n, 0, 2) * x(n, 1, 2)

    def test_unit_divisor(self, rng):
        p = random_polynomial(rng, 2)
        assert poly_div_monomial(p, Monomial.one()) == p

    def test_divisibility_failure_names_term(self):
        n = 2
        p = x(n, 0, 2) + x(n, 1, 2)
        with pytest.raises(MonomialDivisionError) as err:
            poly_div_monomial(p, Monomial.from_exponents({(0, 2): 1}))
        assert "x(1,1)" in str(err.value)

    def test_mul_then_div_roundtrip(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.choice([1, 2, 3])
            p = random_polynomial(rng, n)
            m = Monomial.from_exponents(
                {(rng.randrange(n), rng.randrange(1, 3) * n): rng.randrange(1, 3)}
            )
            assert poly_div_monomial(p * Polynomial.from_term(n, m), m) == p


class TestMinDegree:
    def test_zero_polynomial(self):
        assert Polynomial.zero(4).min_degree() == math.inf

    def test_direct_sum_of_weights(self):
        n = 2
        p = x(n, 0, 2) * x(n, 1, 4)
        assert p.min_degree() == Fraction(3)

    def test_minimum_across_terms(self):
        n = 1
        p = x(n, 0, 1) + x(n, 0, 3, exp=2)
        assert p.min_degree() == Fraction(1)

    def test_additive_over_products_with_positive_coefficients(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.choice([1, 2, 3])
            p = random_polynomial(rng, n)
            q = random_polynomial(rng, n)
            p = Polynomial(n, {m: abs(c) for m, c in p.terms()})
            q = Polynomial(n, {m: abs(c) for m, c in q.terms()})
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).min_degree() == p.min_degree() + q.min_degree()


class TestSpecializeForgetColor:
    def test_direct_substitution(self):
        n = 2
        p = x(n, 0, 2) * x(n, 1, 2)
        assert specialize_forget_color(p) == x(1, 0, 1, exp=2)

    def test_fractional_weight_rejected(self):
        p = x(3, 1, 5)
        with pytest.raises(FractionalWeightError):
            specialize_forget_color(p)

    def test_ring_homomorphism_on_samples(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.choice([1, 2, 3])
            # multiples of n only, so the substitution is defined
            def sample():
                terms = {}
                for _ in range(rng.randrange(4)):
                    factors = {
                        (rng.randrange(n), rng.randrange(1, 5) * n): rng.randrange(1, 3)
                        for _ in range(rng.randrange(1, 3))
                    }
                    m = Monomial.from_exponents(factors)
                    terms[m] = terms.get(m, 0) + rng.choice([-2, -1, 1, 3])
                return Polynomial(n, terms)

            p, q = sample(), sample()
            assert specialize_forget_color(p + q) == specialize_forget_color(p) + specialize_forget_color(q)
            assert specialize_forget_color(p * q) == specialize_forget_color(p) * specialize_forget_color(q)


class TestSerialization:
    def test_zero_polynomial_document(self):
        assert to_document(Polynomial.zero(2)) == {"n": 2, "terms": []}
        assert parse(serialize(Polynomial.zero(2))) == Polynomial.zero(2)

    def test_documented_example(self):
        n = 3
        p = Polynomial.from_term(
            3, Monomial.from_exponents({(0, 9): 1, (2, 9): 1}), coeff=2
        )
        assert to_document(p) == {
            "n": 3,
            "terms": [
                {"coeff": "2", "vars": [
                    {"color": 0, "weight_num": 9, "exp": 1},
                    {"color": 2, "weight_num": 9, "exp": 1},
                ]}
            ],
        }

    def test_roundtrip_on_random_polynomials(self):
        rng = random.Random(3)
        for _ in range(300):
            p = random_polynomial(rng, rng.choice([1, 2, 3]))
            text = serialize(p)
            assert parse(text) == p
            assert serialize(parse(text)) == text

    def test_parse_reports_json_position(self):
        with pytest.raises(DocumentError) as err:
            parse('{"n": 1, "terms": [}')
        assert "line 1" in str(err.value)

    def test_parse_reports_path(self):
        with pytest.raises(DocumentError) as err:
            parse('{"n": 1, "terms": [{"coeff": "0", "vars": []}]}')
        assert "$.terms[0].coeff" in str(err.value)

    def test_parse_rejects_unsorted_variables(self):
        doc = {"n": 2, "terms": [{"coeff": "1", "vars": [
            {"color": 1, "weight_num": 2, "exp": 1},
            {"color": 0, "weight_num": 2, "exp": 1},
        ]}]}
        with pytest.raises(DocumentError):
            parse(json.dumps(doc))

    def test_parse_rejects_color_outside_ring(self):
        doc = {"n": 2, "terms": [{"coeff": "1", "vars": [
            {"color": 2, "weight_num": 2, "exp": 1},
        ]}]}
        with pytest.raises(DocumentError) as err:
            parse(json.dumps(doc))
        assert ".color" in str(err.value)


def shifted_staircase_polynomial() -> Polynomial:
    """Decoded keys of shifted staircase fillings, whose weights reach zero and below."""
    n, N = 3, 4
    code = WeightCode(staircase_cells(Partition(), N, 1, n, 2), n, N)
    fillings = [((1, 1, 1, 1, 1), (2, 2, 2), (3, 3), (4,)),
                ((1, 2, 3, 4), (1, 1, 4), (2, 4), (3, 3)),
                ((1,), (2,), (3,), (4, 4, 4, 4, 4))]
    return code.polynomial({code.key(rows): c for rows, c in zip(fillings, (1, -2, 5))})


class TestTemplateText:
    """serialize writes by templates the bytes of json.dumps of the document."""

    @pytest.mark.parametrize("poly", [
        Polynomial.zero(1),
        Polynomial.zero(3),
        Polynomial.one(2),
        Polynomial.constant(3, -7),
        x(2, 1, 4, exp=3, coeff=-1) + x(2, 0, 2, coeff=-12),
        x(3, 2, 5, coeff=2**64 + 1) + x(3, 0, 1, exp=2, coeff=-(2**70)) + Polynomial.one(3),
        x(3, 1, 0) + x(3, 2, -4, exp=2, coeff=-3),
        shifted_staircase_polynomial(),
    ], ids=["zero1", "zero3", "unit", "constant", "negative", "big", "nonpositive", "staircase"])
    def test_equals_json_dumps(self, poly):
        assert serialize(poly) == canonical(reference_document(poly))
        assert to_document(poly) == json.loads(serialize(poly))

    def test_cases_cover_unit_and_nonpositive_weights(self):
        assert serialize(Polynomial.one(2)) == '{"n":2,"terms":[{"coeff":"1","vars":[]}]}'
        weights = {wn for m, _ in shifted_staircase_polynomial().terms() for _, wn, _ in m.vars}
        assert 0 in weights and min(weights) < 0

    def test_equals_json_dumps_on_random_polynomials(self):
        rng = random.Random(11)
        for _ in range(500):
            p = random_polynomial(rng, rng.choice([1, 2, 3, 5]), max_terms=8)
            assert serialize(p) == canonical(reference_document(p))
            assert to_document(p) == json.loads(serialize(p))

    def test_terms_are_in_variable_vector_order(self):
        rng = random.Random(12)
        for _ in range(100):
            p = random_polynomial(rng, 3, max_terms=8)
            vectors = [m.vars for m, _ in p.terms()]
            assert vectors == sorted(vectors) and len(vectors) == len(p)

    def test_text_equals_the_fraction_form(self):
        # Each weight as str(Fraction(weight_num, n)), the text format's reference.
        for n in range(1, 7):
            for wn in range(-3 * n, 4 * n + 1):
                for exp in (1, 2):
                    m = Monomial.from_exponents({(n - 1, wn): exp, (0, wn + 1): 1})
                    expected = "*".join(
                        f"x({color},{Fraction(w, n)})" + ("" if e == 1 else f"^{e}")
                        for color, w, e in m.vars)
                    assert m.format(n) == expected
        assert Monomial.one().format(3) == "1"
        assert str(x(3, 1, 0) + x(3, 2, -4, exp=2, coeff=-3)) == "x(1,0) - 3*x(2,-4/3)^2"


@pytest.mark.parametrize("den", range(1, 9))
def test_fraction_text_is_the_fraction_form(den):
    # The one writer of weights, degrees and bounds: str(Fraction) without building one.
    for num in range(-40, 41):
        assert fraction_text(num, den) == str(Fraction(num, den))


def test_fractional_weight_message():
    with pytest.raises(FractionalWeightError) as info:
        specialize_forget_color(x(6, 1, 4))
    assert str(info.value) == "variable (color=1, weight_num=4) has fractional weight 2/3"


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_serialize_is_canonical_under_term_reordering(n, data):
    # Build the same polynomial from shuffled term insertions; the JSON must agree.
    entries = data.draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=-6, max_value=12),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=-4, max_value=4).filter(bool),
        ),
        max_size=5,
    ))
    terms = {}
    for color, wn, exp, coeff in entries:
        m = Monomial.from_exponents({(color, wn): exp})
        terms[m] = terms.get(m, 0) + coeff
    forward = Polynomial(n, terms)
    backward = Polynomial(n, dict(reversed(list(terms.items()))))
    assert serialize(forward) == serialize(backward)
    assert parse(serialize(forward)) == forward
