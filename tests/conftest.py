import json
import random

import pytest

from loopschur import Monomial, Partition, Polynomial
from loopschur.tableaux import rows_monomial


def brute_partitions(total: int, largest: int | None = None):
    """All partitions of ``total``, independent of the package's own code."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in brute_partitions(total - first, first):
            yield (first,) + rest


def random_polynomial(rng: random.Random, n: int, max_terms: int = 4) -> Polynomial:
    """Small random polynomial in the modulus-n ring."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        factors = {}
        for _ in range(rng.randrange(1, 4)):
            color = rng.randrange(n)
            weight_num = rng.randrange(-2 * n, 4 * n + 1)
            factors[(color, weight_num)] = rng.randrange(1, 4)
        coeff = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
        m = Monomial.from_exponents(factors)
        terms[m] = terms.get(m, 0) + coeff
    return Polynomial(n, terms)


def reference_document(poly: Polynomial) -> dict:
    """The interchange document of ``poly``, built term by term, not read
    back from :func:`loopschur.serialize`."""
    return {"n": poly.n, "terms": [
        {"coeff": str(c), "vars": [{"color": color, "weight_num": wn, "exp": exp}
                                   for color, wn, exp in m.vars]}
        for m, c in sorted(poly.terms(), key=lambda term: term[0].vars)]}


def canonical(doc) -> str:
    """``json.dumps`` of ``doc`` with sorted keys and compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def assert_code_matches_rows_monomial(code, fillings, cells, n):
    """Each decoded key is the reference monomial, each key's degree field
    is n times that monomial's degree, and distinct keys are exactly distinct
    monomials."""
    keys, monomials = set(), set()
    for rows in fillings:
        key, expected = code.key(rows), rows_monomial(rows, cells, n)
        assert code.decode(key) == expected
        assert key >> code.top == n * expected.degree(n)
        keys.add(key)
        monomials.add(expected)
    assert len(keys) == len(monomials)


@pytest.fixture
def rng():
    return random.Random(20240917)
