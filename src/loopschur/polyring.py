"""Exact sparse polynomial arithmetic over colored, fractional-weight variables.

A variable is a pair ``(color, weight)`` where the color lives in ``Z_n`` and
the weight is a rational number with fixed denominator ``n``, stored as the
integer numerator ``weight_num`` (so the weight is ``weight_num / n``).
Unshifted constructions only ever produce weights that are positive integers
(``weight_num`` a positive multiple of ``n``); shifted constructions on
staircase diagrams can push ``weight_num`` to zero or below, so no sign
constraint is imposed here.

A monomial is a finite multiset of variables held in canonical order, and a
polynomial is a finite map from monomials to nonzero arbitrary-precision
integer coefficients together with the ring modulus ``n``.  Values are
immutable after construction and every operation is a pure function, so
everything in this module is safe to share across threads.

Interchange document format, produced by :func:`serialize` and accepted by
:func:`parse`::

    {"n": 3,
     "terms": [{"coeff": "2",
                "vars": [{"color": 0, "weight_num": 9, "exp": 1},
                         {"color": 2, "weight_num": 9, "exp": 1}]}]}

Variables within a term are sorted by ``(color, weight_num)``; terms are
sorted lexicographically by their variable vectors; coefficients are decimal
strings.  The JSON text form uses sorted keys and compact separators, making
serialization canonical: equal polynomials produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Iterable, Iterator, Mapping

from .errors import (
    DocumentError,
    FractionalWeightError,
    MonomialDivisionError,
    RingMismatchError,
)
from .frozen import Frozen


def fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den >= 1``: the reduced fraction, or an integer."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class _Memo(dict):
    """A dict that makes a missing value once, by ``make(*args, key)``, and keeps it as long as it lives."""

    __slots__ = ("make",)

    def __init__(self, make, *args):
        self.make = partial(make, *args)

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _variable_text(n: int, var: tuple[int, int, int]) -> str:
    """The text of a ``(color, weight_num, exp)`` factor, its weight a reduced fraction over ``n``."""
    base = f"x({var[0]},{fraction_text(var[1], n)})"
    return base if var[2] == 1 else f"{base}^{var[2]}"


class Monomial(Frozen):
    """A product of variables with positive exponents in canonical order.

    ``vars`` is a tuple of ``(color, weight_num, exponent)`` triples sorted by
    ``(color, weight_num)``.  The empty tuple is the unit monomial.  A frozen
    value, equal and hashed by ``vars``."""

    __slots__ = ("vars",)

    def __init__(self, vars: tuple[tuple[int, int, int], ...] = ()):
        object.__setattr__(self, "vars", vars)

    def __eq__(self, other):
        return self.vars == other.vars if type(other) is Monomial else NotImplemented

    def __hash__(self):
        return hash((self.vars,))

    @staticmethod
    def one() -> "Monomial":
        return Monomial(())

    @staticmethod
    def from_exponents(factors: Mapping[tuple[int, int], int]) -> "Monomial":
        """Build from a ``(color, weight_num) -> exponent`` mapping.

        Zero exponents are dropped; negative exponents are rejected.
        """
        out = []
        for (color, weight_num), exp in sorted(factors.items()):
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for variable {(color, weight_num)}")
            if exp:
                out.append((color, weight_num, exp))
        return Monomial(tuple(out))

    @staticmethod
    def from_variables(variables: Iterable[tuple[int, int]]) -> "Monomial":
        """Build from an iterable of ``(color, weight_num)`` factors with multiplicity."""
        factors: dict[tuple[int, int], int] = {}
        for var in variables:
            factors[var] = factors.get(var, 0) + 1
        return Monomial.from_exponents(factors)

    @property
    def is_one(self) -> bool:
        return not self.vars

    def degree(self, n: int) -> Fraction:
        """Total degree: the sum of ``exponent * weight_num / n`` over factors."""
        from fractions import Fraction  # here, so that the command line never loads it
        return Fraction(sum(wn * exp for _, wn, exp in self.vars), n)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged: dict[tuple[int, int], int] = {(c, w): e for c, w, e in self.vars}
        for c, w, e in other.vars:
            merged[(c, w)] = merged.get((c, w), 0) + e
        return Monomial.from_exponents(merged)

    def divides(self, other: "Monomial") -> bool:
        """True when ``other / self`` has no negative exponents."""
        exps = {(c, w): e for c, w, e in other.vars}
        return all(exps.get((c, w), 0) >= e for c, w, e in self.vars)

    def divide(self, divisor: "Monomial") -> "Monomial":
        """Exact quotient ``self / divisor``.

        Raises :class:`MonomialDivisionError` when a factor of the divisor is
        not fully present.
        """
        merged: dict[tuple[int, int], int] = {(c, w): e for c, w, e in self.vars}
        for c, w, e in divisor.vars:
            left = merged.get((c, w), 0) - e
            if left < 0:
                raise MonomialDivisionError(
                    f"monomial with factors {self.vars} is not divisible by "
                    f"(color={c}, weight_num={w})^{e}"
                )
            if left:
                merged[(c, w)] = left
            else:
                merged.pop((c, w), None)
        return Monomial.from_exponents(merged)

    def format(self, n: int) -> str:
        """Human-readable form, weights shown as reduced fractions over ``n``."""
        return "*".join(map(partial(_variable_text, n), self.vars)) or "1"


class Polynomial(Frozen):
    """Immutable sparse polynomial with integer coefficients and modulus ``n``."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | None = None):
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        object.__setattr__(self, "n", n)
        clean = {m: c for m, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "_terms", clean)

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial(n, {Monomial.one(): 1})

    @staticmethod
    def constant(n: int, value: int) -> "Polynomial":
        return Polynomial(n, {Monomial.one(): value})

    @staticmethod
    def from_term(n: int, monomial: Monomial, coeff: int = 1) -> "Polynomial":
        return Polynomial(n, {monomial: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, monomial: Monomial) -> int:
        return self._terms.get(monomial, 0)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """``(monomial, coefficient)`` pairs, sorted by the monomials' variable vectors."""
        return iter(sorted(self._terms.items(), key=lambda term: term[0].vars))

    def coefficients(self) -> Iterator[int]:
        return iter(self._terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def _check_ring(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise RingMismatchError(f"cannot combine rings with moduli {self.n} and {other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out: dict[Monomial, int] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = ma * mb
                out[m] = out.get(m, 0) + ca * cb
        return Polynomial(self.n, out)

    def min_degree(self) -> Fraction | float:
        """Minimum term degree; ``math.inf`` for the zero polynomial."""
        if not self._terms:
            return math.inf
        return min(m.degree(self.n) for m in self._terms)

    def __str__(self) -> str:
        pieces, texts = [], _Memo(_variable_text, self.n)  # each variable's text once
        for m, c in self.terms():
            text = str(abs(c)) if m.is_one else "*".join(map(texts.__getitem__, m.vars))
            if abs(c) != 1 and not m.is_one:
                text = f"{abs(c)}*{text}"
            sign = ("+ " if c > 0 else "- ") if pieces else ("" if c > 0 else "-")
            pieces.append(sign + text)
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {self})"


def poly_div_monomial(a: Polynomial, m: Monomial) -> Polynomial:
    """Exact quotient of every term of ``a`` by the monomial ``m``.

    Raises :class:`MonomialDivisionError` naming the first offending term when
    some term is not divisible.
    """
    out: dict[Monomial, int] = {}
    for term, coeff in a.terms():
        if not m.divides(term):
            raise MonomialDivisionError(
                f"term {term.format(a.n)} is not divisible by {m.format(a.n)}"
            )
        out[term.divide(m)] = coeff
    return Polynomial(a.n, out)


def specialize_forget_color(a: Polynomial) -> Polynomial:
    """Substitute every variable ``x(color, w)`` by the single-color ``x(0, w)``.

    The result lives in the modulus-1 ring.  Every ``weight_num`` must be
    divisible by the source modulus, otherwise the weight would become
    fractional and :class:`FractionalWeightError` is raised.
    """
    out: dict[Monomial, int] = {}
    for term, coeff in a._terms.items():
        factors: dict[tuple[int, int], int] = {}
        for color, wn, exp in term.vars:
            if wn % a.n != 0:
                raise FractionalWeightError(
                    f"variable (color={color}, weight_num={wn}) has fractional "
                    f"weight {fraction_text(wn, a.n)}"
                )
            key = (0, wn // a.n)
            factors[key] = factors.get(key, 0) + exp
        m = Monomial.from_exponents(factors)
        out[m] = out.get(m, 0) + coeff
    return Polynomial(1, out)


def to_document(a: Polynomial) -> dict:
    """Structured form of ``a`` in the interchange format: its :func:`serialize` text, read back."""
    return json.loads(serialize(a))


# Templates of the canonical text, keys sorted; _VARIABLE takes a (color, weight_num, exp) triple.
_VARIABLE = '{{"color":{0[0]},"exp":{0[2]},"weight_num":{0[1]}}}'.format
_TERM = '{"coeff":"%d","vars":[%s]}'.__mod__


def serialize(a: Polynomial) -> str:
    """Canonical JSON text of ``a``: sorted keys, compact separators, written by templates
    term by term, with no ``json.dumps``; each distinct variable's text is made once per
    call, in a :class:`_Memo`.  Equal polynomials serialize identically."""
    texts = _Memo(_VARIABLE)
    terms = (_TERM((c, ",".join(map(texts.__getitem__, m.vars)))) for m, c in a.terms())
    return '{"n":%d,"terms":[%s]}' % (a.n, ",".join(terms))


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise DocumentError(message, path)


def from_document(doc: object) -> Polynomial:
    """Parse a structured polynomial document, validating canonical form."""
    _expect(isinstance(doc, dict), "document must be an object", "$")
    assert isinstance(doc, dict)
    _expect(set(doc) == {"n", "terms"}, "expected exactly the keys 'n' and 'terms'", "$")
    n = doc["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
            "'n' must be a positive integer", "$.n")
    terms = doc["terms"]
    _expect(isinstance(terms, list), "'terms' must be a list", "$.terms")
    parsed: dict[Monomial, int] = {}
    previous_key = None
    for t_idx, term in enumerate(terms):
        path = f"$.terms[{t_idx}]"
        _expect(isinstance(term, dict), "term must be an object", path)
        _expect(set(term) == {"coeff", "vars"},
                "expected exactly the keys 'coeff' and 'vars'", path)
        coeff_text = term["coeff"]
        _expect(isinstance(coeff_text, str), "'coeff' must be a decimal string",
                path + ".coeff")
        try:
            coeff = int(coeff_text)
        except ValueError:
            raise DocumentError(f"bad decimal string {coeff_text!r}", path + ".coeff")
        _expect(coeff != 0, "zero coefficients may not be stored", path + ".coeff")
        var_list = term["vars"]
        _expect(isinstance(var_list, list), "'vars' must be a list", path + ".vars")
        triples = []
        prev_var = None
        for v_idx, var in enumerate(var_list):
            vpath = f"{path}.vars[{v_idx}]"
            _expect(isinstance(var, dict), "variable must be an object", vpath)
            _expect(set(var) == {"color", "weight_num", "exp"},
                    "expected exactly the keys 'color', 'weight_num' and 'exp'", vpath)
            color, wn, exp = var["color"], var["weight_num"], var["exp"]
            for field, value in (("color", color), ("weight_num", wn), ("exp", exp)):
                _expect(isinstance(value, int) and not isinstance(value, bool),
                        f"'{field}' must be an integer", f"{vpath}.{field}")
            _expect(0 <= color < n, f"color {color} outside [0, {n})", vpath + ".color")
            _expect(exp >= 1, f"exponent {exp} must be positive", vpath + ".exp")
            if prev_var is not None:
                _expect(prev_var < (color, wn),
                        "variables must be strictly sorted by (color, weight_num)", vpath)
            prev_var = (color, wn)
            triples.append((color, wn, exp))
        monomial = Monomial(tuple(triples))
        if previous_key is not None:
            _expect(previous_key < monomial.vars,
                    "terms must be strictly sorted by variable vector", path)
        previous_key = monomial.vars
        parsed[monomial] = coeff
    return Polynomial(n, parsed)


def parse(text: str) -> Polynomial:
    """Parse canonical JSON text back into a polynomial.

    JSON syntax errors are reported with line and column; structural errors
    carry a path into the document.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    return from_document(doc)
