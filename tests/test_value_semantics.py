"""Value semantics of the package's small records: equality and hashing by
value, frozen fields, ordering, validation messages, ``repr``, and defaults
that are not shared between instances."""

import copy
import pickle

import pytest

from loopschur import (
    BorderStripAddition, Monomial, Partition, Polynomial, ShiftParams, VerificationReport,
)

DUPLICATES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda value: pickle.loads(pickle.dumps(value))}

VALUES = [
    (lambda: Partition.of(2, 1), "parts", (2, 1)),
    (lambda: Monomial(((0, 2, 1), (1, 3, 2))), "vars", ((0, 2, 1), (1, 3, 2))),
]


@pytest.mark.parametrize("make, field, value", VALUES, ids=["Partition", "Monomial"])
def test_hash_is_that_of_the_field_tuple(make, field, value):
    # The hash of the one-field tuple, so sets and dicts of these values keep their order.
    assert hash(make()) == hash((value,))
    assert getattr(make(), field) == value


@pytest.mark.parametrize("make", [
    lambda: Partition.of(3, 1),
    lambda: Monomial.from_exponents({(0, 2): 1, (1, 3): 2}),
    lambda: ShiftParams(3, 1),
    lambda: BorderStripAddition(Partition.of(2, 1), 1),
], ids=["Partition", "Monomial", "ShiftParams", "BorderStripAddition"])
class TestEqualValues:
    def test_compare_and_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_work_as_dict_keys(self, make):
        table = {make(): "first"}
        table[make()] = "second"
        assert table == {make(): "second"}
        assert make() in {make()}

    @pytest.mark.parametrize("duplicate", DUPLICATES.values(), ids=DUPLICATES.keys())
    def test_copies_are_equal_values(self, make, duplicate):
        value = make()
        again = duplicate(value)
        assert again == value and hash(again) == hash(value) and repr(again) == repr(value)

    def test_assignment_and_deletion_raise_attribute_error(self, make):
        value = make()
        record = type(value)
        for name in getattr(record, "_fields", None) or record.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == make()


class TestUnequalValues:
    def test_differ_by_field(self):
        assert Partition.of(2, 1) != Partition.of(2)
        assert Monomial(((0, 2, 1),)) != Monomial(((0, 2, 2),))
        assert ShiftParams(3, 1) != ShiftParams(3, 2)
        assert ShiftParams(3, 1) != ShiftParams(4, 1)
        assert BorderStripAddition(Partition.of(2), 1) != BorderStripAddition(Partition.of(2), 0)

    def test_differ_from_their_fields(self):
        assert Partition.of(2, 1) != (2, 1)
        assert Partition.of(2, 1) != ((2, 1),)
        assert Monomial(((0, 2, 1),)) != ((0, 2, 1),)
        assert ShiftParams(3, 1) != (3, 1)


class TestPartitionOrder:
    def test_sorted_orders_by_parts(self):
        shapes = [Partition.of(2, 1), Partition.of(3), Partition(), Partition.of(1, 1, 1),
                  Partition.of(2), Partition.of(2, 2)]
        assert [p.parts for p in sorted(shapes)] == sorted(p.parts for p in shapes)
        assert sorted(shapes, reverse=True)[0] == Partition.of(3)

    def test_comparisons(self):
        small, large = Partition.of(2, 1), Partition.of(2, 2)
        assert small < large and small <= large and large > small and large >= small
        assert small <= Partition.of(2, 1) and small >= Partition.of(2, 1)
        assert not small < Partition.of(2, 1)
        assert max(Partition.of(1), Partition.of(1, 1)) == Partition.of(1, 1)


class TestValidationMessages:
    @pytest.mark.parametrize("parts, message", [
        ((0,), "parts must be positive, got 0"),
        ((2, -1), "parts must be positive, got -1"),
        ((1, 2), "parts must weakly decrease, got (1, 2)"),
        ((3, 1, 2), "parts must weakly decrease, got (3, 1, 2)"),
    ])
    def test_partition(self, parts, message):
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == message

    def test_partition_text(self):
        with pytest.raises(ValueError) as info:
            Partition.from_text("a,b")
        assert str(info.value) == "bad partition text 'a,b'"

    def test_monomial_exponent(self):
        with pytest.raises(ValueError) as info:
            Monomial.from_exponents({(0, 2): -1})
        assert str(info.value) == "negative exponent -1 for variable (0, 2)"

    @pytest.mark.parametrize("n, l, message", [
        (0, 0, "modulus must be positive, got 0"),
        (-2, 0, "modulus must be positive, got -2"),
        (2, 2, "shift must satisfy 0 <= l < 2, got 2"),
        (3, -1, "shift must satisfy 0 <= l < 3, got -1"),
    ])
    def test_shift_params(self, n, l, message):
        with pytest.raises(ValueError) as info:
            ShiftParams(n, l)
        assert str(info.value) == message


class TestConstruction:
    def test_defaults_and_keywords(self):
        assert Partition() == Partition(()) == Partition(parts=())
        assert Monomial() == Monomial.one() == Monomial(vars=())
        assert ShiftParams(3) == ShiftParams(n=3, l=0)
        assert BorderStripAddition(sigma=Partition.of(1), height=0).height == 0

    def test_repr(self):
        assert repr(Partition.of(2, 1)) == "Partition(parts=(2, 1))"
        assert repr(Partition()) == "Partition(parts=())"
        assert repr(Monomial(((0, 2, 1),))) == "Monomial(vars=((0, 2, 1),))"
        assert repr(ShiftParams(3, 1)) == "ShiftParams(n=3, l=1)"
        assert (repr(BorderStripAddition(Partition.of(2, 1), 1))
                == "BorderStripAddition(sigma=Partition(parts=(2, 1)), height=1)")


class TestVerificationReportDefaults:
    def test_details_are_not_shared(self):
        a = VerificationReport(check="c", params={}, passed=True)
        b = VerificationReport("c", {}, True)
        assert a.details == b.details == {}
        assert a.details is not b.details
        a.details["x"] = 1
        assert b.details == {}

    def test_other_defaults(self):
        report = VerificationReport("c", {"n": 1}, False)
        assert report.witness is None and report.wall_time_s == 0.0
        assert report.text() == "FAIL c n=1"
        assert report.to_json() == '{"check":"c","details":{},"params":{"n":1},"pass":false,"witness":null}'

    def test_equality_and_repr(self):
        report = VerificationReport("c", {"n": 1}, True, details={"terms": 2})
        assert report == VerificationReport("c", {"n": 1}, True, None, {"terms": 2}, 0.0)
        assert report != VerificationReport("c", {"n": 1}, True, details={"terms": 3})
        assert repr(report) == ("VerificationReport(check='c', params={'n': 1}, passed=True, "
                                "witness=None, details={'terms': 2}, wall_time_s=0.0)")


def test_polynomials_copy_and_refuse_assignment():
    p = Polynomial(3, {Monomial(((0, 2, 1),)): 2, Monomial(()): -1})
    for duplicate in DUPLICATES.values():
        again = duplicate(p)
        assert again == p and hash(again) == hash(p) and str(again) == str(p)
    with pytest.raises(AttributeError):
        p.n = 4
    assert p.n == 3
