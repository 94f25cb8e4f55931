import inspect
import json
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, islice

import pytest

import loopschur.verify as verify_mod
from loopschur import (
    ConfigError,
    MembershipError,
    Monomial,
    Partition,
    Polynomial,
    PreconditionError,
    ShiftParams,
    check_involution,
    check_specialization,
    classical_schur,
    default_grid_config,
    in_low_family,
    loop_power_sum,
    loop_schur,
    parse_grid_config,
    permutation_sign,
    run_grid,
    shifted_loop_schur,
    specialize_forget_color,
    to_document,
    verify_degree_bound,
    verify_expansion,
    verify_murnaghan_nakayama,
)
from loopschur.shapes import BorderStripAddition, enumerate_border_strips
from loopschur.tableaux import ssyt_code, ssyt_keys

from conftest import brute_partitions, canonical, reference_document


def classical_power_sum(m: int, N: int) -> Polynomial:
    return Polynomial(1, {Monomial.from_exponents({(0, j): m}): 1 for j in range(1, N + 1)})


class TestClassicalOracle:
    def test_single_box(self):
        assert classical_schur(Partition.of(1), 2) == Polynomial(1, {
            Monomial.from_exponents({(0, 1): 1}): 1,
            Monomial.from_exponents({(0, 2): 1}): 1,
        })

    def test_all_ones_evaluation(self):
        poly = classical_schur(Partition.of(2, 1), 5)
        assert sum(poly.coefficients()) == 40

    def test_empty_partition(self):
        assert classical_schur(Partition(), 3) == Polynomial.one(1)

    def test_too_many_rows_vanishes(self):
        assert classical_schur(Partition.of(1, 1, 1), 2).is_zero

    def test_pieri_like_consistency(self):
        # h_m equals the one-row Schur polynomial
        h_3 = Polynomial(1, {Monomial.from_variables((0, j) for j in indices): 1
                             for indices in combinations_with_replacement(range(1, 4), 3)})
        assert classical_schur(Partition.of(3), 3) == h_3

    def test_oracle_builds_no_weight_code_and_reads_no_cell_table(self, monkeypatch):
        from loopschur import tableaux

        def refuse(*args, **kwargs):
            raise AssertionError("reached a tableau builder's weight code or cell table")

        for module in (tableaux, verify_mod):  # wherever the oracle could look them up
            for name in ("WeightCode", "young_cells", "cell_weights"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        # 64 tableaux of shape (3, 2, 1) with entries at most 4 (hook-content formula)
        assert sum(classical_schur(Partition.of(3, 2, 1), 4).coefficients()) == 64
        with pytest.raises(AssertionError, match="reached"):
            check_specialization(Partition.of(3, 2, 1), 2, 4)  # the colored side does

    def test_module_caches_are_bounded(self):
        from loopschur import cli, involutions, tableaux

        def caches(module):
            return {name for name, value in vars(module).items()
                    if callable(getattr(value, "cache_info", None))}

        assert caches(tableaux) == caches(verify_mod) == set()
        assert caches(involutions) == {"_row_lengths", "_label_table", "_pair_violation"}
        assert caches(cli) == {"build_parser"}
        for cached in (involutions._label_table, involutions._row_lengths,
                       involutions._pair_violation, cli.build_parser):
            assert cached.cache_info().maxsize is not None


class TestMurnaghanNakayama:
    def test_single_variable_instance(self):
        report = verify_murnaghan_nakayama(Partition(), 1, 1, 1)
        assert report.passed
        assert report.witness is None

    def test_classical_brute_force_cross_check(self):
        # both sides built only from the determinant oracle and power sums
        lam, k, N = Partition.of(1), 2, 3
        report = verify_murnaghan_nakayama(lam, 1, k, N)
        assert report.passed
        lhs = classical_power_sum(k, N) * classical_schur(lam, N)
        rhs = Polynomial.zero(1)
        for strip in enumerate_border_strips(lam, k):
            piece = classical_schur(strip.sigma, N)
            rhs = rhs + piece if strip.height % 2 == 0 else rhs - piece
        assert lhs == rhs
        assert rhs == classical_schur(Partition.of(3), N) - classical_schur(Partition.of(1, 1, 1), N)

    def test_three_color_instance(self):
        assert verify_murnaghan_nakayama(Partition.of(2, 1), 3, 1, 5).passed

    def test_precondition_refusal_names_required_truncation(self):
        with pytest.raises(PreconditionError) as err:
            verify_murnaghan_nakayama(Partition.of(2, 1), 3, 1, 4)
        assert err.value.required_truncation == 5


def strip_sum_polynomial(lam, n, k, N, l=0, strips=None):
    """The signed strip sum of (shifted) loop Schur functions, added up as Polynomials."""
    total = Polynomial.zero(n)
    for strip in enumerate_border_strips(lam, k * n) if strips is None else strips:
        part = (loop_schur(strip.sigma, n, N) if l == 0
                else shifted_loop_schur(strip.sigma, ShiftParams(n, l), N))
        total = total + part if strip.height % 2 == 0 else total - part
    return total


def flip_first_strip(monkeypatch):
    """Give the first strip the wrong sign where verify looks the strips up; returns them."""
    def flipped(lam, m):
        strips = enumerate_border_strips(lam, m)
        return [BorderStripAddition(strips[0].sigma, strips[0].height + 1)] + strips[1:]

    monkeypatch.setattr(verify_mod, "enumerate_border_strips", flipped)
    return flipped


def record_strip_sums(monkeypatch):
    """Record each signed strip sum that verify builds; returns the list."""
    sums, strip_sum = [], verify_mod._signed_border_strip_sum

    def recorded(*args):
        sums.append(strip_sum(*args))
        return sums[-1]

    monkeypatch.setattr(verify_mod, "_signed_border_strip_sum", recorded)
    return sums


def degree_bound_reference(lam, n, k, N, l, keys, strip_count, code) -> dict:
    """The thm2-verify report document of a strip sum's key counts, with every
    key decoded and the minimum degree taken by Polynomial.min_degree."""
    total = code.polynomial(keys)
    achieved = total.min_degree()
    stated = Fraction(N * (n - l), n) - k * n
    passed = achieved >= stated
    witness = None if passed else {"min_degree_terms": [
        {"coeff": str(c), "vars": [list(v) for v in m.vars]}
        for m, c in total.terms() if m.degree(n) == achieved]}
    return {
        "check": "thm2-verify",
        "params": {"lambda": str(lam), "n": n, "k": k, "N": N, "l": l},
        "pass": passed,
        "witness": witness,
        "details": {
            "achieved_min_degree": str(achieved),
            "stated_bound": str(stated),
            "proof_bound": str(Fraction(N * (n - l), n) - k * l),
            "strips": strip_count,
            "terms": len(total),
        },
    }


class TestKeyedIdentities:
    """The key maps that mn-verify and thm2-verify compare, decoded, against
    the same sums built from Polynomials."""

    # N stops at 5: at n=3, k=2 and N=kn+len(lambda)+2 the strip sums run to
    # tens of millions of tableaux.
    @pytest.mark.parametrize("parts", [p for size in range(5) for p in brute_partitions(size)],
                             ids=str)
    def test_key_maps_decode_to_the_polynomial_sums(self, parts):
        lam = Partition(parts)
        for n in (1, 2, 3):
            for k in (1, 2):
                for N in range(min(k * n + len(lam) + 2, 5) + 1):
                    for l in range(n):
                        keys, _, code = verify_mod._signed_border_strip_sum(lam, n, k, N, l)
                        assert 0 not in keys.values()
                        assert code.polynomial(keys) == strip_sum_polynomial(lam, n, k, N, l)
                        if l == 0:
                            lhs = verify_mod._power_sum_product(lam, n, k, N, code)
                            product = loop_power_sum(k, n, N) * loop_schur(lam, n, N)
                            assert code.polynomial(lhs) == product

    # |sigma| = |lambda| + kn = 8 needs a 4-bit field, and the power sum's
    # x(0, 1) times the all-ones filling of lambda reaches exponent 8; a width
    # taken from |lambda| alone (3 and 2 bits) would carry.
    @pytest.mark.parametrize("lam,k", [(Partition.of(7), 1), (Partition.of(3), 5)])
    def test_product_fills_the_widest_field(self, lam, k):
        N = k + 1
        strips, _, code = verify_mod._signed_border_strip_sum(lam, 1, k, N)
        lhs = code.polynomial(verify_mod._power_sum_product(lam, 1, k, N, code))
        assert lhs == loop_power_sum(k, 1, N) * loop_schur(lam, 1, N)
        assert lhs.coefficient(Monomial.from_exponents({(0, 1): 8})) == 1
        assert code.polynomial(strips) == strip_sum_polynomial(lam, 1, k, N)
        report = verify_murnaghan_nakayama(lam, 1, k, N)
        assert report.passed
        assert report.details["lhs_terms"] == report.details["rhs_terms"] == len(lhs)

    def test_flipped_strip_sign_fails_with_the_polynomial_difference(self, monkeypatch):
        lam, n, k, N = Partition.of(2, 1), 2, 1, 5
        flipped = flip_first_strip(monkeypatch)
        report = verify_murnaghan_nakayama(lam, n, k, N)
        assert not report.passed
        rhs = strip_sum_polynomial(lam, n, k, N, strips=flipped(lam, k * n))
        difference = loop_power_sum(k, n, N) * loop_schur(lam, n, N) - rhs
        assert report.witness == {"difference": to_document(difference)}
        assert report.details["rhs_terms"] == len(rhs)

    def test_flipped_strip_sign_breaks_the_floor_where_it_bites(self, monkeypatch):
        lam, n, k, N, l = Partition(), 2, 1, 12, 1
        flipped = flip_first_strip(monkeypatch)
        report = verify_degree_bound(lam, n, k, N, l)
        assert not report.passed
        total = strip_sum_polynomial(lam, n, k, N, l, strips=flipped(lam, k * n))
        assert report.details["achieved_min_degree"] == str(total.min_degree())
        assert report.details["terms"] == len(total)
        assert len(report.witness["min_degree_terms"]) == sum(
            m.degree(n) == total.min_degree() for m, _ in total.terms())


# The folds as they were written with Counter methods and per-key Python
# loops, kept as the references of the C-level folds in verify.


def reference_signed_border_strip_sum(lam, n, k, N, l=0):
    strips = verify_mod.enumerate_border_strips(lam, k * n)  # as flip_first_strip leaves it
    code = ssyt_code([lam] + [addition.sigma for addition in strips], n, l, N)
    total = Counter()
    for addition in strips:
        fold = total.update if addition.height % 2 == 0 else total.subtract
        fold(ssyt_keys(addition.sigma, n, l, N, code))
    return Counter({key: c for key, c in total.items() if c}), len(strips), code


def reference_power_sum_product(lam, n, k, N, code):
    keys, product = ssyt_keys(lam, n, 0, N, code), Counter()
    for power in (code.power_key(j, k) for j in range(1, N + 1)):
        product.update({key + power: c for key, c in keys.items()})
    return product


def reference_forgotten_keys(lam, n, N):
    code = ssyt_code((lam,), n, 0, N)
    mask = (1 << (N * code.width)) - 1
    blocks = [j * code.width for j, (_, weight_num) in enumerate(code.variables) if weight_num == n]
    forgotten = Counter()
    for key, c in ssyt_keys(lam, n, 0, N, code).items():
        forgotten[sum((key >> shift) & mask for shift in blocks)] += c
    return forgotten


class TestFolds:
    """The C-level folds of verify against their Counter references."""

    # Every (sigma, N) at n = 3, k = 2 and N = 7 is a few thousand tableaux.
    @pytest.mark.parametrize("parts", [(), (1,), (2,), (1, 1), (2, 1), (3,), (3, 1)], ids=str)
    def test_signed_border_strip_sum_and_power_sum_product(self, parts):
        lam = Partition(parts)
        for n in (1, 2, 3):
            for k in (1, 2):
                for N in range(8):
                    for l in range(n):
                        got = verify_mod._signed_border_strip_sum(lam, n, k, N, l)
                        expected = reference_signed_border_strip_sum(lam, n, k, N, l)
                        assert type(got[0]) is dict and 0 not in got[0].values()
                        assert got[0] == expected[0] and got[1] == expected[1]
                        if l == 0:
                            code = got[2]
                            product = verify_mod._power_sum_product(lam, n, k, N, code)
                            assert type(product) is dict and 0 not in product.values()
                            assert product == reference_power_sum_product(lam, n, k, N, code)

    @pytest.mark.parametrize("parts", [p for size in range(6) for p in brute_partitions(size)],
                             ids=str)
    def test_forgotten_keys(self, parts):
        lam = Partition(parts)
        for n in (1, 2, 3):
            for N in range(7):
                got = verify_mod._forgotten_keys(lam, n, N)
                assert type(got) is dict and 0 not in got.values()
                assert got == reference_forgotten_keys(lam, n, N), (n, N)

    def test_forgetting_keeps_no_list_of_sums(self):
        # Summed lazily, one map per block, the forgotten keys peak near the
        # colored keys' own 3.0 MiB; a list of sums per block peaks at 5.1 MiB.
        lam, n, N = Partition.of(3, 2, 1), 3, 11
        code = ssyt_code((lam,), n, 0, N)
        peaks = []
        for build in (lambda: ssyt_keys(lam, n, 0, N, code), lambda: verify_mod._forgotten_keys(lam, n, N)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_flipped_strip_sign_fails_with_the_reference_witness(self, monkeypatch):
        lam, n, k, N = Partition.of(2, 1), 3, 1, 6
        flip_first_strip(monkeypatch)
        report = verify_murnaghan_nakayama(lam, n, k, N)
        rhs, strips, code = reference_signed_border_strip_sum(lam, n, k, N)
        lhs = reference_power_sum_product(lam, n, k, N, code)
        diff = code.polynomial({key: lhs[key] - rhs[key] for key in lhs.keys() | rhs.keys()})
        assert not report.passed and not diff.is_zero
        assert report.to_json() == canonical({
            "check": "mn-verify", "params": {"lambda": "2,1", "n": n, "k": k, "N": N},
            "pass": False, "witness": {"difference": reference_document(diff)},
            "details": {"strips": strips, "lhs_terms": len(lhs), "rhs_terms": len(rhs)}})

    @pytest.mark.parametrize("corrupt", ["drop", "bump", "add"])
    def test_corrupted_oracle_fails_with_the_reference_witness(self, monkeypatch, corrupt):
        lam, n, N = Partition.of(2, 1), 3, 4
        oracle = verify_mod._schur_keys(lam, N)
        first = min(oracle)
        wrong = dict(oracle)
        if corrupt == "drop":
            del wrong[first]
        elif corrupt == "bump":
            wrong[first] += 1
        else:
            wrong[max(oracle) + 1] = -2
        monkeypatch.setattr(verify_mod, "_schur_keys", lambda *args: wrong)
        report = check_specialization(lam, n, N)
        difference = reference_forgotten_keys(lam, n, N)
        difference.subtract(wrong)
        diff = verify_mod._y_polynomial(difference, lam, N)
        assert not report.passed and not diff.is_zero
        assert report.to_json() == canonical({
            "check": "specialize-check", "params": {"lambda": "2,1", "n": n, "N": N},
            "pass": False, "witness": {"difference": reference_document(diff)},
            "details": {"terms": len(wrong)}})
        assert verify_mod._schur_keys(lam, N) == wrong and dict(oracle) != wrong  # nothing mutated


class TestDegreeBound:
    def test_small_instance(self):
        report = verify_degree_bound(Partition(), 2, 1, 4, 1)
        assert report.passed
        assert report.details["stated_bound"] == "0"
        assert Fraction(report.details["achieved_min_degree"]) >= 0

    def test_rejects_unshifted(self):
        with pytest.raises(PreconditionError):
            verify_degree_bound(Partition(), 2, 1, 4, 0)

    def test_proof_bound_is_stronger(self):
        report = verify_degree_bound(Partition.of(1), 3, 1, 6, 2)
        assert report.passed
        assert Fraction(report.details["proof_bound"]) >= Fraction(report.details["stated_bound"])
        assert Fraction(report.details["achieved_min_degree"]) >= Fraction(report.details["proof_bound"])

    # Below N = 10 the stated floor lies under the least degree any filling
    # can reach, so only from there does the check depend on the signs.
    @pytest.mark.parametrize("N,achieved,stated", [(10, "23/2", "3"), (12, "27/2", "4")])
    def test_floor_holds_where_it_bites(self, N, achieved, stated):
        report = verify_degree_bound(Partition(), 2, 1, N, 1)
        assert report.passed
        assert report.details["achieved_min_degree"] == achieved
        assert report.details["stated_bound"] == stated

    # 228 cases: every N from max(1, len(lambda)) to 8 for each parametrization.
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n,l", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("lam", [(), (1,), (2,), (1, 1), (2, 1)], ids=str)
    def test_proof_bound_formula_and_verdict(self, lam, n, l, k):
        lam = Partition(lam)
        for N in range(max(1, len(lam)), 9):
            report = verify_degree_bound(lam, n, k, N, l)
            proof_bound = Fraction(N * (n - l), n) - k * l
            assert report.details["proof_bound"] == str(proof_bound)
            assert report.passed
            assert Fraction(report.details["achieved_min_degree"]) >= proof_bound

    def test_a_term_just_under_the_floor_fails(self, monkeypatch):
        # One term of degree stated - 1/n added to the strip sum: the verdict
        # must be FAIL and the witness must name that term.
        lam, n, k, N, l = Partition(), 2, 1, 10, 1
        stated = Fraction(N * (n - l), n) - k * n
        low = Monomial.from_exponents({(1, int(n * stated) - 1): 1})
        assert low.degree(n) == stated - Fraction(1, n)
        strip_sum = verify_mod._signed_border_strip_sum

        def with_low_term(*args):
            keys, strips, code = strip_sum(*args)
            key = code.unit[(1, int(n * stated) - 1)]
            keys[key] = keys.get(key, 0) + 1
            return keys, strips, code

        monkeypatch.setattr(verify_mod, "_signed_border_strip_sum", with_low_term)
        report = verify_degree_bound(lam, n, k, N, l)
        assert not report.passed
        assert report.details["stated_bound"] == str(stated)
        assert report.details["achieved_min_degree"] == str(stated - Fraction(1, n))
        assert report.witness == {"min_degree_terms": [
            {"coeff": "1", "vars": [[1, int(n * stated) - 1, 1]]}]}

    def test_a_term_on_the_floor_passes(self, monkeypatch):
        # The floor is inclusive: a least degree equal to the stated bound passes.
        lam, n, k, N, l = Partition(), 2, 1, 11, 1
        stated = Fraction(N * (n - l), n) - k * n
        assert stated.denominator == 2
        strip_sum = verify_mod._signed_border_strip_sum

        def with_term_on_floor(*args):
            keys, strips, code = strip_sum(*args)
            key = code.unit[(1, int(n * stated))]
            keys[key] = keys.get(key, 0) + 1
            return keys, strips, code

        monkeypatch.setattr(verify_mod, "_signed_border_strip_sum", with_term_on_floor)
        report = verify_degree_bound(lam, n, k, N, l)
        assert report.passed and report.witness is None
        assert report.details["achieved_min_degree"] == report.details["stated_bound"] == "7/2"

    # The same 228 cases and N = 0, against the report built by decoding
    # every key of the strip sum and taking Polynomial.min_degree.
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n,l", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("lam", [(), (1,), (2,), (1, 1), (2, 1)], ids=str)
    def test_report_equals_the_decoded_reference(self, monkeypatch, lam, n, l, k):
        lam, sums = Partition(lam), record_strip_sums(monkeypatch)
        for N in range(9):
            report = verify_degree_bound(lam, n, k, N, l)
            assert report.to_document() == degree_bound_reference(lam, n, k, N, l, *sums[-1])

    @pytest.mark.parametrize("N", [10, 12])
    def test_a_failing_report_equals_the_decoded_reference(self, monkeypatch, N):
        lam, n, k, l = Partition(), 2, 1, 1
        flip_first_strip(monkeypatch)
        sums = record_strip_sums(monkeypatch)
        report = verify_degree_bound(lam, n, k, N, l)
        assert not report.passed
        assert report.to_document() == degree_bound_reference(lam, n, k, N, l, *sums[-1])

    # ROADMAP item 3: achieved_min_degree - N is a constant c(lambda, n, k, l)
    # at every N tried, pinned here at the least and greatest N of its table.
    # This is an observation, not the paper's theorem, which states only the
    # floor N(n - l)/n - kn.
    @pytest.mark.parametrize("lam,n,k,l,N,c", [
        (lam, n, k, l, N, c) for lam, n, k, l, Ns, c in [
            ((), 2, 1, 1, (3, 14), "3/2"),
            ((), 3, 1, 1, (4, 11), "3"),
            ((), 2, 2, 1, (5, 12), "4"),
            ((1,), 3, 1, 2, (4, 11), "3"),
            ((1,), 2, 1, 1, (6, 8), "5/2"),
            ((2,), 3, 2, 1, (7, 9), "37/3"),
            ((2, 1), 3, 1, 1, (5, 13), "9"),
            ((2, 1), 3, 1, 2, (5, 12), "6"),
        ] for N in Ns], ids=str)
    def test_survivors_start_at_a_fixed_offset_above_N(self, lam, n, k, l, N, c):
        report = verify_degree_bound(Partition(lam), n, k, N, l)
        assert Fraction(report.details["achieved_min_degree"]) - N == Fraction(c)

    @pytest.mark.parametrize("l", [1, 2])
    def test_min_degree_grows_with_truncation(self, l):
        achieved = []
        for N in range(5, 9):
            report = verify_degree_bound(Partition.of(1), 3, 1, N, l)
            assert report.passed
            achieved.append(Fraction(report.details["achieved_min_degree"]))
        assert achieved == sorted(achieved)


class TestExpansionIdentities:
    def test_first_identity_smallest_instance(self):
        report = verify_expansion(1, Partition(), 1, 1, 1)
        assert report.passed

    def test_second_identity_tiny(self):
        assert verify_expansion(2, Partition(), 1, 1, 2).passed

    def test_third_identity_tiny(self):
        assert verify_expansion(3, Partition.of(1), 2, 1, 3).passed

    def test_rejects_unknown_identity(self):
        with pytest.raises(PreconditionError):
            verify_expansion(4, Partition(), 1, 1, 2)


class TestSpecialization:
    def test_passes_and_counts_terms(self):
        report = check_specialization(Partition.of(2, 1), 3, 4)
        assert report.passed
        assert report.details["terms"] == len(classical_schur(Partition.of(2, 1), 4))

    @pytest.mark.parametrize("parts", [p for size in range(6) for p in brute_partitions(size)],
                             ids=str)
    def test_forgotten_keys_are_the_specialized_loop_schur(self, parts):
        lam = Partition(parts)
        for n in (1, 2, 3):
            for N in range(6):
                forgotten = verify_mod._forgotten_keys(lam, n, N)
                assert 0 not in forgotten.values()
                expected = specialize_forget_color(loop_schur(lam, n, N))
                assert verify_mod._y_polynomial(forgotten, lam, N) == expected, (n, N)

    def test_fail_document_is_pinned(self, monkeypatch, capsys):
        # Dropping the first tableau of every enumeration loses the three
        # tableaux whose first row is (1, 1); the document below was captured
        # with the loop Schur function built by decoding every key.
        from loopschur import tableaux
        from loopschur.cli import main

        enumerate_ssyt = tableaux.enumerate_ssyt
        monkeypatch.setattr(tableaux, "enumerate_ssyt",
                            lambda lam, N: islice(enumerate_ssyt(lam, N), 1, None))
        status = main("specialize-check --lambda 2,1 --n 3 --N 4 --format structured".split())
        captured = capsys.readouterr()
        assert (status, captured.err) == (1, "")
        assert captured.out == (
            '{"check":"specialize-check","details":{"terms":16},'
            '"params":{"N":4,"lambda":"2,1","n":3},"pass":false,'
            '"witness":{"difference":{"n":1,"terms":['
            '{"coeff":"-1","vars":[{"color":0,"exp":2,"weight_num":1},'
            '{"color":0,"exp":1,"weight_num":2}]},'
            '{"coeff":"-1","vars":[{"color":0,"exp":2,"weight_num":1},'
            '{"color":0,"exp":1,"weight_num":3}]},'
            '{"coeff":"-1","vars":[{"color":0,"exp":2,"weight_num":1},'
            '{"color":0,"exp":1,"weight_num":4}]}]}}}\n'
        )

    def test_specialized_product_rule(self):
        # color-forgetting carries the whole identity onto the classical one
        lam, n, k, N = Partition.of(1), 2, 1, 4
        lhs = specialize_forget_color(loop_power_sum(k, n, N) * loop_schur(lam, n, N))
        assert lhs == classical_power_sum(k * n, N) * classical_schur(lam, N)


class TestInvolutionCheck:
    def test_exhaustive_counts(self):
        report = check_involution("I2", Partition(), 1, 1, 2)
        assert report.passed
        assert report.details["checked"] == 12
        assert report.details["fixed"] == 10
        assert report.details["moved"] == 2

    @pytest.mark.parametrize("which,checked,fixed", [
        ("I1", 141, 3), ("I2", 1063, 423), ("I3", 1063, 39), ("I4", 20, 0),
    ])
    def test_exhaustive_counts_with_a_power_above_one(self, which, checked, fixed):
        # k = 2: the second map's fixed points carry the square of the
        # power-sum factor.
        report = check_involution(which, Partition.of(1), 2, 2, 3, l=1)
        assert report.passed
        assert (report.details["checked"], report.details["fixed"]) == (checked, fixed)

    def test_sampled_deterministic(self):
        lam = Partition.of(2, 1)
        a = check_involution("I3", lam, 3, 1, 5, l=1, mode="samples", samples=40, seed=5)
        b = check_involution("I3", lam, 3, 1, 5, l=1, mode="samples", samples=40, seed=5)
        assert a.to_json() == b.to_json()

    def test_rejects_unknown_map(self):
        with pytest.raises(PreconditionError):
            check_involution("I9", Partition(), 1, 1, 2)

    def test_fourth_map_requires_shift(self):
        with pytest.raises(PreconditionError):
            check_involution("I4", Partition(), 2, 1, 3, l=0)

    def test_exhaustive_fourth_map_refuses_a_member_outside_the_low_family(self, monkeypatch):
        # The exhaustive stream is guarded as the sampled draws are: one member
        # whose lengthened row passes N - k*l, at the front of it, makes the check raise.
        lam, n, k, N, l = Partition(), 2, 1, 3, 1
        members = verify_mod.enumerate_augmented_tableaux
        high = next(m for m in members(lam, n, k, N) if not in_low_family(m, k * l))
        monkeypatch.setattr(verify_mod, "enumerate_augmented_tableaux",
                            lambda *args: chain([high], members(*args)))
        with pytest.raises(MembershipError, match="outside"):
            check_involution("I4", lam, n, k, N, l=l)

    def test_sampled_fourth_map_refuses_a_draw_outside_the_low_family(self, monkeypatch):
        # The low-family sampler must never hand the fourth map a member whose
        # lengthened row passes N - k*l; if it does, the check raises.
        lam, n, k, N, l = Partition(), 2, 1, 3, 1
        high = next(m for m in verify_mod.enumerate_augmented_tableaux(lam, n, k, N)
                    if not in_low_family(m, k * l))
        monkeypatch.setattr(verify_mod, "sample_augmented_tableau", lambda *args: high)
        with pytest.raises(MembershipError, match="outside"):
            check_involution("I4", lam, n, k, N, l=l, mode="samples", samples=5)

    def family_checks(self, monkeypatch):
        """The family checks that ``check_involution`` builds, collected as it builds them."""
        built = []

        class Recorded(verify_mod._FamilyCheck):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(verify_mod, "_FamilyCheck", Recorded)
        return built

    @pytest.mark.parametrize("which,n,l,shift", [
        ("I1", 1, 0, 0), ("I1", 2, 0, 1), ("I1", 3, 1, 1), ("I1", 3, 2, 2),
        ("I2", 2, 0, 0), ("I2", 3, 2, 0), ("I3", 2, 0, 0), ("I3", 3, 2, 2),
        ("I4", 2, 1, 1), ("I4", 3, 2, 2),
    ])
    def test_family_check_shift(self, which, n, l, shift, monkeypatch):
        # The first map checks its shifted weight at the l it reports, and at
        # 1 when none is given; the second checks the plain weight only.
        built = self.family_checks(monkeypatch)
        report = check_involution(which, Partition(), n, 1, 2, l=l)
        assert report.passed and report.params.get("l", 0) == l
        assert [check.l for check in built] == [shift]
        assert (built[0].shifted is built[0].plain) == (shift == 0)

    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_sampled_mode_keeps_no_moved_sum(self, which, monkeypatch):
        built = self.family_checks(monkeypatch)
        report = check_involution(which, Partition.of(1), 2, 1, 4, l=1, mode="samples", samples=50)
        assert report.passed and report.details["moved"] > 0
        assert len(built) == 1 and not built[0].reachable

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_mode_needs_a_sample(self, samples):
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            check_involution("I1", Partition(), 1, 1, 2, mode="samples", samples=samples)
        line = f"involution which=I1 lambda=0 n=1 N=2 mode=samples samples={samples}"
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            run_grid(parse_grid_config(line))


# which -> (lambda, n, k, N, l) of a small family for each map
FAULT_FAMILIES = {
    "I1": (Partition.of(1), 2, 1, 3, 0),
    "I2": (Partition(), 2, 1, 3, 0),
    "I3": (Partition.of(1), 2, 1, 3, 1),
    "I4": (Partition(), 2, 1, 3, 1),
}


def replace_on_verify(name, corrupt):
    """A fault: the function ``name`` on verify, which only the member checks
    call, becomes ``corrupt(original, *args)``."""
    def apply(case, monkeypatch):
        original = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name, lambda *args: corrupt(original, *args))
    return apply


def shifted_weight_not_preserved(which):
    """A fault: the map's core re-pairs two moved pairs so that the sign flips
    and the plain weight is kept, but the shifted weight is not."""
    def apply(case, monkeypatch):
        pairing = case.shifted_pairs(which)
        core = getattr(verify_mod, which.lower())
        monkeypatch.setattr(verify_mod, which.lower(),
                            lambda m, *args: pairing.get(m) or core(m, *args))
    return apply


def moves_rule(which):
    """The ``moves`` rule of ``which``'s ``_MAPS`` entry on its fault family:
    whether it names a member moved without applying the map."""
    lam, n, k, N, l = FAULT_FAMILIES[which]
    spec = verify_mod._MAPS[which]
    c = verify_mod._FamilyCheck(spec, lam, n, N, 0 if which == "I1" else k * n, l)
    return lambda m: spec.moves(c, m)


def spied_walks(monkeypatch):
    """What each pair walk returns, with the failures it found, from now on."""
    original, walks = verify_mod._walk_pairs, []

    def spied(c, *args):
        counts = original(c, *args)
        walks.append((counts, list(c.failures)))
        return counts

    monkeypatch.setattr(verify_mod, "_walk_pairs", spied)
    return walks


def sign_and_weight(which, member):
    """The label sign and the plain weight of a member of ``which``'s fault family."""
    lam, n, k, N, l = FAULT_FAMILIES[which]
    st = verify_mod.SignedTableau(lam, n, N, 0 if which == "I1" else k * n, *member)
    return permutation_sign(member[1]), st.monomial()


def one_more_slide(original, member):
    parts, height, landed = original(member)
    return parts, height + 1, landed


# (map, property) -> a fault that must make the exhaustive check of that map
# on FAULT_FAMILIES report that property.  Each one is also a mutant of the
# member checks that no other test catches.
FAULTS = {
    ("I1", "fixed_point_shape"): replace_on_verify("staircase_entries_standard", lambda f, rows: False),
    ("I1", "shifted_weight"): shifted_weight_not_preserved("I1"),
    ("I2", "factor_roundtrip"): replace_on_verify(
        "insert_power_sum_factor", lambda f, base, i, d: f(base, i, d)[:2] + (0,)),
    ("I3", "strip_shape"): replace_on_verify("is_border_strip", lambda f, *args: False),
    ("I3", "slide_sign_or_weight"): replace_on_verify("slide_to_border_strip", one_more_slide),
    ("I3", "slide_roundtrip"): replace_on_verify(
        "slide_from_border_strip", lambda f, m, top, bottom: f(m, top, bottom)[:2] + (0,)),
    ("I3", "shifted_weight"): shifted_weight_not_preserved("I3"),
}


def raised_landing(original, member):
    """A slide whose landing has the last entry of its first row raised by one,
    where that keeps it in 1..N and column-strict, so still fixed by the
    first map: the sign is kept and only the weight changes."""
    parts, height, (rows, tau, i) = original(member)
    top = rows[0][:-1] + (rows[0][-1] + 1,)
    if top[-1] <= len(rows) and verify_mod.is_column_strict((top,) + rows[1:]):
        rows = (top,) + rows[1:]
    return parts, height, (rows, tau, i)


def swapped_first_labels(original, member, d):
    """An extracted base member with its first two labels swapped: its weight
    is kept and its sign flips."""
    rows, tau, i = original(member, d)
    return rows, (tau[1], tau[0]) + tau[2:], i


# (map, property, fault) for checks of a fixed point that the faults above
# leave unexercised: a fault that only the named test of that check catches.
FIXED_POINT_FAULTS = [
    ("I3", "landing_not_fixed", replace_on_verify(
        "i1", lambda f, m: (m[0], m[1][::-1], m[2]) if f(m) == m else f(m))),
    ("I3", "slide_sign_or_weight", replace_on_verify("slide_to_border_strip", raised_landing)),
    ("I2", "factor_weight_law", replace_on_verify("extract_power_sum_factor", swapped_first_labels)),
]


class TestInvolutionCheckCatchesFaultyMaps:
    """``check_involution`` applies the map cores it finds on ``verify``; a
    corrupted core must give a failing report naming the broken property."""

    def core_args(self, which):
        lam, n, k, N, l = FAULT_FAMILIES[which]
        return {"I1": (), "I2": (k * n,), "I3": (), "I4": (k * n, k * l)}[which]

    def members(self, which):
        """The members the check visits, each with its image under the true core."""
        lam, n, k, N, l = FAULT_FAMILIES[which]
        if which == "I1":
            stream = verify_mod.enumerate_staircase_tableaux(lam, n, N)
        else:
            stream = verify_mod.enumerate_augmented_tableaux(lam, n, k, N)
        core = getattr(verify_mod, which.lower())
        args = self.core_args(which)
        return [(m, core(m, *args)) for m in stream
                if which != "I4" or verify_mod.in_low_family(m, k * l)]

    def check(self, which, monkeypatch, corrupt):
        """Run the exhaustive check with the core replaced by ``corrupt(core, member, *args)``."""
        name = which.lower()
        core = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name, lambda m, *args: corrupt(core, m, *args))
        return self.failed_property(which)

    def failed_property(self, which):
        """The property named by the failing exhaustive check of ``which``."""
        lam, n, k, N, l = FAULT_FAMILIES[which]
        report = check_involution(which, lam, n, k, N, l=l)
        assert not report.passed
        return report.witness["property"]

    def swapped_pairs(self, which, same_sign):
        """Two moved pairs {a, a'} and {b, b'} re-paired as a <-> b, a' <-> b'.

        With ``same_sign`` a and b share a sign; otherwise their signs differ
        but their (shifted, for the fourth map) weights differ too."""
        lam, n, k, N, l = FAULT_FAMILIES[which]
        shift = l if which == "I4" else 0
        d = 0 if which == "I1" else k * n

        def sign_weight(m):
            st = verify_mod.SignedTableau(lam, n, N, d, *m)
            return permutation_sign(m[1]), st.monomial(shift)

        pairs = []
        for m, image in self.members(which):
            if image != m and all(m not in pair for pair in pairs):
                pairs.append((m, image))
        a, a2 = pairs[0]
        sign_a, weight_a = sign_weight(a)
        for b, b2 in pairs[1:]:
            sign_b, weight_b = sign_weight(b)
            if same_sign or weight_b != weight_a:
                if (sign_b == sign_a) != same_sign:
                    b, b2 = b2, b
                return {a: b, b: a, a2: b2, b2: a2}
        raise AssertionError("no second pair to swap with")

    def shifted_pairs(self, which):
        """Two moved pairs {a, a'} and {b, b'} re-paired as a <-> b', a' <-> b,
        where a and b share a sign and a plain weight but not a shifted weight:
        every new pair reverses the sign and keeps the plain weight only."""
        lam, n, k, N, l = FAULT_FAMILIES[which]
        d = 0 if which == "I1" else k * n
        pairs, seen = [], {}
        for m, image in self.members(which):
            if image != m and all(m not in pair for pair in pairs):
                pairs.append((m, image))
                st = verify_mod.SignedTableau(lam, n, N, d, *m)
                key = permutation_sign(m[1]), st.monomial()
                for b, b2, shifted in seen.get(key, ()):
                    if shifted != st.monomial(1):
                        return {m: b2, b2: m, image: b, b: image}
                seen.setdefault(key, []).append((m, image, st.monomial(1)))
        raise AssertionError("no two pairs differ in their shifted weight only")

    @pytest.mark.parametrize("fault", ["entry above N", "extra cell"])
    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_image_outside_the_family(self, which, fault, monkeypatch):
        # Reported as a closure failure, not raised.
        N = FAULT_FAMILIES[which][3]

        def corrupt(core, m, *args):
            rows, tau, i = core(m, *args)
            if fault == "entry above N":
                return (rows[0][:-1] + (N + 1,),) + rows[1:], tau, i
            return rows[:-1] + (rows[-1] + rows[-1][-1:],), tau, i

        assert self.check(which, monkeypatch, corrupt) == "closure"

    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_image_not_involutive(self, which, monkeypatch):
        # One moved member x is sent to a member y of another pair instead.
        moved = [(m, image) for m, image in self.members(which) if image != m]
        x, partner = moved[0]
        y = next(m for m, _ in moved if m not in (x, partner))
        corrupt = lambda core, m, *args: y if m == x else core(m, *args)
        assert self.check(which, monkeypatch, corrupt) == "involution"

    @pytest.mark.parametrize("which,expected", [
        ("I1", "fixed_iff_column_strict"), ("I2", "fixed_point_rule"),
        ("I3", "landing_not_fixed"), ("I4", "unexpected_fixed_point"),
    ])
    def test_core_that_fixes_every_member(self, which, expected, monkeypatch):
        # The check walks on past a failure; for the third map some later false
        # fixed points have an equal-length row, so their slide lands on no
        # partition, and that too is reported, not raised.
        assert self.check(which, monkeypatch, lambda core, m, *args: m) == expected

    @pytest.mark.parametrize("which,expected", [
        ("I1", "sign_or_weight"), ("I2", "sign_or_weight"), ("I3", "sign_or_weight"),
        ("I4", "sign"),
    ])
    def test_sign_not_reversed(self, which, expected, monkeypatch):
        pairing = self.swapped_pairs(which, same_sign=True)
        corrupt = lambda core, m, *args: pairing.get(m) or core(m, *args)
        assert self.check(which, monkeypatch, corrupt) == expected

    @pytest.mark.parametrize("which,expected", [
        ("I1", "sign_or_weight"), ("I2", "sign_or_weight"), ("I3", "sign_or_weight"),
        ("I4", "shifted_weight"),
    ])
    def test_weight_not_preserved(self, which, expected, monkeypatch):
        pairing = self.swapped_pairs(which, same_sign=False)
        corrupt = lambda core, m, *args: pairing.get(m) or core(m, *args)
        assert self.check(which, monkeypatch, corrupt) == expected

    # The whole witness of a failing check: a base-family member has neither
    # "extra" nor "extended_row", an augmented member has both.
    @pytest.mark.parametrize("which,witness", [
        ("I1", {"property": "fixed_iff_column_strict", "member": {
            "kind": "extended", "lambda": [1], "N": 3, "n": 2,
            "rows": [[1, 1, 1, 1], [2, 3], [3]], "tau": [1, 2, 3]}}),
        ("I2", {"property": "fixed_point_rule", "member": {
            "kind": "extended_row", "lambda": [], "N": 3, "n": 2,
            "rows": [[1, 2, 2, 2, 2], [2, 2], [3]], "tau": [1, 2, 3],
            "extra": 2, "extended_row": 1}}),
    ])
    def test_witness_documents_are_pinned(self, which, witness, monkeypatch):
        monkeypatch.setattr(verify_mod, which.lower(), lambda m, *args: m)
        lam, n, k, N, l = FAULT_FAMILIES[which]
        report = check_involution(which, lam, n, k, N, l=l)
        assert report.witness == witness
        assert list(report.witness["member"]) == list(witness["member"])

    @pytest.mark.parametrize("which,expected", list(FAULTS), ids=str)
    def test_fault_reports_its_property(self, which, expected, monkeypatch):
        FAULTS[which, expected](self, monkeypatch)
        assert self.failed_property(which) == expected

    @pytest.mark.parametrize("which,expected,fault", FIXED_POINT_FAULTS,
                             ids=[f"{which}-{name}" for which, name, _ in FIXED_POINT_FAULTS])
    def test_fixed_point_fault_reports_its_property(self, which, expected, fault, monkeypatch):
        fault(self, monkeypatch)
        assert self.failed_property(which) == expected
        self.assert_per_member_report(which, monkeypatch)

    def test_image_outside_the_low_family(self, monkeypatch):
        # The fourth map swaps its first low member x with a valid member h of
        # the augmented family whose lengthened row passes N - k*l.  h is in
        # the family that validate_in_family checks, so only the low-family
        # part of closure catches it.
        lam, n, k, N, l = FAULT_FAMILIES["I4"]
        x = self.members("I4")[0][0]
        h = next(m for m in verify_mod.enumerate_augmented_tableaux(lam, n, k, N)
                 if not in_low_family(m, k * l))
        pairing = {x: h, h: x}
        corrupt = lambda core, m, *args: pairing.get(m) or core(m, *args)
        assert self.check("I4", monkeypatch, corrupt) == "closure"
        self.assert_per_member_report("I4", monkeypatch)

    def test_false_fixed_point_breaks_the_factor_law(self, monkeypatch):
        # A moved pair of the second map is declared fixed by both the core and
        # the fixed-point rule, so the check extracts a leading block that is
        # not k*n copies of the lengthened row's label.
        lam, n, k, N, l = FAULT_FAMILIES["I2"]
        d = k * n
        pair = next((m, image) for m, image in self.members("I2") if image != m)
        assert all(m[0][m[2] - 1][:d] != (m[1][m[2] - 1],) * d for m in pair)
        rule = verify_mod.i2_is_fixed
        monkeypatch.setattr(verify_mod, "i2_is_fixed", lambda m, d: m in pair or rule(m, d))
        corrupt = lambda core, m, *args: m if m in pair else core(m, *args)
        assert self.check("I2", monkeypatch, corrupt) == "factor_weight_law"

    def test_dropped_reachable_member_breaks_the_unreachable_sum(self, monkeypatch):
        lam, n, k, N, l = FAULT_FAMILIES["I4"]
        stream = verify_mod.enumerate_augmented_tableaux

        def dropping(*args):
            dropped = False
            for m in stream(*args):
                if not dropped and verify_mod.in_low_family(m, k * l):
                    dropped = True
                    continue
                yield m

        monkeypatch.setattr(verify_mod, "enumerate_augmented_tableaux", dropping)
        report = check_involution("I4", lam, n, k, N, l=l)
        assert not report.passed
        assert report.witness == {"property": "unreachable_sum_mismatch", "member": None}
        assert report.details["failures"] == 2  # the member count falls short too

    @pytest.mark.parametrize("which", ["I1", "I2", "I3"])
    def test_dropped_moved_member_breaks_the_moved_sum(self, which, monkeypatch):
        # With one moved member gone from the stream, every check of the rest
        # still passes; only its partner is left without its cancelling
        # weight, the count of moved members turns odd, and the members
        # checked fall one short of the family.
        lam, n, k, N, l = FAULT_FAMILIES[which]
        dropped = next(m for m, image in self.members(which) if image != m)
        name = "enumerate_staircase_tableaux" if which == "I1" else "enumerate_augmented_tableaux"
        stream = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name,
                            lambda *args: (m for m in stream(*args) if m != dropped))
        report = check_involution(which, lam, n, k, N, l=l)
        assert not report.passed
        assert report.witness == {"property": "unreachable_sum_mismatch", "member": None}
        assert report.details["failures"] == 2 and report.details["moved"] % 2 == 1
        self.assert_per_member_report(which, monkeypatch)

    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_dropped_member_breaks_the_member_count(self, which, monkeypatch):
        # A lost fixed point breaks no pair, so every other check passes.  The
        # fourth map fixes nothing, so its stream loses a low member, which
        # breaks the moved sum first.
        lam, n, k, N, l = FAULT_FAMILIES[which]
        members = self.members(which)
        dropped = next(m for m, image in members if image == m or which == "I4")
        name = "enumerate_staircase_tableaux" if which == "I1" else "enumerate_augmented_tableaux"
        stream = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name,
                            lambda *args: (m for m in stream(*args) if m != dropped))
        report = check_involution(which, lam, n, k, N, l=l)
        assert not report.passed
        assert report.details["checked"] == len(members) - 1
        first = "unreachable_sum_mismatch" if which == "I4" else "member_count_mismatch"
        assert report.witness == {"property": first, "member": None}
        assert report.details["failures"] == (2 if which == "I4" else 1)
        self.assert_per_member_report(which, monkeypatch)

    @pytest.mark.parametrize("which", ["I2", "I3"])
    def test_fault_only_the_pair_counts_catch(self, which, monkeypatch):
        # A negative fixed point y, which the rule does not name moved, is
        # sent to a moved member x.  The walk maps y and counts it as
        # backward, but no positive member's image is y, so no check meets
        # the fault and only the counts disagree.  The first and fourth maps
        # have no such member: the first fixes only members labeled by the
        # identity, the fourth none, so their rules name every negative
        # member moved, and each one's partner maps it in its involution check.
        members, moves = self.members(which), moves_rule(which)
        y = next(m for m, image in members
                 if image == m and permutation_sign(m[1]) < 0 and not moves(m))
        x = next(m for m, image in members if image != m)
        walks = spied_walks(monkeypatch)
        corrupt = lambda core, m, *args: x if m == y else core(m, *args)
        assert self.check(which, monkeypatch, corrupt) == "involution"
        assert walks == [(None, [])]
        self.assert_per_member_report(which, monkeypatch)

    @pytest.mark.parametrize("which,expected", [
        ("I1", "fixed_iff_column_strict"), ("I2", "fixed_point_rule"),
        ("I3", "strip_shape"), ("I4", "unexpected_fixed_point"),
    ])
    def test_fixing_a_member_the_rule_names_moved_breaks_the_counts(self, which, expected,
                                                                    monkeypatch):
        # The map fixes a negative member y that its rule names moved, so the
        # walk counts y as backward without applying the map.  With y's
        # partner in the stream, the partner's involution check meets the
        # fault; with the partner gone, y has no forward partner, and only
        # the counts disagree.
        members, moves = self.members(which), moves_rule(which)
        y, partner = next((m, image) for m, image in members
                          if permutation_sign(m[1]) < 0 and moves(m))
        walks = spied_walks(monkeypatch)
        self.check(which, monkeypatch, lambda core, m, *args: m if m == y else core(m, *args))
        assert walks == [(None, [("involution", partner)])]
        name = "enumerate_staircase_tableaux" if which == "I1" else "enumerate_augmented_tableaux"
        stream = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name,
                            lambda *args: (m for m in stream(*args) if m != partner))
        walks.clear()
        assert self.failed_property(which) == expected
        assert walks == [(None, [])]
        self.assert_per_member_report(which, monkeypatch)

    @pytest.mark.parametrize("which,expected", [
        ("I1", "fixed_iff_column_strict"), ("I2", "fixed_point_rule"),
    ])
    def test_fault_only_the_image_check_catches(self, which, expected, monkeypatch):
        # A moved member x is re-paired with a later fixed point y of the same
        # weight and the other sign, and x's own partner leaves the stream:
        # signs, weights and counts still balance, and y breaks its map's
        # fixed-point rule only where x's check looks at its image.  With two
        # colors the first map's shifted weight check catches every such
        # re-pairing of its fault family, so it runs here with one.
        if which == "I1":
            monkeypatch.setitem(FAULT_FAMILIES, "I1", (Partition.of(1), 1, 1, 3, 0))
        members = self.members(which)
        opposite = lambda y: (-sign_and_weight(which, y)[0], sign_and_weight(which, y)[1])
        x, partner, y = next((x, partner, y) for y, image in members if image == y
                             for x, partner in members
                             if partner != x and x < y and sign_and_weight(which, x) == opposite(y))
        name = "enumerate_staircase_tableaux" if which == "I1" else "enumerate_augmented_tableaux"
        stream = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name,
                            lambda *args: (m for m in stream(*args) if m != partner))
        pairing = {x: y, y: x}
        corrupt = lambda core, m, *args: pairing.get(m) or core(m, *args)
        assert self.check(which, monkeypatch, corrupt) == expected
        self.assert_per_member_report(which, monkeypatch)

    @pytest.mark.parametrize("same_sign", [True, False])
    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_swapped_pairs_report_as_the_per_member_walk(self, which, same_sign, monkeypatch):
        pairing = self.swapped_pairs(which, same_sign)
        self.check(which, monkeypatch, lambda core, m, *args: pairing.get(m) or core(m, *args))
        self.assert_per_member_report(which, monkeypatch)

    @pytest.mark.parametrize("which,expected", list(FAULTS), ids=str)
    def test_fault_reports_as_the_per_member_walk(self, which, expected, monkeypatch):
        FAULTS[which, expected](self, monkeypatch)
        self.assert_per_member_report(which, monkeypatch)

    def assert_per_member_report(self, which, monkeypatch):
        """The failing exhaustive report of ``which`` on its fault family is
        the report of the walk that checks every member on its own."""
        lam, n, k, N, l = FAULT_FAMILIES[which]
        report = check_involution(which, lam, n, k, N, l=l)
        assert not report.passed
        assert report.to_json() == per_member_report(monkeypatch, which, lam, n, k, N, l).to_json()


# (map, property) -> the test above whose fault makes the check report it.
PROPERTY_FIXTURES = {
    **{(which, "closure"): "test_image_outside_the_family" for which in FAULT_FAMILIES},
    **{(which, "involution"): "test_image_not_involutive" for which in FAULT_FAMILIES},
    ("I1", "fixed_iff_column_strict"): "test_core_that_fixes_every_member",
    ("I2", "fixed_point_rule"): "test_core_that_fixes_every_member",
    ("I3", "landing_not_fixed"): "test_core_that_fixes_every_member",
    ("I4", "unexpected_fixed_point"): "test_core_that_fixes_every_member",
    ("I1", "sign_or_weight"): "test_sign_not_reversed",
    ("I2", "sign_or_weight"): "test_sign_not_reversed",
    ("I3", "sign_or_weight"): "test_sign_not_reversed",
    ("I4", "sign"): "test_sign_not_reversed",
    ("I4", "shifted_weight"): "test_weight_not_preserved",
    ("I2", "factor_weight_law"): "test_false_fixed_point_breaks_the_factor_law",
    ("I4", "unreachable_sum_mismatch"): "test_dropped_reachable_member_breaks_the_unreachable_sum",
    **{(which, "unreachable_sum_mismatch"): "test_dropped_moved_member_breaks_the_moved_sum"
       for which in ("I1", "I2", "I3")},
    **{(which, "member_count_mismatch"): "test_dropped_member_breaks_the_member_count"
       for which in FAULT_FAMILIES},
    **{key: "test_fault_reports_its_property" for key in FAULTS},
}


def reported_properties():
    """Every (map, property) that ``check_involution`` can report, read off
    ``verify``: the ``c.fail`` names of the shared member check, each map's
    breach and sign failure on its ``_MAPS`` entry and the ``c.fail`` names of
    its fixed-point check, and for every map the failures that
    ``check_involution`` appends after its walk.  A map whose weight check on
    its fault family has no shift cannot report ``shifted_weight``."""
    fails = lambda function: re.findall(r'c\.fail\("(\w+)"', inspect.getsource(function))
    appended = re.findall(r'failures\.append\(\("(\w+)"', inspect.getsource(verify_mod.check_involution))
    found = set()
    for which, (lam, n, k, N, l) in FAULT_FAMILIES.items():
        spec = verify_mod._MAPS[which]
        names = fails(verify_mod._check_member) + appended + [spec.sign_failure]
        names += [spec.breach] if spec.breach else []
        names += fails(spec.check_fixed) if spec.check_fixed else []
        if not spec.shift(l, n):
            names.remove("shifted_weight")
        found |= {(which, name) for name in names}
    return found


def test_every_reported_property_has_a_fault_fixture():
    assert len({name for _, name in reported_properties()}) == 17  # the parse found them all
    assert reported_properties() == set(PROPERTY_FIXTURES)
    for test in PROPERTY_FIXTURES.values():
        assert callable(getattr(TestInvolutionCheckCatchesFaultyMaps, test))


def per_member_report(monkeypatch, which, lam, n, k, N, l):
    """The exhaustive report of the walk that checks every member on its own."""
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_walk_pairs", lambda *args: None)
        return check_involution(which, lam, n, k, N, l=l)


def small_families(which):
    """(lambda, n, k, N, l) for lambda in {0, (1), (2,1)}, n <= 3, k <= 2,
    N <= 3 and every l the map admits."""
    for lam in (Partition(), Partition.of(1), Partition.of(2, 1)):
        for n in (1, 2, 3):
            for k in ((1,) if which == "I1" else (1, 2)):
                for N in range(len(lam), 4):
                    for l in (range(1, n) if which == "I4" else (0,)):
                        yield lam, n, k, N, l


class TestPairWalk:
    """The exhaustive walk checks each pair of a map once; its reports must be
    those of the walk that checks every member on its own."""

    def no_fallback(self, monkeypatch):
        """Make the per-member walk fail the test when the exhaustive check
        falls back to it."""
        def refused(*args):
            raise AssertionError("the pair walk fell back to the per-member walk")
        monkeypatch.setattr(verify_mod, "_walk_each", refused)

    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_reports_equal_the_per_member_walk(self, which, monkeypatch):
        cases = list(small_families(which))
        expected = [per_member_report(monkeypatch, which, *case).to_json() for case in cases]
        self.no_fallback(monkeypatch)
        for case, reference in zip(cases, expected):
            assert check_involution(which, case[0], *case[1:4], l=case[4]).to_json() == reference

    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_negative_members_the_rule_names_moved_are_not_mapped(self, which, monkeypatch):
        # The walk applies the map to every member but these; their partners'
        # involution checks map them.  What the member check maps is not the
        # walk's, so it is not recorded.
        lam, n, k, N, l = FAULT_FAMILIES[which]
        spec, moves, mapped, checking = verify_mod._MAPS[which], moves_rule(which), [], []
        check_member = verify_mod._check_member

        def apply(c, m):
            if not checking:
                mapped.append(m)
            return spec.apply(c, m)

        def checked(*args):
            checking.append(args)
            try:
                return check_member(*args)
            finally:
                checking.pop()

        monkeypatch.setitem(verify_mod._MAPS, which, spec._replace(apply=apply))
        monkeypatch.setattr(verify_mod, "_check_member", checked)
        self.no_fallback(monkeypatch)
        report = check_involution(which, lam, n, k, N, l=l)
        assert report.passed
        low_l = l if which == "I4" else 0
        family = (verify_mod.enumerate_staircase_tableaux(lam, n, N) if which == "I1"
                  else verify_mod.enumerate_augmented_tableaux(lam, n, k, N, l=low_l))
        skipped = [m for m in family if permutation_sign(m[1]) < 0 and moves(m)]
        assert skipped and not set(skipped) & set(mapped)
        assert len(mapped) + len(skipped) == report.details["checked"]

    @pytest.mark.parametrize("which", ["I1", "I2", "I3", "I4"])
    def test_reversed_stream_gives_the_same_report(self, which, monkeypatch):
        # The counts do not depend on the order the members arrive in.
        lam, n, k, N, l = FAULT_FAMILIES[which]
        expected = per_member_report(monkeypatch, which, lam, n, k, N, l).to_json()
        for name in ("enumerate_staircase_tableaux", "enumerate_augmented_tableaux"):
            stream = getattr(verify_mod, name)
            monkeypatch.setattr(verify_mod, name,
                                lambda *args, stream=stream: reversed(list(stream(*args))))
        self.no_fallback(monkeypatch)
        assert check_involution(which, lam, n, k, N, l=l).to_json() == expected

    def test_memory_stays_bounded(self):
        # 53,870 members in 26,933 pairs and 4 fixed points: the walk keeps
        # counters, not a set of the members it has seen.
        tracemalloc.start()
        try:
            report = check_involution("I3", Partition(), 1, 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.details["checked"] == 53_870
        assert peak < 2 * 2**20

    def test_memory_of_the_first_map_stays_bounded(self):
        # 13,140 members from a cold start: the pair walk keeps counters, and
        # the memo of column violations at most 256 of the 966 pairs of rows.
        from loopschur import involutions

        involutions._pair_violation.cache_clear()
        tracemalloc.start()
        try:
            report = check_involution("I1", Partition.of(1), 2, 1, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.details["checked"] == 13_140
        assert peak < 2 * 2**20


def corrupted_images(m, N, d):
    """One image per way of leaving the family, built from a member ``m``:
    the message :func:`validate_in_family` raises, and the image.  Only the
    last three put a row into the image that no member has."""
    rows, tau, i = m
    yield "lengthened row", (rows, tau, N + 1 if d else 1)
    yield "row lengths", (rows[1:] + rows[:1], tau, i)
    yield "not a permutation", (rows, (tau[1],) + tau[1:], i)
    low = next((r for r, row in enumerate(rows) if row[0] < N and tau[r] != N), None)
    if low is not None:  # give that row the label N, above its first entry
        top = tau.index(N)
        yield "below its label", (rows, tuple(N if r == low else tau[low] if r == top else t
                                              for r, t in enumerate(tau)), i)
    yield "entry 0 in row 1", (((0,) + rows[0][1:],) + rows[1:], tau, i)
    yield f"entry {N + 1} in row {N}", (rows[:-1] + (rows[-1][:-1] + (N + 1,),), tau, i)
    yield "row 1 is not weakly increasing", (((N,) * (len(rows[0]) - 1) + (N - 1,),) + rows[1:], tau, i)


class TestClosureCheck:
    """The closure check of the member walks accepts what ``validate_in_family``
    accepts, also once its memo holds every row of the family."""

    @pytest.mark.parametrize("parts,n,k,N", [((1,), 2, 0, 3), ((), 2, 1, 3), ((2, 1), 1, 2, 3)],
                             ids=str)
    def test_agrees_with_validate_in_family(self, parts, n, k, N):
        lam, d = Partition(parts), k * n
        members = list(verify_mod.enumerate_augmented_tableaux(lam, n, k, N) if k
                       else verify_mod.enumerate_staircase_tableaux(lam, n, N))
        check = verify_mod._FamilyCheck(verify_mod._MAPS["I3" if d else "I1"], lam, n, N, d, 0)
        for _ in range(2):  # the second pass finds every row in the memo
            assert all(map(check.closed, members))
        assert check.rows == {row for rows, _, _ in members for row in rows}
        for m in members[::5]:
            for message, image in corrupted_images(m, N, d):
                with pytest.raises(MembershipError, match=message):
                    verify_mod.validate_in_family(image, lam, N, d)
                assert not check.closed(image)


def joint_keys_split(check, members):
    """Assert that ``check.joint_key`` tells two of ``members`` apart exactly
    when their plain or their shifted keys differ, for every pair at once: the
    joint keys and the pairs of keys make the same classes.  Returns the
    classes of plain keys and of pairs."""
    joint = [check.joint_key(rows) for rows, _, _ in members]
    pairs = [(check.key(rows), check.shifted_key(rows)) for rows, _, _ in members]
    assert len(set(joint)) == len(set(pairs)) == len(set(zip(joint, pairs)))
    assert [key & check.plain_bits for key in joint] == [plain for plain, _ in pairs]
    return len({plain for plain, _ in pairs}), len(set(pairs))


class TestJointKey:
    """One key a filling holds the plain and the shifted weight of a moved
    pair's check: equal joint keys mean equal plain and equal shifted keys."""

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("parts,n,k,N", [((1,), 3, 0, 3), ((), 3, 1, 3), ((2, 1), 3, 0, 3)],
                             ids=str)
    def test_every_pair_of_a_small_family(self, parts, n, k, N, l):
        lam, d = Partition(parts), k * n
        members = list(verify_mod.enumerate_augmented_tableaux(lam, n, k, N) if k
                       else verify_mod.enumerate_staircase_tableaux(lam, n, N))
        check = verify_mod._FamilyCheck(verify_mod._MAPS["I3" if d else "I1"], lam, n, N, d, l)
        plain, both = joint_keys_split(check, members)
        assert plain < both  # some members share a plain key and differ in the shifted one

    def test_seeded_pairs_with_negative_shifted_degrees(self):
        # At n=3, l=2, N=5 the first members of the base family of () have
        # small entries on cells of content down to -5, so a negative shifted
        # degree field; the family has 3.3M members, so pairs are drawn.
        lam, n, N, l = Partition(), 3, 5, 2
        check = verify_mod._FamilyCheck(verify_mod._MAPS["I1"], lam, n, N, 0, l)
        rng = random.Random(29)
        members = list(islice(verify_mod.enumerate_staircase_tableaux(lam, n, N), 3000))
        members += [verify_mod.sample_staircase_tableau(lam, n, N, rng) for _ in range(1000)]
        assert any(check.shifted_key(rows) >> check.shifted.top < 0 for rows, _, _ in members)
        plain, both = joint_keys_split(check, members)
        assert plain < both
        for _ in range(2000):
            a, b = (rows for rows, _, _ in rng.sample(members, 2))
            same = check.key(a) == check.key(b) and check.shifted_key(a) == check.shifted_key(b)
            assert (check.joint_key(a) == check.joint_key(b)) == same

    def test_unshifted_check_keys_plain_weights(self):
        check = verify_mod._FamilyCheck(verify_mod._MAPS["I1"], Partition.of(1), 2, 3, 0, 0)
        assert check.joint_key is check.key and check.plain_bits == -1


class TestGrid:
    def test_empty_config(self):
        assert parse_grid_config("") == []
        assert run_grid([]) == []

    def test_default_grid_passes(self):
        reports = run_grid(parse_grid_config(default_grid_config()))
        assert reports and all(r.passed for r in reports)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError) as err:
            parse_grid_config("mn lambda=0 n=1 k=1 N=2\nbogus lambda=0\n")
        assert err.value.line == 2
        with pytest.raises(ConfigError):
            parse_grid_config("mn lambda=0 n=1 k=1 N=2 k=2")

    def test_execution_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError) as err:
            run_grid(parse_grid_config("mn lambda=0 n=1 k=x N=2"))
        assert err.value.line == 1
        with pytest.raises(ConfigError):
            run_grid(parse_grid_config("mn lambda=0 n=1 k=1 N=2 what=no"))
        with pytest.raises(ConfigError):
            run_grid(parse_grid_config("involution lambda=0 n=1 k=1 N=2"))
        for line in (
            "involution which=I1 lambda=0 n=1 N=2 mode=bogus",
            "involution which=I9 lambda=0 n=1 N=2",
            "involution which=I1 lambda=0 n=1 N=2 mode=exhaustive samples=5",
            "involution which=I1 lambda=0 n=1 N=2 samples=5",
            "lemma which=4 lambda=1 n=2 N=3",
            "specialize lambda=1 n=1 N=-1",
        ):
            with pytest.raises(ConfigError) as err:
                run_grid(parse_grid_config("mn lambda=0 n=1 k=1 N=2\n" + line))
            assert err.value.line == 2, line

    def test_corrupted_sign_is_detected(self, monkeypatch):
        # flip one strip height; the difference polynomial must be nonzero
        original = enumerate_border_strips

        def corrupted(lam, m):
            strips = original(lam, m)
            bad = strips[0]
            return [BorderStripAddition(bad.sigma, bad.height + 1)] + strips[1:]

        monkeypatch.setattr(verify_mod, "enumerate_border_strips", corrupted)
        reports = run_grid(parse_grid_config("mn lambda=1 n=2 k=1 N=4"))
        assert not reports[0].passed
        assert reports[0].witness is not None
        difference = reports[0].witness["difference"]
        assert difference["terms"]

    def test_reports_are_canonical_json(self):
        reports = run_grid(parse_grid_config("mn lambda=0 n=1 k=1 N=2"))
        text = reports[0].to_json()
        assert json.loads(text)["pass"] is True
        assert "wall_time" not in text


class TestSpecializationGridSample:
    def test_small_slice_of_full_grid(self):
        for size in range(5):
            for parts in brute_partitions(size):
                for n in (1, 2):
                    report = check_specialization(Partition(parts), n, 4)
                    assert report.passed, report.text()
