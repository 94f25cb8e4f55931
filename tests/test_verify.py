import json
from fractions import Fraction

import pytest

import loopschur.verify as verify_mod
from loopschur import (
    ConfigError,
    Monomial,
    Partition,
    Polynomial,
    PreconditionError,
    check_involution,
    check_specialization,
    classical_schur,
    default_grid_config,
    loop_power_sum,
    loop_schur,
    parse_grid_config,
    run_grid,
    specialize_forget_color,
    verify_degree_bound,
    verify_expansion,
    verify_murnaghan_nakayama,
)
from loopschur.shapes import BorderStripAddition, enumerate_border_strips

from conftest import brute_partitions


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
        assert classical_schur(Partition.of(3), 3) == verify_mod._homogeneous_basis(3, 3)[3]

    def test_module_caches_are_bounded(self):
        from loopschur import involutions

        for cached in (verify_mod._homogeneous_basis, verify_mod.classical_schur,
                       involutions._label_table):
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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_mode_needs_a_sample(self, samples):
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            check_involution("I1", Partition(), 1, 1, 2, mode="samples", samples=samples)
        line = f"involution which=I1 lambda=0 n=1 N=2 mode=samples samples={samples}"
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            run_grid(parse_grid_config(line))


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
