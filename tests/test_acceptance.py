"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance (always
exact) and prints one PASS line; run with ``pytest -s`` to see the lines.
"""

import random
from fractions import Fraction

from loopschur import (
    Monomial,
    Partition,
    Polynomial,
    check_involution,
    classical_schur,
    default_grid_config,
    enumerate_border_strips,
    loop_power_sum,
    loop_schur,
    parse,
    parse_grid_config,
    serialize,
    specialize_forget_color,
    verify_degree_bound,
    verify_expansion,
    verify_murnaghan_nakayama,
    weight_monomial,
)
from loopschur.cli import main

from conftest import brute_partitions


def test_criterion_1_featured_monomial_reproduction():
    rows = ((1, 1, 2, 4), (2, 3, 3), (4, 4, 6), (7,))
    expected = Monomial.from_exponents({
        (0, 3 * 1): 1, (0, 3 * 3): 1, (0, 3 * 4): 1, (0, 3 * 6): 1, (0, 3 * 7): 1,
        (1, 3 * 1): 1, (1, 3 * 3): 1, (1, 3 * 4): 1,
        (2, 3 * 2): 2, (2, 3 * 4): 1,
    })
    assert weight_monomial(rows, Partition.of(4, 3, 3, 1), 3) == expected
    print("ACCEPTANCE 1: PASS - featured colored-tableau monomial reproduced exactly")


def test_criterion_2_power_sum_product_expansion_exact():
    lambdas = [(), (1,), (2, 1), (2, 2), (3, 1)]
    checked = 0
    for parts in lambdas:
        lam = Partition(parts)
        for n in (1, 2, 3):
            for k in (1, 2):
                if k * n > 4:
                    continue
                base = k * n + len(lam)
                for N in (base, base + 1):
                    report = verify_murnaghan_nakayama(lam, n, k, N)
                    assert report.passed, report.text()
                    assert report.witness is None
                    checked += 1
    assert checked == 50
    print(f"ACCEPTANCE 2: PASS - exact power-sum product expansion on {checked} instances")


def test_criterion_3_expansion_identities_by_exhaustion():
    checked = 0
    for parts in [(), (1,)]:
        lam = Partition(parts)
        for n in (1, 2):
            for N in (2, 3):
                for which in (1, 2, 3):
                    report = verify_expansion(which, lam, n, 1, N)
                    assert report.passed, report.text()
                    checked += 1
    assert checked == 24
    print(f"ACCEPTANCE 3: PASS - all {checked} exhaustive expansion-identity checks exact")


def test_criterion_4_involution_suite():
    grid = [(Partition(parts), n, N)
            for parts in [(), (1,)] for n in (1, 2) for N in (2, 3)]
    runs = 0
    for lam, n, N in grid:
        for which in ("I1", "I2", "I3"):
            report = check_involution(which, lam, n, 1, N)
            assert report.passed, report.text()
            assert report.details["failures"] == 0
            runs += 1
        # the fourth map needs a shift 1 <= l < n, so it runs on the n = 2 points
        for l in range(1, n):
            report = check_involution("I4", lam, n, 1, N, l=l)
            assert report.passed, report.text()
            runs += 1
    lam = Partition.of(2, 1)
    sampled = [("I1", 0), ("I2", 0), ("I3", 1), ("I4", 1), ("I4", 2)]
    for which, l in sampled:
        report = check_involution(which, lam, 3, 1, 5, l=l,
                                  mode="samples", samples=1000, seed=2024)
        assert report.passed, report.text()
        assert report.details["checked"] == 1000
        assert report.details["failures"] == 0
        runs += 1
    print(f"ACCEPTANCE 4: PASS - involution suite, {runs} exhaustive/sampled runs, zero failures")


def test_criterion_5_shifted_degree_floor_with_growth():
    lines = 0
    for parts in [(), (1,), (2, 1)]:
        lam = Partition(parts)
        for n in (2, 3):
            for l in range(1, n):
                achieved = []
                for N in range(n + len(lam) + 1, 9):
                    report = verify_degree_bound(lam, n, 1, N, l)
                    assert report.passed, report.text()
                    achieved.append(Fraction(report.details["achieved_min_degree"]))
                assert achieved == sorted(achieved), (lam, n, l, achieved)
                lines += 1
    assert lines == 9
    print(f"ACCEPTANCE 5: PASS - degree floor holds and grows on all {lines} parameter lines")


def test_criterion_6_classical_specialization():
    checked = 0
    for size in range(7):
        for parts in brute_partitions(size):
            lam = Partition(parts)
            for n in (1, 2, 3):
                for N in range(1, 7):
                    specialized = specialize_forget_color(loop_schur(lam, n, N))
                    assert specialized == classical_schur(lam, N), (lam, n, N)
                    checked += 1
    # forgetting colors carries a verified instance onto the classical rule
    for parts, n, k in [((1,), 2, 1), ((2, 1), 3, 1), ((2, 2), 2, 1)]:
        lam = Partition(parts)
        N = k * n + len(lam) + 1
        assert verify_murnaghan_nakayama(lam, n, k, N).passed
        classical_p = Polynomial(1, {
            Monomial.from_exponents({(0, j): k * n}): 1 for j in range(1, N + 1)
        })
        lhs = classical_p * classical_schur(lam, N)
        rhs = Polynomial.zero(1)
        for strip in enumerate_border_strips(lam, k * n):
            piece = classical_schur(strip.sigma, N)
            rhs = rhs + piece if strip.height % 2 == 0 else rhs - piece
        assert lhs == rhs
        assert specialize_forget_color(loop_power_sum(k, n, N) * loop_schur(lam, n, N)) == lhs
    print(f"ACCEPTANCE 6: PASS - specialization equals the determinant oracle on {checked} cases")


def test_criterion_7_determinism_and_format(capsys, tmp_path):
    corpus = [
        loop_schur(Partition.of(2, 1), 3, 4),
        loop_power_sum(2, 2, 3),
        Polynomial.zero(2),
        classical_schur(Partition.of(3, 1), 4),
    ]
    for poly in corpus:
        text = serialize(poly)
        assert parse(text) == poly
        assert serialize(parse(text)) == text
    config = tmp_path / "grid.cfg"
    config.write_text(default_grid_config()
                      + "involution which=I3 lambda=2,1 n=3 k=1 N=5 l=1 mode=samples samples=200 seed=9\n")
    outputs = []
    for _ in range(2):
        code = main(["grid", "--config", str(config), "--seed", "9", "--format", "structured"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode() == outputs[1].encode()
    print("ACCEPTANCE 7: PASS - bit-exact serialization and byte-identical grid runs")
