"""Tests of the benchmark's oracles and output checks.

Run with ``python3 -m pytest bench``.  The oracles are compared with values
checked by hand and with brute-force counts written from the definitions.
"""

from __future__ import annotations

import json
import random
from itertools import permutations, product
from math import comb

import checks
import oracles

SMALL_PARTITIONS = [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2)]


def brute_ssyt(parts, N):
    cells = [(r, c) for r, p in enumerate(parts) for c in range(p)]
    found = []
    for values in product(range(1, N + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        if all(t[r, c - 1] <= t[r, c] for r, c in cells if c) and \
                all(t[r - 1, c] < t[r, c] for r, c in cells if r):
            found.append(t)
    return found


def brute_family_size(parts, N, extra=0, row=0, top=None):
    total = 0
    for tau in permutations(range(1, N + 1)):
        w = 1
        for r in range(1, N + 1):
            length = (parts[r - 1] if r <= len(parts) else 0) + N - r + 1
            hi = N
            if r == row:
                length += extra
                hi = N if top is None else top
            w *= comb(hi - tau[r - 1] + length, length) if hi >= tau[r - 1] else 0
        total += w
    return total


def test_hand_checked_values():
    assert oracles.base_family_size((1,), 4) == 13_140
    assert oracles.augmented_family_size((), 1, 1, 4) == 53_870
    assert oracles.low_family_size((), 1, 2, 4, 1) == 21_138
    assert oracles.base_family_size((), 4) == 9_391
    assert 4 * oracles.base_family_size((), 4) == 37_564
    assert oracles.hook_content((3, 2), 7) == 882


def test_permanent_matches_permutation_sum():
    rng = random.Random(5)
    for n in range(0, 6):
        m = [[rng.randrange(-3, 7) for _ in range(n)] for _ in range(n)]
        expected = 0
        for sigma in permutations(range(n)):
            term = 1
            for i, j in enumerate(sigma):
                term *= m[i][j]
            expected += term
        assert oracles.permanent(m) == expected


def test_family_sizes_match_labeling_sums():
    for parts in [(), (1,), (2, 1)]:
        for N in range(len(parts), 5):
            if N == 0:
                continue
            assert oracles.base_family_size(parts, N) == brute_family_size(parts, N)
            for k, n in [(1, 1), (1, 2), (2, 1)]:
                assert oracles.augmented_family_size(parts, k, n, N) == sum(
                    brute_family_size(parts, N, k * n, i) for i in range(1, N + 1))
                for l in range(1, n):
                    assert oracles.low_family_size(parts, k, n, N, l) == sum(
                        brute_family_size(parts, N, k * n, i, N - k * l)
                        for i in range(1, N + 1))


def test_hook_content_counts_ssyt():
    for parts in SMALL_PARTITIONS:
        for N in range(0, 4):
            assert oracles.hook_content(parts, N) == len(brute_ssyt(parts, N)), (parts, N)


def test_dominated_weight_count_counts_ssyt_weights():
    for parts in SMALL_PARTITIONS:
        for N in range(1, 4):
            weights = {tuple(list(t.values()).count(v) for v in range(1, N + 1))
                       for t in brute_ssyt(parts, N)}
            assert oracles.dominated_weight_count(parts, N) == len(weights), (parts, N)


def brute_border_strips(parts, m):
    size = sum(parts) + m
    found = []
    for sigma in _partitions_of(size):
        padded = list(sigma) + [0] * (len(parts) - len(sigma))
        if any(padded[r] < (parts[r] if r < len(parts) else 0) for r in range(len(padded))):
            continue
        cells = {(r, c) for r in range(len(sigma))
                 for c in range((parts[r] if r < len(parts) else 0), sigma[r])}
        if any({(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells for r, c in cells):
            continue
        seen, stack = set(), [next(iter(cells))]
        while stack:
            r, c = stack.pop()
            if (r, c) in seen:
                continue
            seen.add((r, c))
            stack += [x for x in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)) if x in cells]
        if seen == cells:
            found.append((sigma, len({r for r, _ in cells}) - 1))
    return sorted(found)


def _partitions_of(total, largest=None):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in _partitions_of(total - first, first):
            yield (first,) + rest


def test_border_strips_match_the_definition():
    for parts in SMALL_PARTITIONS:
        for m in range(1, 5):
            assert oracles.border_strips(parts, m) == brute_border_strips(parts, m), (parts, m)


def test_checks_catch_wrong_outputs():
    argv = "involution-check --which I1 --lambda 1 --n 2 --N 4 --exhaustive --format structured".split()
    report = {"check": "involution-check", "pass": True, "witness": None,
              "params": {"which": "I1", "lambda": "1", "n": 2, "k": 1, "N": 4, "mode": "exhaustive"},
              "details": {"checked": 13_140, "fixed": 4, "moved": 13_136, "failures": 0}}
    assert checks.check_op(argv, 0, json.dumps(report), "") == []
    report["details"].update(checked=13_141, moved=13_137)
    assert checks.check_op(argv, 0, json.dumps(report), "")
    assert checks.check_op(argv, 2, "", "error: family has 13140 members")

    refusal = "lemma-verify --which 1 --lambda 2,1 --n 2 --N 9 --format structured".split()
    assert checks.expected_status(refusal) == 2
    cited = oracles.base_family_size((2, 1), 9)
    message = f"error: family has {cited} members, above the cap of 10000000\n"
    assert checks.check_op(refusal, 2, "", message) == []
    assert checks.check_op(refusal, 2, "", message.replace(str(cited), str(cited + 1)))

    schur = "schur --lambda 1 --n 1 --N 2 --format structured".split()
    good = '{"n":1,"terms":[{"coeff":"1","vars":[{"color":0,"exp":1,"weight_num":1}]},' \
           '{"coeff":"1","vars":[{"color":0,"exp":1,"weight_num":2}]}]}\n'
    assert checks.check_op(schur, 0, good, "") == []
    assert checks.check_op(schur, 0, good.replace('"coeff":"1"', '"coeff":"2"', 1), "")
