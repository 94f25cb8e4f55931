"""The subset-table counters and samplers against N!-sized reference versions.

The references below sum over all N! labelings and draw a labeling by
bisecting a cumulative weight table, as the package once did.  The fast path
must give the same counts and, for the same seed, the same members.
"""

import bisect
import math
import random
from itertools import accumulate, combinations_with_replacement, permutations, product

import pytest

from loopschur import (
    CapExceededError,
    Partition,
    count_augmented_tableaux,
    count_staircase_tableaux,
    enumerate_augmented_tableaux,
    in_low_family,
    sample_augmented_tableau,
    sample_staircase_tableau,
    validate_in_family,
)
from loopschur.involutions import (
    _augmented_table,
    _label_table,
    _row_lengths,
    count_weakly_increasing,
    subset_expansion,
)

PARTITIONS = [(), (1,), (2,), (1, 1), (2, 1)]  # every lambda inside (2,1)
RING = [(n, k) for n in (1, 2, 3) for k in (1, 2)]
SIZES = [(lam, N) for lam in PARTITIONS for N in range(max(1, len(lam)), 7)]


def low_family_size(lam, n, k, N, l):
    """Members whose lengthened row stays at or below N - k*l, from the table
    the low-family sampler draws with."""
    return _augmented_table(lam, n, k, N, l).lengthened[-1]


def reference_bounds(lam, N, extra=0, row=0, top=None):
    lengths = [lam.part(r) + (N - r + 1) + (extra if r == row else 0) for r in range(1, N + 1)]
    his = [top if r == row and top is not None else N for r in range(1, N + 1)]
    return lengths, his


def reference_weight(tau, lengths, his):
    w = 1
    for label, length, hi in zip(tau, lengths, his):
        w *= count_weakly_increasing(label, hi, length)
    return w


def reference_count_staircase(lam, N):
    lengths, his = reference_bounds(lam, N)
    return sum(reference_weight(tau, lengths, his) for tau in permutations(range(1, N + 1)))


def reference_count_augmented(lam, n, k, N, top=None):
    total = 0
    for i in range(1, N + 1):
        lengths, his = reference_bounds(lam, N, k * n, i, top)
        total += sum(reference_weight(tau, lengths, his) for tau in permutations(range(1, N + 1)))
    return total


def reference_staircase_table(lam, N):
    lengths, his = reference_bounds(lam, N)
    choices = [(0, lengths, his, tau) for tau in permutations(range(1, N + 1))]
    return choices, list(accumulate(reference_weight(tau, lengths, his) for *_, tau in choices))


def reference_augmented_table(lam, n, k, N, top=None):
    choices = []
    for i in range(1, N + 1):
        lengths, his = reference_bounds(lam, N, k * n, i, top)
        choices += [(i, lengths, his, tau) for tau in permutations(range(1, N + 1))]
    # the sampler's order: row by row, each row's label, then whether it is lengthened
    choices.sort(key=lambda choice: [(t, r == choice[0]) for r, t in enumerate(choice[3], start=1)])
    weights = [reference_weight(tau, lengths, his) for _, lengths, his, tau in choices]
    return choices, list(accumulate(weights))


def reference_draw(table, rng):
    """Bisect the cumulative table for the labeling, then index each row in
    the list of its fillings, in lexicographic order.

    Returns (lengthened row, rows, tau); the lengthened row is 0 on the base
    family, as in a sampled member.
    """
    choices, cumulative = table
    i, lengths, his, tau = choices[bisect.bisect_right(cumulative, rng.randrange(cumulative[-1]))]
    rows = []
    for label, length, hi in zip(tau, lengths, his):
        fillings = list(combinations_with_replacement(range(label, hi + 1), length))
        rows.append(fillings[rng.randrange(len(fillings))])
    return i, tuple(rows), tau


class TestCounts:
    @pytest.mark.parametrize("lam,N", SIZES)
    def test_base_count_matches_labeling_sum(self, lam, N):
        lam = Partition(lam)
        assert count_staircase_tableaux(lam, N) == reference_count_staircase(lam, N)

    @pytest.mark.parametrize("n,k", RING)
    @pytest.mark.parametrize("lam,N", SIZES)
    def test_augmented_count_matches_labeling_sum(self, lam, N, n, k):
        lam = Partition(lam)
        assert count_augmented_tableaux(lam, n, k, N) == reference_count_augmented(lam, n, k, N)

    @pytest.mark.parametrize("lam,n,k,N,l", [((), 2, 1, 3, 1), ((1,), 3, 1, 4, 2), ((2, 1), 3, 2, 5, 1)])
    def test_low_count_matches_labeling_sum(self, lam, n, k, N, l):
        lam = Partition(lam)
        expected = reference_count_augmented(lam, n, k, N, top=N - k * l)
        assert low_family_size(lam, n, k, N, l) == expected

    def test_modulus_comes_before_the_exponent(self):
        # k*n cells are appended either way round; the low family's bound
        # N - k*l tells n from k, so a swapped call would count another family.
        lam, n, k, N, l = Partition.of(1), 3, 1, 4, 1
        expected = reference_count_augmented(lam, n, k, N, top=N - k * l)
        assert count_augmented_tableaux(lam, n, k, N, l) == expected
        assert count_augmented_tableaux(lam, k, n, N, l) != expected

    @pytest.mark.parametrize("build", [
        lambda lam, N: count_staircase_tableaux(lam, N),
        lambda lam, N: count_augmented_tableaux(lam, 1, 1, N),
        lambda lam, N: sample_staircase_tableau(lam, 1, N, 0),
    ], ids=["base_count", "augmented_count", "base_sampler"])
    def test_too_few_rows_are_refused_before_any_table(self, build):
        # N = 1 leaves the second part of (2, 1) without a row: no such family.
        _label_table.cache_clear()
        with pytest.raises(ValueError, match="need N >= 2 rows for partition 2,1, got 1"):
            build(Partition.of(2, 1), 1)
        assert _label_table.cache_info().currsize == 0

    def test_one_table_per_augmented_family(self):
        _label_table.cache_clear()
        count_augmented_tableaux(Partition.of(1), 2, 1, 6)
        assert _label_table.cache_info().currsize == 1
        _label_table.cache_clear()
        with pytest.raises(CapExceededError):
            next(enumerate_augmented_tableaux(Partition.of(1), 2, 1, 6, cap=1))
        assert _label_table.cache_info().currsize == 1


def reference_label_table(lam, N, d, top):
    """Both parts of the label table from their definitions: the plain part is
    the unsigned expansion of the fillings matrix, and entry S of the ε part
    sums, over the last |S| rows i, the expansion with row i replaced by the
    longer row."""
    lengths, _ = reference_bounds(lam, N)
    fillings = [[count_weakly_increasing(t, N, length) for t in range(1, N + 1)] for length in lengths]
    longer = [[count_weakly_increasing(t, top, length + d) for t in range(1, N + 1)] for length in lengths]
    subsets = subset_expansion(fillings, 0, 1)
    replaced = [subset_expansion(fillings[:i] + [longer[i]] + fillings[i + 1:], 0, 1) for i in range(N)]
    lengthened = [sum(replaced[i][S] for i in range(N - S.bit_count(), N)) for S in range(1 << N)]
    return fillings, longer, subsets, lengthened


class TestLabelTable:
    @pytest.mark.parametrize("top_below", [0, 1, 3])
    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("lam", PARTITIONS)
    def test_every_entry_matches_its_definition(self, lam, d, top_below):
        lam = Partition(lam)
        for N in range(len(lam), 9):
            table = _label_table(lam, N, d, N - top_below)
            fillings, longer, subsets, lengthened = reference_label_table(lam, N, d, N - top_below)
            assert (table.d, table.top) == (d, N - top_below)
            assert table.fillings == tuple(map(tuple, fillings))
            assert table.longer == tuple(map(tuple, longer))
            assert table.subsets == tuple(subsets)
            assert table.lengthened == tuple(lengthened)


class TestDraws:
    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("lam,N", SIZES)
    def test_base_draws_match_bisected_table(self, lam, N, n):
        lam = Partition(lam)
        table = reference_staircase_table(lam, N)
        for seed in range(200):
            rows, tau, i = sample_staircase_tableau(lam, n, N, seed)
            assert (i, rows, tau) == reference_draw(table, random.Random(seed))

    @pytest.mark.parametrize("n,k", RING)
    @pytest.mark.parametrize("lam,N", SIZES)
    def test_augmented_draws_match_bisected_table(self, lam, N, n, k):
        lam = Partition(lam)
        table = reference_augmented_table(lam, n, k, N)
        for seed in range(200):
            rows, tau, i = sample_augmented_tableau(lam, n, k, N, seed)
            assert (i, rows, tau) == reference_draw(table, random.Random(seed))

    @pytest.mark.parametrize("lam,n,k,N,l", [
        ((), 2, 1, 3, 1), ((), 3, 1, 3, 2), ((1,), 3, 1, 4, 2), ((1,), 2, 1, 5, 1),
        ((2, 1), 3, 2, 5, 1), ((1, 1), 1, 2, 6, 2),
    ])
    def test_low_draws_match_bisected_table(self, lam, n, k, N, l):
        lam = Partition(lam)
        table = reference_augmented_table(lam, n, k, N, top=N - k * l)
        for seed in range(200):
            rows, tau, i = sample_augmented_tableau(lam, n, k, N, seed, l)
            assert (i, rows, tau) == reference_draw(table, random.Random(seed))


def reference_unrank(lo, hi, length, index):
    """The row unranking the samplers used before the block was carried from
    place to place: one ``math.comb`` per place."""
    seq, value = [], lo
    for rest in range(length - 1, -1, -1):
        a = hi - value + rest
        block = math.comb(a, rest)
        while index >= block:
            index -= block
            block = block * (a - rest) // a
            a -= 1
            value += 1
        seq.append(value)
    return tuple(seq)


def reference_subset_draw(lam, N, table, seed):
    """The samplers' draw before the flat label walk, kept as it was: each
    free label's choices come from ``product``, each row's length from
    ``_row_lengths``, and each row from :func:`reference_unrank`."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    d, top, fillings, longer, subsets, lengthened = (
        table.d, table.top, table.fillings, table.longer, table.subsets, table.lengthened)
    placed = not d  # whether the rows below need no lengthened row
    total = (subsets if placed else lengthened)[-1]
    if total <= 0:
        raise ValueError("family is empty")
    index, free, tau, i = rng.randrange(total), (1 << N) - 1, [], 0
    labels = list(range(N))  # the free labels, lowest first: the set bits of free
    for r in range(N):
        for t, here in product(labels, (False,) if placed else (False, True)):
            count = (longer if here else fillings)[r][t]
            block = count * (subsets if placed or here else lengthened)[free ^ (1 << t)]
            if index < block:
                break
            index -= block
        labels.remove(t)
        tau.append(t + 1)
        free ^= 1 << t
        index //= count
        if here:
            i, placed = r + 1, True
    rows = []
    for r, (t, length) in enumerate(zip(tau, _row_lengths(lam, N))):
        hi, length, counts = (top, length + d, longer) if r + 1 == i else (N, length, fillings)
        rows.append(reference_unrank(t, hi, length, rng.randrange(counts[r][t - 1])))
    return tuple(rows), tuple(tau), i


class TestDrawsAtSampledSizes:
    """At the sizes that sampled checks run, where no N!-sized reference fits,
    each seed draws the member that the walk before the flat label walk drew."""

    @pytest.mark.parametrize("lam,n,k,N,l", [((2, 1), 3, 0, 9, 0), ((1,), 2, 1, 9, 0),
                                             ((1,), 3, 2, 8, 2)], ids=["base", "augmented", "low"])
    def test_draws_match_the_earlier_walk(self, lam, n, k, N, l):
        lam = Partition(lam)
        table = _augmented_table(lam, n, k, N, l) if k else _label_table(lam, N)
        for seed in range(500):
            drawn = (sample_augmented_tableau(lam, n, k, N, seed, l) if k
                     else sample_staircase_tableau(lam, n, N, seed))
            assert drawn == reference_subset_draw(lam, N, table, seed)


class TestLowFamily:
    def test_count_matches_filtered_enumeration(self):
        lam, n, k, N, l = Partition(), 2, 1, 4, 1
        enumerated = sum(1 for m in enumerate_augmented_tableaux(lam, n, k, N)
                         if in_low_family(m, k * l))
        assert enumerated == 21_138
        assert low_family_size(lam, n, k, N, l) == 21_138

    @pytest.mark.parametrize("lam,n,k,N,l", [((), 2, 1, 4, 1), ((2, 1), 3, 1, 5, 1), ((1,), 3, 2, 7, 2)])
    def test_draws_are_low_members(self, lam, n, k, N, l):
        lam = Partition(lam)
        rng = random.Random(9)
        for _ in range(300):
            m = sample_augmented_tableau(lam, n, k, N, rng, l)
            validate_in_family(m, lam, N, k * n)
            assert in_low_family(m, k * l)

    def test_uniformity_within_three_sigma(self):
        # every member of the 18-element low family should appear ~200 times
        lam, n, k, N, l = Partition(), 3, 1, 3, 2
        population = {m: 0 for m in enumerate_augmented_tableaux(lam, n, k, N)
                      if in_low_family(m, k * l)}
        assert len(population) == low_family_size(lam, n, k, N, l) == 18
        draws = 3600
        rng = random.Random(1414)
        for _ in range(draws):
            population[sample_augmented_tableau(lam, n, k, N, rng, l)] += 1
        expected = draws / 18
        sigma = math.sqrt(draws * (1 / 18) * (17 / 18))
        for count in population.values():
            assert abs(count - expected) <= 3 * sigma

    def test_empty_low_family_is_refused(self):
        # N - k*l = 0 leaves no entry for the lengthened row
        assert low_family_size(Partition(), 2, 1, 2, 2) == 0
        with pytest.raises(ValueError, match="empty"):
            sample_augmented_tableau(Partition(), 2, 1, 2, 0, 2)
