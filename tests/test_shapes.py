import pytest

from loopschur import (
    BorderStripAddition,
    Partition,
    content_color,
    enumerate_border_strips,
    is_border_strip,
)
from loopschur.involutions import _row_lengths, validate_in_family
from loopschur.tableaux import staircase_cells, young_cells

from conftest import brute_partitions


class TestPartition:
    def test_parse_and_str(self):
        assert Partition.from_text("4,3,3,1").parts == (4, 3, 3, 1)
        assert Partition.from_text("").parts == ()
        assert Partition.from_text("0").parts == ()
        assert str(Partition.of(2, 1)) == "2,1"
        assert str(Partition()) == "0"

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition.of(1, 2)
        with pytest.raises(ValueError):
            Partition.of(0)
        with pytest.raises(ValueError):
            Partition.from_text("a,b")

    def test_part_beyond_length_is_zero(self):
        lam = Partition.of(3, 1)
        assert lam.part(1) == 3 and lam.part(2) == 1 and lam.part(5) == 0

    def test_containment(self):
        assert Partition.of(3, 2).contains(Partition.of(2, 2))
        assert not Partition.of(3).contains(Partition.of(1, 1))


class TestColoring:
    def test_top_left_is_color_zero(self):
        assert content_color(1, 1, 3) == 0

    def test_third_row_first_column(self):
        assert content_color(3, 1, 3) == 1

    def test_negative_content_canonicalized(self):
        # cells of content -1, e.g. (1, 0) and (2, 1)
        for n in (1, 2, 3, 5):
            assert content_color(1, 0, n) == (n - 1) % n
            assert content_color(2, 1, n) == (n - 1) % n

    def test_constant_along_diagonals(self):
        for n in (1, 2, 3, 4):
            for r in range(1, 7):
                for c in range(-6, 7):
                    assert content_color(r, c, n) == content_color(r + 1, c + 1, n)


class TestExtendedShapes:
    """Row r of the staircase extension with N rows spans columns r - N ..
    lam_r, plus any appended cells: ``_row_lengths`` gives the row lengths and
    ``staircase_cells`` the cells, whose content c - r shows up as the
    weight offset l * content at l = 1."""

    def test_staircase_row_lengths(self):
        assert _row_lengths(Partition.of(2, 1), 5) == (7, 5, 3, 2, 1)

    def test_empty_partition_single_cell(self):
        assert _row_lengths(Partition(), 1) == (1,)
        assert staircase_cells(Partition(), 1, 0, 2, 1) == (((1, -1),),)  # column 0

    def test_column_rule_by_hand(self):
        # cells (1, -1), (1, 0), (1, 1) and (2, 0): contents -2, -1, 0 and -2
        assert _row_lengths(Partition.of(1), 2) == (3, 1)
        row = ((0, -2), (1, -1), (0, 0))
        assert staircase_cells(Partition.of(1), 2, 0, 2, 1) == (row, row)

    def test_restriction_to_positive_columns_is_young_diagram(self):
        # Column c >= 1 of row r is index q = N - r + c of the row, content c - r.
        lam, N, n = Partition.of(3, 2, 2, 1), 6, 2
        for l in range(n):
            rows = staircase_cells(lam, N, 0, n, l)
            positive = tuple(rows[r - 1][N - r + 1:N - r + 1 + p]
                             for r, p in enumerate(lam.parts, start=1))
            assert positive == young_cells(lam, n, l)

    def test_staircase_cell_count(self):
        for N in range(1, 8):
            assert sum(_row_lengths(Partition(), N)) == N * (N + 1) // 2

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError):
            _row_lengths(Partition.of(1, 1), 1)
        with pytest.raises(ValueError):
            staircase_cells(Partition.of(1, 1), 1, 0, 1)

    def test_extended_row_example(self):
        lam, N, n = Partition.of(2, 1), 5, 3
        assert _row_lengths(lam, N, 3, 4)[3] == 5
        # row 4 starts at column -1, content -5, and its five cells end at column 3
        assert staircase_cells(lam, N, 3, n, 1)[3][:5] == (
            (1, -5), (2, -4), (0, -3), (1, -2), (2, -1))

    def test_extended_row_smallest(self):
        assert _row_lengths(Partition(), 1, 1, 1) == (2,)
        assert staircase_cells(Partition(), 1, 1, 2, 1) == (((1, -1), (0, 0)),)  # columns 0, 1

    def test_cached_row_lengths_are_the_formula(self):
        # Every validated image reads the cache; a hit must equal a cold call.
        for lam in (Partition(), Partition.of(1), Partition.of(2, 1)):
            for N in range(len(lam), 5):
                for d, i in [(0, 0)] + [(2, i) for i in range(1, N + 1)]:
                    expected = tuple(lam.part(r) + N - r + 1 + (d if r == i else 0)
                                     for r in range(1, N + 1))
                    assert _row_lengths.__wrapped__(lam, N, d, i) == expected
                    assert _row_lengths(lam, N, d, i) == _row_lengths(lam, N, d, i) == expected

    def test_zero_extension_degenerates(self):
        assert _row_lengths(Partition.of(1), 3, 0, 2) == _row_lengths(Partition.of(1), 3)

    def test_row_index_validated(self):
        rows = ((1, 1, 1), (2,))
        with pytest.raises(ValueError, match="lengthened row 3"):
            validate_in_family((rows, (1, 2), 3), Partition(), 2, 1)


class TestBorderStrips:
    def test_empty_partition_length_three(self):
        strips = enumerate_border_strips(Partition(), 3)
        assert strips == [
            BorderStripAddition(Partition.of(1, 1, 1), 2),
            BorderStripAddition(Partition.of(2, 1), 1),
            BorderStripAddition(Partition.of(3), 0),
        ]

    def test_single_box_length_two(self):
        strips = enumerate_border_strips(Partition.of(1), 2)
        assert strips == [
            BorderStripAddition(Partition.of(1, 1, 1), 1),
            BorderStripAddition(Partition.of(3), 0),
        ]

    def test_length_one_gives_addable_corners(self):
        lam = Partition.of(4, 2, 2, 1)
        strips = enumerate_border_strips(lam, 1)
        corners = {b.sigma for b in strips}
        assert corners == {
            Partition.of(5, 2, 2, 1),
            Partition.of(4, 3, 2, 1),
            Partition.of(4, 2, 2, 2),
            Partition.of(4, 2, 2, 1, 1),
        }
        assert all(b.height == 0 for b in strips)

    def test_is_border_strip_examples(self):
        assert not is_border_strip(Partition.of(2, 1), Partition.of(1), 2)
        assert is_border_strip(Partition.of(3), Partition.of(1), 2)
        assert not is_border_strip(Partition.of(2, 2), Partition(), 4)

    # The first six shapes and five lengths come first so that their ids stay
    # put; the rest cover every lam with |lam| <= 6 and every m <= 6.  The
    # largest case, |sigma| = 14, filters 135 partitions.
    @pytest.mark.parametrize("lam", [(), (1,), (2, 1), (3, 3, 1), (4, 2, 1, 1), (2, 2, 2)] + [
        p for total in range(7) for p in brute_partitions(total)
        if p not in {(), (1,), (2, 1), (2, 2, 2)}
    ])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force_filter(self, lam, m):
        lam = Partition(lam)
        total = lam.size + m
        expected = sorted(
            Partition(p) for p in brute_partitions(total) if is_border_strip(Partition(p), lam, m)
        )
        got = enumerate_border_strips(lam, m)
        assert [b.sigma for b in got] == expected
        for b in got:
            assert is_border_strip(b.sigma, lam, m)
            occupied = [r for r in range(1, len(b.sigma) + 1) if b.sigma.part(r) > lam.part(r)]
            assert b.height == len(occupied) - 1

    @pytest.mark.parametrize("lam", [(), (1,), (3, 1), (2, 2, 1)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_height_bounds_and_signatures(self, lam, m):
        lam = Partition(lam)
        strips = enumerate_border_strips(lam, m)
        signatures = set()
        for b in strips:
            assert 0 <= b.height <= m - 1
            occupied = [r for r in range(1, len(b.sigma) + 1) if b.sigma.part(r) > lam.part(r)]
            assert b.height == len(occupied) - 1
            signature = (occupied[0], b.height)
            assert signature not in signatures
            signatures.add(signature)
