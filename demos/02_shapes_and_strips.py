"""Partitions, content coloring, staircase extensions, and border strips."""

from loopschur import Partition, content_color, enumerate_border_strips, is_border_strip

lam = Partition.of(4, 3, 3, 1)
n = 3

# The color of a cell is its content (col - row) mod n; colors are constant
# along diagonals.
print(f"coloring of {lam} mod {n}:")
for r in range(1, len(lam) + 1):
    line = " ".join(str(content_color(r, c, n)) for c in range(1, lam.part(r) + 1))
    print("  " + line)

# The staircase extension with N rows prepends N - r + 1 cells to row r,
# ending at column 0: row r spans columns r - N .. lam_r, so row lengths
# strictly decrease.  A family is named by plain parameters (lam, N, d), d
# being the cells appended to one row; there is no shape object.
base, N = Partition.of(2, 1), 5
print(f"staircase extension of {base} with N={N} has row lengths:",
      [base.part(r) + N - r + 1 for r in range(1, N + 1)])
print("row 3 spans columns", (3 - N, base.part(3)))
print("and is colored", [content_color(3, c, n) for c in range(3 - N, base.part(3) + 1)])

# Appending k*n cells to one row gives the shapes the pairing maps act on.
d, i = 3, 4
print(f"after appending {d} cells to row {i}:",
      [base.part(r) + N - r + 1 + (d if r == i else 0) for r in range(1, N + 1)])

# Border strips: connected skew shapes with no 2x2 block.  The height is
# the number of occupied rows minus one, and it drives the signs in the
# expansion identities.
print("length-3 strips on the empty partition:")
for strip in enumerate_border_strips(Partition(), 3):
    print(f"  sigma={strip.sigma}  height={strip.height}")

# The predicate checks the definition directly on the cell set.
print("is (2,1) \\ (1) a 2-strip?", is_border_strip(Partition.of(2, 1), Partition.of(1), 2))
print("is (3) \\ (1) a 2-strip?  ", is_border_strip(Partition.of(3), Partition.of(1), 2))
