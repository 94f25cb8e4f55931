"""The README's entry-point table names only what the package exports."""

import re
from pathlib import Path

import loopschur

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_point_names():
    """The leading dotted name of every backticked item in the table that
    follows "The main entry points:"."""
    text = README.read_text().split("The main entry points:", 1)[1]
    rows = re.search(r"\n(\|.*\n)+", text).group(0)
    names = []
    for row in rows.splitlines()[3:]:  # skip the blank line, header and rule
        for item in re.findall(r"`([^`]+)`", row.split("|")[2]):
            name = re.match(r"[A-Za-z_][\w.]*", item)
            if name:
                names.append(name.group(0))
    return names


def test_entry_point_table_names_package_attributes():
    names = entry_point_names()
    assert "Polynomial.min_degree" in names and "slide_from_border_strip" in names
    for name in names:
        target = loopschur
        for part in name.split("."):
            assert hasattr(target, part), name
            target = getattr(target, part)
