"""Golden command-line outputs: stdout, stderr and exit status of every
subcommand on small inputs, and of the default grid.

``tests/golden/cli.json`` pins the bytes.  Wall times in ``--timings`` lines
are masked.  Help text is rendered at a fixed terminal width.  To rewrite the
golden file after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from loopschur.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
COLUMNS = "80"

CASES = [
    # schur, power-sum, border-strips
    "schur --lambda 2,1 --n 3 --N 5",
    "schur --lambda 2,1 --n 3 --N 4 --format structured",
    "schur --lambda 2 --n 2 --N 1 --l 1",
    "schur --lambda 1 --n 2 --N 2 --l 5",
    "schur --lambda 1,2 --n 1 --N 2",
    "schur --lambda 1 --n 2",
    "schur --lambda 1 --n 2 --N x",
    "schur --lambda 3,2 --n 3 --N 5 --l 1 --format structured",
    "schur --lambda 3,2 --n 3 --N 4 --l 2",
    "power-sum --k 2 --n 3 --N 5",
    "power-sum --k 1 --n 2 --N 2 --format structured",
    "power-sum --k 2 --n 3 --N 4 --format structured",
    "border-strips --lambda 2,1 --k 1 --n 3",
    "border-strips --lambda 0 --k 3 --format structured",
    # mn-verify
    "mn-verify --lambda 2,1 --n 3 --k 1 --N 5",
    "mn-verify --lambda 1 --n 2 --k 1 --N 4 --format structured",
    "mn-verify --lambda 0 --n 1 --k 1 --N 2 --timings",
    "mn-verify --lambda 2,1 --n 3 --k 1 --N 3",
    "mn-verify --lambda 1 --n 2 --k 0 --N 4",
    "mn-verify --lambda 1 --n x --k 1 --N 4",
    "mn-verify --lambda 1,x --n 2 --k 1 --N 4",
    "mn-verify --lambda 1 --n 2 --N 4",
    # thm2-verify
    "thm2-verify --lambda 0 --n 2 --k 1 --N 6 --l 1",
    "thm2-verify --lambda 1 --n 3 --k 1 --N 6 --l 2 --format structured",
    "thm2-verify --lambda 0 --n 2 --k 1 --N 4 --l 0",
    "thm2-verify --lambda 0 --n 2 --k 1 --N 4",
    "thm2-verify --lambda 0 --n 2 --k 1 --N 4 --l 2",
    # an empty sum (infinite degree) with negative bounds, and bounds that are fractions
    "thm2-verify --lambda 0 --n 3 --k 2 --N 0 --l 2",
    "thm2-verify --lambda 0 --n 3 --k 2 --N 0 --l 2 --format structured",
    "thm2-verify --lambda 0 --n 2 --k 1 --N 1 --l 1",
    "thm2-verify --lambda 0 --n 2 --k 1 --N 1 --l 1 --format structured",
    # lemma-verify
    "lemma-verify --which 1 --lambda 1 --n 2 --N 3",
    "lemma-verify --which 2 --lambda 0 --n 1 --k 1 --N 2 --format structured",
    "lemma-verify --which 3 --lambda 1 --n 2 --k 1 --N 3 --timings",
    "lemma-verify --which 1 --lambda 1 --n 2 --N 3 --cap 10",
    "lemma-verify --which 2 --lambda 0 --n 2 --k 1 --N 9",
    "lemma-verify --which 4 --lambda 1 --n 2 --N 3",
    "lemma-verify --which 2 --lambda 0 --n 2 --k 1 --N 4 --format structured",
    "lemma-verify --which 1 --lambda 1 --n 2 --N 4",
    "lemma-verify --which 1 --lambda 1 --n 2 --N 4 --format structured",
    "lemma-verify --which 3 --lambda 1 --n 2 --k 1 --N 3 --format structured",
    # involution-check
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --exhaustive",
    "involution-check --which I2 --lambda 0 --n 1 --k 1 --N 2",
    "involution-check --which I3 --lambda 1 --n 2 --k 1 --N 3 --exhaustive --format structured",
    "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 3 --l 1 --exhaustive",
    "involution-check --which I4 --lambda 2,1 --n 3 --N 5 --l 1 --samples 20 --seed 3",
    "involution-check --which I1 --lambda 2,1 --n 3 --N 6 --samples 5 --seed 9 --format structured",
    "involution-check --which I2 --lambda 0 --n 2 --k 1 --N 10 --samples 3 --timings",
    "involution-check --which I3 --lambda 1 --n 2 --k 1 --N 6 --samples 4 --seed 2",
    "involution-check --which I4 --lambda 0 --n 2 --N 3 --exhaustive",
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --cap 10",
    "involution-check --which I5 --lambda 1 --n 2 --N 3",
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --exhaustive --samples 5",
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --samples x",
    "involution-check --which I4 --lambda 0 --n 2 --k 3 --N 2 --l 1",
    "involution-check --which I4 --lambda 0 --n 2 --k 3 --N 2 --l 1 --samples 3",
    # the benchmark's exhaustive map checks, at the sizes it runs them
    "involution-check --which I1 --lambda 1 --n 2 --N 4 --exhaustive --format structured",
    "involution-check --which I2 --lambda 0 --n 1 --k 1 --N 4 --exhaustive --format structured",
    "involution-check --which I3 --lambda 0 --n 1 --k 1 --N 4 --exhaustive --format structured",
    "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 4 --l 1 --exhaustive --format structured",
    # the benchmark's mn_ladder report checks, at the sizes it runs them
    "mn-verify --lambda 3,1 --n 2 --k 2 --N 7 --format structured",
    "mn-verify --lambda 2,2,1 --n 2 --k 1 --N 7 --format structured",
    "mn-verify --lambda 2,1 --n 3 --k 1 --N 8 --format structured",
    "thm2-verify --lambda 2,1 --n 3 --k 1 --N 7 --l 1 --format structured",
    "thm2-verify --lambda 2,1 --n 3 --k 1 --N 7 --l 2 --format structured",
    "specialize-check --lambda 3,2,1 --n 3 --N 6 --format structured",
    # loop Schur functions of shapes with equal rows
    "schur --lambda 3,3 --n 3 --N 3 --l 1 --format structured",
    "schur --lambda 2,2,2 --n 3 --N 4",
    "schur --lambda 4,4 --n 2 --N 3",
    # specialize-check
    "specialize-check --lambda 3,1 --n 2 --N 4",
    "specialize-check --lambda 2,1 --n 3 --N 4 --format structured",
    # grid
    "grid",
    "grid --format structured",
    "grid --seed 5",
    "grid --seed 5 --format structured",
    "grid --cap 3",
    "grid --timings",
    "grid --config /nonexistent/grid.cfg",
    # help
    "--help",
    "mn-verify --help",
    "thm2-verify --help",
    "lemma-verify --help",
    "involution-check --help",
    "specialize-check --help",
    "grid --help",
]


def run_case(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(command.split())
        except SystemExit as exc:
            status = exc.code
    masked = re.sub(r" \d+\.\d+s$", " <time>s", err.getvalue(), flags=re.MULTILINE)
    return {"status": status, "out": out.getvalue(), "err": masked}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("command", CASES)
def test_cli_output_matches_golden(command, golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run_case(command) == golden[command]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.parent.mkdir(exist_ok=True)
    document = {command: run_case(command) for command in CASES}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
