"""Pinned sampled involution checks: the structured report of every sampled
``involution-check`` operation of the benchmark's workloads, at seeds 0-4,
and a digest of the members each one draws.

``tests/golden/sampled.json`` pins, per command line, the exit status, the
stdout and stderr bytes, and the SHA-256 of the drawn members ``(i, rows,
tau)`` in draw order.  A faster sampler or check must reproduce all of them.
To rewrite the file after an intended change of the draws, run
``PYTHONPATH=src python tests/test_sampled_pins.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from loopschur import Partition, sample_augmented_tableau, sample_staircase_tableau
from loopschur.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "sampled.json"

# The sampled involution-check operations of bench/workloads.py, without
# their seed: five of family_sampled, then those of mn_ladder and
# family_exhaustive.
OPERATIONS = [
    "involution-check --which I1 --lambda 2,1 --n 3 --N 7 --samples 200",
    "involution-check --which I2 --lambda 1 --n 2 --k 1 --N 7 --samples 200",
    "involution-check --which I3 --lambda 1 --n 2 --k 1 --N 7 --samples 200",
    "involution-check --which I4 --lambda 1 --n 3 --k 2 --N 7 --l 2 --samples 200",
    "involution-check --which I2 --lambda 0 --n 2 --k 1 --N 8 --samples 200",
    "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 4 --l 1 --samples 400",
    "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 4 --l 1 --samples 50",
]
CASES = [f"{op} --seed {seed} --format structured" for op in OPERATIONS for seed in range(5)]


def option(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def members_digest(command: str) -> str:
    """The SHA-256 of the members the check of ``command`` draws, drawn as the
    check draws them: one seeded generator, one sampler call per member."""
    argv = command.split()
    which = argv[argv.index("--which") + 1]
    lam = Partition.from_text(argv[argv.index("--lambda") + 1])
    n, k, N = option(argv, "--n", 1), option(argv, "--k", 1), option(argv, "--N", 0)
    l, samples = option(argv, "--l", 0), option(argv, "--samples", 0)
    rng = random.Random(option(argv, "--seed", 0))
    digest = hashlib.sha256()
    for _ in range(samples):
        if which == "I1":
            rows, tau, i = sample_staircase_tableau(lam, n, N, rng)
        else:
            rows, tau, i = sample_augmented_tableau(lam, n, k, N, rng, l if which == "I4" else 0)
        digest.update(repr((i, rows, tau)).encode())
    return digest.hexdigest()


def run_case(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(command.split())
        except SystemExit as exc:
            status = exc.code
    return {"status": status, "out": out.getvalue(), "err": err.getvalue(),
            "members": members_digest(command)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("command", CASES)
def test_sampled_check_matches_golden(command, golden):
    assert run_case(command) == golden[command]


if __name__ == "__main__":
    document = {command: run_case(command) for command in CASES}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
