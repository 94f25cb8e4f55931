"""What one command-line call loads.  Each check runs as one ``loopschur`` call
in a fresh interpreter, so the standard-library modules the package imports
are part of every call's cost.  ``dataclasses`` (which brings ``inspect``,
``ast``, ``dis`` and ``tokenize``) and ``fractions`` (which brings
``decimal``) cost about 12 ms of a call's start and are not needed: the
records are slot classes and named tuples, and degrees are counted as
integers times n."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNWANTED = {"dataclasses", "inspect", "fractions", "decimal"}

# "status command": one call of each subcommand at a tiny size, and one cap refusal.
CALLS = [
    "0 schur --lambda 2,1 --n 3 --N 3 --l 1",
    "0 power-sum --k 1 --n 2 --N 2 --format structured",
    "0 border-strips --lambda 2,1 --k 1 --n 2",
    "0 mn-verify --lambda 1 --n 2 --k 1 --N 4",
    "0 thm2-verify --lambda 0 --n 2 --k 1 --N 1 --l 1 --format structured",
    "0 lemma-verify --which 3 --lambda 1 --n 2 --k 1 --N 3",
    "0 involution-check --which I4 --lambda 0 --n 2 --k 1 --N 3 --l 1 --exhaustive",
    "0 involution-check --which I2 --lambda 0 --n 2 --k 1 --N 4 --samples 3",
    "0 specialize-check --lambda 2,1 --n 3 --N 3",
    "0 grid --format structured",
    "2 lemma-verify --which 1 --lambda 1 --n 2 --N 3 --cap 10",
]

RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import loopschur.cli
for call in sys.argv[2:]:
    status, command = call.split(" ", 1)
    assert loopschur.cli.main(command.split()) == int(status), call
print(" ".join(sorted(sys.modules)))
"""


def loaded_modules(*args: str) -> set[str]:
    """The modules in ``sys.modules`` at the end of ``python -c``, given the code and its arguments."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_a_call_loads_neither_dataclasses_nor_fractions():
    bare = loaded_modules("import sys; print(' '.join(sorted(sys.modules)))")
    calls = loaded_modules(RUN, str(ROOT / "src"), *CALLS)
    loaded = calls - bare  # so that what site hooks load does not count
    assert {"argparse", "json", "loopschur.cli", "loopschur.verify"} <= loaded
    assert loaded & UNWANTED == set()
