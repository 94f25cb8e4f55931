"""Measure reach: the largest N that each check kind settles within 10 s.

usage: python3 bench/reach.py

Each probe is one ``loopschur`` command in its own interpreter, timed from
process start to exit.  N grows until a probe runs past ``BUDGET_S`` (it is
then killed), refuses with exit status 2, or fails.  Probes run with a 1 GiB
address-space limit so that an N!-sized table fails with MemoryError instead
of exhausting the machine.  Prints one line per check kind.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 10.0
MEMORY_LIMIT = 1 << 30

PROBES = [
    ("mn-verify --lambda 2,1 --n 3 --k 1 --N {N}", 5),
    ("thm2-verify --lambda 2,1 --n 3 --k 1 --N {N} --l 1", 5),
    ("specialize-check --lambda 3,2,1 --n 3 --N {N}", 3),
    ("schur --lambda 3,2 --n 3 --N {N} --l 1", 2),
    ("lemma-verify --which 1 --lambda 1 --n 2 --N {N}", 2),
    ("lemma-verify --which 2 --lambda 0 --n 2 --k 1 --N {N}", 2),
    ("lemma-verify --which 3 --lambda 1 --n 2 --k 1 --N {N}", 2),
    ("involution-check --which I1 --lambda 1 --n 2 --N {N} --exhaustive", 2),
    ("involution-check --which I2 --lambda 0 --n 1 --k 1 --N {N} --exhaustive", 2),
    ("involution-check --which I3 --lambda 0 --n 1 --k 1 --N {N} --exhaustive", 2),
    ("involution-check --which I4 --lambda 0 --n 2 --k 1 --N {N} --l 1 --exhaustive", 2),
    ("involution-check --which I2 --lambda 0 --n 2 --k 1 --N {N} --samples 200 --seed 1", 4),
    ("involution-check --which I4 --lambda 1 --n 3 --k 2 --N {N} --l 2 --samples 200 --seed 1", 5),
]


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def probe(template: str, N: int) -> tuple[str, float]:
    argv = [sys.executable, "-m", "loopschur.cli"] + template.format(N=N).split()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=BUDGET_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "over budget", BUDGET_S
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "settled", seconds
    if proc.returncode == 2:
        return "refused: " + proc.stderr.strip()[:80], seconds
    last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
    return "failed: " + last[0][:80], seconds


def main() -> int:
    for template, N in PROBES:
        best = None
        while True:
            outcome, seconds = probe(template, N)
            if outcome != "settled":
                break
            best = (N, seconds)
            N += 1
        reach = f"N={best[0]} in {best[1]:.2f} s" if best else "none"
        print(f"{template.replace(' --N {N}', '')}: reach {reach}; "
              f"N={N}: {outcome} ({seconds:.2f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
