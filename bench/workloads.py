"""The benchmark's workloads: fixed lists of CLI operations.

Every operation is a ``loopschur`` command line run with ``--format
structured``.  ``{seed}`` marks a sampler seed; each round of a run draws its
own seeds from the run's ``--seed``, so the same seed gives the same inputs.

Each workload also carries a few small operations outside its main load, so
that every end-to-end metric (terms/s, members/s, refusal time) and every
layer has work to measure on every workload.  They are listed last.
"""

from __future__ import annotations

import random

WORKLOADS = {
    # SSYT enumeration, weight monomials and large polynomial products and
    # sums, shifted and unshifted, plus canonical serialization.
    "mn_ladder": [
        "mn-verify --lambda 2,1 --n 3 --k 1 --N 7",
        "mn-verify --lambda 2,1 --n 3 --k 1 --N 8",
        "mn-verify --lambda 3,1 --n 2 --k 2 --N 7",
        "mn-verify --lambda 2,2,1 --n 2 --k 1 --N 7",
        "thm2-verify --lambda 2,1 --n 3 --k 1 --N 7 --l 1",
        "thm2-verify --lambda 2,1 --n 3 --k 1 --N 7 --l 2",
        "specialize-check --lambda 3,2,1 --n 3 --N 6",
        "schur --lambda 3,2 --n 3 --N 7 --l 1",
        "grid --seed {seed}",
        "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 4 --l 1 --samples 400 --seed {seed}",
        "lemma-verify --which 1 --lambda 2,1 --n 3 --N 7",
        "lemma-verify --which 2 --lambda 2,1 --n 3 --k 1 --N 7",
        "lemma-verify --which 3 --lambda 2,1 --n 3 --k 1 --N 7",
    ],
    # Hundreds of thousands of family members through enumeration,
    # validation, the four maps and one-term weight monomials.
    "family_exhaustive": [
        "involution-check --which I1 --lambda 1 --n 2 --N 4 --exhaustive",
        "involution-check --which I2 --lambda 0 --n 1 --k 1 --N 4 --exhaustive",
        "involution-check --which I3 --lambda 0 --n 1 --k 1 --N 4 --exhaustive",
        "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 4 --l 1 --exhaustive",
        "lemma-verify --which 1 --lambda 1 --n 2 --N 4",
        "lemma-verify --which 2 --lambda 0 --n 2 --k 1 --N 4",
        "lemma-verify --which 3 --lambda 1 --n 2 --k 1 --N 3",
        "schur --lambda 2,1 --n 2 --N 4",
        "involution-check --which I4 --lambda 0 --n 2 --k 1 --N 4 --l 1 --samples 50 --seed {seed}",
        "involution-check --which I2 --lambda 0 --n 1 --k 1 --N 8 --exhaustive",
        "involution-check --which I3 --lambda 0 --n 1 --k 1 --N 8 --exhaustive",
    ],
    # N!-sized counting and sampler tables, unranking, the I4 rejection loop
    # (about one accepted draw in 212) and refusals by the family cap.
    "family_sampled": [
        "involution-check --which I1 --lambda 2,1 --n 3 --N 7 --samples 200 --seed {seed}",
        "involution-check --which I2 --lambda 1 --n 2 --k 1 --N 7 --samples 200 --seed {seed}",
        "involution-check --which I3 --lambda 1 --n 2 --k 1 --N 7 --samples 200 --seed {seed}",
        "involution-check --which I4 --lambda 1 --n 3 --k 2 --N 7 --l 2 --samples 200 --seed {seed}",
        "involution-check --which I2 --lambda 0 --n 2 --k 1 --N 8 --samples 200 --seed {seed}",
        "lemma-verify --which 2 --lambda 0 --n 2 --k 1 --N 8",
        "lemma-verify --which 1 --lambda 2,1 --n 2 --N 9",
        "lemma-verify --which 3 --lambda 1 --n 2 --k 1 --N 3",
        "mn-verify --lambda 2,1 --n 3 --k 1 --N 8",
        "specialize-check --lambda 3,2,1 --n 3 --N 6",
        "schur --lambda 2,1 --n 3 --N 6 --l 1",
    ],
}


def build_ops(workload: str, seed: int, round_index: int) -> list[list[str]]:
    """The argv lists of one round of ``workload``."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    ops = []
    for template in WORKLOADS[workload]:
        argv = template.split() + ["--format", "structured"]
        ops.append([str(rng.randrange(2**31)) if a == "{seed}" else a for a in argv])
    return ops
