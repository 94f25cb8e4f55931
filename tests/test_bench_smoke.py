"""Smoke runs of the benchmark harness, so that it cannot rot.

One short untraced run and one short traced run; the traced run installs the
tracer, which looks up the package's layer boundaries by name, so a renamed
or removed entry point fails here.  Run records go to the git-ignored
``bench/results/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload,trace", [("mn_ladder", "0"), ("family_sampled", "1")])
def test_benchmark_run_is_correct_and_measures_every_metric(workload, trace):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
    assert summary["metrics"]
    assert {name: metric["value"] for name, metric in summary["metrics"].items()
            if not metric["value"] > 0} == {}
