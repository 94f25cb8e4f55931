import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopschur.verify as verify_mod
from loopschur import Partition, loop_schur, parse, serialize
from loopschur.cli import build_parser, main
from loopschur.shapes import BorderStripAddition, enumerate_border_strips


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """Like ``run``, but a usage error's SystemExit becomes the exit status."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_schur_structured_roundtrip(capsys):
    code, out, _ = run(capsys, "schur", "--lambda", "2,1", "--n", "3", "--N", "4",
                       "--format", "structured")
    assert code == 0
    assert parse(out.strip()) == loop_schur(Partition.of(2, 1), 3, 4)
    assert out.strip() == serialize(loop_schur(Partition.of(2, 1), 3, 4))


def test_schur_text(capsys):
    code, out, _ = run(capsys, "schur", "--lambda", "2", "--n", "2", "--N", "2")
    assert code == 0
    assert out.strip() == "x(0,1)*x(1,1) + x(0,1)*x(1,2) + x(0,2)*x(1,2)"


def test_shifted_schur(capsys):
    code, out, _ = run(capsys, "schur", "--lambda", "2", "--n", "2", "--N", "1", "--l", "1")
    assert code == 0
    assert out.strip() == "x(0,1)*x(1,3/2)"


def test_power_sum(capsys):
    code, out, _ = run(capsys, "power-sum", "--k", "1", "--n", "2", "--N", "2")
    assert code == 0
    assert out.strip() == "x(0,1)*x(1,1) + x(0,2)*x(1,2)"


def test_border_strips_structured(capsys):
    code, out, _ = run(capsys, "border-strips", "--lambda", "0", "--k", "3",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"lambda": [], "length": 3, "strips": [
        {"sigma": [1, 1, 1], "height": 2},
        {"sigma": [2, 1], "height": 1},
        {"sigma": [3], "height": 0},
    ]}


@pytest.mark.parametrize("k,n,bad", [("-1", "-1", "--k"), ("0", "2", "--k"), ("2", "0", "--n")])
def test_border_strips_refuse_nonpositive_k_and_n(capsys, k, n, bad):
    # Only the product k*n used to be checked, so k = n = -1 listed length-1 strips.
    code, out, err = run_exit(capsys, "border-strips", "--lambda", "1", "--k", k, "--n", n)
    assert code == 2 and out == ""
    assert f"argument {bad}: must be positive" in err


def test_mn_verify_pass(capsys):
    code, out, _ = run(capsys, "mn-verify", "--lambda", "1", "--n", "2", "--k", "1", "--N", "4")
    assert code == 0
    assert out.startswith("PASS mn-verify")


def test_mn_verify_refuses_small_truncation(capsys):
    code, _, err = run(capsys, "mn-verify", "--lambda", "2,1", "--n", "3", "--k", "1", "--N", "3")
    assert code == 2
    assert "N >= 5" in err


def test_thm2_requires_shift(capsys):
    code, _, err = run(capsys, "thm2-verify", "--lambda", "0", "--n", "2", "--k", "1",
                       "--N", "4", "--l", "0")
    assert code == 2
    assert "1 <= l < n" in err


def test_lemma_verify(capsys):
    code, out, _ = run(capsys, "lemma-verify", "--which", "2", "--lambda", "0",
                       "--n", "1", "--k", "1", "--N", "2")
    assert code == 0
    assert out.startswith("PASS lemma-verify")


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_lemma_verify_with_no_rows(capsys, tmp_path, which):
    # At N = 0 the staircase factor is the empty product and the empty
    # partition has one (empty) tableau, so every identity holds.
    code, out, err = run(capsys, "lemma-verify", "--which", which, "--lambda", "0",
                         "--n", "2", "--k", "1", "--N", "0")
    assert code == 0 and err == ""
    assert out.startswith("PASS lemma-verify N=0")
    config = tmp_path / "grid.cfg"
    config.write_text(f"lemma which={which} lambda=0 n=2 k=1 N=0\n")
    code, out, _ = run(capsys, "grid", "--config", str(config))
    assert code == 0
    assert out.strip().splitlines()[-1] == "grid: 1/1 passed"


@pytest.mark.parametrize("command", [
    "lemma-verify --which 1 --lambda 2,1 --n 1 --N 1 --cap 0",
    "lemma-verify --which 2 --lambda 2,1 --n 1 --k 1 --N 1 --cap 0",
    "involution-check --which I1 --lambda 2,1 --n 1 --N 1 --cap 0",
    "involution-check --which I2 --lambda 2,1 --n 1 --k 1 --N 1 --samples 3",
])
def test_too_few_rows_are_refused_before_the_cap(capsys, command):
    # The family of (2,1) on one row does not exist, so no count is compared with the cap.
    code, out, err = run(capsys, *command.split())
    assert code == 2 and out == ""
    assert err == "error: need N >= 2 rows for partition 2,1, got 1\n"


def test_involution_check_sampled(capsys):
    code, out, _ = run(capsys, "involution-check", "--which", "I4", "--lambda", "2,1",
                       "--n", "3", "--N", "5", "--l", "1", "--samples", "50", "--seed", "3")
    assert code == 0
    assert "failures=0" in out


def test_refusal_cites_exact_family_size(capsys):
    code, out, err = run(capsys, "lemma-verify", "--which", "2", "--lambda", "0",
                         "--n", "2", "--k", "1", "--N", "9")
    assert code == 2 and out == ""
    assert "family has 1438535881293778692366015 members" in err


def test_sampled_check_on_a_ten_row_family(capsys):
    code, out, _ = run(capsys, "involution-check", "--which", "I2", "--lambda", "0",
                       "--n", "2", "--k", "1", "--N", "10", "--samples", "5")
    assert code == 0
    assert out.startswith("PASS involution-check") and "checked=5 failures=0" in out


def test_specialize_check(capsys):
    code, out, _ = run(capsys, "specialize-check", "--lambda", "3,1", "--n", "2", "--N", "4")
    assert code == 0
    assert out.startswith("PASS specialize-check")


def test_grid_default_and_determinism(capsys):
    code1, out1, _ = run(capsys, "grid", "--format", "structured")
    code2, out2, _ = run(capsys, "grid", "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert json.loads(lines[-1]) == {"summary": {"checks": 13, "failed": 0}}


def test_grid_config_file(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("# tiny grid\nmn lambda=0 n=1 k=1 N=2\nspecialize lambda=1 n=2 N=3\n")
    code, out, _ = run(capsys, "grid", "--config", str(config))
    assert code == 0
    assert out.strip().splitlines()[-1] == "grid: 2/2 passed"


def test_grid_malformed_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("mn lambda=0 n=1 k=1\n")
    code, _, err = run(capsys, "grid", "--config", str(config))
    assert code == 2
    assert "requires N=" in err


def test_grid_failure_exit_code(tmp_path, capsys, monkeypatch):
    original = enumerate_border_strips

    def corrupted(lam, m):
        strips = original(lam, m)
        return [BorderStripAddition(strips[0].sigma, strips[0].height + 1)] + strips[1:]

    monkeypatch.setattr(verify_mod, "enumerate_border_strips", corrupted)
    config = tmp_path / "grid.cfg"
    config.write_text("mn lambda=1 n=2 k=1 N=4\n")
    code, out, _ = run(capsys, "grid", "--config", str(config))
    assert code == 1
    assert "FAIL" in out and "0/1 passed" in out


def test_bad_partition_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--lambda", "1,2", "--n", "1", "--N", "2"])
    assert exc.value.code == 2


def test_bad_shift_is_usage_error(capsys):
    code, _, err = run(capsys, "schur", "--lambda", "1", "--n", "2", "--N", "2", "--l", "5")
    assert code == 2
    assert "shift" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "grid", "--config", "/nonexistent/grid.cfg")
    assert code == 2
    assert "error:" in err


def test_timings_go_to_stderr(capsys):
    code, out, err = run(capsys, "mn-verify", "--lambda", "0", "--n", "1", "--k", "1",
                         "--N", "2", "--timings")
    assert code == 0
    assert "wall" not in out
    assert err.startswith("# mn-verify")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sample_count_must_be_positive(capsys, samples):
    code, out, err = run_exit(capsys, "involution-check", "--which", "I1", "--lambda", "1",
                              "--n", "2", "--N", "3", "--samples", samples)
    assert code == 2 and out == ""
    assert f"samples must be at least 1, got {samples}" in err


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--samples", "5"]], ids=str)
@pytest.mark.parametrize("N", ["0", "3"])
@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("which", ["I2", "I3", "I4"])
def test_lengthening_maps_refuse_nonpositive_k(capsys, monkeypatch, tmp_path, which, k, N, mode):
    def untouched(*args, **kwargs):
        raise AssertionError("the family was counted or sampled")

    for attr in ("enumerate_augmented_tableaux", "sample_augmented_tableau"):
        monkeypatch.setattr(verify_mod, attr, untouched)
    expected = f"error: k must be positive, got {k}\n"
    code, out, err = run(capsys, "involution-check", "--which", which, "--lambda", "0",
                         "--n", "2", "--k", k, "--N", N, "--l", "1", *mode)
    assert (code, out, err) == (2, "", expected)
    grid_mode = "mode=exhaustive" if mode == ["--exhaustive"] else "mode=samples samples=5"
    config = tmp_path / "grid.cfg"
    config.write_text(f"involution which={which} lambda=0 n=2 k={k} N={N} l=1 {grid_mode}\n")
    assert run(capsys, "grid", "--config", str(config)) == (2, "", expected)


def test_schur_of_a_long_row(capsys):
    code, out, err = run(capsys, "schur", "--lambda", "1200", "--n", "1", "--N", "1")
    assert (code, out, err) == (0, "x(0,1)^1200\n", "")


@pytest.mark.parametrize("command", [
    "schur --lambda 1 --n 2 --N {N}",
    "power-sum --k 1 --n 2 --N {N}",
    "mn-verify --lambda 0 --n 1 --k 1 --N {N}",
    "thm2-verify --lambda 0 --n 2 --k 1 --N {N} --l 1",
    "lemma-verify --which 1 --lambda 0 --n 1 --N {N}",
    "involution-check --which I1 --lambda 0 --n 1 --N {N} --samples 3",
    "specialize-check --lambda 1 --n 1 --N {N}",
    "grid --config {config}",
])
def test_negative_truncation_is_refused(capsys, tmp_path, command):
    def run_with(N):
        config = tmp_path / "grid.cfg"
        config.write_text(f"mn lambda=0 n=1 k=1 N=2\nspecialize lambda=1 n=1 N={N}\n")
        return run_exit(capsys, *command.format(N=N, config=config).split())

    code, out, err = run_with(-1)
    assert code == 2 and out == ""
    assert "must be non-negative, got -1" in err
    if command.startswith("grid"):
        assert "line 2: N:" in err
    _, _, err = run_with(0)
    assert "non-negative" not in err


def test_which_is_case_insensitive(capsys):
    _, upper, _ = run(capsys, "involution-check", "--which", "I2", "--lambda", "0",
                      "--n", "1", "--k", "1", "--N", "2")
    code, lower, _ = run(capsys, "involution-check", "--which", "i2", "--lambda", "0",
                         "--n", "1", "--k", "1", "--N", "2")
    assert code == 0 and lower == upper
    [grid_report] = verify_mod.run_grid(verify_mod.parse_grid_config(
        "involution which=i2 lambda=0 n=1 k=1 N=2"))
    assert grid_report.text() + "\n" == upper


TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer, install
tracer = Tracer()
main = install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["grid"]) == 0
    assert main("involution-check --which I4 --lambda 0 --n 2 --N 3 --l 1 --samples 5".split()) == 0
print(json.dumps(tracer.name_calls))
"""


def test_traced_run_sees_every_verifier_call():
    # The benchmark's tracer replaces the verifiers on ``cli`` and ``verify``;
    # every check, on the command line and in the grid, must run the replacement.
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    calls = json.loads(result.stdout)
    assert {name: calls.get(f"verify.{name}") for name in (
        "verify_murnaghan_nakayama", "verify_degree_bound", "verify_expansion",
        "check_involution", "check_specialization",
    )} == {
        "verify_murnaghan_nakayama": 3, "verify_degree_bound": 2, "verify_expansion": 3,
        "check_involution": 5, "check_specialization": 1,
    }


REUSED_PARSER_RUNS = [
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --samples 5 --seed 4",
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --exhaustive",
    "involution-check --which I1 --lambda 1 --n 2 --N 3 --exhaustive --samples 4",
    "involution-check --which I1 --lambda 1 --n 2 --N 3",
    "involution-check --help",
    "--help",
]


def test_one_parser_serves_every_call_as_a_fresh_process(capsys, monkeypatch):
    # The parser is built once per process; calls that reuse it, after a
    # usage error too, print what a fresh interpreter prints.
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in REUSED_PARSER_RUNS:
        fresh = subprocess.run([sys.executable, "-m", "loopschur.cli", *command.split()],
                               env=env, capture_output=True, text=True, timeout=60)
        assert run_exit(capsys, *command.split()) == (fresh.returncode, fresh.stdout, fresh.stderr)
