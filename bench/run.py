"""Run one workload of the loopschur benchmark and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The load is a closed loop with one caller:
each round runs the workload's operations back to back in a fresh
interpreter (``child.py``), so module caches start cold as they do for every
CLI call, and the next round starts only when the last one has ended.  Rounds
are repeated until ``--seconds`` have passed.  Every operation's output is
checked against the benchmark's own oracles (``checks.py``).

Times are scaled to a reference core speed by calibration probes timed next
to each operation (see ``child.py``); the raw wall times are kept in the
``info`` line and the run record.  With ``--trace 0`` the last line of stdout
reports the end-to-end metrics, each the median over the run's rounds (set-up
also over five set-up-only interpreters).  With ``--trace 1`` untraced and
traced rounds alternate on the same inputs, the traced outputs must match the
untraced ones byte for byte, and the last line reports the per-layer metrics
and the tracing overhead.  A record of the run, with the spans of the traced
rounds, is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
START_LIMIT_S = 100  # no round starts later than this
RUN_LIMIT_S = 170  # a round still running this long after the start is killed
POLYNOMIAL_CHECKS = ("mn-verify", "thm2-verify", "lemma-verify", "specialize-check", "schur")

END_TO_END = {
    "setup_s": "s", "run_s": "s", "terms_per_s": "terms/s", "members_per_s": "members/s",
    "refuse_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "polyring.mul_s": "s", "polyring.mul_term_pairs": "count", "polyring.addsub_s": "s",
    "polyring.serialize_s": "s", "polyring.monomial_s": "s", "polyring.monomials": "count",
    "tableaux.builder_s": "s", "tableaux.ssyt": "count", "tableaux.ssyt_per_s": "tableaux/s",
    "tableaux.weight_s": "s", "tableaux.weight_calls": "count",
    "shapes.strips_s": "s", "shapes.strips": "count",
    "involutions.enumerate_s": "s", "involutions.members": "count",
    "involutions.map_s": "s", "involutions.map_calls": "count",
    "involutions.signed_sum_s": "s", "involutions.count_s": "s",
    "involutions.sample_s": "s", "involutions.draws": "count", "involutions.draw_accept": "ratio",
    "verify.self_s": "s", "verify.checks": "count", "cli.self_s": "s",
    "trace.overhead": "ratio",
}


class RoundFailed(Exception):
    """A child interpreter crashed or ran out of time."""


def spawn(workload: str, seed: int, round_index: int, mode: str, timeout: float) -> dict:
    """Run one child interpreter and return its record, with its set-up time added."""
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(round_index), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{mode} round {round_index} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundFailed(f"{mode} round {round_index} exited {proc.returncode}: {proc.stderr[-500:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["wall_setup_s"] = record["ready"] - start
    record["setup_s"] = record["wall_setup_s"] * record["setup_scale"]
    return record


def round_metrics(record: dict) -> dict:
    """End-to-end metrics of one untraced round."""
    terms = poly_s = members = member_s = refuse_s = 0.0
    for op in record["ops"]:
        command = op["argv"][0]
        if op["status"] == 2:
            refuse_s += op["scaled_s"]
        elif op["status"] == 0 and command in POLYNOMIAL_CHECKS:
            doc = json.loads(op["out"])
            details = doc.get("details", {})
            terms += len(doc["terms"]) if command == "schur" else details.get(
                "terms", details.get("lhs_terms", 0) + details.get("rhs_terms", 0))
            poly_s += op["scaled_s"]
        elif op["status"] == 0 and command == "involution-check":
            members += json.loads(op["out"])["details"]["checked"]
            member_s += op["scaled_s"]
    return {
        "setup_s": record["setup_s"],
        "run_s": sum(op["scaled_s"] for op in record["ops"]),
        "terms_per_s": terms / poly_s if poly_s else 0.0,
        "members_per_s": members / member_s if member_s else 0.0,
        "refuse_s": refuse_s,
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
        "wall_setup_s": record["wall_setup_s"],
        "wall_run_s": sum(op["seconds"] for op in record["ops"]),
    }


def layer_metrics(record: dict, plain_run_s: float) -> dict:
    """Per-layer metrics of one traced round.

    Span times are wall times; they are scaled by the round's own ratio of
    scaled to wall time, so that they are comparable with ``run_s``.
    """
    t = record["trace"]
    run_s = sum(op["scaled_s"] for op in record["ops"])
    scale = run_s / sum(op["seconds"] for op in record["ops"])
    self_s = {group: seconds * scale for group, seconds in t["self_s"].items()}
    calls, items = t["calls"], t["items"]
    builders_s = scale * sum(t["inclusive_s"].get(name, 0.0)
                             for name in ("tableaux.loop_schur", "tableaux.shifted_loop_schur"))
    i4_draws = accepted = 0
    for op in record["ops"]:
        command, params = checks.parse_argv(op["argv"])
        if command == "involution-check" and params["which"] == "I4" and "samples" in params:
            accepted += int(params["samples"])
            i4_draws += op["draws"]
    metrics = {
        f"{group}_s": self_s.get(group, 0.0)
        for group in ("polyring.mul", "polyring.addsub", "polyring.serialize",
                      "polyring.monomial", "tableaux.builder", "tableaux.weight",
                      "shapes.strips", "involutions.enumerate", "involutions.map",
                      "involutions.signed_sum", "involutions.count", "involutions.sample")
    }
    metrics.update({
        "polyring.mul_term_pairs": items.get("polyring.mul", 0),
        "polyring.monomials": t["outer_calls"].get("polyring.monomial", 0),
        "tableaux.ssyt": items.get("tableaux.builder", 0),
        "tableaux.ssyt_per_s": items.get("tableaux.builder", 0) / builders_s if builders_s else 0.0,
        "tableaux.weight_calls": calls.get("tableaux.weight", 0),
        "shapes.strips": items.get("shapes.strips", 0),
        "involutions.members": items.get("involutions.enumerate", 0),
        "involutions.map_calls": calls.get("involutions.map", 0),
        "involutions.draws": calls.get("involutions.sample", 0),
        "involutions.draw_accept": accepted / i4_draws if i4_draws else 0.0,
        "verify.self_s": self_s.get("verify", 0.0),
        "verify.checks": calls.get("verify", 0) - t["name_calls"].get("verify.run_grid", 0),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.overhead": run_s / plain_run_s,
    })
    return metrics


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def median_of(rows: list[dict], keys) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in keys}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "loopschur" / "__init__.py").is_file():
        print(f"error: no loopschur sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    modes = ("plain", "traced") if args.trace else ("plain",)
    setups = [spawn(args.workload, args.seed, 0, "setup", 60) for _ in range(SETUP_PROBES)]
    plain_records, plain_rows, layer_rows, failures, wrong = [], [], [], [], 0
    attempted = failed = 0
    round_index = 0
    while True:
        records = {}
        try:
            for mode in modes:
                left = RUN_LIMIT_S - (time.monotonic() - began)
                records[mode] = spawn(args.workload, args.seed, round_index, mode, max(left, 1))
        except RoundFailed as exc:
            ops = len(build_ops(args.workload, args.seed, round_index))
            attempted += ops * len(modes)
            failed += ops * len(modes)
            failures.append(str(exc))
            break
        plain = records["plain"]
        plain_records.append(plain)
        for mode, record in records.items():
            for index, op in enumerate(record["ops"]):
                attempted += 1
                problems = checks.check_op(op["argv"], op["status"], op["out"], op["err"])
                if mode == "traced" and (op["out"], op["status"]) != (
                        plain["ops"][index]["out"], plain["ops"][index]["status"]):
                    problems.append("traced output differs from the untraced output")
                if problems:
                    failed += 1
                    wrong += op["status"] == checks.expected_status(op["argv"])
                    failures.append(f"{mode} round {round_index}: {' '.join(op['argv'])}: {problems}")
        plain_rows.append(round_metrics(plain))
        if args.trace:
            layer_rows.append(layer_metrics(records["traced"], plain_rows[-1]["run_s"]))
        round_index += 1
        if time.monotonic() - began >= min(args.seconds, START_LIMIT_S):
            break

    if not plain_rows:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 1
    e2e = median_of(plain_rows, END_TO_END)
    setup_rows = setups + plain_rows
    e2e.update(median_of(setup_rows, ("setup_s", "wall_setup_s")))
    e2e.update(median_of(plain_rows, ("wall_run_s",)))
    if args.trace:
        metrics, units = median_of(layer_rows, PER_LAYER), PER_LAYER
    else:
        metrics, units = {name: e2e[name] for name in END_TO_END}, END_TO_END
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain_rows), "setup_samples": len(setup_rows),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "platform": platform.platform(), "git_revision": git_revision(),
        "attempted": attempted, "failed": failed, "end_to_end": e2e, "failures": failures[:20],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    ops = [{"argv": " ".join(op["argv"][:-2]),
            "scaled_s": statistics.median(r["ops"][i]["scaled_s"] for r in plain_records),
            "wall_s": statistics.median(r["ops"][i]["seconds"] for r in plain_records)}
           for i, op in enumerate(plain_records[0]["ops"])]
    record = dict(info, ops=ops, rounds_end_to_end=plain_rows, rounds_per_layer=layer_rows,
                  spans=records.get("traced", {}).get("trace", {}).get("spans", []))
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
