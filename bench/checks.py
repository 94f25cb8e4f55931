"""Checks of each operation's output against the benchmark's own oracles.

``check_op`` returns a list of problems, empty when the output is right.  The
expected exit status is derived, not declared: an exhaustive check whose
family (by Ryser's permanent) is larger than the cap must refuse with status
2, and every other operation must exit 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import oracles

CAP = 10**7  # the CLI's default --cap
REFUSAL = "family has "


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    """Split a structured CLI command line into its subcommand and flag values."""
    command, params = argv[0], {}
    rest = iter(argv[1:])
    for flag in rest:
        key = flag[2:]
        params[key] = True if key == "exhaustive" else next(rest)
    return command, params


def _partition(text: str) -> tuple[int, ...]:
    return () if text.strip() in ("", "0") else tuple(int(p) for p in text.split(","))


def _normalize(params: dict) -> dict:
    """Typed parameters from CLI flags or from a report's ``params``."""
    out = {}
    for key, value in params.items():
        if key == "lambda":
            out[key] = _partition(str(value))
        elif key == "which":
            out[key] = int(value) if str(value).isdigit() else value
        elif key in ("mode", "exhaustive", "format"):
            out[key] = value
        else:
            out[key] = int(value)
    return out


@lru_cache(maxsize=None)
def family_size(kind: str, lam: tuple[int, ...], n: int, k: int, N: int, l: int = 0) -> int:
    if kind == "base":
        return oracles.base_family_size(lam, N)
    if kind == "augmented":
        return oracles.augmented_family_size(lam, k, n, N)
    return oracles.low_family_size(lam, k, n, N, l)


def _enumerated_family(command: str, p: dict) -> int | None:
    """Size of the family an exhaustive operation enumerates, or None."""
    if command == "lemma-verify":
        kind = "base" if p["which"] == 1 else "augmented"
    elif command == "involution-check" and "samples" not in p:
        kind = "base" if p["which"] == "I1" else "augmented"
    else:
        return None
    return family_size(kind, p["lambda"], p["n"], p.get("k", 1), p["N"])


def _parse(argv: list[str]) -> tuple[str, dict]:
    command, raw = parse_argv(argv)
    return command, _normalize(raw)


def expected_status(argv: list[str]) -> int:
    """2 for an exhaustive operation whose family exceeds the cap, else 0."""
    command, p = _parse(argv)
    size = _enumerated_family(command, p)
    return 2 if size is not None and size > p.get("cap", CAP) else 0


def check_op(argv: list[str], status, out: str, err: str) -> list[str]:
    command, p = _parse(argv)
    want = expected_status(argv)
    if status != want:
        return [f"exit status {status}, expected {want}: {err.strip()[-300:]}"]
    try:
        if want == 2:
            return _check_refusal(command, p, out, err)
        if command == "schur":
            return _check_schur(p, out)
        if command == "grid":
            return _check_grid(out)
        doc = json.loads(out)
        problems = [f"params {key}: report has {doc['params'].get(key)!r}"
                    for key, value in _normalize(doc["params"]).items()
                    if key in p and p[key] != value]
        return problems + check_report(command, p, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_refusal(command: str, p: dict, out: str, err: str) -> list[str]:
    problems = []
    if out:
        problems.append("a refusal printed to stdout")
    if not err.startswith("error: "):
        problems.append(f"no error on stderr: {err[:200]!r}")
    if REFUSAL in err:
        cited = int(err.split(REFUSAL, 1)[1].split()[0])
        size = _enumerated_family(command, p)
        if cited != size:
            problems.append(f"refusal cites {cited} members, Ryser gives {size}")
    return problems


def check_report(command: str, p: dict, doc: dict) -> list[str]:
    """Checks of one verification report with typed parameters ``p``."""
    problems = []
    d = doc["details"]
    if doc["check"] != command:
        problems.append(f"report is for {doc['check']}")
    if doc["pass"] is not True or doc["witness"] is not None:
        problems.append(f"check did not pass: {doc['witness']}")
    lam, n, N = p["lambda"], p["n"], p["N"]
    k = p.get("k", 1)
    if command in ("mn-verify", "thm2-verify"):
        strips = len(oracles.border_strips(lam, k * n))
        if d["strips"] != strips:
            problems.append(f"strips {d['strips']}, beta-set gives {strips}")
    if command in ("mn-verify", "lemma-verify") and d["lhs_terms"] != d["rhs_terms"]:
        problems.append(f"lhs has {d['lhs_terms']} terms, rhs {d['rhs_terms']}")
    if command == "thm2-verify":
        floor = oracles.degree_floor(n, k, N, p["l"])
        achieved = d["achieved_min_degree"]
        if d["stated_bound"] != str(floor):
            problems.append(f"stated bound {d['stated_bound']}, expected {floor}")
        if achieved != "inf" and Fraction(achieved) < floor:
            problems.append(f"achieved degree {achieved} below {floor}")
    if command == "specialize-check":
        terms = oracles.dominated_weight_count(lam, N)
        if d["terms"] != terms:
            problems.append(f"{d['terms']} terms, dominance order gives {terms}")
    if command == "involution-check":
        problems += _check_involution(p, d)
    return problems


def _check_involution(p: dict, d: dict) -> list[str]:
    problems = []
    which, lam, n, N = p["which"], p["lambda"], p["n"], p["N"]
    k, l = p.get("k", 1), p.get("l", 0)
    if d["failures"] != 0 or d["fixed"] + d["moved"] != d["checked"]:
        problems.append(f"inconsistent counts {d}")
    if "samples" in p:
        checked, fixed = p["samples"], (0 if which == "I4" else None)
    elif which == "I1":
        checked, fixed = family_size("base", lam, n, k, N), oracles.hook_content(lam, N)
    elif which == "I2":
        checked = family_size("augmented", lam, n, k, N)
        fixed = N * family_size("base", lam, n, k, N)
    elif which == "I3":
        checked = family_size("augmented", lam, n, k, N)
        fixed = sum(oracles.hook_content(s, N) for s, _ in oracles.border_strips(lam, k * n))
    else:
        checked, fixed = family_size("low", lam, n, k, N, l), 0
    if d["checked"] != checked:
        problems.append(f"checked {d['checked']}, expected {checked}")
    if fixed is not None and d["fixed"] != fixed:
        problems.append(f"fixed {d['fixed']}, expected {fixed}")
    return problems


def _check_schur(p: dict, out: str) -> list[str]:
    problems = []
    text = out.rstrip("\n")
    doc = json.loads(text)
    if json.dumps(doc, sort_keys=True, separators=(",", ":")) != text:
        problems.append("output is not canonical JSON")
    if doc["n"] != p["n"]:
        problems.append(f"ring modulus {doc['n']}, expected {p['n']}")
    previous = None
    total = 0
    for term in doc["terms"]:
        key = [(v["color"], v["weight_num"]) for v in term["vars"]]
        if key != sorted(set(key)) or any(not 0 <= c < p["n"] for c, _ in key):
            problems.append(f"variables out of order or range: {key}")
        vector = [(v["color"], v["weight_num"], v["exp"]) for v in term["vars"]]
        if previous is not None and not previous < vector:
            problems.append("terms out of order")
        if sum(v["exp"] for v in term["vars"]) != sum(p["lambda"]):
            problems.append(f"term of wrong degree: {vector}")
        previous = vector
        total += int(term["coeff"])
    expected = oracles.hook_content(p["lambda"], p["N"])
    if total != expected:
        problems.append(f"coefficient sum {total}, hook-content gives {expected}")
    return problems


def _check_grid(out: str) -> list[str]:
    lines = [json.loads(line) for line in out.splitlines()]
    reports, summary = lines[:-1], lines[-1]
    problems = []
    if summary != {"summary": {"checks": len(reports), "failed": 0}}:
        problems.append(f"grid summary {summary}")
    for doc in reports:
        problems += check_report(doc["check"], _normalize(doc["params"]), doc)
    return problems
