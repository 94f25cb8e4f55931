"""Command-line interface.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error.  Stdout is byte-identical across runs with the same
flags and seed; wall times go to stderr and only with --timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import LoopSchurError
from .polyring import Polynomial, serialize
from .shapes import enumerate_border_strips
from .tableaux import (  # also the builders, which callers may look up or replace here
    ShiftParams, loop_power_sum, loop_schur, shifted_loop_schur,
)
from .verify import (  # also the verifiers, which callers may look up or replace here
    CHECKS,
    DEFAULT_CAP,
    _LAMBDA,
    _N,
    _TRUNCATION,
    Param,
    VerificationReport,
    check_involution,
    check_specialization,
    default_grid_config,
    parse_grid_config,
    positive,
    run_grid,
    verify_degree_bound,
    verify_expansion,
    verify_murnaghan_nakayama,
)


def _flag_type(parse):
    """``parse`` as an argparse type: its ValueError message becomes the usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


class _SampleCount(argparse.Action):
    """``--samples M`` spells the grid's ``mode=samples samples=M``."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.mode, namespace.samples = "samples", value


def _add_params(p: argparse.ArgumentParser, params) -> None:
    for param in params:
        # mode= and the samples= that follows it are --exhaustive | --samples M here.
        if param.key == "mode":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--exhaustive", dest="mode", action="store_const",
                               const="exhaustive", default=param.default)
        elif param.key == "samples":
            group.add_argument("--samples", action=_SampleCount,
                               type=_flag_type(param.parse), default=param.default)
        else:
            p.add_argument(f"--{param.key}", dest=param.key, type=_flag_type(param.parse),
                           metavar="LAM" if param.key == "lambda" else None,
                           choices=param.choices, required=param.default is None,
                           default=param.default)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "structured"), default="text",
                   help="text output or canonical JSON")
    p.add_argument("--timings", action="store_true",
                   help="report wall times on stderr")


def _emit_polynomial(poly: Polynomial, fmt: str) -> None:
    print(serialize(poly) if fmt == "structured" else str(poly))


def _emit_strips(o: dict, fmt: str) -> None:
    strips = enumerate_border_strips(o["lambda"], o["k"] * o["n"])
    if fmt == "structured":
        doc = {
            "lambda": list(o["lambda"].parts),
            "length": o["k"] * o["n"],
            "strips": [{"sigma": list(b.sigma.parts), "height": b.height} for b in strips],
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for b in strips:
            print(f"sigma={b.sigma} height={b.height}")


class _Builder(NamedTuple):
    """A subcommand that prints what it builds: its ``name``, options, and
    ``run`` on the parsed options and the output format."""

    name: str
    help: str
    params: tuple[Param, ...]
    run: Callable[[dict, str], None]


# Each ``run`` looks its builder and writer up on this module when it is
# called, so one replaced here (to trace it) is the one that runs.
_BUILDERS = (
    _Builder("schur", "print a (shifted) truncated loop Schur function",
             (_LAMBDA, _N, _TRUNCATION, Param("l", default=0)),
             lambda o, fmt: _emit_polynomial(
                 shifted_loop_schur(o["lambda"], ShiftParams(o["n"], o["l"]), o["N"]), fmt)),
    _Builder("power-sum", "print a truncated loop power sum", (Param("k"), _N, _TRUNCATION),
             lambda o, fmt: _emit_polynomial(loop_power_sum(o["k"], o["n"], o["N"]), fmt)),
    _Builder("border-strips", "list border-strip enlargements of length k*n",
             (_LAMBDA, Param("k", positive), Param("n", positive, 1)), _emit_strips),
)


@lru_cache(maxsize=1)  # reused by every main call of a process
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared by
    every ``main`` call, since ``parse_args`` keeps no state between calls.
    Callers get that same object, so they must not add to it or change it."""
    parser = argparse.ArgumentParser(
        prog="loopschur",
        description="Loop Schur functions, border-strip expansions, and their pairing maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in (*_BUILDERS, *CHECKS):
        p = sub.add_parser(spec.name, help=spec.help)
        _add_params(p, spec.params)
        _add_format(p)

    p = sub.add_parser("grid", help="run a configured batch of checks")
    p.add_argument("--config", help="config file; the built-in default grid when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_format(p)

    return parser


def _emit_report(report: VerificationReport, args) -> int:
    print(report.to_json() if args.format == "structured" else report.text())
    if args.timings:
        print(f"# {report.check} {report.wall_time_s:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (LoopSchurError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    for spec in (*_BUILDERS, *CHECKS):
        if args.command == spec.name:
            options = {param.key: getattr(args, param.key) for param in spec.params}
            if isinstance(spec, _Builder):
                spec.run(options, args.format)
                return 0
            return _emit_report(spec.run(options), args)

    if args.command == "grid":
        if args.config is None:
            text = default_grid_config()
        else:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        entries = parse_grid_config(text)
        reports = run_grid(entries, seed=args.seed, cap=args.cap)
        failed = sum(_emit_report(report, args) for report in reports)
        summary = {"checks": len(reports), "failed": failed}
        if args.format == "structured":
            print(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")))
        else:
            print(f"grid: {len(reports) - failed}/{len(reports)} passed")
        return 1 if failed else 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
