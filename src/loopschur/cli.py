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

from .errors import LoopSchurError
from .polyring import Polynomial, serialize
from .shapes import Partition, enumerate_border_strips
from .tableaux import (  # also the builders, which callers may look up or replace here
    ShiftParams, loop_power_sum, loop_schur, shifted_loop_schur,
)
from .verify import (  # also the verifiers, which callers may look up or replace here
    CHECKS,
    DEFAULT_CAP,
    VerificationReport,
    check_involution,
    check_specialization,
    default_grid_config,
    parse_grid_config,
    positive,
    run_grid,
    truncation,
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
    partition, nonnegative = _flag_type(Partition.from_text), _flag_type(truncation)

    p = sub.add_parser("schur", help="print a (shifted) truncated loop Schur function")
    p.add_argument("--lambda", dest="lam", type=partition, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=nonnegative, required=True)
    p.add_argument("--l", type=int, default=0)
    _add_format(p)

    p = sub.add_parser("power-sum", help="print a truncated loop power sum")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=nonnegative, required=True)
    _add_format(p)

    p = sub.add_parser("border-strips", help="list border-strip enlargements of length k*n")
    p.add_argument("--lambda", dest="lam", type=partition, required=True)
    p.add_argument("--k", type=_flag_type(positive), required=True)
    p.add_argument("--n", type=_flag_type(positive), default=1)
    _add_format(p)

    for spec in CHECKS:
        p = sub.add_parser(spec.name, help=spec.help)
        _add_params(p, spec.params)
        _add_format(p)

    p = sub.add_parser("grid", help="run a configured batch of checks")
    p.add_argument("--config", help="config file; the built-in default grid when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_format(p)

    return parser


def _emit_polynomial(poly: Polynomial, fmt: str) -> None:
    print(serialize(poly) if fmt == "structured" else str(poly))


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
    for spec in CHECKS:
        if args.command == spec.name:
            options = {param.key: getattr(args, param.key) for param in spec.params}
            return _emit_report(spec.run(options), args)

    if args.command == "schur":
        poly = shifted_loop_schur(args.lam, ShiftParams(args.n, args.l), args.N)
        _emit_polynomial(poly, args.format)
        return 0

    if args.command == "power-sum":
        _emit_polynomial(loop_power_sum(args.k, args.n, args.N), args.format)
        return 0

    if args.command == "border-strips":
        strips = enumerate_border_strips(args.lam, args.k * args.n)
        if args.format == "structured":
            doc = {
                "lambda": list(args.lam.parts),
                "length": args.k * args.n,
                "strips": [
                    {"sigma": list(b.sigma.parts), "height": b.height} for b in strips
                ],
            }
            print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        else:
            for b in strips:
                print(f"sigma={b.sigma} height={b.height}")
        return 0

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
