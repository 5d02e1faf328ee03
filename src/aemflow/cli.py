"""Command line front end.

Subcommands: solve, verify, generate, breakpoints, oracle.  All output is
deterministic: records are emitted in sorted id order and rationals print
as `p/q`, so identical inputs (and seeds) give byte-identical bytes.

Exit codes: 0 success, 1 verification found violations, 2 usage or input
errors, 3 infeasible, 4 budget exceeded or unsupported deviation class,
5 internal error (a broken solver invariant).
Failures print one machine-readable line `error <Kind>: <message>` on
stderr.

The argument parser is built on the first `main` call, not at import,
and that one parser serves every later call in the process.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .concave import solve_concave_single
from .errors import (
    BudgetExceeded,
    Infeasible,
    InternalError,
    ParseError,
    UnsupportedDeviation,
    ValidationError,
)
from .fileformat import parse_flow, parse_instance, write_instance, write_result
from .gadgets import (
    generate_approx_gadget,
    generate_convex_gadget,
    generate_x3c_gadget,
    x3c_no_instance,
    x3c_yes_instance,
)
from .instance import Instance, SolveResult
from .ksets import solve_integer_constant, solve_k_constant
from .oracles import DEFAULT_BUDGET, oracle_fractional, oracle_integer
from .profile import breakpoint_profile
from .randgen import DEVIATION_KINDS, generate_random

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so the dispatcher owns the exit code."""

    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text()


def _dispatch_solve(inst: Instance, integer: bool, method: str) -> SolveResult:
    if integer:
        if method != "auto":
            raise UnsupportedDeviation("integer solving takes no --method")
        return solve_integer_constant(inst)
    if method == "concave":
        return solve_concave_single(inst)
    if all(hs.deviation.is_constant_shift for hs in inst.sets):
        return solve_k_constant(inst, "master" if method == "auto" else method)
    if method == "parametric":
        raise UnsupportedDeviation(
            "the parametric solver supports constant-shift deviations only"
        )
    if inst.k >= 2:
        raise UnsupportedDeviation(
            "several homologous sets need constant-shift deviations"
        )
    return solve_concave_single(inst)


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.file))
    res = _dispatch_solve(inst, args.integer, args.method)
    res.verify(inst)
    sys.stdout.write(write_result(res))
    return 0


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.file))
    value, problems = inst.check_flow(parse_flow(_read(args.flowfile), inst.m))
    for p in problems:
        print(p)
    if problems:
        return 1
    print(f"ok value {value}")
    return 0


def _meta_lines(pairs: Sequence[tuple[str, object]]) -> list[str]:
    return [f"meta {key} {value}" for key, value in pairs]


def _cmd_generate(args) -> int:
    if args.kind == "random":
        inst = generate_random(
            args.n,
            args.m,
            args.k,
            cap_max=args.cap_max,
            deviation_kind=args.deviation,
            seed=args.seed,
        )
        pairs = [
            ("kind", "Random"),
            ("n", args.n),
            ("m", args.m),
            ("k", args.k),
            ("cap_max", args.cap_max),
            ("deviation", args.deviation),
            ("seed", args.seed),
        ]
    else:
        x3c = (
            x3c_yes_instance(args.q)
            if args.variant == "yes"
            else x3c_no_instance(args.q)
        )
        if args.kind == "x3c":
            inst, meta = generate_x3c_gadget(x3c)
        elif args.kind == "convex":
            inst, meta = generate_convex_gadget(x3c)
        else:
            inst, meta = generate_approx_gadget(
                x3c, args.k, deviation_kind=args.deviation
            )
        pairs = [
            ("kind", meta.kind),
            ("q", args.q),
            ("variant", args.variant),
            ("yes_value", meta.expected_yes_value),
            ("no_bound", meta.expected_no_bound),
        ]
        if meta.k is not None:
            pairs.append(("k", meta.k))
        pairs.append(
            ("bonus_edges", " ".join(str(e) for e in meta.bonus_edges))
        )
    lines = _meta_lines(pairs)
    Path(args.output).write_text(write_instance(inst, comments=lines))
    print(f"wrote {args.output}")
    for line in lines:
        print(line)
    return 0


def _cmd_breakpoints(args) -> int:
    inst = parse_instance(_read(args.file))
    prof = breakpoint_profile(inst)
    rows = ["lambda,F,slope"]
    for i, bp in enumerate(prof.breakpoints):
        if i < len(prof.segment_slopes):
            slope = prof.segment_slopes[i]
        elif prof.segment_slopes:
            slope = prof.segment_slopes[-1]
        else:
            slope = Fraction(0)
        rows.append(f"{bp},{prof.values[i]},{slope}")
    Path(args.output).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.output}")
    print(f"argmax {prof.argmax}")
    print(f"value {prof.opt_value}")
    return 0


def _cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.file))
    if args.integer:
        value = oracle_integer(inst, budget=args.budget)
    else:
        value = oracle_fractional(inst, budget=args.budget)
    print(f"value {value}")
    return 0


def _build_parser() -> _Parser:
    top = _Parser(prog="aemflow", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--integer", action="store_true")
    p.add_argument(
        "--method",
        choices=("auto", "parametric", "concave"),
        default="auto",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a flow against an instance")
    p.add_argument("file")
    p.add_argument("flowfile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="write a generated instance file")
    gsub = p.add_subparsers(dest="kind", required=True)
    for kind in ("x3c", "approx", "convex"):
        gp = gsub.add_parser(kind)
        gp.add_argument("--q", type=int, required=True)
        gp.add_argument("--variant", choices=("yes", "no"), default="yes")
        if kind == "approx":
            gp.add_argument("--k", type=int, required=True)
            gp.add_argument(
                "--deviation", choices=("shift", "affine"), default="shift"
            )
        gp.add_argument("-o", "--output", required=True)
        gp.set_defaults(func=_cmd_generate, kind=kind)
    gp = gsub.add_parser("random")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--cap-max", type=int, default=5)
    gp.add_argument("--deviation", choices=DEVIATION_KINDS, default="const")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("-o", "--output", required=True)
    gp.set_defaults(func=_cmd_generate, kind="random")

    p = sub.add_parser("breakpoints", help="piecewise description of F as CSV")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_breakpoints)

    p = sub.add_parser("oracle", help="reference optimum by enumeration")
    p.add_argument("file")
    p.add_argument("--integer", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_oracle)
    return top


_parser: _Parser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = _build_parser()
        args = _parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error Usage: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"error Infeasible: {exc}", file=sys.stderr)
        return 3
    except (BudgetExceeded, UnsupportedDeviation) as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except InternalError as exc:
        print(f"error InternalError: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
