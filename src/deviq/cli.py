"""Command-line interface.

    deviq derive   <file>   equations of motion (Euler-Lagrange or Hamilton)
    deviq deviate  <file>   deviation system (equations plus their vertical
                            derivative)
    deviq check    <file>   commutation theorem report, each pair decided by
                            its exact normal form; exit 1 on failure
    deviq simulate <file>   integrate a base solution and Jacobi field, CSV out
    deviq residual <file>   perturbation-residual sweep over epsilon, CSV out

Exit codes: 0 success or theorem pass, 1 theorem failure, 2 usage or
model errors, 3 numeric failures (compilation, domain, integration).
All commands are deterministic; `--seed` is accepted and ignored.
`deviq.numeric` is imported only by `simulate` and `residual`.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .errors import (
    CompileError,
    EvalError,
    ExpansionLimitError,
    IntegrationError,
    OrderOverflowError,
    ParseError,
    SpecError,
    UnboundSymbolError,
    UnknownSymbolError,
    VerticalExtensionError,
)
from .model import check_model, derive_equations, deviation_equations, load_model
from .render import FORMATS, render

USAGE_ERRORS = (
    ParseError,
    SpecError,
    UnknownSymbolError,
    UnboundSymbolError,
    OrderOverflowError,
    VerticalExtensionError,
    ExpansionLimitError,
)
NUMERIC_ERRORS = (CompileError, IntegrationError, EvalError)

#: argparse's own pattern (`-1`, `-1.5`, `-.5`) with an optional exponent, so
#: `--t0 -1e3` reads -1e3 as the value, not as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


def _parse_assignments(text: str, flag: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, value = piece.partition("=")
        name = name.strip()
        if not eq or not name:
            raise SpecError(f"{flag} entries must look like name=value, got {piece!r}")
        if name in out:
            raise SpecError(f"{flag} gives '{name}' more than once")
        try:
            out[name] = float(value.strip())
        except ValueError:
            raise SpecError(f"{flag}: {value.strip()!r} is not a number") from None
    return out


def _parse_eps(text: str) -> tuple:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise SpecError(f"--eps: could not parse {text!r}") from None
    if not values or not all(0 < v < math.inf for v in values):
        raise SpecError("--eps needs a comma-separated list of positive finite numbers")
    return values


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _jacobi_problem(args):
    from .numeric import DEFAULT_DT, JacobiProblem

    model = load_model(args.file, order=args.order)
    if model.spec.n != 1:
        raise SpecError(
            f"{args.command} needs a 1-dimensional base; the model's base is "
            + " ".join(model.spec.base_names)
        )
    init = _parse_assignments(args.init or "", "--init")
    jacobi = _parse_assignments(args.jacobi_init or "", "--jacobi-init")
    dt = DEFAULT_DT if args.dt is None else args.dt
    return JacobiProblem(deviation_equations(model), init, jacobi, args.t0, args.t1, dt)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="model file")
    common.add_argument("--seed", type=int, default=0, help="ignored: every command is exact")
    common.add_argument("--order", type=int, default=None, help="override the inferred jet order")
    common.add_argument("--out", default=None, help="write output here instead of stdout")

    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=FORMATS, default="text")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--init", default="", help="base initial data, e.g. y=1,y_t=0")
    window.add_argument("--jacobi-init", default="", help="Jacobi initial data (missing entries are 0)")
    window.add_argument("--t0", type=float, default=0.0)
    window.add_argument("--t1", type=float, default=10.0)
    window.add_argument("--dt", type=float, default=None)  # None: numeric.DEFAULT_DT

    parser = argparse.ArgumentParser(
        prog="deviq",
        description="Deviation equations, commutation checks, and Jacobi fields "
        "for variational models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("derive", parents=[common, formatted], help="equations of motion")
    sub.add_parser("deviate", parents=[common, formatted], help="deviation system")
    sub.add_parser("check", parents=[common], help="commutation theorem report")
    sub.add_parser("simulate", parents=[common, window], help="integrate base + Jacobi field")
    res = sub.add_parser("residual", parents=[common, window], help="perturbation residual sweep")
    # None: numeric.DEFAULT_EPS_LADDER
    res.add_argument("--eps", default=None, help="comma-separated epsilon ladder")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def run(args) -> int:
    if args.command == "derive":
        model = load_model(args.file, order=args.order)
        _emit(render(derive_equations(model), args.format), args.out)
        return 0
    if args.command == "deviate":
        model = load_model(args.file, order=args.order)
        _emit(render(deviation_equations(model), args.format), args.out)
        return 0
    if args.command == "check":
        model = load_model(args.file, order=args.order)
        report = check_model(model)
        _emit(str(report), args.out)
        return 0 if report.passed else 1
    if args.command == "simulate":
        from .numeric import integrate

        prob = _jacobi_problem(args)
        traj = integrate(prob.compiled, prob.initial_state(), prob.t0, prob.t1, prob.dt)
        _emit(traj.to_csv(), args.out)
        return 0
    if args.command == "residual":
        from .numeric import DEFAULT_EPS_LADDER, perturbation_residual

        prob = _jacobi_problem(args)
        ladder = DEFAULT_EPS_LADDER if args.eps is None else _parse_eps(args.eps)
        table = perturbation_residual(prob, ladder)
        _emit(table.to_csv(), args.out)
        fitted = "n/a" if table.exponent is None else f"{table.exponent:.4f}"
        sys.stderr.write(f"fitted exponent: {fitted} (norm: {table.metadata['norm']})\n")
        return 0
    raise SpecError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except USAGE_ERRORS as ex:
        sys.stderr.write(f"deviq: error: {ex}\n")
        return 2
    except NUMERIC_ERRORS as ex:
        sys.stderr.write(f"deviq: numeric failure: {ex}\n")
        return 3
    except OSError as ex:
        sys.stderr.write(f"deviq: error: {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
