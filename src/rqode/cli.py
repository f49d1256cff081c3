"""Command-line front end.

Subcommands: solve, bisect, ladder, scalar-ladder, validate-class, plant.
Exit codes: 0 on success/pass, 2 when a slope or validation check fails,
1 on any error.  RQODE_WORKERS sets the worker count for ladder rungs.
This is the one module that writes output: the library returns it as text
(``json_text``) or bytes (``report_bytes``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .bench import ExperimentPlan, json_text, report_bytes, run_ladder, \
    run_scalar_ladder
from .core import HolderParams, require_count, require_finite_input, \
    require_nonnegative_int, validate_holder
from .estimators import MODES
from .fixtures import get_fixture
from .planted import make_planted
from .scalar import bisection_solve
from .solver import SolveConfig, solve


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; errors are exit 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _write(text: str, out) -> None:
    """Write a command's output to the ``--out`` path, or else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(sp):
    sp.add_argument("--fixture", required=True, help="fixture name (see fixtures)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_ladder_options(sp, delta):
    sp.add_argument("--trials", type=int, default=30)
    sp.add_argument("--delta", type=float, default=delta)
    sp.add_argument("--format", default="json",
                    choices=["json", "csv", "markdown-table"])


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rqode",
                description="solvers and benchmark ladders for initial value "
                            "problems under classical, sampled, and "
                            "quantum-cost-model oracles")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[], help="run one solve")
    _add_common(sp)
    sp.add_argument("--mode", default="deterministic", choices=MODES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None,
                    help="mean-estimation tolerance (default 1/n)")
    sp.add_argument("--delta", type=float, default=0.25)
    sp.add_argument("--pieces", action="store_true",
                    help="include piece coefficients in the report")

    sp = sub.add_parser("bisect", help="endpoint bisection for scalar fixtures")
    _add_common(sp)
    sp.add_argument("--mode", default="randomized", choices=MODES)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.1)

    sp = sub.add_parser("ladder", help="error-vs-cost ladder and slope check")
    _add_common(sp)
    sp.add_argument("--mode", default="deterministic", choices=MODES)
    sp.add_argument("--n", type=int, nargs="+", required=True,
                    help="ladder of n values")
    _add_ladder_options(sp, delta=0.25)

    sp = sub.add_parser("scalar-ladder", help="cost-vs-accuracy bisection ladder")
    _add_common(sp)
    sp.add_argument("--mode", default="randomized", choices=MODES)
    sp.add_argument("--eps", type=float, nargs="+", required=True,
                    help="accuracy rungs")
    _add_ladder_options(sp, delta=0.1)

    sp = sub.add_parser("validate-class", help="sampled smoothness-class check")
    _add_common(sp)
    sp.add_argument("--grid", type=int, default=101, help="grid points per axis")
    sp.add_argument("--lo", type=float, default=None)
    sp.add_argument("--hi", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("plant", help="emit a planted hidden-mean fixture")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--H", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    return p


def _cmd_solve(args) -> int:
    fx = get_fixture(args.fixture)
    cfg = SolveConfig(n=args.n, mode=args.mode, m=args.m, N=args.N,
                      eps1=args.eps, delta=args.delta, seed=args.seed)
    res = solve(fx.problem, fx.params, cfg)
    _write(json_text(res.to_report(include_pieces=args.pieces)), args.out)
    return 0


def _cmd_bisect(args) -> int:
    fx = get_fixture(args.fixture)
    res = bisection_solve(fx.problem, fx.params, args.eps, args.delta,
                          mode=args.mode, seed=args.seed)
    _write(json_text(res.to_report()), args.out)
    return 0


def _cmd_ladder(args, run, rungs) -> int:
    raw = os.environ.get("RQODE_WORKERS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError("RQODE_WORKERS must be a positive integer: %r" % raw)
    plan = ExperimentPlan(fixture=args.fixture, mode=args.mode, ladder=rungs,
                          trials=args.trials, delta=args.delta, seed=args.seed,
                          workers=int(raw))
    report = run(plan)
    _write(report_bytes(report, args.format).decode(), args.out)
    return 2 if report.passed is False else 0


def _cmd_validate(args) -> int:
    count = require_count("--grid", args.grid)
    fx = get_fixture(args.fixture)
    lo = args.lo
    hi = args.hi
    if lo is None or hi is None:
        a, b = fx.problem.interval
        ref = fx.reference
        if ref is not None:
            vals = np.asarray(ref(np.linspace(a, b, 64)), dtype=float)
            lo = float(vals.min()) - 0.1 if lo is None else lo
            hi = float(vals.max()) + 0.1 if hi is None else hi
        else:
            lo = float(fx.problem.eta.min()) - 1.0 if lo is None else lo
            hi = float(fx.problem.eta.max()) + 1.0 if hi is None else hi
    require_finite_input("grid", lo, hi)
    pts = np.linspace(lo, hi, count)
    if fx.problem.dim == 1:
        grid = pts[:, None]
    else:
        grid = np.tile(fx.problem.eta, (count, 1))
        grid[:, 0] = pts
    rep = validate_holder(fx.problem, fx.params, grid, tol=args.tol)
    _write(json_text(dataclasses.asdict(rep)), args.out)
    return 0 if rep.passed else 2


def _cmd_plant(args) -> int:
    require_count("--n", args.n)
    rng = np.random.default_rng(require_nonnegative_int("seed", args.seed))
    lambdas = rng.uniform(-1.0, 1.0, size=args.n)
    D = tuple([1.0] * (args.r + 1))
    params = HolderParams(r=args.r, rho=args.rho, D=D, H=args.H)
    planted = make_planted(lambdas, params)
    entry = planted.to_entry("planted_n%d_seed%d" % (args.n, args.seed))
    _write(json_text([entry]), args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bisect": _cmd_bisect,
    "ladder": lambda args: _cmd_ladder(args, run_ladder, args.n),
    "scalar-ladder": lambda args: _cmd_ladder(args, run_scalar_ladder,
                                              sorted(args.eps)),
    "validate-class": _cmd_validate,
    "plant": _cmd_plant,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:
        # str() of a KeyError is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write("error: %s\n" % msg)
        return 1


if __name__ == "__main__":
    sys.exit(main())
