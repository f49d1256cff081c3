"""Experiment runner: convergence ladders, slope fits, deterministic reports.

A ladder runs the solver (or the endpoint bisection) over increasing problem
sizes, records measured error against ledger cost, and fits a log-log slope
to compare with the target exponent.  Boosting multiplies raw cost by the
median repetition count, a logarithmic factor; fits are done on the deflated
cost (stochastic component divided by the measured repetition count, or by
the declared log power for the bisection ladders), and reports record both
raw and deflated slopes.

Reports serialize deterministically: sorted keys, floats at 12 significant
digits, so identical plans and seeds produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .fixtures import get_fixture
from .scalar import bisection_solve
from .solver import (SolveConfig, empirical_quantile, run_trials, solve,
                     sup_error)

__all__ = [
    "ExperimentPlan",
    "SlopeReport",
    "run_ladder",
    "run_scalar_ladder",
    "emit_report",
    "fit_loglog",
    "QUANTUM_HEADER",
]

QUANTUM_HEADER = ("quantum_sim results validate the algorithm against the "
                  "modeled oracle cost law min(s, c_q*M/eps1), not real "
                  "quantum execution")

SLOPE_TOLERANCE = 0.12
RESIDUAL_THRESHOLD = 0.35


@dataclass(frozen=True)
class ExperimentPlan:
    """One ladder experiment: fixture, mode, rungs, trials, seed."""

    fixture: str
    mode: str
    ladder: Sequence
    trials: int = 30
    delta: float = 0.25
    seed: int = 0
    probe_count: int = 192
    det_N: int = 1
    tolerance: float = SLOPE_TOLERANCE
    target: Optional[float] = None
    workers: int = 1

    def __post_init__(self):
        rungs = tuple(self.ladder)
        if any(b <= a for a, b in zip(rungs, rungs[1:])):
            raise ValueError("ladder must be strictly increasing")
        object.__setattr__(self, "ladder", rungs)
        if self.mode in ("randomized", "quantum_sim") and self.trials < 30:
            raise ValueError("stochastic ladders need at least 30 trials")


@dataclass
class SlopeReport:
    """Fitted log-log slope against a target exponent."""

    fixture: str
    mode: str
    kind: str
    points: list                    # (log10 cost_deflated, log10 error)
    slope: Optional[float]
    raw_slope: Optional[float]
    residual: Optional[float]
    target: float
    tolerance: float
    passed: Optional[bool]
    rungs: list
    errors: list
    costs: list
    deflated_costs: list
    trials: int
    seed: int
    header: str = ""
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def fit_loglog(xs, ys):
    """Least-squares slope of log10(y) on log10(x), plus the max residual."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        return None, None
    lx, ly = np.log10(xs), np.log10(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.max(np.abs(A @ coef - ly)))
    return float(coef[0]), resid


def _passes(slope, residual, target, tolerance):
    if slope is None:
        return None
    return bool(abs(slope - target) <= tolerance and residual <= RESIDUAL_THRESHOLD)


def default_target(mode: str, order: float, kind: str = "ivp") -> float:
    """Class-guarantee exponent for the given mode and smoothness order."""
    if kind == "ivp":
        if mode == "randomized":
            return -(order + 1.0 / 3.0)
        return -(order + 0.5)           # deterministic (m = n) and quantum_sim
    if mode == "randomized":
        return 1.0 / (order + 0.5)
    if mode == "quantum_sim":
        return 1.0 / (order + 1.0)
    return 1.0 / order


def _rung_config(plan: ExperimentPlan, n: int) -> SolveConfig:
    if plan.mode == "deterministic":
        # det_N = 0 requests the class-faithful midpoint count N = n
        N = n if plan.det_N == 0 else plan.det_N
        return SolveConfig(n=n, mode="deterministic", m=n, N=N,
                           seed=plan.seed)
    return SolveConfig(n=n, mode=plan.mode, delta=plan.delta, seed=plan.seed)


def _run_ivp_rung(args):
    plan, n = args
    fx = get_fixture(plan.fixture) if isinstance(plan.fixture, str) else plan.fixture
    if fx.reference is None:
        raise ValueError("ladders need a fixture with a reference solution")
    cfg = _rung_config(plan, n)
    if plan.mode == "deterministic":
        res = solve(fx.problem, fx.params, cfg)
        err = sup_error(res, fx.reference, plan.probe_count)
        return {"n": n, "error": err, "cost": float(res.ledger.total),
                "deflated": float(res.ledger.total), "k_rep": 1}
    stats = run_trials(fx.problem, fx.params, cfg, plan.trials, fx.reference,
                       plan.probe_count)
    if plan.mode == "randomized":
        err = float(np.sqrt(np.mean(stats.errors ** 2)))
    else:
        err = empirical_quantile(stats.errors, plan.delta)
    return {"n": n, "error": err, "cost": float(np.mean(stats.costs)),
            "deflated": float(np.mean(stats.deflated_costs)),
            "k_rep": stats.k_rep}


def _map_rungs(fn, jobs, workers):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def run_ladder(plan: ExperimentPlan) -> SlopeReport:
    """Error-versus-cost ladder over increasing n; fits the decay exponent."""
    fx = get_fixture(plan.fixture) if isinstance(plan.fixture, str) else plan.fixture
    workers = plan.workers or int(os.environ.get("RQODE_WORKERS", "1"))
    rows = _map_rungs(_run_ivp_rung, [(plan, int(n)) for n in plan.ladder],
                      workers)
    errors = [row["error"] for row in rows]
    costs = [row["cost"] for row in rows]
    deflated = [row["deflated"] for row in rows]
    slope, residual = fit_loglog(deflated, errors)
    raw_slope, _ = fit_loglog(costs, errors)
    target = plan.target if plan.target is not None else \
        default_target(plan.mode, fx.params.order, "ivp")
    points = [[math.log10(c), math.log10(e)] for c, e in zip(deflated, errors)]
    return SlopeReport(
        fixture=fx.name, mode=plan.mode, kind="ivp", points=points,
        slope=slope, raw_slope=raw_slope, residual=residual, target=target,
        tolerance=plan.tolerance,
        passed=_passes(slope, residual, target, plan.tolerance),
        rungs=[int(n) for n in plan.ladder], errors=errors, costs=costs,
        deflated_costs=deflated, trials=plan.trials, seed=plan.seed,
        header=QUANTUM_HEADER if plan.mode == "quantum_sim" else "",
        extras={"k_rep": [row["k_rep"] for row in rows]},
    )


def _run_scalar_rung(args):
    plan, rung, eps = args
    fx = get_fixture(plan.fixture) if isinstance(plan.fixture, str) else plan.fixture
    if fx.y_star is None:
        raise ValueError("scalar ladders need a fixture with a known endpoint")
    errs = np.empty(plan.trials)
    costs = np.empty(plan.trials)
    deflated = np.empty(plan.trials)
    iters = np.empty(plan.trials)
    k_rep = 1
    for t in range(plan.trials):
        seed = int(np.random.SeedSequence(
            entropy=plan.seed, spawn_key=(rung, t)).generate_state(1)[0])
        res = bisection_solve(fx.problem, fx.params, eps, plan.delta,
                              mode=plan.mode, seed=seed)
        errs[t] = abs(res.y_out - fx.y_star)
        costs[t] = res.ledger.total
        deflated[t] = res.ledger.total / (res.k_rep * res.iters)
        iters[t] = res.iters
        k_rep = res.k_rep
    quant = empirical_quantile(errs, plan.delta) if plan.mode != "deterministic" \
        else float(np.max(errs))
    return {"eps": eps, "error": quant, "cost": float(np.mean(costs)),
            "deflated": float(np.mean(deflated)), "k_rep": k_rep,
            "mean_iters": float(np.mean(iters))}


def run_scalar_ladder(plan: ExperimentPlan) -> SlopeReport:
    """Cost-versus-accuracy ladder for the endpoint bisection solver.

    Rungs are decreasing accuracy targets; trial t of the i-th rung runs on
    the seed spawned from ``(plan.seed, spawn_key=(i, t))``, so no two rungs
    share trials however close their targets are.  The fitted slope is of
    deflated cost against 1/eps; deflation divides the measured repetition and
    iteration counts out (the declared log powers: (log 1/eps)^2 randomized,
    log 1/eps quantum).  The log-power deflation itself is recorded too.
    """
    fx = get_fixture(plan.fixture) if isinstance(plan.fixture, str) else plan.fixture
    eps_rungs = sorted((float(e) for e in plan.ladder), reverse=True)
    workers = plan.workers or int(os.environ.get("RQODE_WORKERS", "1"))
    rows = _map_rungs(_run_scalar_rung,
                      [(plan, i, e) for i, e in enumerate(eps_rungs)], workers)
    inv_eps = [1.0 / row["eps"] for row in rows]
    costs = [row["cost"] for row in rows]
    deflated = [row["deflated"] for row in rows]
    log_power = {"randomized": 2, "quantum_sim": 1}.get(plan.mode, 0)
    log_deflated = [c / math.log2(ie) ** log_power
                    for c, ie in zip(costs, inv_eps)]
    slope, residual = fit_loglog(inv_eps, deflated)
    raw_slope, _ = fit_loglog(inv_eps, costs)
    log_slope, _ = fit_loglog(inv_eps, log_deflated)
    target = plan.target if plan.target is not None else \
        default_target(plan.mode, fx.params.order, "scalar")
    points = [[math.log10(ie), math.log10(c)] for ie, c in zip(inv_eps, deflated)]
    return SlopeReport(
        fixture=fx.name, mode=plan.mode, kind="scalar", points=points,
        slope=slope, raw_slope=raw_slope, residual=residual, target=target,
        tolerance=plan.tolerance,
        passed=_passes(slope, residual, target, plan.tolerance),
        rungs=[row["eps"] for row in rows], errors=[row["error"] for row in rows],
        costs=costs, deflated_costs=deflated, trials=plan.trials,
        seed=plan.seed,
        header=QUANTUM_HEADER if plan.mode == "quantum_sim" else "",
        extras={"k_rep": [row["k_rep"] for row in rows],
                "mean_iters": [row["mean_iters"] for row in rows],
                "log_power": log_power,
                "log_deflated_slope": log_slope,
                "log_deflated_costs": log_deflated},
    )


def exponent_hierarchy(fixture: str, ladder, trials: int = 30,
                       delta: float = 0.25, seed: int = 0) -> dict:
    """Fitted accuracy-cost exponents per mode, checked for the speed-up order.

    The cost exponent is -1/slope of the error-vs-cost fit: the power of
    1/eps in the cost needed for accuracy eps.  The deterministic rung uses
    the class-faithful midpoint count (N = n); the expected ordering is
    deterministic >= randomized >= quantum_sim.
    """
    exponents = {}
    for mode in ("deterministic", "randomized", "quantum_sim"):
        plan = ExperimentPlan(fixture=fixture, mode=mode, ladder=ladder,
                              trials=trials if mode != "deterministic" else 30,
                              delta=delta, seed=seed, det_N=0)
        rep = run_ladder(plan)
        exponents[mode] = -1.0 / rep.slope
    ordered = (exponents["deterministic"] >= exponents["randomized"]
               >= exponents["quantum_sim"])
    return {"exponents": exponents, "ordered": bool(ordered)}


# ---------------------------------------------------------------------------
# deterministic report emission

def _round_floats(obj):
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float("%.12g" % float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def report_bytes(report: SlopeReport, format: str = "json") -> bytes:
    """Serialize a report deterministically in json, csv, or markdown-table."""
    rep = report.as_dict() if isinstance(report, SlopeReport) else dict(report)
    if format == "json":
        return (json.dumps(_round_floats(rep), sort_keys=True, indent=2)
                + "\n").encode()
    rows = list(zip(rep["rungs"], rep["costs"], rep["deflated_costs"],
                    rep["errors"]))
    if format == "csv":
        lines = ["rung,cost,deflated_cost,error"]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    if format == "markdown-table":
        lines = []
        if rep.get("header"):
            lines.append("> %s" % rep["header"])
            lines.append("")
        lines.append("| rung | cost | deflated_cost | error |")
        lines.append("| --- | --- | --- | --- |")
        lines += ["| %s |" % " | ".join(_fmt(v) for v in row) for row in rows]
        lines.append("")
        lines.append("slope=%s target=%s tolerance=%s pass=%s" % (
            _fmt(rep["slope"]), _fmt(rep["target"]),
            _fmt(rep["tolerance"]), _fmt(rep["passed"])))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("unknown report format %r" % format)


def emit_report(report: SlopeReport, path, format: str = "json"):
    """Write a report file with byte-deterministic content."""
    data = report_bytes(report, format)
    with open(path, "wb") as fh:
        fh.write(data)
    return path
