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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .core import require_count, require_delta, require_nonnegative_int
from .estimators import MODES, empirical_quantile, get_backend
from .fixtures import Fixture, get_fixture
from .rng import child_seed
from .scalar import bisection_solve
# solve and sup_error stay bound here for instrumentation that patches them
from .solver import SolveConfig, run_trials, solve, sup_error

__all__ = [
    "ExperimentPlan",
    "SlopeReport",
    "run_ladder",
    "run_scalar_ladder",
    "emit_report",
    "fit_loglog",
]

SLOPE_TOLERANCE = 0.12
RESIDUAL_THRESHOLD = 0.35
PROBE_COUNT = 192       # sup-error probe points per IVP trial


@dataclass(frozen=True)
class ExperimentPlan:
    """One ladder experiment: fixture, mode, rungs, trials, seed, workers.

    A stock fixture name is resolved to its ``Fixture`` here, and values no
    rung can use (rungs out of order, trials, delta, seed, workers) are
    rejected here rather than in a worker: trials and workers are counts
    (31.0 runs as 31), seed and det_N whole and >= 0 (det_N = 0 means N = n).
    Workers rebuild the fixture from its entry, so a hand-built one (no
    ``meta``) needs ``workers=1``.
    """

    fixture: Fixture
    mode: str
    ladder: Sequence
    trials: int = 30
    delta: float = 0.25
    seed: int = 0
    det_N: int = 1
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.fixture, str):
            object.__setattr__(self, "fixture", get_fixture(self.fixture))
        for name, rule in (("seed", require_nonnegative_int),
                           ("trials", require_count),
                           ("det_N", require_nonnegative_int),
                           ("workers", require_count)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        rungs = tuple(self.ladder)
        if any(b <= a for a, b in zip(rungs, rungs[1:])):
            raise ValueError("ladder must be strictly increasing")
        object.__setattr__(self, "ladder", rungs)
        require_delta(self.delta)
        if get_backend(self.mode).boosted and self.trials < 30:
            raise ValueError("stochastic ladders need at least 30 trials")
        if self.workers > 1 and self.fixture.meta is None:
            raise ValueError("fixture %r has no entry to rebuild in workers; "
                             "use workers=1" % self.fixture.name)


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


def _passes(slope, residual, target):
    if slope is None:
        return None
    return bool(abs(slope - target) <= SLOPE_TOLERANCE
                and residual <= RESIDUAL_THRESHOLD)


def default_target(mode: str, order: float, kind: str = "ivp") -> float:
    """Class-guarantee exponent for the given mode and smoothness order."""
    backend = get_backend(mode)
    if kind == "ivp":
        return -(order + backend.ivp_offset)
    return 1.0 / (order + backend.scalar_offset)


def _rung_config(plan: ExperimentPlan, rung: int, n: int) -> SolveConfig:
    # an exact backend reads det_N midpoints per fine cell; det_N = 0 requests
    # the class-faithful count N = n
    N = None if get_backend(plan.mode).boosted else plan.det_N or n
    return SolveConfig(n=n, mode=plan.mode, N=N, delta=plan.delta,
                       seed=child_seed(plan.seed, rung))


def _trial_count(plan: ExperimentPlan) -> int:
    # an exact backend's runs do not depend on the seed: one is enough
    return plan.trials if get_backend(plan.mode).boosted else 1


def _run_ivp_rung(args):
    plan, rung, n = args
    fx = plan.fixture
    stats = run_trials(fx.problem, fx.params, _rung_config(plan, rung, n),
                       _trial_count(plan), fx.reference, PROBE_COUNT)
    err = get_backend(plan.mode).ivp_error(stats.errors, plan.delta)
    return {"rung": n, "error": err, "cost": float(np.mean(stats.costs)),
            "deflated": float(np.mean(stats.deflated_costs)),
            "k_rep": stats.k_rep}


def _map_rungs(fn, jobs, workers):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _column(rows, key) -> list:
    return [row[key] for row in rows]


def _slope_report(plan: ExperimentPlan, kind: str, rows, fit, raw_fit,
                  **extras) -> SlopeReport:
    """The report of one ladder from its rung rows and fitted data.

    Each row holds the rung's ``rung``, ``error``, ``cost``, ``deflated``
    and ``k_rep``.  ``fit`` and ``raw_fit`` are the (x, y) data of the slope
    and of the raw-cost slope; ``points`` are the log10 pairs of ``fit``.
    """
    fx = plan.fixture
    slope, residual = fit_loglog(*fit)
    raw_slope, _ = fit_loglog(*raw_fit)
    target = default_target(plan.mode, fx.params.order, kind)
    return SlopeReport(
        fixture=fx.name, mode=plan.mode, kind=kind,
        points=[[math.log10(x), math.log10(y)] for x, y in zip(*fit)],
        slope=slope, raw_slope=raw_slope, residual=residual, target=target,
        tolerance=SLOPE_TOLERANCE,
        passed=_passes(slope, residual, target),
        rungs=_column(rows, "rung"), errors=_column(rows, "error"),
        costs=_column(rows, "cost"), deflated_costs=_column(rows, "deflated"),
        trials=plan.trials, seed=plan.seed,
        header=get_backend(plan.mode).header,
        extras={"k_rep": _column(rows, "k_rep"), **extras},
    )


def run_ladder(plan: ExperimentPlan) -> SlopeReport:
    """Error-versus-cost ladder over increasing n; fits the decay exponent.

    The i-th rung runs its trials on the seed spawned from ``(plan.seed,
    spawn_key=(i,))``, so no two rungs share trials.
    """
    if plan.fixture.reference is None:
        raise ValueError("ladders need a fixture with a reference solution")
    rungs = [(plan, i, require_count("ladder rung n", n))
             for i, n in enumerate(plan.ladder)]
    rows = _map_rungs(_run_ivp_rung, rungs, plan.workers)
    errors = _column(rows, "error")
    return _slope_report(plan, "ivp", rows, (_column(rows, "deflated"), errors),
                         (_column(rows, "cost"), errors))


def _run_scalar_rung(args):
    plan, rung, eps = args
    fx = plan.fixture
    runs = [bisection_solve(fx.problem, fx.params, eps, plan.delta,
                            mode=plan.mode, seed=child_seed(plan.seed, rung, t))
            for t in range(_trial_count(plan))]
    errors = [abs(res.y_out - fx.y_star) for res in runs]
    return {"rung": eps, "error": empirical_quantile(errors, plan.delta),
            "cost": float(np.mean([res.ledger.total for res in runs])),
            "deflated": float(np.mean(
                [res.ledger.total / (res.k_rep * res.iters) for res in runs])),
            "k_rep": runs[-1].k_rep,
            "mean_iters": float(np.mean([res.iters for res in runs]))}


def run_scalar_ladder(plan: ExperimentPlan) -> SlopeReport:
    """Cost-versus-accuracy ladder for the endpoint bisection solver.

    Rungs are decreasing accuracy targets; trial t of the i-th rung runs on
    the seed spawned from ``(plan.seed, spawn_key=(i, t))``, so no two rungs
    share trials however close their targets are.  An exact backend runs
    trial 0 only, since its bisections do not depend on the seed.  The
    fitted slope is of deflated cost against 1/eps; deflation divides the
    measured repetition and iteration counts out (the declared log powers:
    (log 1/eps)^2 randomized, log 1/eps quantum).  The log-power deflation
    itself is recorded too.
    """
    if plan.fixture.y_star is None:
        raise ValueError("scalar ladders need a fixture with a known endpoint")
    log_power = get_backend(plan.mode).log_power
    eps_rungs = sorted((float(e) for e in plan.ladder), reverse=True)
    for eps in eps_rungs:
        if not 0.0 < eps < 1.0:
            raise ValueError("scalar ladder rung eps = %g is outside (0, 1): "
                             "the log-power deflation needs log2(1/eps) > 0"
                             % eps)
    rows = _map_rungs(_run_scalar_rung,
                      [(plan, i, e) for i, e in enumerate(eps_rungs)],
                      plan.workers)
    inv_eps = [1.0 / e for e in eps_rungs]
    costs = _column(rows, "cost")
    log_deflated = [c / math.log2(ie) ** log_power
                    for c, ie in zip(costs, inv_eps)]
    return _slope_report(
        plan, "scalar", rows, (inv_eps, _column(rows, "deflated")),
        (inv_eps, costs), mean_iters=_column(rows, "mean_iters"),
        log_power=log_power,
        log_deflated_slope=fit_loglog(inv_eps, log_deflated)[0],
        log_deflated_costs=log_deflated)


def exponent_hierarchy(fixture: str, ladder, trials: int = 30,
                       delta: float = 0.25, seed: int = 0) -> dict:
    """Fitted accuracy-cost exponents per mode, checked for the speed-up order.

    The cost exponent is -1/slope of the error-vs-cost fit: the power of
    1/eps in the cost needed for accuracy eps.  The deterministic rung uses
    the class-faithful midpoint count (N = n).  The modes run in table order
    (``MODES``), and each exponent is expected to be no larger than the one
    before: deterministic >= randomized >= quantum_sim.
    """
    exponents = {}
    for name in MODES:
        plan = ExperimentPlan(fixture=fixture, mode=name, ladder=ladder,
                              trials=trials, delta=delta, seed=seed, det_N=0)
        exponents[name] = -1.0 / run_ladder(plan).slope
    values = list(exponents.values())
    ordered = all(a >= b for a, b in zip(values, values[1:]))
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


def json_text(payload) -> str:
    """Deterministic JSON text: floats to 12 significant digits, sorted keys."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


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
    rep = report.as_dict()
    if format == "json":
        return json_text(rep).encode()
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
