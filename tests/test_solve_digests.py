"""Bit-identity regression: solves, bisections and ladder reports.

``tests/data/solve_digests.json`` holds, for every shipped fixture x mode x
n in {2, 5}, for the ``EXTRA_SOLVES`` cases and for a planted problem of
each order r = 0, 1, 2 in every mode at a fixed seed, the sha256 of
``y_grid.tobytes()`` and the ledger dict, plus the sha256 of two
``to_report(include_pieces=True)`` documents.  It also holds the sha256 of
``bisection_solve(...).to_report()`` for the scalar fixtures in every mode
(and at eps = 1e-4 in the stochastic modes) and for one r = 2 planted
problem in two modes, of ``report_bytes`` for one tiny
``run_ladder`` per stochastic mode and one tiny ``run_scalar_ladder`` per
mode, of every stock fixture's oracles (``f``, order k of ``derivs(k)``
for k = 0, 1, 2, the reference and ``y_star``) at fixed points, and of one
r = 2 planted oracle (order k of ``derivs(k)`` as a batch and point by
point, and the bump template) on a grid through every bump edge.  Any change to
the oracles, the fine chain, the exact field integration, the endpoint
solver, the ladder runners or the estimators that moves a single ulp or a
single charge fails here.

Regenerate (only after an intentional behaviour change, then review)::

    PYTHONPATH=src python tests/test_solve_digests.py
"""

import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np

from rqode.bench import (ExperimentPlan, report_bytes, run_ladder,
                         run_scalar_ladder)
from rqode.core import HolderParams
from rqode.fixtures import fixture_names, get_fixture
from rqode.planted import bump_template, make_planted
from rqode.scalar import bisection_solve
from rqode.solver import MODES, SolveConfig, solve

DIGESTS = Path(__file__).parent / "data" / "solve_digests.json"
SEED = 11
SIZES = (2, 5)
# (fixture, mode, n) solved on top of the grid: cos_time_r1 randomized n=12
# draws sigma = 9,216 < s = 20,736 <= 5*sigma items per Monte Carlo run, so
# it goes through the branch that tabulates the residual family; n=16 is the
# benchmark's 2-D randomized solve (d = 2, sigma = 16,384 < s = 65,536, read
# from the table), and cos_time n=12 a tabulated r = 0 case
EXTRA_SOLVES = (("cos_time_r1", "randomized", 12),
                ("cos_time_r1", "randomized", 16),
                ("cos_time", "randomized", 12))
# (fixture, mode, n) whose full piece report is digested: one r=0, one r=1
REPORT_CASES = (("sin_flow", "randomized", 2), ("cos_time_r1", "quantum_sim", 5))
# (fixture, eps, delta, modes) bisected; eps = 1e-4 is the accuracy of the
# benchmark's bisection workload and the costliest acceptance rung, where
# the boosted runs of an estimate read the tabulated cell family
BISECTIONS = (("inv1p", 1e-3, 0.1, MODES), ("inv1p_r1", 1e-3, 0.1, MODES),
              ("inv1p", 1e-4, 0.1, ("randomized", "quantum_sim")),
              ("inv1p_r1", 1e-4, 0.1, ("randomized", "quantum_sim")))
# planted problems solved in every mode at n = PLANTED_N, one per order r
PLANTED_LAMBDAS = (0.5, -0.25, 0.75, -1.0)
PLANTED_PARAMS = (HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0),
                  HolderParams(r=1, rho=0.5, D=(1.2, 1.0), H=1.0),
                  HolderParams(r=2, rho=0.5, D=(1.2, 1.0, 1.0), H=1.0))
PLANTED_N = 3
# (planted order r, mode, eps, delta) bisected; r = 2 reaches the order-2
# branch of the 1/f jet
PLANTED_BISECTIONS = ((2, "randomized", 1e-3, 0.1),
                      (2, "quantum_sim", 1e-3, 0.1))
# the planted r = 2 jet oracle (L = 16 bumps on [eta, eta + 1/2]), digested
# on a grid of every bump edge (u exactly 0), points below eta and above
# eta + 1/2, and interior points, both as one (B, 1) batch and as B
# single-point calls; the template is digested on a grid of its own
PLANTED_ORACLE_L = 16
PLANTED_ORACLE_ETA = 0.25
# offsets from eta at which the stock oracles are digested (references are
# digested at 5 times spanning the interval)
ORACLE_OFFSETS = (-0.25, 0.0, 0.375, 1.5)
# ladders: (runner, fixture, rungs, delta, modes)
LADDERS = ((run_ladder, "sin_flow", (2, 3), 0.25, ("randomized", "quantum_sim")),
           (run_scalar_ladder, "inv1p", (1e-3, 1e-2), 0.1, MODES))


def _solve(name, mode, n):
    fx = get_fixture(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(fx.problem, fx.params, SolveConfig(n=n, mode=mode, seed=SEED))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays_sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _oracle_digests(name) -> dict:
    fx = get_fixture(name)
    points = [fx.problem.eta + s for s in ORACLE_OFFSETS]
    out = {"f": _arrays_sha(fx.problem.f(y) for y in points)}
    for k in range(3):
        out["derivs%d" % k] = _arrays_sha(fx.problem.derivs(k, y)[k]
                                          for y in points)
    ts = np.linspace(fx.problem.a, fx.problem.b, 5)
    out["reference"] = _arrays_sha([fx.reference(ts)]
                                   + [fx.reference(t) for t in ts])
    out["y_star"] = None if fx.y_star is None else repr(fx.y_star)
    return out


def _planted_oracle_grid() -> np.ndarray:
    width = 0.5 / PLANTED_ORACLE_L
    edges = np.arange(PLANTED_ORACLE_L + 1, dtype=float)
    fractions = np.array([1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    inner = (edges[:-1, None] + fractions).ravel()
    outside = np.array([-1e3, -1.0, -1e-3, -1e-12])
    offsets = np.concatenate([edges * width, inner * width, outside,
                              0.5 - outside,
                              np.random.default_rng(7).uniform(0.0, 0.5, 64)])
    return PLANTED_ORACLE_ETA + offsets


def _planted_oracle_digests() -> dict:
    lambdas = np.random.default_rng(2024).uniform(-1.0, 1.0, PLANTED_ORACLE_L)
    pl = make_planted(lambdas, PLANTED_PARAMS[2], eta=PLANTED_ORACLE_ETA)
    grid = _planted_oracle_grid()
    out = {}
    for k in range(3):
        out["derivs%d/batch" % k] = _arrays_sha(
            [pl.derivs(k, grid[:, None])[k]])
        out["derivs%d/points" % k] = _arrays_sha(pl.derivs(k, grid[i:i + 1])[k]
                                                 for i in range(grid.size))
    us = np.concatenate([np.linspace(-0.5, 1.5, 81), [0.0, 1.0, 1e-3, 0.999],
                         np.random.default_rng(5).uniform(0.0, 1.0, 64)])
    for k in range(4):
        out["template%d" % k] = _arrays_sha([bump_template(us, k)])
    return out


def compute_digests() -> dict:
    cases = [(name, mode, n) for name in fixture_names() for mode in MODES
             for n in SIZES] + list(EXTRA_SOLVES)
    solves = {}
    for name, mode, n in cases:
        res = _solve(name, mode, n)
        solves["%s/%s/n=%d" % (name, mode, n)] = {
            "y_grid_sha256": _sha(res.y_grid.tobytes()),
            "ledger": res.ledger.as_dict(),
        }
    for params in PLANTED_PARAMS:
        pl = make_planted(PLANTED_LAMBDAS, params)
        for mode in MODES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = solve(pl.problem, pl.params_f,
                            SolveConfig(n=PLANTED_N, mode=mode, seed=SEED))
            solves["planted_r%d/%s/n=%d" % (params.r, mode, PLANTED_N)] = {
                "y_grid_sha256": _sha(res.y_grid.tobytes()),
                "ledger": res.ledger.as_dict(),
            }
    reports = {}
    for name, mode, n in REPORT_CASES:
        rep = _solve(name, mode, n).to_report(include_pieces=True)
        reports["%s/%s/n=%d" % (name, mode, n)] = _sha(
            json.dumps(rep, sort_keys=True).encode())
    bisections = {}
    for name, eps, delta, modes in BISECTIONS:
        fx = get_fixture(name)
        for mode in modes:
            res = bisection_solve(fx.problem, fx.params, eps, delta,
                                  mode=mode, seed=SEED)
            bisections["%s/%s/eps=%g" % (name, mode, eps)] = _sha(
                json.dumps(res.to_report(), sort_keys=True).encode())
    for r, mode, eps, delta in PLANTED_BISECTIONS:
        pl = make_planted(PLANTED_LAMBDAS, PLANTED_PARAMS[r])
        res = bisection_solve(pl.problem, pl.params_f, eps, delta, mode=mode,
                              seed=SEED)
        bisections["planted_r%d/%s/eps=%g" % (r, mode, eps)] = _sha(
            json.dumps(res.to_report(), sort_keys=True).encode())
    ladders = {}
    for runner, name, rungs, delta, modes in LADDERS:
        for mode in modes:
            plan = ExperimentPlan(fixture=name, mode=mode, ladder=rungs,
                                  trials=30, delta=delta, seed=SEED)
            ladders["%s/%s/%s" % (runner.__name__, name, mode)] = _sha(
                report_bytes(runner(plan)))
    oracles = {name: _oracle_digests(name) for name in fixture_names()}
    return {"seed": SEED, "solves": solves, "reports": reports,
            "bisections": bisections, "ladders": ladders, "oracles": oracles,
            "planted_oracle": _planted_oracle_digests()}


def test_solve_digests_unchanged():
    recorded = json.loads(DIGESTS.read_text())
    now = compute_digests()
    assert now["seed"] == recorded["seed"]
    assert sorted(now["solves"]) == sorted(recorded["solves"])
    bad = [case for case, dig in now["solves"].items()
           if dig != recorded["solves"][case]]
    assert not bad, "solve digests moved: %s" % bad
    assert now["reports"] == recorded["reports"]
    assert now["bisections"] == recorded["bisections"]
    assert now["ladders"] == recorded["ladders"]
    assert now["oracles"] == recorded["oracles"]
    assert now["planted_oracle"] == recorded["planted_oracle"]


if __name__ == "__main__":
    out = compute_digests()
    out["recorded_with"] = {"numpy": np.__version__,
                            "machine": platform.machine()}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %d solve digests to %s" % (len(out["solves"]), DIGESTS))
