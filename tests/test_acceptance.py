"""Acceptance suite: one check per headline claim, at pinned tolerances.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them all).  Stochastic checks state their tolerance bands inline; every
expected value is either a closed form or computed by an independent oracle
in this file.
"""

import math
import time

import numpy as np
import pytest

from rqode import solver
from rqode.bench import ExperimentPlan, run_ladder, run_scalar_ladder
from rqode.core import residual_bound
from rqode.estimators import (ArrayFamily, MeanEstimate, get_backend,
                              median_boost, median_rep_count,
                              quantum_sim_mean)
from rqode.fixtures import get_fixture, reference_solver
from rqode.planted import make_planted, recover_mean
from rqode.rng import RngStream
from rqode.scalar import bisection_solve
from rqode.solver import SolveConfig, solve, sup_error
from rqode.core import HolderParams


def verdict(criterion: str, ok: bool, detail: str):
    print("ACCEPTANCE %-28s %s  (%s)" % (criterion, "PASS" if ok else "FAIL",
                                         detail))
    assert ok, "%s: %s" % (criterion, detail)


# -------------------------------------------------------------------------
# 1. deterministic order: doubling m gives 2^(r+rho), doubling n gives
#    2^(r+rho+1), each within 20%, under a minute per fixture

def test_criterion_1_deterministic_order():
    t0 = time.time()
    fails = []
    for name in ("sin_flow", "sin_flow_r1", "exp_flow", "exp_flow_r1"):
        t_fx = time.time()
        fx = get_fixture(name)
        order = fx.params.order

        def err(n, m):
            res = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=16))
            return sup_error(res, fx.reference, 256)

        m_errs = [err(4, m) for m in (4, 8, 16, 32)]
        n_errs = [err(n, 4) for n in (4, 8, 16, 32)]
        for e0, e1 in zip(m_errs, m_errs[1:]):
            if not 0.8 * 2 ** order <= e0 / e1 <= 1.2 * 2 ** order:
                fails.append("%s m-ratio %.3f" % (name, e0 / e1))
        for e0, e1 in zip(n_errs, n_errs[1:]):
            if not 0.8 * 2 ** (order + 1) <= e0 / e1 <= 1.2 * 2 ** (order + 1):
                fails.append("%s n-ratio %.3f" % (name, e0 / e1))
        if time.time() - t_fx >= 60.0:
            fails.append("%s runtime" % name)
    verdict("1 deterministic-order", not fails,
            fails[0] if fails else "4 fixtures, ratios in band, %.1fs total"
            % (time.time() - t0))


# -------------------------------------------------------------------------
# 2. randomized exponent: defaults m=n^2, N=n^2, eps1=1/n; pinned ladder;
#    deflated slope -4/3 within 0.12, under 10 minutes

def test_criterion_2_randomized_exponent():
    t0 = time.time()
    plan = ExperimentPlan(fixture="sin_flow", mode="randomized",
                          ladder=[2, 3, 4, 6, 8, 11, 16], trials=30,
                          delta=0.25, seed=11)
    rep = run_ladder(plan)
    elapsed = time.time() - t0
    ok = (abs(rep.slope - (-4.0 / 3.0)) <= 0.12) and elapsed < 600.0
    verdict("2 randomized-exponent", ok,
            "slope %.4f vs -1.3333 +/- 0.12, %.1fs" % (rep.slope, elapsed))


# -------------------------------------------------------------------------
# 3. quantum-sim exponent: defaults m=n, N=n, eps1=1/n; slope -3/2 within
#    0.12 against the modeled oracle cost law; under 10 minutes

def test_criterion_3_quantum_exponent():
    t0 = time.time()
    plan = ExperimentPlan(fixture="sin_flow", mode="quantum_sim",
                          ladder=[2, 3, 4, 6, 8, 11, 16], trials=40,
                          delta=0.25, seed=11)
    rep = run_ladder(plan)
    elapsed = time.time() - t0
    ok = (abs(rep.slope - (-1.5)) <= 0.12) and elapsed < 600.0 \
        and "not real quantum execution" in rep.header
    verdict("3 quantum-sim-exponent", ok,
            "slope %.4f vs -1.5 +/- 0.12, header stated, %.1fs"
            % (rep.slope, elapsed))


# -------------------------------------------------------------------------
# 4. bisection contract on the closed-form fixture, plus scalar cost ladders

def test_criterion_4_bisection_contract():
    t0 = time.time()
    fx = get_fixture("inv1p")
    delta, trials = 0.1, 200
    margin = 1.96 * math.sqrt(delta * (1 - delta) / trials)
    fails = []
    for mode in ("randomized", "quantum_sim"):
        for eps in (1e-2, 1e-3, 1e-4):
            eps1 = eps / (3.0 * fx.params.D[0])
            iter_bound = math.ceil(math.log2(
                fx.params.D[0] * 1.5 / (fx.params.p * eps1)))
            ok_cnt = 0
            for t in range(trials):
                res = bisection_solve(fx.problem, fx.params, eps, delta,
                                      mode=mode, seed=90_000 + 1000 * t + t)
                success = abs(res.y_out - fx.y_star) <= eps and not res.breached
                if success:
                    ok_cnt += 1
                    if res.iters > iter_bound:
                        fails.append("%s eps=%g iters %d > %d"
                                     % (mode, eps, res.iters, iter_bound))
            frac = ok_cnt / trials
            if frac < 1 - delta - margin:
                fails.append("%s eps=%g success %.3f" % (mode, eps, frac))

    ladder = [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2]
    targets = {"randomized": 2.0 / 3.0, "quantum_sim": 0.5}
    slopes = {}
    for mode, target in targets.items():
        plan = ExperimentPlan(fixture="inv1p", mode=mode, ladder=ladder,
                              trials=30, delta=delta, seed=77)
        rep = run_scalar_ladder(plan)
        slopes[mode] = rep.slope
        if abs(rep.slope - target) > 0.12:
            fails.append("%s ladder slope %.3f vs %.3f"
                         % (mode, rep.slope, target))
    verdict("4 bisection-contract", not fails,
            fails[0] if fails else
            "success >= 0.9-%.3f at 3 accuracies x 2 modes; iteration bound "
            "exact; slopes %.3f/%.3f, %.0fs"
            % (margin, slopes["randomized"], slopes["quantum_sim"],
               time.time() - t0))


# -------------------------------------------------------------------------
# 5. planted-mean amplification: reference solve recovers the hidden mean
#    at the amplification scale; the affine law is exact

def test_criterion_5_planted_amplification():
    t0 = time.time()
    params = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
    ref_tol = 1e-9
    rng = np.random.default_rng(55)
    fails = []
    for n in (8, 16, 32):
        lam = rng.uniform(-1.0, 1.0, n)
        pl = make_planted(lam, params)
        ref = reference_solver(pl.problem, rtol=1e-13, atol=1e-13,
                               max_step=pl.width / 3.0)
        rec = recover_mean(float(ref(1.0)[0]), pl.eta, n, pl.mean_scale, 1.0)
        bound = ref_tol * n ** params.order / pl.mean_scale
        if abs(rec - lam.mean()) > bound:
            fails.append("n=%d err %.2e > %.2e"
                         % (n, abs(rec - lam.mean()), bound))
        # affine amplification law, exact up to rounding (dyadic shifts keep
        # z + e exactly representable, so no cancellation noise)
        z = pl.closed_form_endpoint()
        base = recover_mean(z, pl.eta, n, pl.mean_scale, 1.0)
        for e in (2.0 ** -20, 2.0 ** -12):
            got = recover_mean(z + e, pl.eta, n, pl.mean_scale, 1.0) - base
            want = -e * n ** params.order / pl.mean_scale
            if not math.isclose(got, want, rel_tol=1e-11):
                fails.append("affine n=%d" % n)
    verdict("5 planted-amplification", not fails,
            fails[0] if fails else "n=8,16,32 within ref_tol*n^(r+rho)/scale, "
            "%.1fs" % (time.time() - t0))


# -------------------------------------------------------------------------
# 6. estimator laws: exact quantum cost on a grid, boosted median success,
#    and the all-steps success event across whole solves

def test_criterion_6_estimator_laws(monkeypatch):
    t0 = time.time()
    fails = []

    # (a) quantum cost = min(s, ceil(c_q*M/eps1)) exactly on an (s, eps1) grid
    for s in (1, 5, 64, 1000, 10 ** 6):
        for eps1 in (1e-4, 1e-2, 0.3, 1.0, 3.0):
            fam = ArrayFamily(np.zeros((s, 1)), bound=1.0)
            got = quantum_sim_mean(fam, eps1, RngStream(0)).cost["quantum_queries"]
            if got != min(s, math.ceil(1.0 / eps1)):
                fails.append("cost law s=%d eps1=%g -> %d" % (s, eps1, got))

    # (b) median boost on a stubbed base with exactly 3/4 success and
    # worst-case one-sided failures, 1000 trials
    delta = 0.1
    k = median_rep_count(1, delta)
    truth = 0.25
    eps1 = 1e-3

    def stub(family, e, rng):
        fail = rng.uniform() < 0.25
        val = truth + (10.0 if fail else 0.0)
        return MeanEstimate(value=np.array([val]), cost={}, eps_target=e,
                            success_prob=0.75)

    fam = ArrayFamily([truth])
    rng = RngStream(606)
    hits = sum(
        abs(median_boost(stub, fam, eps1, k, rng).value[0] - truth) <= eps1
        for _ in range(1000))
    margin = 1.96 * math.sqrt(delta * (1 - delta) / 1000)
    if hits / 1000 < 1 - delta - margin:
        fails.append("median boost success %.3f" % (hits / 1000))

    # (c) all-steps success event over 200 full solves per stochastic mode:
    # each boosted estimate (one estimator call per step, the median of its
    # k runs) is audited against its family's exact mean
    fx = get_fixture("sin_flow")
    errors = []
    events = []
    for mode in ("randomized", "quantum_sim"):
        name = get_backend(mode).estimator

        def audited(family, eps1, rng, k, _fn=getattr(solver, name)):
            est = _fn(family, eps1, rng, k=k)
            errors.append(float(np.max(np.abs(est.value
                                              - family.exact_mean()))))
            return est
        monkeypatch.setattr(solver, name, audited)
        event = 0
        for t in range(200):
            errors.clear()
            res = solve(fx.problem, fx.params,
                        SolveConfig(n=4, mode=mode, delta=0.25,
                                    seed=1_000_000 + t))
            assert len(errors) == 4, (mode, t, len(errors))
            event += all(e <= res.config.eps1 for e in errors)
        m200 = 1.96 * math.sqrt(0.25 * 0.75 / 200)
        if event / 200 < 0.75 - m200:
            fails.append("%s all-steps event %.3f" % (mode, event / 200))
        events.append("%s %d/200" % (mode, event))

    verdict("6 estimator-laws", not fails,
            fails[0] if fails else "cost grid exact, boost >= 1-delta-margin, "
            "joint event held (%s), %.1fs" % (", ".join(events),
                                              time.time() - t0))


# -------------------------------------------------------------------------
# 7. degeneracy: clamped stochastic modes reproduce the deterministic
#    trajectory bit for bit; constant fields are exact in every mode

def test_criterion_7_degeneracy():
    fx = get_fixture("sin_flow")
    n, m, N = 4, 4, 6
    s = m * N
    M = residual_bound(fx.params, 1)
    det = solve(fx.problem, fx.params, SolveConfig(n=n, m=m, N=N))
    rnd = solve(fx.problem, fx.params,
                SolveConfig(n=n, mode="randomized", m=m, N=N,
                            eps1=2 * M / math.sqrt(s) * 0.999, seed=3))
    qt = solve(fx.problem, fx.params,
               SolveConfig(n=n, mode="quantum_sim", m=m, N=N,
                           eps1=M / s * 0.999, seed=3))
    assert rnd.k_rep > 1 and qt.k_rep > 1
    bitwise = np.array_equal(det.y_grid, rnd.y_grid) and \
        np.array_equal(det.y_grid, qt.y_grid)

    fxc = get_fixture("constant")
    c = np.asarray(fxc.meta["c"])
    exact = True
    for mode in ("deterministic", "randomized", "quantum_sim"):
        res = solve(fxc.problem, fxc.params, SolveConfig(n=4, mode=mode, seed=9))
        expect = fxc.problem.eta[None, :] + \
            np.outer(res.approx.mesh.x, c)
        exact &= bool(np.max(np.abs(res.y_grid - expect)) < 1e-14)

    verdict("7 degeneracy", bitwise and exact,
            "bitwise=%s constant-exact=%s" % (bitwise, exact))
