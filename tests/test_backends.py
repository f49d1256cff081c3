"""The backend table: one record per oracle-cost model.

Every entry point looks its mode up in ``BACKENDS``, and the solvers reach
the mean backends through their own module attributes, which is where
instrumentation wraps them.
"""

import inspect
from collections import Counter

import numpy as np
import pytest

from rqode import estimators, scalar, solver
from rqode.bench import ExperimentPlan
from rqode.cli import build_parser
from rqode.core import CostLedger
from rqode.estimators import ArrayFamily, median_boost
from rqode.fixtures import get_fixture
from rqode.rng import RngStream
from rqode.scalar import bisection_solve
from rqode.solver import MODES, SolveConfig

ESTIMATOR = {"deterministic": "full_mean", "randomized": "mc_mean",
             "quantum_sim": "quantum_sim_mean"}


def test_modes_are_the_table_keys():
    from rqode.estimators import BACKENDS
    assert MODES == tuple(BACKENDS) == tuple(ESTIMATOR)
    for mode, backend in BACKENDS.items():
        assert backend.estimator == ESTIMATOR[mode]
        assert backend.boosted == (mode != "deterministic")


def test_cli_mode_choices_are_the_modes():
    parser = build_parser()
    for command, size in (("solve", "--n"), ("bisect", "--eps"),
                          ("ladder", "--n"), ("scalar-ladder", "--eps")):
        argv = [command, "--fixture", "inv1p", size, "2", "--mode"]
        assert [parser.parse_args(argv + [m]).mode for m in MODES] == list(MODES)
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["bogus"])


ENTRY_POINTS = {
    "SolveConfig.resolved": lambda fx: SolveConfig(n=2, mode="bogus").resolved(),
    "bisection_solve": lambda fx: bisection_solve(fx.problem, fx.params, 1e-3,
                                                  0.1, mode="bogus"),
    "ExperimentPlan": lambda fx: ExperimentPlan(fixture="inv1p", mode="bogus",
                                                ladder=[1e-3, 1e-2]),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_mode_rejected(entry):
    fx = get_fixture("inv1p")
    with pytest.raises(ValueError, match="unknown mode 'bogus'; known modes: "
                       "deterministic, randomized, quantum_sim"):
        ENTRY_POINTS[entry](fx)


def _count_calls(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_solve_calls_the_solver_attributes(monkeypatch, mode):
    # one estimator call per step: a boosted one takes the median of its
    # k_rep runs itself
    calls = _count_calls(monkeypatch, solver, ("full_mean", "mc_mean",
                                               "quantum_sim_mean"))
    fx = get_fixture("sin_flow")
    res = solver.solve(fx.problem, fx.params, SolveConfig(n=2, mode=mode))
    assert (res.k_rep > 1) == (mode != "deterministic")
    assert calls == {ESTIMATOR[mode]: 2}


@pytest.mark.parametrize("mode", MODES)
def test_bisection_calls_the_scalar_attributes(monkeypatch, mode):
    # one estimator call per iteration, for a boosted one the median of
    # its k_rep runs
    calls = _count_calls(monkeypatch, scalar, ("full_mean", "mc_mean",
                                               "quantum_sim_mean"))
    fx = get_fixture("inv1p")
    res = scalar.bisection_solve(fx.problem, fx.params, 1e-2, 0.1, mode=mode)
    assert (res.k_rep > 1) == (mode != "deterministic")
    assert calls == {ESTIMATOR[mode]: res.iters}


@pytest.mark.parametrize("mode", ["randomized", "quantum_sim"])
def test_only_solve_steps_spawn_streams(monkeypatch, mode):
    # a boosted estimate's k runs draw in turn from the stream they are
    # given: a solve spawns its n step streams once, a bisection never
    calls = _count_calls(monkeypatch, RngStream, ("spawn",))
    fx = get_fixture("inv1p")
    res = scalar.bisection_solve(fx.problem, fx.params, 1e-2, 0.1, mode=mode)
    assert res.k_rep > 1 and calls["spawn"] == 0
    fx = get_fixture("sin_flow")
    res = solver.solve(fx.problem, fx.params, SolveConfig(n=3, mode=mode))
    assert res.k_rep > 1 and calls["spawn"] == 1


def test_backends_share_one_call_shape():
    # every mean backend takes (family, eps1, rng, k), so a solve and a
    # bisection call it one way in every mode
    for backend in estimators.BACKENDS.values():
        fn = getattr(estimators, backend.estimator)
        assert list(inspect.signature(fn).parameters) == [
            "family", "eps1", "rng", "k"], backend.estimator


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("size", [3, 100, 2000])
def test_k_runs_equal_median_boost(mode, size):
    # k runs in one call equal median_boost's k calls of one run, in value
    # bytes and in charge.  With eps1 = 0.4 and d = 2 (sigma = 25, 5 reps,
    # q = 3), a family of 3 is enumerated by Monte Carlo and the quantum
    # stub, one of 100 is tabulated for Monte Carlo and one of 2000 is not
    eps1 = 0.4
    fn = getattr(estimators, estimators.get_backend(mode).estimator)
    vals = np.random.default_rng(size).uniform(-1, 1, size=(size, 2))
    for k in (1, 5, 9):
        led, ref_led = CostLedger(), CostLedger()
        est = fn(ArrayFamily(vals, bound=1.0, ledger=led), eps1,
                 RngStream(k, led), k=k)
        ref = median_boost(fn, ArrayFamily(vals, bound=1.0, ledger=ref_led),
                           eps1, k, RngStream(k, ref_led))
        assert est.value.tobytes() == ref.value.tobytes(), k
        assert est.cost == ref.cost and led.as_dict() == ref_led.as_dict()
        assert est.success_prob == ref.success_prob


def test_run_count_is_the_median_rule():
    for mode, backend in estimators.BACKENDS.items():
        for n, delta in ((1, 0.25), (8, 0.1), (30, 0.01)):
            assert backend.run_count(n, delta) == (
                estimators.median_rep_count(n, delta) if backend.boosted
                else 1), mode
