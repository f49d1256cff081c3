"""Seed-independence and ledger properties over every shipped fixture.

An exact backend never reads its random stream, so a deterministic solve or
bisection must come out the same for any seed; the ladders rely on this to
run such rungs once.  In every mode the per-step receipts of a solve must
add up to its ledger.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from rqode.fixtures import fixture_names, get_fixture
from rqode.scalar import bisection_solve
from rqode.solver import MODES, SolveConfig, solve

SCALAR = [name for name in fixture_names()
          if get_fixture(name).params.p is not None]
seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.integers(1, 4)


def _solve(name, mode, n, seed):
    fx = get_fixture(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(fx.problem, fx.params, SolveConfig(n=n, mode=mode,
                                                        seed=seed))


@given(st.sampled_from(fixture_names()), sizes, seeds, seeds)
@settings(max_examples=50, deadline=None)
def test_deterministic_solve_ignores_seed(name, n, s1, s2):
    a = _solve(name, "deterministic", n, s1)
    b = _solve(name, "deterministic", n, s2)
    assert np.array_equal(a.y_grid, b.y_grid)
    assert a.ledger.as_dict() == b.ledger.as_dict()


@given(st.sampled_from(SCALAR), seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_deterministic_bisection_ignores_seed(name, s1, s2):
    fx = get_fixture(name)
    a, b = (bisection_solve(fx.problem, fx.params, 1e-2, 0.1,
                            mode="deterministic", seed=s).to_report()
            for s in (s1, s2))
    assert a.pop("seed") == s1 and b.pop("seed") == s2
    assert a == b


@given(st.sampled_from(fixture_names()), st.sampled_from(MODES), sizes, seeds)
@settings(max_examples=50, deadline=None)
def test_step_receipts_sum_to_ledger(name, mode, n, seed):
    res = _solve(name, mode, n, seed)
    ledger = res.ledger.as_dict()
    for key, spent in res.step_receipts[0].items():
        assert sum(rec[key] for rec in res.step_receipts) == ledger[key], key
