"""Seed-independence and ledger properties over every shipped fixture.

An exact backend never reads its random stream, so a deterministic solve or
bisection must come out the same for any seed; the ladders rely on this to
run such rungs once.  In every mode the per-step receipts of a solve must
add up to its ledger.  The planted jet oracle must give a batch the bytes it
gives each of its points, since the chain asks for single points and the
bisection for batches.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from rqode.core import HolderParams
from rqode.fixtures import fixture_names, get_fixture
from rqode.planted import bump_template, make_planted
from rqode.scalar import bisection_solve
from rqode.solver import MODES, SolveConfig, solve

SCALAR = [name for name in fixture_names()
          if get_fixture(name).params.p is not None]
seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.integers(1, 4)
# planted problems of order r = 0, 1, 2: L bumps on [0, 1/2]
PLANTED_L = 8
PLANTED = [make_planted(np.random.default_rng(r).uniform(-1.0, 1.0, PLANTED_L),
                        HolderParams(r=r, rho=0.5 if r else 1.0,
                                     D=(1.2,) + (1.0,) * r, H=1.0))
           for r in range(3)]
# bump edges (u exactly 0), and points below, inside and above [0, 1/2];
# each example adds uniform points drawn from a seed, since most floats of
# the strategy are round numbers
planted_points = (st.integers(0, PLANTED_L).map(lambda i: i / (2 * PLANTED_L))
                  | st.floats(-1.0, 2.0))
template_points = st.sampled_from([0.0, 0.5, 1.0]) | st.floats()


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


@given(st.sampled_from([(r, k) for r in range(3) for k in range(r + 1)]),
       st.lists(planted_points, max_size=16), seeds)
@settings(max_examples=100, deadline=None)
def test_planted_batch_equals_points(rk, ys, seed):
    r, k = rk
    ys = np.concatenate([ys, np.random.default_rng(seed).uniform(-0.1, 0.6, 8)])
    with np.errstate(all="ignore"):
        batch = PLANTED[r].derivs(k, ys[:, None])[k]
        points = np.stack([PLANTED[r].derivs(k, ys[i:i + 1])[k]
                           for i in range(ys.size)])
    assert batch.shape == points.shape == (ys.size,) + (1,) * (k + 1)
    assert batch.tobytes() == points.tobytes()


@given(st.integers(0, 3), st.lists(template_points, max_size=16), seeds)
@settings(max_examples=100, deadline=None)
def test_bump_template_scalar_equals_array(order, us, seed):
    us = np.concatenate([us, np.random.default_rng(seed).uniform(0.0, 1.0, 8)])
    with np.errstate(all="ignore"):
        array = bump_template(us, order)
        scalars = np.array([bump_template(u, order) for u in us])
    assert array.tobytes() == scalars.tobytes()
