"""Bit-identity regression: solve() trajectories, ledgers and piece reports.

``tests/data/solve_digests.json`` holds, for every shipped fixture x mode x
n in {2, 5} and for the ``EXTRA_SOLVES`` cases at a fixed seed, the sha256
of ``y_grid.tobytes()`` and the ledger dict, plus the sha256 of two
``to_report(include_pieces=True)`` documents.  Any change to the fine chain,
the exact field integration or the estimators that moves a single ulp or a
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

from rqode.fixtures import fixture_names, get_fixture
from rqode.solver import MODES, SolveConfig, solve

DIGESTS = Path(__file__).parent / "data" / "solve_digests.json"
SEED = 11
SIZES = (2, 5)
# (fixture, mode, n) solved on top of the grid: cos_time_r1 randomized n=12
# draws sigma = 9,216 < s = 20,736 <= 5*sigma items per Monte Carlo run, so
# it goes through the branch that tabulates the residual family
EXTRA_SOLVES = (("cos_time_r1", "randomized", 12),)
# (fixture, mode, n) whose full piece report is digested: one r=0, one r=1
REPORT_CASES = (("sin_flow", "randomized", 2), ("cos_time_r1", "quantum_sim", 5))


def _solve(name, mode, n):
    fx = get_fixture(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(fx.problem, fx.params, SolveConfig(n=n, mode=mode, seed=SEED))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    reports = {}
    for name, mode, n in REPORT_CASES:
        rep = _solve(name, mode, n).to_report(include_pieces=True)
        reports["%s/%s/n=%d" % (name, mode, n)] = _sha(
            json.dumps(rep, sort_keys=True).encode())
    return {"seed": SEED, "solves": solves, "reports": reports}


def test_solve_digests_unchanged():
    recorded = json.loads(DIGESTS.read_text())
    now = compute_digests()
    assert now["seed"] == recorded["seed"]
    assert sorted(now["solves"]) == sorted(recorded["solves"])
    bad = [case for case, dig in now["solves"].items()
           if dig != recorded["solves"][case]]
    assert not bad, "solve digests moved: %s" % bad
    assert now["reports"] == recorded["reports"]


if __name__ == "__main__":
    out = compute_digests()
    out["recorded_with"] = {"numpy": np.__version__,
                            "machine": platform.machine()}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %d solve digests to %s" % (len(out["solves"]), DIGESTS))
