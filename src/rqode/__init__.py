"""Solvers for initial value problems under three oracle-cost models.

The package provides a deterministic two-level Taylor integrator, a
randomized variant that subsamples its residual corrections, and a
quantum-cost-model variant driven by a noise-and-cost oracle stub, plus a
noisy-oracle bisection solver for scalar endpoint problems, planted
hidden-mean verification fixtures, and a benchmark harness that checks the
measured error/cost exponents against their targets.
"""

from .core import (ClassViolationError, CostLedger, HolderParams, IvpProblem,
                   TwoLevelMesh, ValidationReport, build_mesh, residual_bound,
                   validate_holder)
from .estimators import (ArrayFamily, IndexedFamily, MeanEstimate, full_mean,
                         mc_mean, median_boost, median_rep_count,
                         quantum_sim_mean)
from .taylor import (PiecewiseTaylorApprox, fetch_jet, flow_coeffs_from_jet,
                     integrate_field_along)
from .solver import SolveConfig, SolveResult, run_trials, solve, sup_error
from .scalar import BisectionResult, bisection_solve, inverse_class_params
from .planted import PlantedProblem, make_planted, recover_mean
from .fixtures import (Fixture, fixture_names, get_fixture, load_fixture_file,
                       reference_solver)
from .bench import (ExperimentPlan, SlopeReport, report_bytes, run_ladder,
                    run_scalar_ladder)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
