"""Planted problems: the endpoint of a flow encodes a hidden mean.

Bump perturbations with prescribed peak and mass laws are planted into
g = 1 + sum(lambda_i h_i); solving z' = 1/g(z) to time 1 and applying an
affine map recovers mean(lambda), with endpoint errors amplified by exactly
n^(r+rho) / mean_scale.  This makes planted problems sharp verification
fixtures: a solver that cheats the error target cannot survive the
amplification.
"""

import numpy as np

from rqode import HolderParams, make_planted, recover_mean
from rqode.fixtures import reference_solver

params = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
rng = np.random.default_rng(2)

for n in (8, 32):
    lam = rng.uniform(-1.0, 1.0, n)
    pl = make_planted(lam, params)
    ref = reference_solver(pl.problem, rtol=1e-13, atol=1e-13,
                           max_step=pl.width / 3.0)
    z1 = float(ref(1.0)[0])
    rec = recover_mean(z1, pl.eta, n, pl.mean_scale, params.order)
    print("n=%2d  z(1)=%.12f  recovered mean % .10f  true % .10f  "
          "amplification %.0fx"
          % (n, z1, rec, lam.mean(), n ** params.order / pl.mean_scale))

pl = make_planted([1.0], params)
print("\nsingle planted bump: closed-form endpoint %.12f "
      "(= eta + 1 - mean_scale)" % pl.closed_form_endpoint())
print("field stays within [3/4, 3/2]: f in [%.4f, %.4f]"
      % (pl.problem.f(np.linspace(0, 0.5, 2001)[:, None]).min(),
         pl.problem.f(np.linspace(0, 0.5, 2001)[:, None]).max()))
