"""Anatomy of the recursive estimator's error.

Freeze a snapshot at t=0, forbid further refreshes, and resample the index
sequence thousands of times: the mean squared error
E[||grad F(x_t) - v_t||^2 | event] must stay below

  convex:     eta L / (2 - eta L) * ||grad F(x_0)||^2       (a constant), and
  nonconvex:  (eta L)^2 * sum_{tau < t} E||v_tau||^2        (grows with t).

This conditional picture is exactly how the loopless analysis tames the
random schedule: conditioned on the last refresh, the iterates behave like
one inner loop anchored there.
"""

from vropt.data import SyntheticSpec, generate_synthetic
from vropt.diagnostics import estimate_mse_bound
from vropt.model import LogisticModel, NonconvexLogisticModel
from vropt.planner import eta_max_nonconvex

ds = generate_synthetic(SyntheticSpec(n=20, d=5, spread=2.0, noise_rate=0.1,
                                      seed=11))

convex = LogisticModel(ds, lam=0.0)
print("convex, eta = 0.5/L, 2000 resamples:")
for rep in estimate_mse_bound(convex, "convex", eta=0.5 / convex.L,
                              horizon=8, resamples=2000, seed=0):
    print(f"  {rep.quantity:10s} estimate {rep.estimate:.4e}  "
          f"bound {rep.bound:.4e}  ({'ok' if rep.passed else 'VIOLATED'})")

noncvx = NonconvexLogisticModel(ds, alpha=1.0)
eta = eta_max_nonconvex(8, noncvx.L)
print(f"\nnonconvex, eta at the quadratic maximum ({eta:.4f}):")
for rep in estimate_mse_bound(noncvx, "nonconvex", eta=eta, horizon=8,
                              resamples=2000, seed=0):
    print(f"  {rep.quantity:10s} estimate {rep.estimate:.4e}  "
          f"bound {rep.bound:.4e}  ({'ok' if rep.passed else 'VIOLATED'})")
