"""The step-size planner and its convergence certificates.

Every regime returns a concrete eta plus the quantity that certifies it:

  strongly convex   per-epoch decay factor (sigma_m, lambda_m, or lambda)
  convex            the margin C_eta = 1 - eta L/(2 - eta L)
  nonconvex         the largest eta with m (eta L)^2 + eta L - 1 <= 0

The script also shows the certificates' dependence on the snapshot gap m:
the last-iterate certificate decays like theta^m, while the step-back
(loopless) epoch certificate needs m well past 8*kappa to dip below one.
"""

import math

from vropt import plan_step_size
from vropt.data import SyntheticSpec, generate_synthetic
from vropt.model import LogisticModel
from vropt.planner import (
    eta_max_nonconvex,
    lambda_last_iterate,
    lambda_loopless_sc,
    theta_strongly_convex,
)

ds = generate_synthetic(SyntheticSpec(n=300, d=10, spread=1.5,
                                      noise_rate=0.1, seed=4))
base = LogisticModel(ds, lam=0.0)
model = LogisticModel(ds, lam=base.L / 49.0)  # kappa = 50
kappa = model.L / model.mu
print(f"instance: n={model.n}, kappa={kappa:.0f}\n")

for algo in ("SARAH", "SARAH-LI", "L2S-SC", "D2S"):
    m = math.ceil(4.5 * kappa)
    plan = plan_step_size(model, algo, "strongly-convex", m)
    cert = ", ".join(f"{k}={v:.4f}" for k, v in plan.certificate.items())
    print(f"  {algo:9s} m={m}: eta={plan.eta:.4f}  {cert}  "
          f"valid={plan.valid}")

print()
for regime, m in (("convex-n-independent", 64), ("convex-n-dependent", 300),
                  ("nonconvex", 300)):
    plan = plan_step_size(model, "L2S", regime, m)
    cert = ", ".join(f"{k}={v:.4f}" for k, v in plan.certificate.items())
    print(f"  L2S {regime:22s} m={m}: eta={plan.eta:.5f}  {cert}")

print("\nnonconvex eta_max at selected m (units of 1/L):")
for m in (1, 2, 6, 25, 100, 400):
    print(f"  m={m:4d}: eta_max * L = {eta_max_nonconvex(m, 1.0):.4f}")

eta = 0.5 / model.L
theta = theta_strongly_convex(eta, model.L, model.mu)
print(f"\ncertificates vs m at eta=0.5/L (theta={theta:.5f}):")
print(f"  {'m':>6s} {'lambda_m (last-iterate)':>26s} "
      f"{'lambda (step-back epoch)':>26s}")
for mult in (2, 4.5, 8, 9, 12):
    m = math.ceil(mult * kappa)
    lm = lambda_last_iterate(eta, model.L, theta, m)
    lsc = lambda_loopless_sc(eta, model.L, theta, m)
    print(f"  {m:6d} {lm:26.4f} {lsc:26.4f}")
