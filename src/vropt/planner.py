"""Step-size planning: certified step sizes and the convergence
certificates behind them (the theory of ``vropt.optim``'s algorithms)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

REGIMES = ("strongly-convex", "convex-n-independent", "convex-n-dependent",
           "nonconvex")


@dataclass(frozen=True)
class PlannedStep:
    eta: float
    certificate: dict
    valid: bool


def c_eta(eta: float, L: float) -> float:
    """Convex-regime margin 1 - eta*L / (2 - eta*L); positive iff eta < 1/L."""
    return 1.0 - eta * L / (2.0 - eta * L)


def eta_max_nonconvex(m: int, L: float) -> float:
    """Largest step size with m*eta^2*L^2 + eta*L - 1 <= 0:
    (sqrt(4m+1) - 1) / (2mL)."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    return (math.sqrt(4.0 * m + 1.0) - 1.0) / (2.0 * m * L)


def theta_strongly_convex(eta: float, L: float, mu: float) -> float:
    """Per-inner-step contraction factor of the estimator norm.

    Assumes every f_i is mu-strongly convex:
        theta = 1 - 2*eta*L / (1 + kappa).
    """
    if mu <= 0:
        raise ConfigError("strongly convex certificates require mu > 0")
    kappa = L / mu
    return 1.0 - 2.0 * eta * L / (1.0 + kappa)


def lambda_last_iterate(eta: float, L: float, theta: float, m: int) -> float:
    """Per-outer-loop decay certificate of last-iterate SARAH:
    2*eta*L/(2 - eta*L) + (2 + 2*eta*L) * theta^m."""
    return 2.0 * eta * L / (2.0 - eta * L) + (2.0 + 2.0 * eta * L) * theta ** m


def lambda_loopless_sc(eta: float, L: float, theta: float, m: int) -> float:
    """Per-snapshot-epoch decay certificate of the step-back loopless variant:
    2*eta*L/(2 - eta*L)
      + (2 + 2*eta*L)/(m-1) * theta*(1 - 1/m) / (1 - theta*(1 - 1/m))."""
    if m < 2:
        raise ConfigError("the epoch certificate requires m >= 2")
    tq = theta * (1.0 - 1.0 / m)
    if tq >= 1.0:
        return math.inf
    return (2.0 * eta * L / (2.0 - eta * L)
            + (2.0 + 2.0 * eta * L) / (m - 1.0) * tq / (1.0 - tq))


def sigma_geometric(eta: float, L_eff: float, mu: float, m: int) -> float:
    """Uniform-restart decay certificate 1/(mu*eta*(m+1)) + eta*L/(2 - eta*L);
    pass L_eff = L for uniform sampling, L_eff = L_bar for importance
    sampling."""
    if mu <= 0:
        raise ConfigError("sigma certificate requires mu > 0")
    return 1.0 / (mu * eta * (m + 1)) + eta * L_eff / (2.0 - eta * L_eff)


def plan_step_size(model, algorithm: str, regime: str, m: int) -> PlannedStep:
    """Concrete certified step size plus the certificate backing it.

    strongly-convex        eta = 0.5/L (0.5/L_bar for D2S); certificate is the
                           per-epoch decay factor, valid iff < 1
    convex-n-independent   eta = 0.5/L, certificate C_eta = 2/3
    convex-n-dependent     eta at the nonconvex maximum ~ 1/(L sqrt(m))
    nonconvex              same eta; certificate is the quadratic slack
                           1 - eta*L - m*(eta*L)^2 >= 0
    """
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    L, L_bar, mu = model.L, model.L_bar, model.mu

    if regime == "strongly-convex":
        if mu <= 0:
            raise ConfigError("strongly-convex plan requires mu > 0")
        if algorithm == "D2S":
            eta = 0.5 / L_bar
            sig = sigma_geometric(eta, L_bar, mu, m)
            return PlannedStep(eta, {"sigma_m": sig, "kappa_bar": L_bar / mu},
                               valid=sig < 1.0)
        eta = 0.5 / L
        theta = theta_strongly_convex(eta, L, mu)
        if algorithm == "SARAH":
            sig = sigma_geometric(eta, L, mu, m)
            return PlannedStep(eta, {"sigma_m": sig, "theta": theta},
                               valid=sig < 1.0)
        if algorithm == "SARAH-LI":
            lam = lambda_last_iterate(eta, L, theta, m)
            return PlannedStep(eta, {"lambda_m": lam, "theta": theta},
                               valid=lam < 1.0)
        if algorithm == "L2S-SC":
            lam = lambda_loopless_sc(eta, L, theta, m)
            return PlannedStep(eta, {"lambda": lam, "theta": theta},
                               valid=lam < 1.0)
        raise ConfigError(f"no strongly-convex certificate for {algorithm}")

    if algorithm != "L2S":
        raise ConfigError(f"regime {regime!r} certifies L2S only")
    if regime == "convex-n-independent":
        eta = 0.5 / L
        ce = c_eta(eta, L)
        return PlannedStep(eta, {"C_eta": ce}, valid=ce > 0.0)
    if regime == "convex-n-dependent":
        eta = eta_max_nonconvex(m, L)
        ce = c_eta(eta, L)
        return PlannedStep(eta, {"C_eta": ce}, valid=ce > 0.0)
    # nonconvex
    eta = eta_max_nonconvex(m, L)
    slack = 1.0 - eta * L - m * (eta * L) ** 2
    return PlannedStep(eta, {"eta_max": eta, "quadratic_slack": slack},
                       valid=slack >= -1e-12)
