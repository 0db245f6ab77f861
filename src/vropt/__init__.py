"""Variance-reduced stochastic optimization with randomized snapshot
scheduling, importance sampling, and exact IFO accounting."""

from . import _kernel
from .data import Dataset, SyntheticSpec, generate_synthetic, parse_libsvm, subsample
from .errors import (
    ConfigError,
    ContractError,
    DescentViolation,
    DivergenceError,
    NumericError,
    ParseError,
    VroptError,
)
from .model import IfoCounter, LogisticModel, NonconvexLogisticModel
from .optim import ALGORITHMS, OptimizerConfig, RunResult, run
from .planner import (
    PlannedStep,
    c_eta,
    eta_max_nonconvex,
    lambda_last_iterate,
    lambda_loopless_sc,
    plan_step_size,
    sigma_geometric,
    theta_strongly_convex,
)
from .sampling import (
    ImportanceTable,
    Rng,
    draw_snapshot_flag,
    draw_uniform_index,
    snapshot_event_probability,
)

_kernel.load()  # compiles once per source hash; never raises

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ConfigError", "ContractError", "Dataset",
    "DescentViolation", "DivergenceError", "IfoCounter", "ImportanceTable",
    "LogisticModel", "NonconvexLogisticModel", "NumericError",
    "OptimizerConfig", "ParseError", "PlannedStep", "Rng", "RunResult",
    "SyntheticSpec", "VroptError",
    "c_eta", "draw_snapshot_flag",
    "draw_uniform_index", "eta_max_nonconvex", "generate_synthetic",
    "lambda_last_iterate", "lambda_loopless_sc", "parse_libsvm",
    "plan_step_size", "run", "sigma_geometric", "snapshot_event_probability",
    "subsample", "theta_strongly_convex",
]
