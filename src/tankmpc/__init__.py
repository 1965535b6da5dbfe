"""Receding-horizon level control for a two-coupled-tank plant.

Layering: `tank` holds the nonlinear plant, its linearization and
`LinearModel`, the one state-space record, `discretize` samples the
linear model, `mpc` builds the velocity-form predictive controller,
`plant` integrates the true nonlinear dynamics, `loop` closes the loop
over a scenario, and `cli`/`config` expose it all as a command-line
tool.
"""

from .config import (
    ConfigError,
    RunConfig,
    default_run_config,
    dumps_config,
    load_config,
    loads_config,
    bundled_config_path,
)
from .discretize import zoh_discretize
from .loop import (
    Scenario,
    SetpointPulse,
    SimulationError,
    SimulationLog,
    StepMetrics,
    SummaryMetrics,
    run_closed_loop,
    summarize,
)
from .mpc import (
    ControllerState,
    MpcConfig,
    PredictionMatrices,
    augment,
    build_prediction,
    receding_step,
)
from .plant import DisturbanceProfile
from .tank import (
    DEFAULT_LEVELS,
    DEFAULT_PARAMS,
    DeviationState,
    LinearModel,
    OperatingPoint,
    TankParams,
    linearize,
    make_operating_point,
    nonlinear_derivatives,
    steady_inflows,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControllerState",
    "DEFAULT_LEVELS",
    "DEFAULT_PARAMS",
    "DeviationState",
    "DisturbanceProfile",
    "LinearModel",
    "MpcConfig",
    "OperatingPoint",
    "PredictionMatrices",
    "RunConfig",
    "Scenario",
    "SetpointPulse",
    "SimulationError",
    "SimulationLog",
    "StepMetrics",
    "SummaryMetrics",
    "TankParams",
    "augment",
    "build_prediction",
    "default_run_config",
    "dumps_config",
    "linearize",
    "load_config",
    "loads_config",
    "make_operating_point",
    "nonlinear_derivatives",
    "bundled_config_path",
    "receding_step",
    "run_closed_loop",
    "steady_inflows",
    "summarize",
    "zoh_discretize",
    "__version__",
]
