"""Continuous-time simulation of the nonlinear tank plant.

The true square-root dynamics are integrated with a fixed-step
classical Runge-Kutta scheme between controller samples; the control
flows are held constant over each step while the disturbance flow is
resolved at the integrator stage times.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .tank import DeviationState, OperatingPoint, TankParams, nonlinear_derivatives

logger = logging.getLogger(__name__)

# additive inflows (tank 1, tank 2) as a function of absolute time
InflowFunc = Callable[[float], tuple[float, float]]


class PlantState(NamedTuple):
    """Simulation clock plus the level deviations."""

    t: float
    dev: DeviationState


@dataclass(frozen=True)
class DisturbanceProfile:
    """Rectangular feed-flow disturbance pulse.

    magnitude is a percentage of the steady tank-1 feed; target selects
    which feed the pulse enters ("tank1", "tank2" or "both").
    """

    start: float = 0.0
    duration: float = 0.0
    magnitude: float = 0.0  # percent of fi1_bar
    target: str = "tank1"

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"pulse duration must be >= 0, got {self.duration}")
        if not math.isfinite(self.magnitude):
            raise ValueError("pulse magnitude must be finite")
        if self.target not in ("tank1", "tank2", "both"):
            raise ValueError(f"unknown disturbance target {self.target!r}")

    def route(self, f: float) -> tuple[float, float]:
        """Disturbance flow f split into (tank 1, tank 2) feed flows."""
        if f == 0.0:
            return 0.0, 0.0
        if self.target == "tank1":
            return f, 0.0
        if self.target == "tank2":
            return 0.0, f
        return f, f


#: Profile that injects nothing; keeps scenario wiring uniform.
NO_DISTURBANCE = DisturbanceProfile()


def disturbance_flow(profile: DisturbanceProfile, op: OperatingPoint, t: float) -> float:
    """Additive disturbance flow at time t (m^3/s), 0 outside the pulse."""
    if profile.start <= t < profile.start + profile.duration:
        return profile.magnitude / 100.0 * op.fi1_bar
    return 0.0


def disturbance_inflows(
    profile: DisturbanceProfile, op: OperatingPoint, t: float
) -> tuple[float, float]:
    """Disturbance flow routed to the configured feed channel(s)."""
    return profile.route(disturbance_flow(profile, op, t))


def rk4_step(
    params: TankParams,
    op: OperatingPoint,
    state: PlantState,
    inflow_dev: tuple[float, float],
    disturbance: InflowFunc | None,
    dt: float,
) -> PlantState:
    """Advance the nonlinear plant one classical Runge-Kutta step.

    inflow_dev holds the zero-order-held control flows; disturbance, if
    given, maps absolute time to extra (tank1, tank2) feed flows and is
    evaluated at the stage times t, t+dt/2 and t+dt.  Physical levels
    are floored at zero; the step that empties a tank logs a warning.
    """
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    u1, u2 = inflow_dev
    lo1, lo2 = -op.l1, -op.l2

    def f(t: float, h1: float, h2: float) -> tuple[float, float]:
        d1, d2 = disturbance(t) if disturbance is not None else (0.0, 0.0)
        # floor stage states at empty so hard drains stay integrable
        return nonlinear_derivatives(params, op, (max(h1, lo1), max(h2, lo2)), u1 + d1, u2 + d2)

    t, (h1, h2) = state
    k1 = f(t, h1, h2)
    k2 = f(t + dt / 2, h1 + dt / 2 * k1[0], h2 + dt / 2 * k1[1])
    k3 = f(t + dt / 2, h1 + dt / 2 * k2[0], h2 + dt / 2 * k2[1])
    k4 = f(t + dt, h1 + dt * k3[0], h2 + dt * k3[1])

    h1_new = h1 + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    h2_new = h2 + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    if not (math.isfinite(h1_new) and math.isfinite(h2_new)):
        raise ArithmeticError(f"plant state non-finite at t={t + dt:.6g}")

    # floor physical levels at empty; warn only on the step that empties a tank
    if h1_new < lo1:
        if h1 > lo1:
            logger.warning("tank 1 ran empty at t=%.4g s; level clamped to 0", t + dt)
        h1_new = lo1
    if h2_new < lo2:
        if h2 > lo2:
            logger.warning("tank 2 ran empty at t=%.4g s; level clamped to 0", t + dt)
        h2_new = lo2

    return PlantState(t + dt, DeviationState(h1_new, h2_new))
