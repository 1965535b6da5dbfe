"""Continuous-time simulation of the nonlinear tank plant.

The true square-root dynamics are integrated with a fixed-step
classical Runge-Kutta scheme between controller samples; the control
flows are held constant over each step while the disturbance flow is
resolved at the integrator stage times.  `make_stepper` binds one run's
constants into a step on plain floats; `rk4_step` is a one-off call of
the same step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .tank import (  # noqa: F401  (nonlinear_derivatives: a boundary perfbench traces)
    DeviationState,
    OperatingPoint,
    TankParams,
    level_rates,
    nonlinear_derivatives,
)

logger = logging.getLogger(__name__)

# additive inflows (tank 1, tank 2) as a function of absolute time
InflowFunc = Callable[[float], tuple[float, float]]
# total feed-flow deviations (fi1, fi2) at time t with the control (u1, u2) held
FeedFunc = Callable[[float, float, float], tuple[float, float]]
# one RK4 step: (t, h1, h2, u1, u2) -> (t + dt, h1, h2)
StepFunc = Callable[[float, float, float, float, float], tuple[float, float, float]]


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

    def flow(self, op: OperatingPoint) -> float:
        """Disturbance flow while the pulse is on (m^3/s)."""
        return self.magnitude / 100.0 * op.fi1_bar

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
        return profile.flow(op)
    return 0.0


def disturbance_inflows(
    profile: DisturbanceProfile, op: OperatingPoint, t: float
) -> tuple[float, float]:
    """Disturbance flow routed to the configured feed channel(s)."""
    return profile.route(disturbance_flow(profile, op, t))


def pulse_feed(profile: DisturbanceProfile, op: OperatingPoint, clamp_flows: bool) -> FeedFunc:
    """One run's feed: feed(t, u1, u2) -> total feed-flow deviations (fi1, fi2).

    That is the held control plus the routed disturbance pulse, whose
    window [start, start + duration) and flows are resolved here, once.
    With clamp_flows each absolute feed is floored at zero.
    """
    start, end = profile.start, profile.start + profile.duration
    p1, p2 = profile.route(profile.flow(op))
    fi1_bar, fi2_bar = op.fi1_bar, op.fi2_bar

    def feed(t: float, u1: float, u2: float) -> tuple[float, float]:
        d1, d2 = (p1, p2) if start <= t < end else (0.0, 0.0)
        if clamp_flows:
            d1 = max(fi1_bar + u1 + d1, 0.0) - fi1_bar - u1
            d2 = max(fi2_bar + u2 + d2, 0.0) - fi2_bar - u2
        return u1 + d1, u2 + d2

    return feed


def make_stepper(params: TankParams, op: OperatingPoint, dt: float, feed: FeedFunc) -> StepFunc:
    """One classical Runge-Kutta step of the nonlinear plant, on plain floats.

    Returns step(t, h1, h2, u1, u2) -> (t + dt, h1, h2) with the plant
    constants, the step size and the feed bound once.  The control
    (u1, u2) is held over the step; the feed is evaluated at the stage
    times t, t + dt/2 and t + dt.  Physical levels are floored at zero,
    and the step that empties a tank logs a warning.
    """
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    rates = level_rates(params, op)
    lo1, lo2 = -op.l1, -op.l2
    half, sixth = dt / 2, dt / 6
    inf = math.inf

    def step(t: float, h1: float, h2: float, u1: float, u2: float) -> tuple[float, float, float]:
        fa1, fa2 = feed(t, u1, u2)
        fm1, fm2 = feed(t + half, u1, u2)
        fb1, fb2 = feed(t + dt, u1, u2)
        # floor stage states at empty so hard drains stay integrable
        s1, s2 = h1, h2
        k11, k12 = rates(s1 if s1 > lo1 else lo1, s2 if s2 > lo2 else lo2, fa1, fa2)
        s1, s2 = h1 + half * k11, h2 + half * k12
        k21, k22 = rates(s1 if s1 > lo1 else lo1, s2 if s2 > lo2 else lo2, fm1, fm2)
        s1, s2 = h1 + half * k21, h2 + half * k22
        k31, k32 = rates(s1 if s1 > lo1 else lo1, s2 if s2 > lo2 else lo2, fm1, fm2)
        s1, s2 = h1 + dt * k31, h2 + dt * k32
        k41, k42 = rates(s1 if s1 > lo1 else lo1, s2 if s2 > lo2 else lo2, fb1, fb2)

        h1_new = h1 + sixth * (k11 + 2 * k21 + 2 * k31 + k41)
        h2_new = h2 + sixth * (k12 + 2 * k22 + 2 * k32 + k42)
        if not (-inf < h1_new < inf and -inf < h2_new < inf):
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
        return t + dt, h1_new, h2_new

    return step


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
    evaluated at the stage times t, t+dt/2 and t+dt.  The step itself is
    `make_stepper`'s.
    """
    def feed(t: float, u1: float, u2: float) -> tuple[float, float]:
        d1, d2 = disturbance(t) if disturbance is not None else (0.0, 0.0)
        return u1 + d1, u2 + d2

    t, (h1, h2) = state
    t, h1, h2 = make_stepper(params, op, dt, feed)(t, h1, h2, *inflow_dev)
    return PlantState(t, DeviationState(h1, h2))
