"""The plants a closed-loop run drives, one controller sample per call.

The true square-root dynamics are integrated with a fixed-step
classical Runge-Kutta scheme between controller samples; the control
flows are held constant over each sample while the disturbance flow is
resolved at the integrator stage times.  `make_advance` binds one run's
constants into one kernel on plain floats that runs all substeps of a
controller sample on the physical levels, with the rate equations and the
pulse feed inline.
`make_linear_advance` is the diagnostic sampled linear model behind the
same interface.  Both return levels only; the closed loop enters each
sample at its time k ts.  `rk4_step` (one step of the kernel on a
`PlantState`) and `disturbance_flow`/`disturbance_inflows` (the pulse at
one time) are reference forms the package does not export; the tests
and the benchmark's tracer import them from this module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .tank import (  # noqa: F401  (nonlinear_derivatives: a boundary perfbench traces)
    DeviationState,
    LinearModel,
    OperatingPoint,
    TankParams,
    nonlinear_derivatives,
)

logger = logging.getLogger(__name__)

# one controller sample entered at t = k ts: (t, h1, h2, u1, u2) -> (h1, h2) at its end
AdvanceFunc = Callable[[float, float, float, float, float], tuple[float, float]]


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


def make_advance(
    params: TankParams,
    op: OperatingPoint,
    dt: float,
    substeps: int,
    profile: DisturbanceProfile,
    clamp_flows: bool,
) -> AdvanceFunc:
    """One controller sample of the nonlinear plant: `substeps` classical
    Runge-Kutta steps of size dt, on plain floats.

    Returns advance(t, h1, h2, u1, u2) -> (h1, h2) after the last step,
    entered at the sample time t, with the plant constants, the step size
    and the disturbance pulse bound once.  The control (u1, u2) is held
    over the call.  The feed, held control plus the routed pulse on
    [start, start + duration), with clamp_flows each absolute feed floored
    at zero, is picked at each stage time t, t + dt/2 or t + dt; when no
    pulse edge lies in (t, t + 2 substeps dt], t's pick serves all stages.
    The steps carry the physical levels x = l + h, formed once on entry and
    returned as x - l.  The rates are `tank.nonlinear_derivatives` on x: the
    same deviation flows, so that a plant at rest with zero feed stays at
    exactly h = 0, each multiplied by the reciprocal of its tank's area;
    they agree with it to a few ulps, not bit for bit.  Levels are floored
    at empty, the step that empties a tank logs a warning, and a non-finite
    state raises ArithmeticError.
    """
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    alpha1, alpha2 = params.alpha1, params.alpha2
    ra1, ra2 = 1.0 / params.a1, 1.0 / params.a2
    l1, l2 = op.l1, op.l2
    fi1_bar, fi2_bar = op.fi1_bar, op.fi2_bar
    q12_bar = alpha1 * math.sqrt(l1 - l2)
    sqrt_l2 = math.sqrt(l2)
    half, sixth = dt / 2, dt / 6
    start, end = profile.start, profile.start + profile.duration
    p1, p2 = profile.route(profile.flow(op))
    # every stage time of a call entered at t lies in [t, t + reach]: a
    # rounded t + dt is the float nearest the sum, and t itself is a float
    # dt away from it, so each step moves the clock by at most 2 dt
    reach = 2 * substeps * dt
    consts = (alpha1, alpha2, ra1, ra2, l1, l2, fi1_bar, fi2_bar, q12_bar, sqrt_l2,
              dt, half, sixth, start, end, p1, p2, reach, range(substeps), math.sqrt)

    def advance(t: float, h1: float, h2: float, u1: float, u2: float) -> tuple[float, float]:
        # the run's constants as fast locals
        (alpha1, alpha2, ra1, ra2, l1, l2, fi1_bar, fi2_bar, q12_bar, sqrt_l2,
         dt, half, sixth, start, end, p1, p2, reach, steps, sqrt) = consts
        on = start <= t < end
        # Unless a pulse edge lies in (t, t + reach], every stage feeds the
        # pulse as t does, and only that feed is built.
        last = t + reach
        edge = t < start <= last or t < end <= last
        if clamp_flows or edge:
            if clamp_flows:
                fon = (u1 + (max(fi1_bar + u1 + p1, 0.0) - fi1_bar - u1),
                       u2 + (max(fi2_bar + u2 + p2, 0.0) - fi2_bar - u2))
                foff = (u1 + (max(fi1_bar + u1 + 0.0, 0.0) - fi1_bar - u1),
                        u2 + (max(fi2_bar + u2 + 0.0, 0.0) - fi2_bar - u2))
            else:
                fon, foff = (u1 + p1, u2 + p2), (u1 + 0.0, u2 + 0.0)
            g1, g2 = fon if on else foff
        elif on:
            g1, g2 = u1 + p1, u2 + p2
        else:
            # off the pulse the routed flow is 0.0, and u + 0.0 turns a -0.0 into 0.0
            g1, g2 = u1 + 0.0, u2 + 0.0
        # Every stage floors its levels at empty, so hard drains stay
        # integrable and the levels y1, y2 the rates read are never negative:
        # the sqrt(y2) of the outlet flow cannot fail.  A step starts from
        # the floored end of the one before, and its feed is the one its
        # predecessor's last stage picked at that time.
        x1, x2 = l1 + h1, l2 + h2
        y1 = 0.0 if x1 < 0.0 else x1
        y2 = 0.0 if x2 < 0.0 else x2
        for _ in steps:
            te = t + dt
            hd = y1 - y2
            q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
            k11 = (g1 - q12) * ra1
            k12 = (g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12) * ra2

            if edge:
                tm = t + half
                g1, g2 = fon if start <= tm < end else foff
            y1, y2 = x1 + half * k11, x2 + half * k12
            if y1 < 0.0:
                y1 = 0.0
            if y2 < 0.0:
                y2 = 0.0
            hd = y1 - y2
            q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
            k21 = (g1 - q12) * ra1
            k22 = (g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12) * ra2

            y1, y2 = x1 + half * k21, x2 + half * k22
            if y1 < 0.0:
                y1 = 0.0
            if y2 < 0.0:
                y2 = 0.0
            hd = y1 - y2
            q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
            k31 = (g1 - q12) * ra1
            k32 = (g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12) * ra2

            if edge:
                g1, g2 = fon if start <= te < end else foff
            y1, y2 = x1 + dt * k31, x2 + dt * k32
            if y1 < 0.0:
                y1 = 0.0
            if y2 < 0.0:
                y2 = 0.0
            hd = y1 - y2
            q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
            k41 = (g1 - q12) * ra1
            k42 = (g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12) * ra2

            n1 = x1 + sixth * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
            n2 = x2 + sixth * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
            # x - x is 0.0 for a finite x, and nan for an infinite or nan one
            if (n1 - n1) + (n2 - n2) != 0.0:
                raise ArithmeticError(f"plant state non-finite at t={te:.6g}")
            # floor the levels at empty; warn only on the step that empties a tank
            if n1 < 0.0:
                if x1 > 0.0:
                    logger.warning("tank 1 ran empty at t=%.4g s; level clamped to 0", te)
                n1 = 0.0
            if n2 < 0.0:
                if x2 > 0.0:
                    logger.warning("tank 2 ran empty at t=%.4g s; level clamped to 0", te)
                n2 = 0.0
            t = te
            x1 = y1 = n1
            x2 = y2 = n2
        return x1 - l1, x2 - l2

    return advance


def make_linear_advance(disc: LinearModel, op: OperatingPoint, profile: DisturbanceProfile,
                        clamp_flows: bool) -> AdvanceFunc:
    """One controller sample of the sampled linear model, h <- a h + b f,
    on floats with `make_advance`'s interface.  The feed f is the held control
    plus the pulse routed at the sample time t, each absolute feed floored at
    zero under clamp_flows; a non-finite state raises ArithmeticError."""
    (a11, a12), (a21, a22) = disc.a.tolist()
    (b11, b12), (b21, b22) = disc.b.tolist()
    fi1_bar, fi2_bar = op.fi1_bar, op.fi2_bar
    start, end = profile.start, profile.start + profile.duration
    p1, p2 = profile.route(profile.flow(op))

    def advance(t: float, h1: float, h2: float, u1: float, u2: float) -> tuple[float, float]:
        d1, d2 = (p1, p2) if start <= t < end else (0.0, 0.0)
        if clamp_flows:
            d1 = max(fi1_bar + u1 + d1, 0.0) - fi1_bar - u1
            d2 = max(fi2_bar + u2 + d2, 0.0) - fi2_bar - u2
        f1, f2 = u1 + d1, u2 + d2
        n1 = a11 * h1 + a12 * h2 + (b11 * f1 + b12 * f2)
        n2 = a21 * h1 + a22 * h2 + (b21 * f1 + b22 * f2)
        if not (math.isfinite(n1) and math.isfinite(n2)):
            raise ArithmeticError("plant state non-finite")
        return n1, n2

    return advance


def rk4_step(
    params: TankParams,
    op: OperatingPoint,
    state: PlantState,
    inflow_dev: tuple[float, float],
    disturbance: DisturbanceProfile | None,
    dt: float,
) -> PlantState:
    """Advance the nonlinear plant one classical Runge-Kutta step.

    inflow_dev holds the zero-order-held control flows; disturbance, if
    given, is the feed pulse, resolved at the stage times t, t+dt/2 and
    t+dt.  The step is one substep of `make_advance`'s kernel.
    """
    profile = NO_DISTURBANCE if disturbance is None else disturbance
    t, (h1, h2) = state
    h1, h2 = make_advance(params, op, dt, 1, profile, False)(t, h1, h2, *inflow_dev)
    return PlantState(t + dt, DeviationState(h1, h2))
