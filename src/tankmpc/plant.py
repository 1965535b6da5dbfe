"""The plants a closed-loop run drives, and the loop body that drives them.

The true square-root dynamics are integrated with a fixed-step
classical Runge-Kutta scheme between controller samples; the control
flows are held constant over each sample while the disturbance flow is
resolved at the integrator stage times.  `make_loop` binds one run's
constants (the plant, the step size, the pulse, the clamp and the
fixed gain) into one loop body that runs a block of samples on plain
floats: per sample the fixed-gain law, the clamp memory and all RK4
substeps of the nonlinear plant, inline, on the physical levels it
carries from sample to sample.  No function is called per sample on the
nonlinear plant.  `make_linear_advance`, the diagnostic sampled linear
model, is the loop's other branch, called once per sample.
`rk4_step` (one sample of the loop with zero gains and a preset move,
on a `PlantState`) and `disturbance_flow`/`disturbance_inflows` (the
pulse at one time) are reference forms the package does not export;
the tests and the benchmark's tracer import them from this module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .tank import (  # noqa: F401  (nonlinear_derivatives: a boundary perfbench traces)
    DeviationState,
    LinearModel,
    OperatingPoint,
    TankParams,
    nonlinear_derivatives,
)

logger = logging.getLogger(__name__)
#: The clamp is an event of the closed loop, and it is reported under the loop's name.
loop_logger = logging.getLogger("tankmpc.loop")

# one controller sample entered at t = k ts: (t, h1, h2, u1, u2) -> (h1, h2) at its end
AdvanceFunc = Callable[[float, float, float, float, float], tuple[float, float]]

#: What one block of samples hands the next: the levels x1, x2 the plant
#: carries, the controller's last measurement p1, p2 and remembered move
#: m1, m2, and whether the clamp has been reported.
Carry = tuple[float, float, float, float, float, float, bool]


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


def make_loop(
    params: TankParams,
    op: OperatingPoint,
    ts: float,
    substeps: int,
    profile: DisturbanceProfile,
    clamp_flows: bool,
    gains: tuple[float, ...],
    linear_model: LinearModel | None = None,
) -> Callable[..., Carry]:
    """The closed loop's body, with one run's constants bound once.

    Returns run(i, t, r1, r2, d1, d2, carry, logged, final): samples i,
    i + 1, ... at the times t, with the setpoints r1, r2 and the routed
    pulse d1, d2 at those times (arrays, one entry a sample).  It starts
    from carry (None: the operating point, a zero move), appends each
    sample's (h1, h2, u1, u2) to logged and returns the carry after the
    last sample, which takes no plant step if final.

    Per sample the law reads h = x - l and applies `gains` (kr and the dx
    block of kx, row by row) in `mpc.receding_step`'s expression order.
    Under clamp_flows an absolute feed that would go negative is floored
    at zero, the controller remembers the floored move so that it does
    not wind up, and the first such sample is reported.  The plant step
    comes last, and it is the one part of a sample that raises.

    The nonlinear plant takes `substeps` classical Runge-Kutta steps of
    dt = ts / substeps on the physical levels x, floored at empty at every
    stage and step end.  A stage computes the net flows, the feed less the
    deviation outflows of `tank.nonlinear_derivatives` (so a plant at rest
    stays at exactly h = 0), and moves the levels by a flow times (dt/2)/a,
    dt/a or (dt/6)/a.  The feed, held control plus the pulse routed on
    [start, start + duration), floored under clamp_flows, is picked at each
    stage time t, t + dt/2 or t + dt; unless a pulse edge lies in
    (t, t + 2 substeps dt] it is the sample's own.  The step that empties
    a tank logs a warning, and a non-finite state raises ArithmeticError.
    With linear_model the plant is instead one `make_linear_advance` call
    a sample, its deviation state carried as levels about l = 0.
    """
    dt = ts / substeps
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    if linear_model is None:
        advance, l1, l2 = None, op.l1, op.l2
    else:
        advance, l1, l2 = make_linear_advance(linear_model, op, profile, clamp_flows), 0.0, 0.0
    alpha1, alpha2 = params.alpha1, params.alpha2
    q12_bar = alpha1 * math.sqrt(op.l1 - op.l2)
    sqrt_l2 = math.sqrt(op.l2)
    half = dt / 2
    # per tank, the level a net flow moves it by over half a step, a step and a sixth of one
    half1, half2 = half / params.a1, half / params.a2
    whole1, whole2 = dt / params.a1, dt / params.a2
    sixth1, sixth2 = (dt / 6) / params.a1, (dt / 6) / params.a2
    start, end = profile.start, profile.start + profile.duration
    pulse1, pulse2 = profile.route(profile.flow(op))
    # every stage time of a sample entered at t lies in [t, t + reach]: a
    # rounded t + dt is the float nearest the sum, and t itself is a float
    # dt away from it, so each step moves the clock by at most 2 dt
    reach = 2 * substeps * dt
    consts = (alpha1, alpha2, q12_bar, sqrt_l2, l1, l2, op.fi1_bar, op.fi2_bar,
              half1, half2, whole1, whole2, sixth1, sixth2, dt, half, start, end,
              pulse1, pulse2, range(substeps), tuple(gains), clamp_flows, advance, math.sqrt)

    def run(i: int, t: np.ndarray, r1: np.ndarray, r2: np.ndarray, d1: np.ndarray,
            d2: np.ndarray, carry: Carry | None, logged: list, final: bool) -> Carry:
        # the run's constants as fast locals
        (alpha1, alpha2, q12_bar, sqrt_l2, l1, l2, fi1_bar, fi2_bar,
         half1, half2, whole1, whole2, sixth1, sixth2, dt, half, start, end,
         pulse1, pulse2, steps, gains, clamp, advance, sqrt) = consts
        kr11, kr12, kr21, kr22, kx11, kx12, kx21, kx22 = gains
        # at the start the remembered measurement is the first one, so the
        # first state increment is zero: no derivative kick
        x1, x2, p1, p2, m1, m2, warned = (
            (l1, l2, 0.0, 0.0, 0.0, 0.0, False) if carry is None else carry)
        stop = i + t.size - 1 if final else -1
        # the samples with a pulse edge in (t, t + reach]
        edge = ((t < start) & (start <= t + reach)) | ((t < end) & (end <= t + reach))
        for k, t_k, r1_k, r2_k, d1_k, d2_k, edge_k in zip(
                count(i), t.tolist(), r1.tolist(), r2.tolist(), d1.tolist(), d2.tolist(),
                edge.tolist()):
            h1, h2 = x1 - l1, x2 - l2
            e1, e2 = r1_k - h1, r2_k - h2
            dx1, dx2 = h1 - p1, h2 - p2
            m1 = u1 = m1 + ((kr11 * e1 + kr12 * e2) - (kx11 * dx1 + kx12 * dx2))
            m2 = u2 = m2 + ((kr21 * e1 + kr22 * e2) - (kx21 * dx1 + kx22 * dx2))
            p1, p2 = h1, h2
            logged += (h1, h2, u1, u2)

            if clamp:
                fi1, fi2 = fi1_bar + u1 + d1_k, fi2_bar + u2 + d2_k
                if fi1 < 0 or fi2 < 0:
                    if not warned:
                        warned = True
                        loop_logger.warning("feed-flow clamp active from sample %d (t=%.4g s)",
                                            k, t_k)
                    if fi1 < 0:
                        m1 = 0.0 - fi1_bar - d1_k
                    if fi2 < 0:
                        m2 = 0.0 - fi2_bar - d2_k
            if k == stop:
                break
            if advance is not None:
                x1, x2 = advance(t_k, x1, x2, u1, u2)
                continue

            if clamp or edge_k:
                if clamp:
                    fon = (u1 + (max(fi1_bar + u1 + pulse1, 0.0) - fi1_bar - u1),
                           u2 + (max(fi2_bar + u2 + pulse2, 0.0) - fi2_bar - u2))
                    foff = (u1 + (max(fi1_bar + u1 + 0.0, 0.0) - fi1_bar - u1),
                            u2 + (max(fi2_bar + u2 + 0.0, 0.0) - fi2_bar - u2))
                else:
                    fon, foff = (u1 + pulse1, u2 + pulse2), (u1 + 0.0, u2 + 0.0)
                g1, g2 = fon if start <= t_k < end else foff
            else:
                # off the pulse d is 0.0, and u + 0.0 turns a -0.0 into 0.0
                g1, g2 = u1 + d1_k, u2 + d2_k
            # A step starts from the floored end of the one before, and its
            # feed is the one its predecessor's last stage picked at that time.
            tj = t_k
            for _ in steps:
                te = tj + dt
                hd = x1 - x2
                q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
                f11 = g1 - q12
                f12 = g2 - alpha2 * (sqrt(x2) - sqrt_l2) + q12

                if edge_k:
                    tm = tj + half
                    g1, g2 = fon if start <= tm < end else foff
                y1, y2 = x1 + half1 * f11, x2 + half2 * f12
                if y1 < 0.0:
                    y1 = 0.0
                if y2 < 0.0:
                    y2 = 0.0
                hd = y1 - y2
                q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
                f21 = g1 - q12
                f22 = g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12

                y1, y2 = x1 + half1 * f21, x2 + half2 * f22
                if y1 < 0.0:
                    y1 = 0.0
                if y2 < 0.0:
                    y2 = 0.0
                hd = y1 - y2
                q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
                f31 = g1 - q12
                f32 = g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12

                if edge_k:
                    g1, g2 = fon if start <= te < end else foff
                y1, y2 = x1 + whole1 * f31, x2 + whole2 * f32
                if y1 < 0.0:
                    y1 = 0.0
                if y2 < 0.0:
                    y2 = 0.0
                hd = y1 - y2
                q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
                f41 = g1 - q12
                f42 = g2 - alpha2 * (sqrt(y2) - sqrt_l2) + q12

                n1 = x1 + sixth1 * (f11 + f41 + 2.0 * (f21 + f31))
                n2 = x2 + sixth2 * (f12 + f42 + 2.0 * (f22 + f32))
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
                tj = te
                x1, x2 = n1, n2
        return x1, x2, p1, p2, m1, m2, warned

    return run


def make_linear_advance(disc: LinearModel, op: OperatingPoint, profile: DisturbanceProfile,
                        clamp_flows: bool) -> AdvanceFunc:
    """One controller sample of the sampled linear model, h <- a h + b f,
    on floats, entered at the sample time t.  The feed f is the held control
    plus the pulse routed at t, each absolute feed floored at zero under
    clamp_flows; a non-finite state raises ArithmeticError."""
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
    t+dt.  The step is one sample of `make_loop`'s body with zero gains,
    the move preset to inflow_dev and one substep; levels below empty
    enter it as empty.
    """
    profile = NO_DISTURBANCE if disturbance is None else disturbance
    t, (h1, h2) = state
    d = np.array([disturbance_inflows(profile, op, t)])
    carry = (max(op.l1 + h1, 0.0), max(op.l2 + h2, 0.0), h1, h2, *inflow_dev, False)
    run = make_loop(params, op, dt, 1, profile, False, (0.0,) * 8)
    x1, x2, *_ = run(0, np.array([t]), np.zeros(1), np.zeros(1), d[:, 0], d[:, 1], carry, [],
                     False)
    return PlantState(t + dt, DeviationState(x1 - op.l1, x2 - op.l2))
