"""The plants a closed-loop run drives, and the loop body that drives them.

The true square-root dynamics are integrated with a fixed-step
classical Runge-Kutta scheme between controller samples, every step on
one feed: the control flows and the disturbance pulse are held over a
sample, which `_routed_pulse` splits at each pulse edge inside it, each
piece on the pulse at its own start.  `make_loop` binds one run's
constants (the plant, the step size, the clamp and the fixed gain) into
one loop body that runs the samples of a run on plain floats, writing
each sample's row into the caller's array: per sample the fixed-gain
law, the clamp memory, the sample's held feed, worked out once, and one
plant step from it, inline: all RK4 substeps of the nonlinear plant on
the physical levels the body carries from sample to sample, or, as a
diagnostic, one step of the sampled linear model.  No function is called
per sample but the row write, and a sample at an exact fixed point of a
stretch of held inputs is repeated unstepped (see `make_loop`).

`rk4_step` (one sample of the loop with zero gains and a preset move,
on a `PlantState`) and `disturbance_flow`/`disturbance_inflows` (the
pulse at one time) are reference forms the package does not export;
the tests and the benchmark's tracer import them from this module.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
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

#: What one call of the loop body hands the next, which runs the samples after
#: its own: the levels x1, x2 the plant carries, the controller's last measured
#: levels p1, p2 and remembered move m1, m2.
Carry = tuple[float, float, float, float, float, float]


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


def _pulse(t: np.ndarray, start: float, duration: float, value: float) -> np.ndarray:
    """value on [start, start + duration) and 0.0 elsewhere, at the times t."""
    return np.where((start <= t) & (t < start + duration), value, 0.0)


def _routed_pulse(t: np.ndarray, profile: DisturbanceProfile, op: OperatingPoint):
    """The pulse at the sample times t, as its flow u3 and its feeds d1, d2
    (the flow routed), and the samples it splits, cuts = {k: pieces}:
    sample k at each edge e, t_k < e < t_{k+1}, of a pulse that adds flow
    (on a sample time an edge needs no split: d_k holds over the sample).
    Its pieces [t_k, e_1), ..., [e_n, t_{k+1}) are (start, length, d1, d2),
    each holding the routed pulse at its start, by `_pulse`'s comparisons."""
    start, end = profile.start, profile.start + profile.duration
    flow = profile.flow(op)
    routed = profile.route(flow)
    u3, d1, d2 = (_pulse(t, profile.start, profile.duration, f) for f in (flow, *routed))
    cuts = {}
    for e in (start, end) if start < end and any(routed) else ():
        k = int(np.searchsorted(t, e)) - 1  # t_k < e <= t_{k+1}
        if 0 <= k < t.size - 1 and e < t.item(k + 1):
            cuts.setdefault(k, [t.item(k)]).append(e)
    for k, starts in cuts.items():
        cuts[k] = tuple((s, e - s, *(routed if start <= s < end else (0.0, 0.0)))
                        for s, e in zip(starts, [*starts[1:], t.item(k + 1)]))
    return u3, d1, d2, cuts


def make_loop(
    params: TankParams,
    op: OperatingPoint,
    ts: float,
    substeps: int,
    clamp_flows: bool,
    gains: tuple[float, ...],
    linear_model: LinearModel | None = None,
) -> Callable[..., Carry]:
    """The closed loop's body, with one run's constants bound once.

    Returns run(t, r1, r2, d1, d2, cuts, carry, rows, final): the samples
    at the times t, with the setpoints r1, r2 and the routed pulse d1, d2
    at those times (arrays, one entry a sample), and the samples split at a
    pulse edge, by index in t (see `_routed_pulse`).  It starts from carry
    (None: the operating point, a zero move), writes sample k's
    (h1, h2, u1, u2), h = x - l, into row k of rows, a C-contiguous float64
    array of at least t.size rows of 4, and returns the carry after the
    last sample, which takes no plant step if final.  A sample's row is
    written before its plant step, the one part of a sample that raises.

    Per sample the law applies `gains` (kr and the dx block of kx, row by
    row) in `mpc.receding_step`'s expression order, on the levels: to the
    errors (r + l) - x and the increments x - p since the last measured
    levels p.  A held setpoint is then reached at the level fl(l + r),
    where the error is exactly zero (no level zeroes r - (x - l) when
    l + r is not a double).
    Under clamp_flows an absolute feed that would go negative is floored
    at zero (reported by `loop`, from the log and the split samples'
    pieces), and the controller remembers the floored move so that it does
    not wind up.  Then the sample's held feed g is worked out once: the
    move plus the pulse routed at t, each absolute feed floored at zero
    under clamp_flows.  The plant steps from it last, and its step is the
    one part of a sample that raises.

    The nonlinear plant takes `substeps` classical Runge-Kutta steps of
    dt = ts / substeps on g (a split sample takes them of length/substeps
    on each piece in turn, on the move plus the piece's routed pulse,
    floored as g is), on the physical levels x, floored at empty at every
    stage and step end.  It assumes that dt is a stable RK4 step on the
    plant's fastest mode, which `loop.run_closed_loop` enforces.  A stage
    computes the net flows, the feed less the deviation outflows of
    `tank.nonlinear_derivatives` (so a plant at rest stays at exactly
    h = 0), and moves the levels by a flow times (dt/2)/a, dt/a or
    (dt/6)/a.  The step that empties a tank logs a warning, and a
    non-finite state raises ArithmeticError naming the time it was
    reached, its piece's start plus its step added once per step.  With
    linear_model the plant is instead one step x <- a x + b g of that
    sampled model, split or not, its deviation state carried as levels
    about l = 0; a non-finite state raises the same error at t + ts.

    On either plant a stretch starts at the first sample of t, at each
    sample whose setpoints or routed pulse change their bits, and at each
    split sample and the one after it.  Its inputs are read once, and in
    it a sample is a pure function of the carry (the sample times enter
    only messages): so the first of its samples to leave the carry
    unchanged, bit for bit, is a fixed point, whose row is copied into the
    rest of the stretch, unstepped.  No message is lost: a non-finite
    state raises first, and a sample that emptied a tank, which warns, is
    no fixed point.  The law sets p to the x it found, so each sample
    saves only p and m to tell.
    """
    dt = ts / substeps
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    linear = linear_model is not None
    l1, l2 = (0.0, 0.0) if linear else (op.l1, op.l2)
    # the sampled model's a and then b, row by row
    ab = np.concatenate([linear_model.a, linear_model.b], None).tolist() if linear else [0.0] * 8
    alpha1, alpha2, a1, a2 = params.alpha1, params.alpha2, params.a1, params.a2
    q12_bar = alpha1 * math.sqrt(op.l1 - op.l2)
    sqrt_l2 = math.sqrt(op.l2)

    def sizes(h: float) -> tuple[float, ...]:  # per tank, over half a step h, a step, a sixth
        return (h / 2) / a1, (h / 2) / a2, h / a1, h / a2, (h / 6) / a1, (h / 6) / a2

    consts = (alpha1, alpha2, q12_bar, sqrt_l2, l1, l2, op.fi1_bar, op.fi2_bar, sizes(dt), sizes,
              substeps, range(substeps), ts, tuple(gains), clamp_flows, linear, ab,
              math.sqrt, struct.Struct("6d").pack, struct.Struct("4d").pack_into)

    def run(t: np.ndarray, r1: np.ndarray, r2: np.ndarray, d1: np.ndarray, d2: np.ndarray,
            cuts: dict, carry: Carry | None, rows: np.ndarray, final: bool) -> Carry:
        # the run's constants as fast locals
        (alpha1, alpha2, q12_bar, sqrt_l2, l1, l2, fi1_bar, fi2_bar, plain, sizes,
         substeps, sample_steps, ts, gains, clamp, linear, ab, sqrt, bits, write) = consts
        kr11, kr12, kr21, kr22, kx11, kx12, kx21, kx22 = gains
        a11, a12, a21, a22, b11, b12, b21, b22 = ab
        # at the start the remembered measurement is the first one, so the
        # first state increment is zero: no derivative kick
        x1, x2, p1, p2, m1, m2 = (l1, l2, l1, l2, 0.0, 0.0) if carry is None else carry
        stop = t.size - 1 if final else -1

        def clock(k: int, j: int) -> float:  # the end of sample k's step j
            te, length = cuts[k][j // substeps][:2] if k in cuts else (t.item(k), ts)
            for _ in range(j % substeps + 1):
                te += length / substeps
            return te

        # the samples that start a stretch: the first, each whose inputs
        # change their bits, and each split sample and the one after it
        raw = np.array([r1, r2, d1, d2]).view(np.int64)
        new = np.ones(t.size, bool)
        new[1:] = (raw[:, 1:] != raw[:, :-1]).any(0)
        for k in cuts:
            new[k : k + 2] = True
        firsts = np.flatnonzero(new)
        stretches = zip(firsts.tolist(), [*(firsts[1:] - 1).tolist(), t.size - 1],
                        *(col[firsts].tolist() for col in (r1, r2, d1, d2)))
        emptied = -1  # the last sample whose step emptied a tank, which warns
        for first, last, r1_k, r2_k, d1_k, d2_k in stretches:
            c1, c2 = r1_k + l1, r2_k + l2  # the stretch's target levels
            half1, half2, whole1, whole2, sixth1, sixth2 = plain
            cut = cuts.get(first)  # a split sample's pieces: the next one from step `switch` on
            steps, switch = (sample_steps, -1) if cut is None else (range(len(cut) * substeps), 0)
            for k in range(first, last + 1):
                if (k != first and x1 == p1 and x2 == p2 and p1 == q1 and p2 == q2 and m1 == s1
                        and m2 == s2 and emptied != k - 1
                        and bits(x1, x2, p1, p2, m1, m2) == bits(p1, p2, q1, q2, s1, s2)):
                    # the sample before set p to the x it found and left the carry as it
                    # found it (== first, then the bits, which tell -0.0 from 0.0), warning
                    # of no emptying: a fixed point, whose row the stretch repeats unstepped
                    rows[k : last + 1] = rows[k - 1]
                    break
                q1, q2 = p1, p2
                s1, s2 = m1, m2
                e1, e2 = c1 - x1, c2 - x2
                dx1, dx2 = x1 - p1, x2 - p2
                m1 = u1 = m1 + ((kr11 * e1 + kr12 * e2) - (kx11 * dx1 + kx12 * dx2))
                m2 = u2 = m2 + ((kr21 * e1 + kr22 * e2) - (kx21 * dx1 + kx22 * dx2))
                p1, p2 = x1, x2
                write(rows, k << 5, x1 - l1, x2 - l2, u1, u2)  # row k, of 32 bytes

                if clamp:
                    fi1, fi2 = fi1_bar + u1 + d1_k, fi2_bar + u2 + d2_k
                    if fi1 < 0:
                        m1 = 0.0 - fi1_bar - d1_k
                    if fi2 < 0:
                        m2 = 0.0 - fi2_bar - d2_k
                    # the sample's held feed, each absolute feed floored at zero
                    g1 = u1 + (max(fi1, 0.0) - fi1_bar - u1)
                    g2 = u2 + (max(fi2, 0.0) - fi2_bar - u2)
                else:
                    # off the pulse d is 0.0, and u + 0.0 turns a -0.0 into 0.0
                    g1, g2 = u1 + d1_k, u2 + d2_k
                if k == stop:
                    break
                if linear:
                    n1 = a11 * x1 + a12 * x2 + (b11 * g1 + b12 * g2)
                    n2 = a21 * x1 + a22 * x2 + (b21 * g1 + b22 * g2)
                    if (n1 - n1) + (n2 - n2) != 0.0:
                        raise ArithmeticError(f"plant state non-finite at t={t.item(k) + ts:.6g}")
                    x1, x2 = n1, n2
                    continue

                # A step starts from the floored end of the one before.
                for j in steps:
                    if j == switch:
                        # a split sample's next piece: its step sizes, and its feed, the
                        # move plus the piece's routed pulse floored as g is
                        _, length, dp1, dp2 = cut[j // substeps]
                        half1, half2, whole1, whole2, sixth1, sixth2 = sizes(length / substeps)
                        if clamp:
                            g1 = u1 + (max(fi1_bar + u1 + dp1, 0.0) - fi1_bar - u1)
                            g2 = u2 + (max(fi2_bar + u2 + dp2, 0.0) - fi2_bar - u2)
                        else:
                            g1, g2 = u1 + dp1, u2 + dp2
                        switch += substeps
                    hd = x1 - x2
                    q12 = alpha1 * (sqrt(hd) if hd >= 0.0 else -sqrt(-hd)) - q12_bar
                    f11 = g1 - q12
                    f12 = g2 - alpha2 * (sqrt(x2) - sqrt_l2) + q12

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
                        raise ArithmeticError(f"plant state non-finite at t={clock(k, j):.6g}")
                    # floor the levels at empty; warn only on the step that empties a tank
                    if n1 < 0.0:
                        if x1 > 0.0:
                            logger.warning("tank 1 ran empty at t=%.4g s; level clamped to 0",
                                           clock(k, j))
                            emptied = k
                        n1 = 0.0
                    if n2 < 0.0:
                        if x2 > 0.0:
                            logger.warning("tank 2 ran empty at t=%.4g s; level clamped to 0",
                                           clock(k, j))
                            emptied = k
                        n2 = 0.0
                    x1, x2 = n1, n2
        return x1, x2, p1, p2, m1, m2

    return run


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
    given, is the feed pulse, held from t and from each edge inside
    (t, t + dt), where it splits the step.  The step is one sample of
    `make_loop`'s body with zero gains, the move preset and one substep;
    levels below empty enter it as empty.
    """
    t, (h1, h2) = state
    times = np.array([t, t + dt])  # the sample, and the time it ends
    _, d1, d2, cuts = _routed_pulse(times, disturbance or NO_DISTURBANCE, op)
    x1, x2 = max(op.l1 + h1, 0.0), max(op.l2 + h2, 0.0)
    run = make_loop(params, op, dt, 1, False, (0.0,) * 8)
    x1, x2, *_ = run(times, np.zeros(2), np.zeros(2), d1, d2, cuts, (x1, x2, x1, x2, *inflow_dev),
                     np.empty((2, 4)), True)
    return PlantState(t + dt, DeviationState(x1 - op.l1, x2 - op.l2))
