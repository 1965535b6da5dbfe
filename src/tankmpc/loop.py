"""Closed-loop receding-horizon simulation over a configured scenario.

Per sample: read the plant levels, form the setpoint, apply the
fixed-gain control move, hold the absolute flows over the interval, and
advance the plant from k ts, the run's one clock.  All of that is one
loop body, `make_loop` (its docstring is the one description of it),
which `run_closed_loop` calls once per run and which writes each
sample's row into the log's buffer; no other function is called per
sample, on either plant.
The controller runs on the linearized model while the plant stays
nonlinear (or, as a diagnostic, is the sampled linear model), exactly
the mismatch the scheme is meant to tolerate.  The scenario's signals at
the sample times, and the samples a pulse edge splits (`_routed_pulse`),
are worked out once per run, before the loop, and the absolute feeds it
applied after it, from the logged moves: the clamp is reported there,
once, at the first sample whose feed it floored, in the sample or in a
later piece of a split one.  The body repeats the row of an exact fixed
point of a stretch of held inputs, unstepped, which gives the same log
as stepping; the law runs on the absolute levels, so a held setpoint
step settles there too, on the level fl(l + r).  The CSV encoder formats
the text of a held stretch once (see `SimulationLog.to_csv_text`).

`rk4_step` (one sample of the loop body with zero gains and a preset
move, on a `PlantState`) and `disturbance_flow`/`disturbance_inflows`
(the pulse at one time) are reference forms the package does not export;
the tests and the benchmark's tracer import them from this module.

Work that a run shares with the run before it is done once: `_recall`
keeps the last value built of each kind (the sampled model, the prediction
gains, a log's CSV t fields), keyed bit for bit.  So the runs of a tuning
sweep share their model, the runs of any sweep their t fields, whatever the
swept key, and a study of one plant its whole controller set-up.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .discretize import zoh_discretize
from .mpc import MpcConfig, augment, build_prediction
from .mpc import receding_step  # noqa: F401  (unused here; perfbench/tracing.BOUNDARIES names it)
from .plant import NO_DISTURBANCE, DisturbanceProfile
from .tank import (
    DeviationState,
    LinearModel,
    OperatingPoint,
    TankParams,
    linearize,
    make_operating_point,
)

logger = logging.getLogger(__name__)

#: Samples a signal must stay inside the settling band to count as settled.
SETTLE_DWELL = 10

#: The last value `_recall` built of each kind, {kind: (key, value)}.
_last: dict[str, tuple] = {}


def _recall(kind: str, key, build):
    """build(), or the value kept from the last call of this kind if its key
    is equal.  Keys are repr strings and bytes, so they compare bit for bit
    (the sign of a zero counts); a build that raises keeps the old entry."""
    entry = _last.get(kind)
    if entry is None or entry[0] != key:
        entry = _last[kind] = (key, build())
    return entry[1]


@dataclass(frozen=True)
class SetpointPulse:
    """Rectangular setpoint pulse for one output (m)."""

    amplitude: float = 0.0
    start: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"pulse duration must be >= 0, got {self.duration}")
        if not math.isfinite(self.amplitude):
            raise ValueError("pulse amplitude must be finite")


@dataclass(frozen=True)
class Scenario:
    """Everything a closed-loop run needs, in plain numbers."""

    params: TankParams
    op_levels: tuple[float, float]
    mpc: MpcConfig
    ts: float
    t_end: float
    setpoints: tuple[SetpointPulse, SetpointPulse]
    disturbance: DisturbanceProfile = NO_DISTURBANCE
    substeps: int = 4  # RK4 substeps per controller sample
    clamp_flows: bool = False  # floor absolute feed flows at zero
    linear_plant: bool = False  # diagnostic: drive the discrete linear model instead

    def __post_init__(self):
        if self.ts <= 0:
            raise ValueError(f"sampling period must be positive, got {self.ts}")
        if self.t_end <= 0:
            raise ValueError(f"simulation horizon must be positive, got {self.t_end}")
        if self.substeps < 1:
            raise ValueError(f"need at least one integrator substep, got {self.substeps}")
        l1, l2 = self.op_levels
        if not (l1 > l2 > 0):
            raise ValueError(f"operating levels need l1 > l2 > 0, got l1={l1}, l2={l2}")
        # the steady tank-2 feed, alpha2 sqrt(l2) - alpha1 sqrt(l1 - l2), must not be negative
        outlet = self.params.alpha2 * math.sqrt(l2)
        coupling = self.params.alpha1 * math.sqrt(l1 - l2)
        if outlet < coupling:
            raise ValueError(f"operating.l1, operating.l2, plant.alpha1 and plant.alpha2 give a "
                             f"negative steady tank-2 feed: alpha2*sqrt(l2) = {outlet:.6g} < "
                             f"alpha1*sqrt(l1 - l2) = {coupling:.6g}")

    def n_samples(self) -> int:
        # guard against 15/0.05 landing just below an integer
        return int(math.floor(self.t_end / self.ts + 1e-9)) + 1


#: Rows the CSV encoder copies row-major at a time (see `SimulationLog.to_csv_text`).
CSV_BLOCK = 4096


@dataclass
class SimulationLog:
    """Per-sample record of the closed-loop run (column arrays)."""

    t: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    fi1_abs: np.ndarray
    fi2_abs: np.ndarray

    COLUMNS = ("t", "r1", "r2", "h1", "h2", "u1", "u2", "u3", "fi1_abs", "fi2_abs")

    def __len__(self) -> int:
        return self.t.size

    def to_csv_text(self) -> str:
        """CSV with the fixed column contract, 9 significant digits.

        Each row is its t field and a tail (`_ROW_TAIL`): the text of r1, r2
        and u3, formatted once per run of rows over which none of them
        changes its bits (0.0 and -0.0 print differently), and a %.9g for
        each loop column.  The loop columns are copied row-major CSV_BLOCK
        rows at a time, so the copy stays small for long runs.  A block is
        cut into segments where a run starts or its rows turn from stepped
        to held, a held row being one whose six loop columns have the bits
        of the row before (NaNs repeat, and 0.0 after -0.0 does not).  A held
        segment is one join of its t fields with the tail filled with the
        row before it; a stepped one is one %-pass.  The t fields are
        recalled while a log has the bits of the t column of the log
        encoded before it, as the runs of a sweep do.
        """
        t = np.asarray(self.t, dtype=np.float64)
        times = _recall("csv", t.tobytes(), lambda: _t_fields(t))
        signals = [np.asarray(getattr(self, name), dtype=np.float64) for name in ("r1", "r2", "u3")]
        starts = np.zeros(t.size, dtype=bool)  # where a run of r1, r2 and u3 starts
        starts[:1] = True
        for col in signals:
            bits = col.view(np.int64)
            starts[1:] |= bits[1:] != bits[:-1]
        loop = [getattr(self, name) for name in _LOOP_COLUMNS]
        parts = [",".join(self.COLUMNS) + "\n"]
        for i in range(0, t.size, CSV_BLOCK):
            values = np.array([col[i : i + CSV_BLOCK] for col in loop], dtype=np.float64).T.copy()
            bits = values.view(np.int64)
            repeats = np.zeros(len(values), dtype=bool)
            repeats[1:] = (bits[1:] == bits[:-1]).all(1)
            cuts = starts[i : i + CSV_BLOCK].copy()
            cuts[0] = True
            cuts[1:] |= repeats[1:] != repeats[:-1]
            bounds = np.flatnonzero(cuts).tolist()
            for a, b in zip(bounds, bounds[1:] + [len(values)]):
                if starts.item(i + a):  # else the segment continues the last one's run
                    tail = _ROW_TAIL.format(*("%.9g" % col.item(i + a) for col in signals))
                if repeats.item(a):
                    filled = tail % tuple(values[a - 1].tolist())
                    parts.append(filled.join(times[i + a : i + b]) + filled)
                else:
                    parts.append((tail.join(times[i + a : i + b]) + tail)
                                 % tuple(values[a:b].ravel().tolist()))
        return "".join(parts)


#: Log columns the loop fills sample by sample, in SimulationLog.COLUMNS order.
_LOOP_COLUMNS = tuple(name for name in SimulationLog.COLUMNS
                      if name not in ("t", "r1", "r2", "u3"))

#: A CSV row after its t field: the text of r1, r2 and u3 goes in its
#: braces, and each loop column is a %.9g conversion.
_ROW_TAIL = "".join("," + ("%.9g" if name in _LOOP_COLUMNS else "{}")
                    for name in SimulationLog.COLUMNS[1:]) + "\n"


def _t_fields(t: np.ndarray) -> list[str]:
    """The CSV text of each value of a log's t column."""
    return ["%.9g" % v for v in t.tolist()]


class SimulationError(RuntimeError):
    """A sub-module failure, annotated with the sample it happened at."""

    def __init__(self, sample_index: int, t: float, cause: Exception):
        super().__init__(f"simulation failed at sample {sample_index} (t={t:.6g} s): {cause}")
        self.sample_index = sample_index


def _controller(scenario: Scenario):
    """The operating point, the sampled model, the prediction gains and the
    rate |lambda| of the plant's fastest mode at the operating point (the
    spectral radius of the continuous linearization).  The model and rate
    are set up once for consecutive runs of the same plant, levels and
    sampling period, and the gains once for consecutive runs that also
    share the horizons and weight."""
    params, levels, ts = scenario.params, scenario.op_levels, scenario.ts

    def model():
        op = make_operating_point(params, *levels)
        lin = linearize(params, op)
        disc = zoh_discretize(lin, ts)
        # a12 a21 >= 0, so both eigenvalues mid +- sqrt(gap^2 + a12 a21) are real
        (a11, a12), (a21, a22) = lin.a.tolist()
        mid, gap = (a11 + a22) / 2, (a11 - a22) / 2
        return op, disc, augment(disc), abs(mid) + math.sqrt(gap * gap + a12 * a21)

    model_key = repr((params, levels, ts))
    op, disc, aug, rate = _recall("model", model_key, model)
    pred = _recall("gains", (model_key, repr(scenario.mpc)),
                   lambda: build_prediction(aug, scenario.mpc))
    return op, disc, pred, rate


#: The real stability interval of classical RK4 is [-RK4_STABLE, 0]
#: (Hairer & Wanner, Solving ODEs II, section IV.2).
RK4_STABLE = 2.785293563405282


def _rk4_stable(ts: float, substeps: int, rate: float) -> bool:
    """Whether an RK4 step of ts / substeps is stable on a mode of rate
    |lambda|; false for an infinite or NaN rate."""
    return ts / substeps * rate <= RK4_STABLE


def _check_rk4_step(scenario: Scenario, rate: float) -> None:
    """Refuse, with one ValueError, a run whose RK4 step is unstable on the
    plant's fastest mode at the operating point, whose log would show the
    integrator's oscillation as the plant's response.  The message names
    the fewest substeps that pass the same test.  Where the levels meet or
    a tank empties the local rate is larger: this covers the operating
    region only."""
    ts, substeps = scenario.ts, scenario.substeps
    if _rk4_stable(ts, substeps, rate):
        return
    message = (f"sim.ts = {ts:g} s over sim.substeps = {substeps} is an RK4 step of "
               f"{ts / substeps:.4g} s, unstable on the plant's fastest mode "
               f"(|lambda| = {rate:.4g} 1/s at the operating point): step * |lambda| = "
               f"{ts / substeps * rate:.4g} > {RK4_STABLE:.4g}; ")
    fewest = ts * rate / RK4_STABLE
    if not fewest < 2**50:  # too many to count, or a rate that is not finite
        raise ValueError(message + "the sim.ts and plant.* values are out of range")
    fewest = max(1, math.ceil(fewest))
    while fewest > 1 and _rk4_stable(ts, fewest - 1, rate):
        fewest -= 1
    while not _rk4_stable(ts, fewest, rate):
        fewest += 1
    raise ValueError(message + f"set sim.substeps >= {fewest}, or change sim.ts or the plant.* "
                     "or operating.* values")


#: What one call of the loop body hands the next, which runs the samples after
#: its own: the levels x1, x2 the plant carries, the controller's last measured
#: levels p1, p2 and remembered move m1, m2.
Carry = tuple[float, float, float, float, float, float]


class PlantState(NamedTuple):
    """Simulation clock plus the level deviations."""

    t: float
    dev: DeviationState


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
    at zero (reported by `run_closed_loop`, from the log and the split samples'
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
    plant's fastest mode, which `run_closed_loop` enforces.  A stage
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


def run_closed_loop(scenario: Scenario) -> SimulationLog:
    """Run the full sample-control-hold-integrate loop for a scenario.

    The loop body assumes a stable RK4 step: a nonlinear-plant scenario
    whose step is not is refused here, before the first sample, with one
    ValueError (see `_check_rk4_step`).
    """
    op, disc, pred, rate = _controller(scenario)
    if not scenario.linear_plant:
        _check_rk4_step(scenario, rate)

    n = scenario.n_samples()
    ts = scenario.ts
    sp1, sp2 = scenario.setpoints
    # the scenario's signals at the sample times, and the samples a pulse edge splits, once per run
    t_col = np.arange(n) * ts  # k * ts, bit for bit
    r1_col = _pulse(t_col, sp1.start, sp1.duration, sp1.amplitude)
    r2_col = _pulse(t_col, sp2.start, sp2.duration, sp2.amplitude)
    u3_col, d1_col, d2_col, cuts = _routed_pulse(t_col, scenario.disturbance, op)

    # h1, h2, u1, u2 by sample, which the loop body writes; the feeds follow from u after it
    rows = np.full((n, 4), np.nan)
    clamp = scenario.clamp_flows
    run = make_loop(scenario.params, op, ts, scenario.substeps, clamp, pred.gains,
                    disc if scenario.linear_plant else None)
    error = None
    try:
        run(t_col, r1_col, r2_col, d1_col, d2_col, cuts, None, rows, True)
    except Exception as exc:
        # the body writes a sample's row before its step, the part that raises, and the
        # levels it carries are finite (they start so, and it raises on a non-finite one),
        # so every h1 it wrote is finite: the first NaN h1 follows the sample that raised
        error, n = exc, int(np.isnan(rows[:, 0]).argmax())

    h1_col, h2_col, u1_col, u2_col = rows[:n].T.copy()
    # the absolute feeds the loop applied, each floored at zero under the clamp, reported once
    fi1_col, fi2_col = op.fi1_bar + u1_col + d1_col[:n], op.fi2_bar + u2_col + d2_col[:n]
    if clamp:
        # at a sample time, or in a later piece of a split sample, which holds its own
        # pulse (the nonlinear body's feed; the linear plant holds d_k over the sample)
        floored = np.flatnonzero((fi1_col < 0) | (fi2_col < 0))[:1].tolist() + [
            k for k, pieces in cuts.items() if k < n and not scenario.linear_plant
            for _, _, dp1, dp2 in pieces[1:]
            if op.fi1_bar + u1_col.item(k) + dp1 < 0 or op.fi2_bar + u2_col.item(k) + dp2 < 0]
        for k in sorted(floored)[:1]:
            logger.warning("feed-flow clamp active from sample %d (t=%.4g s)", k, t_col.item(k))
        fi1_col, fi2_col = (np.where(fi < 0, 0.0, fi) for fi in (fi1_col, fi2_col))
    if error is not None:
        raise SimulationError(n - 1, t_col.item(n - 1), error) from error
    return SimulationLog(t=t_col, r1=r1_col, r2=r2_col, h1=h1_col, h2=h2_col, u1=u1_col,
                         u2=u2_col, u3=u3_col, fi1_abs=fi1_col, fi2_abs=fi2_col)


@dataclass
class StepMetrics:
    """Step-response numbers for one setpoint edge of one output."""

    output: str
    t_edge: float
    target: float
    step: float
    rise_time: float | None
    settling_time: float | None
    overshoot_pct: float
    steady_state_error: float
    settled: bool


@dataclass
class SummaryMetrics:
    outputs: dict[str, list[StepMetrics]] = field(default_factory=dict)
    max_control_step: dict[str, float] = field(default_factory=dict)


def _segment_metrics(name, t, y, target: float, step: float, i0, i1) -> StepMetrics:
    """The metrics of y over the samples [i0, i1) after a setpoint step to target.

    A step smaller than the level's resolution, the spacing of floats at
    the larger of |target| and the segment's largest |y - target|, cannot
    be told from rounding, and it reports as no step does: no rise time and
    0 % overshoot.  So every field is finite for a log whose values and
    their differences are.
    """
    seg_t, seg_y = t[i0:i1], y[i0:i1]
    off = seg_y - target
    dist = np.abs(off)
    band = 0.02 * max(abs(target), abs(step))

    rise_time = None
    overshoot = 0.0
    if abs(step) >= math.ulp(max(abs(target), float(dist.max()))):
        base = target - step
        lo, hi = base + 0.1 * step, base + 0.9 * step
        # y past a level in the step's direction (y - lo >= 0 just when y >= lo),
        # and the largest excess over the target in that direction
        if step > 0:
            at10, at90, excess = seg_y >= lo, seg_y >= hi, off.max()
        else:
            at10, at90, excess = seg_y <= lo, seg_y <= hi, -off.min()
        i10, i90 = at10.argmax(), at90.argmax()
        if at10[i10] and at90[i90]:
            rise_time = float(seg_t[i90] - seg_t[i10])
        overshoot = max(0.0, float(excess) / abs(step) * 100.0)

    # settled once the signal stays in the band through the segment end,
    # and only if it dwells there long enough to mean it
    in_band = dist <= band if band > 0 else seg_y == target
    outside = np.flatnonzero(~in_band)
    trailing = len(seg_y) - (int(outside[-1]) + 1 if outside.size else 0)
    settled = trailing >= SETTLE_DWELL
    settling_time = float(seg_t[len(seg_y) - trailing] - seg_t[0]) if settled else None

    return StepMetrics(
        output=name,
        t_edge=float(seg_t[0]),
        target=target,
        step=step,
        rise_time=rise_time,
        settling_time=settling_time,
        overshoot_pct=overshoot,
        steady_state_error=float(dist[-1]),
        settled=settled,
    )


def summarize(log: SimulationLog, scenario: Scenario) -> SummaryMetrics:
    """Step-response metrics per setpoint edge plus control activity.

    For each output, every change of the setpoint opens a segment that runs to
    the next change (or to the end of the log), so a disturbance inside a
    segment counts toward that edge's metrics; rise time is 10-90% of the step,
    the settling band is +/-2% of the setpoint (of the step size for
    return-to-zero edges), and a segment only counts as settled after a dwell
    of SETTLE_DWELL samples inside the band.
    """
    if len(log) == 0:
        raise ValueError("empty simulation log")
    out = SummaryMetrics()
    for name, r, y in (("h1", log.r1, log.h1), ("h2", log.r2, log.h2)):
        edges = [0] + (np.flatnonzero(r[1:] != r[:-1]) + 1).tolist()
        bounds = edges + [len(log)]
        metrics = []
        for e, (i0, i1) in enumerate(zip(bounds[:-1], bounds[1:])):
            target = float(r[i0])
            prev = float(y[0] if e == 0 else r[i0 - 1])
            metrics.append(_segment_metrics(name, log.t, y, target, target - prev, i0, i1))
        out.outputs[name] = metrics
    for name, u in (("u1", log.u1), ("u2", log.u2)):
        du = np.diff(u)
        out.max_control_step[name] = float(np.abs(du).max()) if du.size else 0.0
    return out
