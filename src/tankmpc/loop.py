"""Closed-loop receding-horizon simulation over a configured scenario.

Per sample: read the plant levels, form the setpoint, apply the
fixed-gain control move, hold the absolute flows over the interval, and
advance the plant from k ts, the run's one clock.  All of that is one
loop body, `plant.make_loop`, which this module runs once per block of
CSV_BLOCK samples; no function is called per sample on the nonlinear
plant.  The controller runs on the linearized model while the plant
stays nonlinear (or, as a diagnostic, is the sampled linear model),
exactly the mismatch the scheme is meant to tolerate.  The scenario's
signals at the sample times are computed once per run, before the loop,
and the absolute feeds it applied after it, from the logged moves.

Work that a run shares with the run before it is done once: `_recall`
keeps the last value built of each kind (the sampled model, the prediction
gains, the CSV formats of a log's blocks of rows), keyed bit for bit.  So
the runs of a tuning sweep share their model and CSV formats, and a study of
one plant its whole controller set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import zoh_discretize
from .mpc import MpcConfig, augment, build_prediction
from .mpc import receding_step  # noqa: F401  (unused here; perfbench/tracing.BOUNDARIES names it)
from .plant import (  # noqa: F401  (unused here; perfbench/tracing.BOUNDARIES
    # names disturbance_flow, disturbance_inflows and rk4_step in this module)
    NO_DISTURBANCE,
    DisturbanceProfile,
    disturbance_flow,
    disturbance_inflows,
    make_loop,
    rk4_step,
)
from .tank import TankParams, linearize, make_operating_point

#: Samples a signal must stay inside the settling band to count as settled.
SETTLE_DWELL = 10

#: Rows the CSV encoder formats, and the loop converts to and from floats, at a time.
CSV_BLOCK = 4096

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

    def n_samples(self) -> int:
        # guard against 15/0.05 landing just below an integer
        return int(math.floor(self.t_end / self.ts + 1e-9)) + 1


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

        Rows are encoded CSV_BLOCK at a time, so the temporary row-major
        copy stays small for long runs.  Each block is one %-pass over its
        six loop columns with the block's format (see `_block_format`).
        The formats of every block are recalled while a log has the bits in
        t, r1, r2 and u3 of the log encoded before it, as in the runs of a
        tuning sweep.
        """
        signals = [np.asarray(getattr(self, name), dtype=np.float64) for name in _SIGNAL_COLUMNS]
        loop = [getattr(self, name) for name in _LOOP_COLUMNS]
        starts = range(0, len(self), CSV_BLOCK)
        formats = _recall("csv", tuple(col.tobytes() for col in signals),
                          lambda: [_block_format(*(col[i : i + CSV_BLOCK] for col in signals))
                                   for i in starts])
        parts = [",".join(self.COLUMNS) + "\n"]
        for i, fmt in zip(starts, formats):
            values = np.column_stack([col[i : i + CSV_BLOCK] for col in loop])
            parts.append(fmt % tuple(values.ravel().tolist()))
        return "".join(parts)


#: Log columns known before the loop runs: the time and the scenario's
#: signals, which hold their value between its edges.
_SIGNAL_COLUMNS = ("t", "r1", "r2", "u3")

#: Log columns the loop fills sample by sample, in SimulationLog.COLUMNS order.
_LOOP_COLUMNS = tuple(name for name in SimulationLog.COLUMNS if name not in _SIGNAL_COLUMNS)

#: A CSV row after its t field: a held column's text goes in its braces,
#: and each loop column is a %.9g conversion.
_ROW_REST = "".join("," + ("%.9g" if name in _LOOP_COLUMNS else "{}")
                    for name in SimulationLog.COLUMNS[1:]) + "\n"


def _block_format(t: np.ndarray, r1: np.ndarray, r2: np.ndarray, u3: np.ndarray) -> str:
    """The %-format of one block of CSV rows: each row's t field
    as text, the text of r1, r2 and u3, formatted once per run of rows over
    which none of them changes its bits (0.0 and -0.0 print differently),
    and %.9g for each loop column.  Each run of rows is one %-pass over its
    t values, the newline after each then replaced by the rest of the row."""
    times = t.tolist()
    held = np.column_stack([r1, r2, u3])
    bits = held.view(np.int64)
    cuts = [0, *(np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1).tolist(), len(held)]
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        rest = _ROW_REST.format(*("%.9g" % v for v in held[a].tolist()))
        parts.append(("%.9g\n" * (b - a) % tuple(times[a:b])).replace("\n", rest))
    return "".join(parts)


def _pulse(t: np.ndarray, start: float, duration: float, value: float) -> np.ndarray:
    """value on [start, start + duration) and 0.0 elsewhere, at the times t."""
    return np.where((start <= t) & (t < start + duration), value, 0.0)


class SimulationError(RuntimeError):
    """A sub-module failure, annotated with the sample it happened at."""

    def __init__(self, sample_index: int, t: float, cause: Exception):
        super().__init__(f"simulation failed at sample {sample_index} (t={t:.6g} s): {cause}")
        self.sample_index = sample_index


def _controller(scenario: Scenario):
    """The operating point, the sampled model and the prediction gains of
    the scenario's plant.  The model is set up once for consecutive runs of
    the same plant, levels and sampling period, and the gains once for
    consecutive runs that also share the horizons and weight."""
    params, levels, ts = scenario.params, scenario.op_levels, scenario.ts

    def model():
        op = make_operating_point(params, *levels)
        disc = zoh_discretize(linearize(params, op), ts)
        return op, disc, augment(disc)

    model_key = repr((params, levels, ts))
    op, disc, aug = _recall("model", model_key, model)
    pred = _recall("gains", (model_key, repr(scenario.mpc)),
                   lambda: build_prediction(aug, scenario.mpc))
    return op, disc, pred


def run_closed_loop(scenario: Scenario) -> SimulationLog:
    """Run the full sample-control-hold-integrate loop for a scenario."""
    op, disc, pred = _controller(scenario)

    n = scenario.n_samples()
    ts = scenario.ts
    sp1, sp2 = scenario.setpoints
    dist = scenario.disturbance
    # the scenario's signals at the sample times, once per run
    t_col = np.arange(n) * ts  # k * ts, bit for bit
    r1_col = _pulse(t_col, sp1.start, sp1.duration, sp1.amplitude)
    r2_col = _pulse(t_col, sp2.start, sp2.duration, sp2.amplitude)
    flow = dist.flow(op)
    u3_col = _pulse(t_col, dist.start, dist.duration, flow)
    d1_col, d2_col = (_pulse(t_col, dist.start, dist.duration, d) for d in dist.route(flow))

    width = 4  # h1, h2, u1, u2 are logged; the feeds follow from u after the loop
    rows = np.empty(n * width)  # the logged columns, row by row
    clamp = scenario.clamp_flows
    run = make_loop(scenario.params, op, ts, scenario.substeps, dist, clamp, pred.gains,
                    disc if scenario.linear_plant else None)

    # CSV_BLOCK samples at a time, their logged values gathered in one flat
    # list of floats; the loop body carries the plant and the controller's
    # memory from block to block
    carry = None
    for i in range(0, n, CSV_BLOCK):
        j = min(i + CSV_BLOCK, n)
        logged = []
        try:
            carry = run(i, t_col[i:j], r1_col[i:j], r2_col[i:j], d1_col[i:j], d2_col[i:j],
                        carry, logged, j == n)
        except Exception as exc:
            k = i + len(logged) // width - 1  # the sample logged last raised in its step
            raise SimulationError(k, float(t_col[k]), exc) from exc
        rows[i * width : j * width] = logged

    h1_col, h2_col, u1_col, u2_col = rows.reshape(n, width).T.copy()
    # the absolute feeds the loop applied, each floored at zero under the clamp
    fi1_col, fi2_col = op.fi1_bar + u1_col + d1_col, op.fi2_bar + u2_col + d2_col
    if clamp:
        fi1_col, fi2_col = (np.where(fi < 0, 0.0, fi) for fi in (fi1_col, fi2_col))
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
