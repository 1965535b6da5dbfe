"""The tankmpc benchmark workloads: generated inputs, one operation, its check.

Every input is generated here from the run's seed; the program sees only
the generated config text and values.  One process drives everything, in
process and one operation at a time: the machine the benchmark was sized
on has two CPUs.

=============  ===================================  ==========================================
workload       one operation                        why
=============  ===================================  ==========================================
closed_loop    ``run_closed_loop`` + ``summarize``  The per-sample layers do nearly all the
               on one of 16 seeded variants of the  work: plant.rk4_step 63 % (of which
               bundled scenario (ts 0.05 s, 4 RK4   tank.nonlinear_derivatives 14 %),
               substeps, 301 samples); operation i  mpc.receding_step 25 %, per-sample loop
               runs variant i mod 16.  Setpoint     glue 10 %; the set-up layers and
               amplitudes and the disturbance       summarize stay under 1 % and nothing is
               magnitude/target are drawn inside    encoded or written.  A faster plant
               the bundled range; variant 0 is      integrator shows here; a batched sweep is
               the bundled scenario itself.  One    bypassed, so the prediction for it is no
               caller, in-process, no file output.  change.

tuning_sweep   ``tankmpc.cli.main(["sweep", ...])`` A controller-tuning study.  With one RK4
               over one value of rw, np or nc on    step per sample mpc.receding_step takes
               the bundled scenario at ts 0.01 s,   the larger share, 45 % against
               one substep (1501 samples), writing  plant.rk4_step 32 %; a new controller is
               its CSV.  16 seeded values per       built per value and CSV encoding is 6 %.
               parameter: rw log-uniform in         The fixed gain (ROADMAP item 2) shows
               0.01-100, np 3-40 (at nc 3), nc      here.  One value per operation keeps
               1-10 (at np 10); the operations      operations short (see below), so a
               cycle through the 48 values.         lockstep batched sweep (item 3) would
               In-process, one caller.              show only as cheaper runs.
=============  ===================================  ==========================================

The machine the benchmark was sized on (a shared two-CPU VM) switches
between a fast and a ~1.8x slower speed for seconds at a time, and now
and then stays slow for minutes; CPU time tracks wall time, so it is not
only steal.  Single closed-loop runs take 40-45 ms or 75-88 ms, and the
median falls between the two: 55-86 ms over 25-second windows, and over
ten runs its quartiles were up to 28 % of the median apart.  The tail
did better (5-11 %) until a slow stretch took 4 of 10 runs (21 % on
closed_loop, 67 % on tuning_sweep with two values an operation).  The
fastest operation spread least on closed_loop, 3-14 % over seven sets
of ten runs, that slow stretch included, so run.py reports it.  It needs
operations short enough to fit in a fast stretch: sweeps of two values
(~0.45 s) spread about 20 % even by the fastest time of each distinct
operation, hence one value an operation.

A workload launching a fresh ``python -m tankmpc.cli simulate`` per
operation (launch to exit, ~0.6-0.9 s) was tried and dropped: its tail,
median and fastest launch all spread 13-24 % between the quartiles of
ten runs in one of four periods.  What it measured beyond the other two,
interpreter start and ``import tankmpc`` (mostly scipy), is in setup_s
and in the traced run's cli.import_* figures.

The shares are of traced operation time from the first traced run of each
workload (two-CPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
Tracing inflates the layers called most often: it costs about 1.4x on
closed_loop (some 12,000 spans a run) and 1.5x on tuning_sweep.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from pathlib import Path

import numpy as np
import tankmpc
import tankmpc.cli
import tankmpc.config

import program

#: Criterion-5 tolerance: a held setpoint segment must end this close to its target (m).
TRACK_TOL = 1e-3


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def with_values(text: str, values: dict) -> str:
    """Config text with the given keys set; other lines kept as they are."""
    values = dict(values)
    lines = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {values.pop(key)}" if key in values else line)
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def check_held_segments(log) -> None:
    """Each constant stretch of each setpoint must end within TRACK_TOL of it."""
    for name, r, y in (("h1", log.r1, log.h1), ("h2", log.r2, log.h2)):
        ends = np.flatnonzero(np.diff(r) != 0).tolist() + [len(r) - 1]
        for k in ends:
            if not abs(y[k] - r[k]) <= TRACK_TOL:
                raise CheckFailed(f"{name} ends the segment at t={log.t[k]:g} s "
                                  f"{abs(y[k] - r[k]):.3g} m from its setpoint")


class Workload:
    """Set-up happens in the constructor; that is what ``setup_s`` times."""

    name: str
    runs_per_op: int  # closed-loop scenarios completed by one operation
    samples_per_run: int
    trace_cap: int  # operations replayed under the tracer in a --trace 1 run

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.bundled_text = program.BUNDLED_CONFIG.read_text(encoding="utf-8")
        self.golden = program.GOLDEN_CSV.read_text(encoding="utf-8")

    def warm_up(self) -> None:
        """One untimed operation.  Its failure is not fatal: the timed
        operations run the same code and count their own failures."""
        try:
            self.check(0, self.op(0))
        except Exception:
            pass

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int, tracer):
        with tracer.patched():
            return self.op(i)

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop(Workload):
    # Loads: plant (rk4_step, nonlinear_derivatives, disturbance_inflows),
    # mpc.receding_step and the loop's per-sample glue.  Bypasses: cli,
    # CSV encoding and writing, batching.
    name = "closed_loop"
    VARIANTS = 16
    runs_per_op = 1
    samples_per_run = 301
    trace_cap = 2 * VARIANTS

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = random.Random(seed)
        texts = [self.bundled_text]
        for _ in range(self.VARIANTS - 1):
            texts.append(with_values(self.bundled_text, {
                "setpoint.h1.amplitude": repr(rng.uniform(0.05, 0.5)),
                "setpoint.h2.amplitude": repr(rng.uniform(0.05, 0.3)),
                "disturbance.magnitude": repr(rng.uniform(1.0, 10.0)),
                "disturbance.target": rng.choice(["tank1", "tank2", "both"]),
            }))
        self.scenarios = [tankmpc.loads_config(text).scenario for text in texts]

    def op(self, i):
        scenario = self.scenarios[i % self.VARIANTS]
        log = tankmpc.run_closed_loop(scenario)
        return log, tankmpc.summarize(log, scenario)

    def check(self, i, result):
        log, summary = result
        variant = i % self.VARIANTS
        if len(log) != self.samples_per_run:
            raise CheckFailed(f"variant {variant}: {len(log)} samples, "
                              f"expected {self.samples_per_run}")
        if variant == 0 and log.to_csv_text() != self.golden:
            raise CheckFailed("bundled scenario differs from tests/golden/default_scenario.csv")
        check_held_segments(log)
        if sorted(summary.outputs) != ["h1", "h2"]:
            raise CheckFailed(f"variant {variant}: summary covers {sorted(summary.outputs)}")


class TuningSweep(Workload):
    # Loads: cli.main, config.load_config and with_mpc_value, the per-run
    # set-up layers (one new controller per value), the per-sample layers
    # at one RK4 step per sample, and CSV encoding and writing.
    name = "tuning_sweep"
    PARAMS = ("rw", "np", "nc")
    VALUES = 16  # per parameter, one to an operation
    runs_per_op = 1
    samples_per_run = 1501
    trace_cap = 6

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = random.Random(seed)
        self.config = tmp / "sweep.conf"
        self.config.write_text(with_values(self.bundled_text, {
            "sim.ts": "0.01", "sim.substeps": "1"}), encoding="utf-8")
        tankmpc.load_config(self.config)
        draws = {  # nc sweeps run at the bundled np = 10, np sweeps at nc = 3
            "rw": [f"{10 ** rng.uniform(-2, 2):.4g}" for _ in range(self.VALUES)],
            "np": [str(v) for v in rng.sample(range(3, 41), self.VALUES)],
            "nc": [str(rng.randint(1, 10)) for _ in range(self.VALUES)],
        }
        self.sweeps = [(param, values[k]) for k in range(self.VALUES)
                       for param, values in draws.items()]
        self.out_dir = tmp / "sweep"
        self.references = {}

    def op(self, i):
        param, value = self.sweeps[i % len(self.sweeps)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = tankmpc.cli.main(["sweep", "--config", str(self.config), "--param", param,
                                     "--values", value, "--out-dir", str(self.out_dir)])
        return code, stdout.getvalue()

    def reference_csv(self, param, raw):
        """The library's own CSV for one swept value, made once per value."""
        key = (param, raw)
        if key not in self.references:
            cfg = tankmpc.config.with_mpc_value(tankmpc.load_config(self.config), param,
                                                float(raw) if param == "rw" else int(raw))
            self.references[key] = tankmpc.run_closed_loop(cfg.scenario).to_csv_text()
        return self.references[key]

    def check(self, i, result):
        """Exit code 0; the CSV has the column header and one row per
        sample; the run ends within TRACK_TOL of its setpoints.  Earlier
        segment ends are not checked: with rw near 100 the controller
        legitimately takes longer than the 5-second setpoint pulse to
        settle.  The first value of each parameter must also give the
        library's own CSV, bit for bit (the others are spared the extra
        run, which would eat a fifth of the time budget)."""
        code, text = result
        param, value = self.sweeps[i % len(self.sweeps)]
        path = self.out_dir / f"{param}_{value}.csv"
        try:
            if code != 0 or "FAILED" in text:
                raise CheckFailed(f"sweep over {param}={value} exited {code}: {text[-200:]}")
            csv_text = path.read_text(encoding="utf-8")
            if i % len(self.sweeps) < len(self.PARAMS) and csv_text != self.reference_csv(
                    param, value):
                raise CheckFailed(f"{path.name} differs from run_closed_loop's own CSV")
            columns = tankmpc.SimulationLog.COLUMNS
            header, _, body = csv_text.partition("\n")
            if header != ",".join(columns):
                raise CheckFailed(f"{path.name}: header {header!r}")
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            if data.shape != (self.samples_per_run, len(columns)):
                raise CheckFailed(f"{path.name}: shape {data.shape}")
            last = dict(zip(columns, data[-1]))
            for y, r in (("h1", "r1"), ("h2", "r2")):
                if not abs(last[y] - last[r]) <= TRACK_TOL:
                    raise CheckFailed(f"{path.name}: {y} ends {abs(last[y] - last[r]):.3g} m "
                                      f"from its setpoint")
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ClosedLoop, TuningSweep)}
