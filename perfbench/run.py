"""tankmpc benchmark: one workload per process, checked, timed and stamped.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py for what each loads and bypasses):
closed_loop, tuning_sweep.

``--trace 0`` prints the end-to-end metrics, measured with no tracing:
  setup_s      median over fresh interpreters of launch -> ready (import
               tankmpc, parse the workload's configs, generate its inputs)
  op_ms_min    latency of one operation at the host's fast speed: the
               fastest of the run.  The host the benchmark was sized on
               alternates between a fast and a ~1.8x slower speed for
               seconds at a time (workloads.py), so the median and the tail
               move with the share of time spent slow; they are printed on
               the line above the result (the tail as p90 from 100
               operations, else the highest percentile with ten operations
               beyond it), with the operation count and the throughput,
               but are not metrics.
  peak_rss_mb  peak resident memory of the workload process
  ok_ratio     operations that succeeded and passed their check, over
               operations attempted (1 - failed/attempted)

``--trace 1`` runs half the time untraced, then replays the first
operations, each once untraced and once under the tracer (tracing.py), and
prints the per-layer metrics, computed from the spans (trace.overhead_ratio
is the median over the replayed operations of traced / untraced time);
counts and times marked "/run" are per closed-loop run.  A layer the
workload never calls reports 0.  Spans are written to
``.perfbench/spans-<workload>.csv``.

Every operation's output is checked; a failed check, an exception or a
non-zero exit counts as a failed operation and the run goes on.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Lines before it record the seed, the machine and the software.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import program

SETUP_PROBES = 7  # fresh interpreters per run for setup_s
IMPORT_PROBES = 5  # fresh interpreters per command for the import costs


class Phase:
    """Durations and outcomes of a sequence of operations."""

    def __init__(self):
        self.records: list[tuple[int, float, bool]] = []  # (op index, seconds, passed)

    def ok_times(self) -> list[float]:
        return [dt for _, dt, ok in self.records if ok]

    @property
    def failed(self) -> int:
        return sum(1 for *_, ok in self.records if not ok)


def run_ops(wl, indices, op, budget_s=None, tracer=None) -> Phase:
    """Run, time and check operations back to back.

    With a budget, stops after the number of operations whose total time is
    closest to it.  Only the operation itself is timed, not its check.
    """
    phase = Phase()
    start = time.perf_counter()
    for n, i in enumerate(indices, start=1):
        if tracer is not None:
            tracer.current_op = i
            root = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            result = op(i)
            ok = True
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            ok = False
        finally:
            if tracer is not None:
                tracer.finish(root)
                tracer.current_op = -1
        dt = time.perf_counter() - t0
        if ok:
            try:
                wl.check(i, result)
            except Exception as exc:
                ok = False
                print(f"operation {i}: check failed: {exc}", file=sys.stderr)
        phase.records.append((i, dt, ok))
        if budget_s is not None:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / n / 2 >= budget_s:
                break
    return phase


def nearest_rank(sorted_vals: list[float], pct: float) -> float:
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value): p90 from 100 samples, else the highest percentile
    at or above the median with ten samples beyond it, else the maximum."""
    s = sorted(values)
    n = len(s)
    if n >= 100:
        return 90, nearest_rank(s, 90)
    if n >= 20:
        return math.floor(100 * (n - 10) / n), s[n - 11]
    return 100, s[-1]


def setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    """Launch -> "ready" of fresh interpreters doing the workload's set-up."""
    child = str(Path(__file__).with_name("child.py"))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, child, "setup", workload, str(seed)],
                                cwd=program.ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise program.SetupError(f"set-up probe for {workload} exited {code}")
        times.append(ready)
    return times


def import_costs_ms(env: dict) -> dict[str, float]:
    """Median launch-to-exit of `import X` minus that of an empty interpreter."""
    commands = {"none": "pass", "tankmpc": "import tankmpc", "scipy_linalg": "import scipy.linalg"}
    walls = {key: [] for key in commands}
    for _ in range(IMPORT_PROBES):
        for key, code in commands.items():
            run = program.launch([sys.executable, "-c", code], env)
            if run.code != 0:
                raise program.SetupError(f"`{code}` exited {run.code}: {run.stderr.strip()}")
            walls[key].append(run.wall_s)
    base = statistics.median(walls["none"])
    return {key: (statistics.median(walls[key]) - base) * 1e3 for key in ("tankmpc", "scipy_linalg")}


def stamp(args, tankmpc) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit, dirty = "none", None
    git = shutil.which("git")
    if git:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(program.ROOT.parent))
        try:
            head = subprocess.run([git, "-C", str(program.ROOT), "rev-parse", "HEAD"], env=env,
                                  capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                commit = head.stdout.strip()
                status = subprocess.run([git, "-C", str(program.ROOT), "status", "--porcelain",
                                         "--untracked-files=no"], env=env,
                                        capture_output=True, text=True, timeout=30)
                dirty = bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "tankmpc": tankmpc.__version__,
        "git_commit": commit, "git_dirty": dirty,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, phase: Phase, setup_times: list[float]) -> dict:
    times = phase.ok_times()
    pct, tail_s = tail(times)
    op_s = sum(dt for _, dt, _ in phase.records)
    print(f"{wl.name}: {len(times)} operations passed of {len(phase.records)}, "
          f"{wl.runs_per_op} run(s) of {wl.samples_per_run} samples each; op ms "
          f"p50 {statistics.median(times) * 1e3:.3f}, p{pct} {tail_s * 1e3:.3f}; "
          f"{wl.runs_per_op * len(times) / op_s:.3f} runs/s; "
          f"setup_s is the median of {len(setup_times)}: "
          + ", ".join(f"{t:.3f}" for t in setup_times))
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_ms_min": metric(min(times) * 1e3, "ms"),
        "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
        "ok_ratio": metric(len(times) / len(phase.records), "ratio"),
    }


def per_layer(wl, tracer, plain: Phase, traced: Phase, imports: dict) -> dict:
    """``plain`` holds an untraced run of each traced operation, made just
    before it, so the two see the host at the same speed."""
    from tracing import SpanTable

    table = SpanTable(tracer)
    n = len(traced.records) * wl.runs_per_op  # closed-loop runs traced
    overhead = statistics.median(t / p for (_, t, ok), (_, p, plain_ok)
                                 in zip(traced.records, plain.records) if ok and plain_ok)
    rk4_calls = table.calls("plant.rk4_step")
    step_calls = table.calls("mpc.receding_step")

    layers = table.self_by_layer()
    op_ms = table.traced_op_ms()
    print(f"{wl.name}: {len(traced.records)} traced operations of {wl.runs_per_op} run(s), "
          f"{len(tracer)} spans; self time by layer (ms/run, share), summing to "
          f"{sum(layers.values()) / n:.3f} of {op_ms / n:.3f} ms/run traced:")
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        if ms > 0:
            print(f"  {layer:<11} {ms / n:10.3f}  {ms / op_ms:7.2%}")
    if not math.isclose(sum(layers.values()), op_ms, rel_tol=1e-9):
        raise RuntimeError("layer self times do not sum to the traced operation time")
    print("mpc.receding_step.flops is computed from the psi, phi and Cholesky shapes")

    m = {
        "plant.rk4_step.calls": metric(rk4_calls / n, "count/run"),
        "plant.rk4_step.us_p50": metric(table.p50_us("plant.rk4_step"), "us"),
        "plant.rk4_step.total_ms": metric(table.total_ms("plant.rk4_step") / n, "ms/run"),
        "tank.nonlinear_derivatives.total_ms":
            metric(table.total_ms("tank.nonlinear_derivatives") / n, "ms/run"),
        "plant.disturbance_inflows.calls":
            metric(table.calls("plant.disturbance_inflows") / n, "count/run"),
        "plant.feed_evals_per_stage": metric(
            table.calls("plant.disturbance_inflows") / (4 * rk4_calls) if rk4_calls else 0.0,
            "ratio"),
        "mpc.receding_step.calls": metric(step_calls / n, "count/run"),
        "mpc.receding_step.us_p50": metric(table.p50_us("mpc.receding_step"), "us"),
        "mpc.receding_step.total_ms": metric(table.total_ms("mpc.receding_step") / n, "ms/run"),
        "mpc.receding_step.flops": metric(
            tracer.counts.get("mpc.receding_step", 0) / step_calls if step_calls else 0.0,
            "flop/call"),
    }
    for name in ("tank.linearize", "discretize.zoh_discretize", "mpc.augment",
                 "mpc.build_prediction", "config.loads_config"):
        m[f"{name}.us_p50"] = metric(table.p50_us(name), "us")
    m["cli.import_tankmpc_ms"] = metric(imports["tankmpc"], "ms")
    m["cli.import_scipy_linalg_ms"] = metric(imports["scipy_linalg"], "ms")
    m["loop.to_csv_text.us_p50"] = metric(table.p50_us("loop.to_csv_text"), "us")
    m["loop.summarize.us_p50"] = metric(table.p50_us("loop.summarize"), "us")
    m["cli.main.self_ms"] = metric(table.self_ms("cli.main") / n, "ms/run")
    m["loop.run_closed_loop.self_ms"] = metric(table.self_ms("loop.run_closed_loop") / n, "ms/run")
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_loop", "tuning_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        return run(args)
    except program.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    tankmpc = program.load()
    import workloads
    from tracing import Tracer

    print("stamp " + json.dumps(stamp(args, tankmpc)))
    program.WORK.mkdir(exist_ok=True)
    env = program.child_env()
    cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=program.WORK) as tmp:
        if not args.trace:
            wl = cls(args.seed, Path(tmp))
            setup_times = setup_seconds(args.workload, args.seed, env)
            wl.warm_up()
            phase = run_ops(wl, itertools.count(), wl.op, budget_s=args.seconds)
            attempted, failed = len(phase.records), phase.failed
            if failed < attempted:
                metrics = end_to_end(wl, phase, setup_times)
        else:
            tracer = Tracer()
            with tracer.patched():
                wl = cls(args.seed, Path(tmp))
            wl.warm_up()
            untraced = run_ops(wl, itertools.count(), wl.op, budget_s=args.seconds / 2)
            replay = [i for i, _, ok in untraced.records if ok][: wl.trace_cap]
            plain, traced = Phase(), Phase()
            for i in replay:
                plain.records += run_ops(wl, [i], wl.op).records
                traced.records += run_ops(wl, [i], lambda i: wl.traced_op(i, tracer),
                                          tracer=tracer).records
            phases = (untraced, plain, traced)
            attempted = sum(len(ph.records) for ph in phases)
            failed = sum(ph.failed for ph in phases)
            if traced.ok_times():
                metrics = per_layer(wl, tracer, plain, traced, import_costs_ms(env))
                spans = program.WORK / f"spans-{args.workload}.csv"
                tracer.write(spans)
                print(f"spans written to {spans.relative_to(program.ROOT)}")
            else:
                failed = attempted
    if failed == attempted:
        print("perfbench: every operation failed", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
