"""Command-line front end: linearize, simulate, sweep.

Exit codes: 0 success, 1 partial sweep failure, 2 configuration error,
3 runtime (solver/integrator/IO/out-of-memory) error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    SWEEP_KEYS,
    ConfigError,
    RunConfig,
    default_run_config,
    load_config,
    with_mpc_value,
)
from .discretize import zoh_discretize
from .loop import SimulationError, StepMetrics, run_closed_loop, summarize
from .tank import linearize, make_operating_point

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load(config_path: str | None) -> RunConfig:
    if config_path is None:
        return default_run_config()
    return load_config(config_path)


def _fmt_matrix(name: str, mat: np.ndarray) -> str:
    # + 0.0 prints a negative zero as 0
    rows = ["  ".join(f"{v + 0.0:10.4g}" for v in row) for row in np.atleast_2d(mat)]
    pad = " " * (len(name) + 3)
    return f"{name} = " + ("\n" + pad).join(rows)


def cmd_linearize(args) -> int:
    cfg = _load(args.config)
    sc = cfg.scenario
    op = make_operating_point(sc.params, *sc.op_levels)
    lin = linearize(sc.params, op)
    disc = zoh_discretize(lin, sc.ts)

    print(f"Operating point: l1={op.l1:g} m, l2={op.l2:g} m, "
          f"fi1_bar={op.fi1_bar:.4g} m^3/s, fi2_bar={op.fi2_bar:.4g} m^3/s")
    print("\nContinuous-time model:")
    d = np.zeros((lin.n_outputs, lin.n_inputs))
    for name, mat in (("A", lin.a), ("B", lin.b), ("C", lin.c), ("D", d)):
        print(_fmt_matrix(name, mat))
    print(f"\nZero-order-hold model at Ts = {sc.ts:g} s:")
    for name, mat in (("Ad", disc.a), ("Bd", disc.b)):
        print(_fmt_matrix(name, mat))
    return EXIT_OK


def _write_csv_atomic(text: str, out_path: Path) -> None:
    """Write via a same-directory temp file so failures leave nothing behind."""
    out_path = Path(out_path)
    while True:  # a fresh name, created as open() creates a file: 0o666 less the umask
        tmp = out_path.parent / f"{out_path.name}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(f"cannot write {out_path}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _metric_lines(metrics) -> list[str]:
    def fmt(m: StepMetrics) -> str:
        settle = f"{m.settling_time:.3g} s" if m.settled else "not settled"
        rise = f"{m.rise_time:.3g} s" if m.rise_time is not None else "-"
        return (f"  {m.output} @ t={m.t_edge:g} s -> {m.target:g} m: "
                f"rise {rise}, settling {settle}, overshoot {m.overshoot_pct:.2f}%, "
                f"final error {m.steady_state_error:.3g} m")

    lines = []
    for name in sorted(metrics.outputs):
        lines.extend(fmt(m) for m in metrics.outputs[name])
    for name in sorted(metrics.max_control_step):
        lines.append(f"  max |d{name}| per step: {metrics.max_control_step[name]:.4g} m^3/s")
    return lines


def cmd_simulate(args) -> int:
    cfg = _load(args.config)
    out = args.out or cfg.output_path
    if out is None:
        raise ConfigError("no output path: pass --out or set output.path in the config")

    log = run_closed_loop(cfg.scenario)
    _write_csv_atomic(log.to_csv_text(), Path(out))
    print(f"wrote {len(log)} samples to {out}")
    print("step-response metrics:")
    for line in _metric_lines(summarize(log, cfg.scenario)):
        print(line)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args.config)
    raw_values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not raw_values:
        raise ConfigError("empty --values list")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: list[tuple[str, str]] = []  # (raw value, summary line or FAILED)
    any_failed = False
    for raw in raw_values:
        try:
            run_cfg = with_mpc_value(cfg, args.param, raw)
            log = run_closed_loop(run_cfg.scenario)
            out_path = out_dir / f"{args.param}_{raw}.csv"
            _write_csv_atomic(log.to_csv_text(), out_path)
            metrics = summarize(log, run_cfg.scenario)
            settle = [f"{name}: " + ("not settled" if not all(m.settled for m in segs)
                                     else f"{max(m.settling_time for m in segs):.3g} s")
                      for name, segs in sorted(metrics.outputs.items())]
            results.append((raw, f"{args.param}={raw}  " + "  ".join(settle)
                            + f"  -> {out_path.name}"))
        except (ValueError, SimulationError) as exc:  # ConfigError and LinAlgError included
            any_failed = True
            results.append((raw, f"{args.param}={raw}  FAILED: {exc}"))
            print(f"value {raw}: FAILED ({exc})", file=sys.stderr)

    print(f"sweep over {args.param}:")
    for _, line in sorted(results, key=lambda kv: _value_order(kv[0])):
        print(" ", line)
    return EXIT_PARTIAL if any_failed else EXIT_OK


def _value_order(raw: str) -> tuple[int, float]:
    """Sort key of a swept value: numbers ascending, then NaN and non-numbers."""
    try:
        value = float(raw)
    except ValueError:
        return (1, 0.0)
    return (1, 0.0) if math.isnan(value) else (0, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tankmpc",
        description="Receding-horizon level control of a two-coupled-tank plant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lin = sub.add_parser("linearize", help="print the continuous and sampled models")
    p_lin.add_argument("--config", help="config file (defaults to the bundled scenario)")
    p_lin.set_defaults(func=cmd_linearize)

    p_sim = sub.add_parser("simulate", help="run a closed-loop scenario to CSV")
    p_sim.add_argument("--config", help="config file (defaults to the bundled scenario)")
    p_sim.add_argument("--out", help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="re-run the scenario over a list of values of one key")
    p_swp.add_argument("--config", help="config file (defaults to the bundled scenario)")
    p_swp.add_argument("--param", required=True, choices=SWEEP_KEYS, metavar="KEY",
                       help="a config key but output.path; rw, np and nc name mpc.*")
    p_swp.add_argument("--values", required=True,
                       help="comma-separated values; write --values=-1,1 if the first is negative")
    p_swp.add_argument("--out-dir", required=True, help="directory for per-value CSVs")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and LinAlgError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
