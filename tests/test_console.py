"""The console contract, one table of cases: what `tankmpc` prints on stderr,
the code it exits with and the CSVs it writes, run in-process through
`tankmpc.cli.main` with numpy's RuntimeWarnings raised as errors.

Each case is a config, the command line that runs on it, the exit code, the
exact stderr lines, lines stdout must hold, and what each CSV must equal: a
golden file, or the CSV of a plain `simulate` of another config.  Each case
and each reference run starts from an empty model and format memo, as a
process of its own would.  A new check of the command line is a new row of
CASES.  What needs the installed console script (its entry point, the
file mode under a umask) is checked by the CI workflow's console step.
"""

import contextlib
import io
import logging
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

import tankmpc.loop
from tankmpc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The bundled config at one RK4 step per 0.01-s sample, where the loop body
#: repeats exact fixed points for about half of the rows.
HOLD = "sim.ts = 0.01\nsim.substeps = 1\n"

#: The linear plant with the clamp and a -150 % pulse, which floors the feed.
LINEAR = "sim.linear_plant = true\nsim.clamp_flows = true\ndisturbance.magnitude = -150\n"

#: A tank 1 whose fastest mode outruns RK4 at fewer than 3 substeps a sample.
STIFF = "plant.a1 = 0.01\n"

STIFF_ERROR = ("sim.ts = 0.05 s over sim.substeps = 2 is an RK4 step of 0.025 s, unstable on "
               "the plant's fastest mode (|lambda| = 165.5 1/s at the operating point): "
               "step * |lambda| = 4.138 > 2.785; set sim.substeps >= 3, or change sim.ts or "
               "the plant.* or operating.* values")


class Case(NamedTuple):
    config: str | None  # config text, passed with --config; None: the bundled scenario
    argv: str  # the command after `tankmpc`; {out} is a fresh directory
    code: int
    stderr: list[str]  # every line, exactly
    stdout: list[str] = []  # lines stdout holds, among others
    csvs: dict = {}  # name in {out} -> a golden Path, the config text of a plain
    # `simulate` whose CSV it equals byte for byte, or None if it must not exist


SIMULATE = "simulate --out {out}/run.csv"

CASES = {
    "hold-scenario-is-its-golden": Case(
        HOLD, SIMULATE, 0, [], csvs={"run.csv": GOLDEN_DIR / "hold_scenario.csv"}),
    "nc-sweep-of-the-bundled-value-is-the-golden": Case(
        None, "sweep --param nc --values 3 --out-dir {out}", 0, [],
        csvs={"nc_3.csv": GOLDEN_DIR / "default_scenario.csv"}),
    # about four in five rows repeat the row before them, in held stretches
    "held-rw-sweep-is-a-plain-run": Case(
        HOLD, "sweep --param rw --values 0.02 --out-dir {out}", 0, [],
        csvs={"rw_0.02.csv": HOLD + "mpc.rw = 0.02\n"}),
    # the loop also holds a stretch inside the setpoint step, settled on l + r
    "settled-rw-sweep-is-a-plain-run": Case(
        HOLD, "sweep --param rw --values 0.01306 --out-dir {out}", 0, [],
        csvs={"rw_0.01306.csv": HOLD + "mpc.rw = 0.01306\n"}),
    # a pulse from 8.013 s starts inside a sample, which the loop splits at the edge
    "pulse-start-sweep-is-plain-runs": Case(
        None, "sweep --param disturbance.start --values 8,8.013 --out-dir {out}", 0, [],
        csvs={f"disturbance.start_{v}.csv": f"disturbance.start = {v}\n"
              for v in ("8", "8.013")}),
    "linear-plant-clamp-is-one-line": Case(
        LINEAR, SIMULATE, 0, ["feed-flow clamp active from sample 160 (t=8 s)"]),
    "linearize-takes-a-linear-plant-config": Case(
        LINEAR, "linearize", 0, [], stdout=["Zero-order-hold model at Ts = 0.05 s:"]),
    # the run fails past sample 11000, in the one call of the loop body
    "clamp-then-failure-is-two-lines": Case(
        LINEAR + "setpoint.h1.amplitude = 1.7e308\nsetpoint.h1.start = 11\n"
        "setpoint.h1.duration = inf\nsim.ts = 0.001\n", SIMULATE, 3,
        ["feed-flow clamp active from sample 8000 (t=8 s)",
         "error: simulation failed at sample 11004 (t=11.004 s): "
         "plant state non-finite at t=11.005"],
        csvs={"run.csv": None}),
    # tank 2 is held empty for about 100 samples
    "a-tank-emptied-is-one-line": Case(
        "setpoint.h2.amplitude = -3.5\nmpc.rw = 0.01\n", SIMULATE, 0,
        ["tank 2 ran empty at t=0.5875 s; level clamped to 0"]),
    "unstable-rk4-step-is-refused": Case(
        STIFF + "sim.substeps = 2\n", SIMULATE, 2, [f"error: {STIFF_ERROR}"],
        csvs={"run.csv": None}),
    "unstable-rk4-step-fails-its-sweep-value-alone": Case(
        STIFF, "sweep --param sim.substeps --values 2,4 --out-dir {out}", 1,
        [f"value 2: FAILED ({STIFF_ERROR})"],
        stdout=[f"  sim.substeps=2  FAILED: {STIFF_ERROR}"],
        csvs={"sim.substeps_2.csv": None,
              "sim.substeps_4.csv": STIFF + "sim.substeps = 4\n"}),
}


def console(monkeypatch, tmp: Path, config: str | None, argv: str):
    """(exit code, stdout, stderr) of `tankmpc <argv> [--config <config>]`,
    run in-process from an empty memo, as in a process of its own."""
    args = argv.format(out=tmp).split()
    if config is not None:
        conf = tmp / "run.conf"
        conf.write_text(config)
        args += ["--config", str(conf)]
    monkeypatch.setattr(tankmpc.loop, "_last", {})
    # a console process configures no logging handler, so the package's
    # warnings reach stderr through logging's last resort, as here
    monkeypatch.setattr(logging.getLogger("tankmpc"), "propagate", False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_console(monkeypatch, tmp_path, case):
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, stderr = console(monkeypatch, out, case.config, case.argv)
    assert (code, stderr.splitlines()) == (case.code, case.stderr), stdout
    held = stdout.splitlines()
    assert [line for line in case.stdout if line not in held] == [], stdout
    for name, expected in case.csvs.items():
        csv = out / name
        if expected is None:
            assert not csv.exists(), name
            continue
        if isinstance(expected, str):
            ref = tmp_path / "ref"
            ref.mkdir(exist_ok=True)
            assert console(monkeypatch, ref, expected, SIMULATE)[0] == 0, expected
            expected = ref / "run.csv"
        assert csv.read_bytes() == expected.read_bytes(), name
