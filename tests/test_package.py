"""Package-level properties: the public names, what importing tankmpc
pulls in, and the names the benchmark's tracer patches."""

import ast
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import tankmpc
import tankmpc.loop
import tankmpc.mpc
import tankmpc.plant

# The package's public names.  Changing the API means changing this list.
PUBLIC_NAMES = [
    "ConfigError", "ControllerState", "DEFAULT_LEVELS", "DEFAULT_PARAMS",
    "DeviationState", "DisturbanceProfile", "LinearModel", "MpcConfig",
    "OperatingPoint", "PredictionMatrices", "RunConfig", "Scenario", "SetpointPulse",
    "SimulationError", "SimulationLog", "StepMetrics", "SummaryMetrics", "TankParams",
    "__version__", "augment", "build_prediction", "bundled_config_path", "default_run_config",
    "dumps_config", "linearize", "load_config", "loads_config", "make_operating_point",
    "nonlinear_derivatives", "receding_step", "run_closed_loop", "steady_inflows", "summarize",
    "zoh_discretize",
]


def test_public_names_pinned():
    assert sorted(tankmpc.__all__) == PUBLIC_NAMES
    for name in tankmpc.__all__:
        assert hasattr(tankmpc, name), name


def test_open_loop_and_plant_reference_names_not_exported():
    """The open-loop controller forms are gone; the plant's one-step and
    pulse reference forms are importable from tankmpc.loop only."""
    for name in ("cost", "cost_gradient", "solve_optimal", "PlantState", "rk4_step",
                 "disturbance_flow", "disturbance_inflows"):
        assert not hasattr(tankmpc, name), name
    for name in ("PlantState", "rk4_step", "disturbance_flow", "disturbance_inflows"):
        assert hasattr(tankmpc.loop, name), name
    for name in ("cost", "cost_gradient", "solve_optimal"):
        assert not hasattr(tankmpc.mpc, name), name


def test_plant_imports_only_the_stdlib_and_tank():
    """tankmpc.plant holds the disturbance pulse alone; the loop body and its
    reference forms live in tankmpc.loop."""
    modules = set()
    for node in ast.walk(ast.parse(Path(tankmpc.plant.__file__).read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules <= {"__future__", "math", "dataclasses", ".tank"}, modules


def test_import_loads_no_scipy():
    """scipy is a test dependency only; the package runs on numpy alone."""
    src = str(Path(tankmpc.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tankmpc, tankmpc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _load_tracing():
    """perfbench/tracing.py, the benchmark's span tracer, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    """The benchmark's traced run patches these names; each must still exist."""
    tracing = _load_tracing()
    for owner, attr, *_ in tracing.BOUNDARIES:
        assert callable(getattr(tracing._owner(owner), attr, None)), f"{owner}.{attr}"
    # the flop counter reads the prediction matrices from the second argument
    assert list(inspect.signature(tankmpc.mpc.receding_step).parameters)[1] == "pred"
    _, _, pred, _ = tankmpc.loop._controller(tankmpc.default_run_config().scenario)
    flops = tracing.receding_step_flops((None, pred), {})
    assert type(flops) is int and flops > 0


def test_traced_run_records_controller_spans():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    scenario = tankmpc.loads_config("sim.t_end = 0.25\n").scenario
    with tracer.patched():
        tankmpc.run_closed_loop(scenario)
    assert tankmpc.loop.receding_step is tankmpc.mpc.receding_step  # restored
    names = [name for _, name, *_ in tracer.rows()]
    assert names.count("loop.run_closed_loop") == 1
