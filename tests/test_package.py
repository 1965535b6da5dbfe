"""Package-level properties: what importing tankmpc pulls in, and the
names the benchmark's tracer patches."""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import tankmpc
import tankmpc.loop
import tankmpc.mpc


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


def test_traced_run_records_controller_spans():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    scenario = tankmpc.loads_config("sim.t_end = 0.25\n").scenario
    with tracer.patched():
        tankmpc.run_closed_loop(scenario)
    assert tankmpc.loop.receding_step is tankmpc.mpc.receding_step  # restored
    names = [name for _, name, *_ in tracer.rows()]
    assert names.count("loop.run_closed_loop") == 1
