"""Locate the tankmpc sources of this checkout and launch child interpreters.

The benchmark always measures the package under ``src/`` next to this
directory, never an installed copy, and it refuses to run without it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED_CONFIG = SRC / "tankmpc" / "default.conf"
GOLDEN_CSV = ROOT / "tests" / "golden" / "default_scenario.csv"
#: Scratch space for temp outputs and span files; listed in .gitignore.
WORK = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or goldens)."""


def load():
    """Put ``src/`` first on sys.path and import tankmpc from it."""
    missing = [p for p in (SRC / "tankmpc" / "__init__.py", BUNDLED_CONFIG, GOLDEN_CSV)
               if not p.is_file()]
    if missing:
        raise SetupError("missing " + ", ".join(str(p.relative_to(ROOT)) for p in missing)
                         + "; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import tankmpc

    if SRC not in Path(tankmpc.__file__).resolve().parents:
        raise SetupError(f"imported tankmpc from {tankmpc.__file__}, not from {SRC}")
    return tankmpc


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Launch:
    wall_s: float  # from just before the fork to the reaped exit
    code: int
    maxrss_mb: float
    stderr: str


def launch(argv: list[str], env: dict) -> Launch:
    """Run one child to completion; its rusage comes from wait4, so it is its own."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  err.decode("utf-8", "replace"))
