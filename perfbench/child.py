"""Child interpreters the benchmark launches; not meant to be run by hand.

    child.py setup <workload> <seed>
        Fresh interpreter to ready: import tankmpc, build the workload
        (parse its configs, generate its inputs), print "ready".
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import program


def setup(workload: str, seed: str) -> int:
    program.load()
    import workloads

    program.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=program.WORK) as tmp:
        workloads.WORKLOADS[workload](int(seed), Path(tmp))
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    sys.exit(f"unknown mode {mode!r}")
