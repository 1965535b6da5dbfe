"""Spans around tankmpc's layer boundaries, recorded from outside the package.

The tracer replaces, for the duration of a traced operation, the names
that ``tankmpc.loop``, ``tankmpc.plant`` and ``tankmpc.cli`` call across
a module boundary (plus the package-level names the benchmark itself
calls) with wrappers that record one span per call: name, start, end,
parent span and operation id.  Nothing under ``src/`` changes.  Spans are
kept in flat in-memory arrays and written out once, at the end of a run.

A span's self time is its duration minus the durations of its direct
children.  Every traced operation has a root span ``bench.op``, so the
self times of all spans of an operation sum exactly to its traced time.
"""

from __future__ import annotations

import csv
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


def receding_step_flops(args, kwargs) -> int:
    """Computed flops of one unconstrained receding-horizon step.

    From the shapes of psi (Np*q x n+q), phi (Np*q x Nc*m) and the Nc*m
    Cholesky factor: psi@x, the free error, phi.T@err, two triangular
    solves, the state increment and the control update.
    """
    pred = args[1] if len(args) > 1 else kwargs["pred"]
    rows, nx = pred.psi.shape
    nu = pred.phi.shape[1]
    return 2 * rows * nx + rows + 2 * nu * rows + 2 * nu * nu + pred.q + pred.m


# (owner, attribute, span name[, per-call count]).  The owner is a module
# path, or a module path plus a class name for methods.
BOUNDARIES = [
    ("tankmpc", "loads_config", "config.loads_config"),
    ("tankmpc", "run_closed_loop", "loop.run_closed_loop"),
    ("tankmpc", "summarize", "loop.summarize"),
    ("tankmpc.loop", "make_operating_point", "tank.make_operating_point"),
    ("tankmpc.loop", "linearize", "tank.linearize"),
    ("tankmpc.loop", "zoh_discretize", "discretize.zoh_discretize"),
    ("tankmpc.loop", "augment", "mpc.augment"),
    ("tankmpc.loop", "build_prediction", "mpc.build_prediction"),
    ("tankmpc.loop", "receding_step", "mpc.receding_step", receding_step_flops),
    ("tankmpc.loop", "disturbance_flow", "plant.disturbance_flow"),
    ("tankmpc.loop", "disturbance_inflows", "plant.disturbance_inflows"),
    ("tankmpc.loop", "rk4_step", "plant.rk4_step"),
    ("tankmpc.loop:SimulationLog", "to_csv_text", "loop.to_csv_text"),
    ("tankmpc.plant", "nonlinear_derivatives", "tank.nonlinear_derivatives"),
    ("tankmpc.config", "loads_config", "config.loads_config"),
    ("tankmpc.cli", "main", "cli.main"),
    ("tankmpc.cli", "load_config", "config.load_config"),
    ("tankmpc.cli", "default_run_config", "config.default_run_config"),
    ("tankmpc.cli", "with_mpc_value", "config.with_mpc_value"),
    ("tankmpc.cli", "make_operating_point", "tank.make_operating_point"),
    ("tankmpc.cli", "linearize", "tank.linearize"),
    ("tankmpc.cli", "zoh_discretize", "discretize.zoh_discretize"),
    ("tankmpc.cli", "run_closed_loop", "loop.run_closed_loop"),
    ("tankmpc.cli", "summarize", "loop.summarize"),
]

SPAN_FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op")


def _counts_path(spans_path: Path) -> Path:
    return Path(spans_path).with_suffix(".counts.json")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = {}  # computed per-call quantities, traced ops only
        self.current_op = -1  # -1: set-up
        self._stack = [-1]
        self._patches = None  # [(owner, attribute, original, wrapper)], built on first use

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        if self._stack.pop() != sid:
            raise RuntimeError("spans finished out of order")

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.finish(sid)

    def _wrap(self, name: str, fn, count=None):
        nid = self.name_id(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock, counts, tracer = self._stack, time.perf_counter_ns, self.counts, self

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            if count is not None and tracer.current_op >= 0:
                counts[name] = counts.get(name, 0) + count(args, kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return traced

    @contextmanager
    def patched(self):
        """Route every boundary call through its span wrapper while inside."""
        if self._patches is None:
            self._patches = []
            for owner_path, attr, name, *count in BOUNDARIES:
                owner = _owner(owner_path)
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original, self._wrap(name, original, *count)))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def rows(self):
        for sid in range(len(self.start)):
            yield (sid, self.names[self.name[sid]], self.start[sid], self.end[sid],
                   self.parent[sid], self.op[sid])

    def write(self, path: Path) -> None:
        """Spans as CSV at `path`, computed counts as JSON beside it."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            out.writerows(self.rows())
        _counts_path(path).write_text(json.dumps(self.counts), encoding="utf-8")


class SpanTable:
    """Column view of a tracer's spans with self times derived."""

    def __init__(self, tracer: Tracer):
        import numpy as np

        self.np = np
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.intc).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.intc).copy()
        parent = np.frombuffer(tracer.parent, dtype=np.intc)
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur_ns = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=self.dur_ns[has_parent],
                               minlength=len(self.dur_ns))
        self.self_ns = self.dur_ns - child_ns
        self.root = ~has_parent

    def mask(self, name: str, traced_ops_only: bool = True):
        np = self.np
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == self.names.index(name)
        return m & (self.op >= 0) if traced_ops_only else m

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total_ms(self, name: str) -> float:
        return float(self.dur_ns[self.mask(name)].sum()) / 1e6

    def self_ms(self, name: str) -> float:
        return float(self.self_ns[self.mask(name)].sum()) / 1e6

    def p50_us(self, name: str) -> float:
        """Median span duration over every call, set-up included; 0 if never called."""
        d = self.dur_ns[self.mask(name, traced_ops_only=False)]
        return float(self.np.median(d)) / 1e3 if d.size else 0.0

    def traced_op_ms(self) -> float:
        """Sum of the root-span durations of the traced operations."""
        return float(self.dur_ns[self.root & (self.op >= 0)].sum()) / 1e6

    def self_by_layer(self) -> dict[str, float]:
        """Self time (ms) of the traced operations by layer, the span-name prefix."""
        np = self.np
        in_op = self.op >= 0
        per_name = np.bincount(self.name[in_op], weights=self.self_ns[in_op],
                               minlength=len(self.names))
        layers: dict[str, float] = {}
        for nid, ns in enumerate(per_name):
            layer = self.names[nid].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + float(ns) / 1e6
        return layers
