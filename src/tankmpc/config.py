"""Scenario configuration: a flat `section.key = value` text format.

Every key has a default taken from the bundled two-tank example
scenario, so a config file only needs the keys it overrides.  Parsing
is line oriented and errors always name the offending line or field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .loop import Scenario, SetpointPulse
from .mpc import MpcConfig
from .plant import DisturbanceProfile
from .tank import DEFAULT_LEVELS, DEFAULT_PARAMS, TankParams


class ConfigError(Exception):
    """Invalid configuration text or values."""


#: Most controller samples one run may take (sim.t_end / sim.ts + 1).  It
#: bounds the memory (the log alone holds 80 bytes a sample) and the run
#: time of any config that parses.
MAX_SAMPLES = 1_000_000

#: Most RK4 steps one run may take (sim.t_end / sim.ts * sim.substeps).  It
#: bounds the run time the way MAX_SAMPLES bounds the memory.
MAX_RK4_STEPS = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    """A Scenario plus output options, as read from a config file."""

    scenario: Scenario
    output_path: str | None = None


def default_run_config() -> RunConfig:
    """The bundled example scenario: pulse setpoints plus a feed disturbance."""
    scenario = Scenario(
        params=DEFAULT_PARAMS,
        op_levels=DEFAULT_LEVELS,
        mpc=MpcConfig(np_horizon=10, nc_horizon=3, rw=1.0),
        ts=0.05,
        t_end=15.0,
        setpoints=(
            SetpointPulse(amplitude=0.5, start=0.5, duration=5.0),
            SetpointPulse(amplitude=0.3, start=0.5, duration=5.0),
        ),
        disturbance=DisturbanceProfile(start=8.0, duration=2.0, magnitude=10.0, target="tank1"),
    )
    return RunConfig(scenario=scenario)


_FLOAT_KEYS = {
    "plant.a1", "plant.a2", "plant.alpha1", "plant.alpha2",
    "operating.l1", "operating.l2",
    "mpc.rw",
    "sim.ts", "sim.t_end",
    "setpoint.h1.amplitude", "setpoint.h1.start", "setpoint.h1.duration",
    "setpoint.h2.amplitude", "setpoint.h2.start", "setpoint.h2.duration",
    "disturbance.magnitude", "disturbance.start", "disturbance.duration",
}
_INT_KEYS = {"mpc.np", "mpc.nc", "sim.substeps"}
_BOOL_KEYS = {"sim.clamp_flows", "sim.linear_plant"}
_STR_KEYS = {"disturbance.target", "output.path"}
ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError("expected true or false")
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r} ({exc})") from None


def parse_config_text(text: str) -> dict:
    """Parse config text into a {key: value} dict, defaults not applied."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    return values


def _build(values: dict) -> RunConfig:
    for key, value in values.items():
        # an endless pulse is the one legitimate infinity
        if key in _FLOAT_KEYS and not math.isfinite(value):
            if not key.endswith(".duration"):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if value != math.inf:
                raise ConfigError(f"{key} must be finite or inf, got {value!r}")
    base = default_run_config()
    sc = base.scenario

    def get(key, fallback):
        return values.get(key, fallback)

    try:
        params = TankParams(
            a1=get("plant.a1", sc.params.a1),
            a2=get("plant.a2", sc.params.a2),
            alpha1=get("plant.alpha1", sc.params.alpha1),
            alpha2=get("plant.alpha2", sc.params.alpha2),
        )
        mpc = MpcConfig(
            np_horizon=get("mpc.np", sc.mpc.np_horizon),
            nc_horizon=get("mpc.nc", sc.mpc.nc_horizon),
            rw=get("mpc.rw", sc.mpc.rw),
        )
        sp1, sp2 = sc.setpoints
        setpoints = (
            SetpointPulse(
                amplitude=get("setpoint.h1.amplitude", sp1.amplitude),
                start=get("setpoint.h1.start", sp1.start),
                duration=get("setpoint.h1.duration", sp1.duration),
            ),
            SetpointPulse(
                amplitude=get("setpoint.h2.amplitude", sp2.amplitude),
                start=get("setpoint.h2.start", sp2.start),
                duration=get("setpoint.h2.duration", sp2.duration),
            ),
        )
        disturbance = DisturbanceProfile(
            start=get("disturbance.start", sc.disturbance.start),
            duration=get("disturbance.duration", sc.disturbance.duration),
            magnitude=get("disturbance.magnitude", sc.disturbance.magnitude),
            target=get("disturbance.target", sc.disturbance.target),
        )
        scenario = Scenario(
            params=params,
            op_levels=(get("operating.l1", sc.op_levels[0]), get("operating.l2", sc.op_levels[1])),
            mpc=mpc,
            ts=get("sim.ts", sc.ts),
            t_end=get("sim.t_end", sc.t_end),
            setpoints=setpoints,
            disturbance=disturbance,
            substeps=get("sim.substeps", sc.substeps),
            clamp_flows=get("sim.clamp_flows", sc.clamp_flows),
            linear_plant=get("sim.linear_plant", sc.linear_plant),
        )
        l1, l2 = scenario.op_levels
        if not (l1 > l2 > 0):
            raise ValueError(f"operating levels need l1 > l2 > 0, got l1={l1}, l2={l2}")
        samples = scenario.t_end / scenario.ts  # a float: this may overflow
        if samples >= MAX_SAMPLES:
            raise ValueError(f"sim.t_end / sim.ts = {samples:.3g} samples, "
                             f"more than the {MAX_SAMPLES} allowed")
        if samples * scenario.substeps > MAX_RK4_STEPS:
            raise ValueError(f"sim.t_end / sim.ts * sim.substeps = "
                             f"{samples * scenario.substeps:.3g} RK4 steps, "
                             f"more than the {MAX_RK4_STEPS} allowed")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(scenario=scenario, output_path=values.get("output.path"))


def loads_config(text: str) -> RunConfig:
    """Parse and validate config text; defaults fill the gaps."""
    return _build(parse_config_text(text))


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return loads_config(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def dumps_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig to canonical config text (full key set)."""
    sc = cfg.scenario
    sp1, sp2 = sc.setpoints
    pairs = [
        ("plant.a1", sc.params.a1),
        ("plant.a2", sc.params.a2),
        ("plant.alpha1", sc.params.alpha1),
        ("plant.alpha2", sc.params.alpha2),
        ("operating.l1", sc.op_levels[0]),
        ("operating.l2", sc.op_levels[1]),
        ("mpc.np", sc.mpc.np_horizon),
        ("mpc.nc", sc.mpc.nc_horizon),
        ("mpc.rw", sc.mpc.rw),
        ("sim.ts", sc.ts),
        ("sim.t_end", sc.t_end),
        ("sim.substeps", sc.substeps),
        ("sim.clamp_flows", sc.clamp_flows),
        ("sim.linear_plant", sc.linear_plant),
        ("setpoint.h1.amplitude", sp1.amplitude),
        ("setpoint.h1.start", sp1.start),
        ("setpoint.h1.duration", sp1.duration),
        ("setpoint.h2.amplitude", sp2.amplitude),
        ("setpoint.h2.start", sp2.start),
        ("setpoint.h2.duration", sp2.duration),
        ("disturbance.magnitude", sc.disturbance.magnitude),
        ("disturbance.start", sc.disturbance.start),
        ("disturbance.duration", sc.disturbance.duration),
        ("disturbance.target", sc.disturbance.target),
    ]
    if cfg.output_path is not None:
        pairs.append(("output.path", cfg.output_path))
    return "\n".join(f"{k} = {_fmt(v)}" for k, v in pairs) + "\n"


def bundled_config_path() -> Path:
    """Path of the bundled config reproducing the example scenario."""
    return Path(resources.files("tankmpc").joinpath("default.conf"))


def with_mpc_value(cfg: RunConfig, name: str, value) -> RunConfig:
    """Copy of cfg with one MPC parameter (rw, np, nc) replaced."""
    mpc = cfg.scenario.mpc
    if name == "rw":
        mpc = MpcConfig(mpc.np_horizon, mpc.nc_horizon, float(value))
    elif name == "np":
        mpc = MpcConfig(int(value), mpc.nc_horizon, mpc.rw)
    elif name == "nc":
        mpc = MpcConfig(mpc.np_horizon, int(value), mpc.rw)
    else:
        raise ConfigError(f"unknown sweep parameter {name!r} (expected rw, np or nc)")
    return replace(cfg, scenario=replace(cfg.scenario, mpc=mpc))
