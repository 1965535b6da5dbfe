"""Scenario configuration: a flat `section.key = value` text format.

Every key has a default taken from the bundled two-tank example
scenario, so a config file only needs the keys it overrides.  Parsing
is line oriented and errors always name the offending line or field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .loop import Scenario, SetpointPulse
from .mpc import MpcConfig
from .plant import DisturbanceProfile
from .tank import DEFAULT_LEVELS, DEFAULT_PARAMS, TankParams


class ConfigError(ValueError):
    """Invalid configuration text or values."""


#: Most controller samples one run may take (sim.t_end / sim.ts + 1).  It
#: bounds the memory (the log alone holds 80 bytes a sample) and the run
#: time of any config that parses.
MAX_SAMPLES = 1_000_000

#: Most RK4 steps one run may take (sim.t_end / sim.ts * sim.substeps).  It
#: bounds the run time the way MAX_SAMPLES bounds the memory.
MAX_RK4_STEPS = 10_000_000

#: Largest mpc.np * mpc.nc: phi holds np * nc blocks and the gain solve grows
#: with nc cubed.  It bounds the controller's set-up memory and time, and mpc.np.
MAX_HORIZON_PRODUCT = 250_000


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


def _flat(cfg: RunConfig) -> dict:
    """Every config key of cfg and its value, in canonical order: the one
    list of keys that parsing, validation and the canonical text go through."""
    sc = cfg.scenario
    sp1, sp2 = sc.setpoints
    values = {
        "plant.a1": sc.params.a1,
        "plant.a2": sc.params.a2,
        "plant.alpha1": sc.params.alpha1,
        "plant.alpha2": sc.params.alpha2,
        "operating.l1": sc.op_levels[0],
        "operating.l2": sc.op_levels[1],
        "mpc.np": sc.mpc.np_horizon,
        "mpc.nc": sc.mpc.nc_horizon,
        "mpc.rw": sc.mpc.rw,
        "sim.ts": sc.ts,
        "sim.t_end": sc.t_end,
        "sim.substeps": sc.substeps,
        "sim.clamp_flows": sc.clamp_flows,
        "sim.linear_plant": sc.linear_plant,
        "setpoint.h1.amplitude": sp1.amplitude,
        "setpoint.h1.start": sp1.start,
        "setpoint.h1.duration": sp1.duration,
        "setpoint.h2.amplitude": sp2.amplitude,
        "setpoint.h2.start": sp2.start,
        "setpoint.h2.duration": sp2.duration,
        "disturbance.magnitude": sc.disturbance.magnitude,
        "disturbance.start": sc.disturbance.start,
        "disturbance.duration": sc.disturbance.duration,
        "disturbance.target": sc.disturbance.target,
    }
    if cfg.output_path is not None:
        values["output.path"] = cfg.output_path
    return values


#: The type of every config key's value, from the defaults.
_TYPES = {key: type(value) for key, value in _flat(default_run_config()).items()}
_TYPES["output.path"] = str
#: The key each name of `sweep --param` sets: rw, np and nc are mpc.*, and
#: every other key but output.path is itself.
SWEEP_KEYS = {name: key for key in _TYPES if key != "output.path"
              for name in (key.removeprefix("mpc."), key)}


def _parse_value(key: str, raw):
    """key's value, as the key's type, from its raw text or a number.  A
    number is read as its text, str(raw), as a config line would give it:
    so an int key takes no bool, no non-finite and no fractional number."""
    text = raw if isinstance(raw, str) else str(raw)
    try:
        if _TYPES[key] is bool:
            if text.lower() in ("true", "false"):
                return text.lower() == "true"
            raise ValueError("expected true or false")
        return _TYPES[key](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from None


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
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values


def _build(values: dict, base: RunConfig = default_run_config()) -> RunConfig:
    """Validate values and build a RunConfig; keys not in values keep base's."""
    for key, value in values.items():
        # an endless pulse is the one legitimate infinity
        if isinstance(value, float) and not math.isfinite(value):
            if not key.endswith(".duration"):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if value != math.inf:
                raise ConfigError(f"{key} must be finite or inf, got {value!r}")
        if key.endswith(".duration") and value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value!r}")
    # "setpoint.h1.start" -> sections["setpoint.h1"]["start"]: a SetpointPulse field
    sections: dict = {}
    for key, value in {**_flat(base), **values}.items():
        section, _, field = key.rpartition(".")
        sections.setdefault(section, {})[field] = value
    op, mpc = sections["operating"], sections["mpc"]
    try:
        scenario = Scenario(
            params=TankParams(**sections["plant"]),
            op_levels=(op["l1"], op["l2"]),
            mpc=MpcConfig(np_horizon=mpc["np"], nc_horizon=mpc["nc"], rw=mpc["rw"]),
            setpoints=(SetpointPulse(**sections["setpoint.h1"]),
                       SetpointPulse(**sections["setpoint.h2"])),
            disturbance=DisturbanceProfile(**sections["disturbance"]),
            **sections["sim"],
        )
        samples = scenario.t_end / scenario.ts  # a float: this may overflow
        if samples >= MAX_SAMPLES:
            raise ValueError(f"sim.t_end / sim.ts = {samples:.3g} samples, "
                             f"more than the {MAX_SAMPLES} allowed")
        if samples * scenario.substeps > MAX_RK4_STEPS:
            raise ValueError(f"sim.t_end / sim.ts * sim.substeps = "
                             f"{samples * scenario.substeps:.3g} RK4 steps, "
                             f"more than the {MAX_RK4_STEPS} allowed")
        horizons = scenario.mpc.np_horizon * scenario.mpc.nc_horizon
        if horizons > MAX_HORIZON_PRODUCT:
            raise ValueError(f"mpc.np * mpc.nc = {horizons}, "
                             f"more than the {MAX_HORIZON_PRODUCT} allowed")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(scenario=scenario, output_path=sections.get("output", {}).get("path"))


def loads_config(text: str) -> RunConfig:
    """Parse and validate config text; defaults fill the gaps."""
    return _build(parse_config_text(text))


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return loads_config(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def dumps_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig to canonical config text (full key set)."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in _flat(cfg).items())


def bundled_config_path() -> Path:
    """Path of the bundled config reproducing the example scenario."""
    return Path(resources.files("tankmpc").joinpath("default.conf"))


def with_mpc_value(cfg: RunConfig, name: str, value) -> RunConfig:
    """Copy of cfg with its key SWEEP_KEYS[name] set to value, parsed and checked
    as a config file's value is.  The name is from when only mpc.* could be
    swept; it stays because perfbench's workloads and tracer call it by that name."""
    key = SWEEP_KEYS.get(name)
    if key is None:
        raise ConfigError(f"unknown sweep parameter {name!r} (not in config.SWEEP_KEYS)")
    return _build({key: _parse_value(key, value)}, base=cfg)
