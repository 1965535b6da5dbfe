"""Config parsing, validation diagnostics, and round-tripping."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from tankmpc import (
    DEFAULT_PARAMS,
    ConfigError,
    DisturbanceProfile,
    SetpointPulse,
    default_run_config,
    dumps_config,
    load_config,
    loads_config,
    bundled_config_path,
    make_operating_point,
    TankParams,
)
from tankmpc.config import (
    MAX_HORIZON_PRODUCT,
    MAX_RK4_STEPS,
    SWEEP_KEYS,
    _flat,
    parse_config_text,
    with_mpc_value,
)

#: Every key of the schema: a valid value other than its default, and
#: the field of the RunConfig it must land in.
NON_DEFAULT = {
    "plant.a1": (0.21, lambda c: c.scenario.params.a1),
    "plant.a2": (0.17, lambda c: c.scenario.params.a2),
    "plant.alpha1": (2.3, lambda c: c.scenario.params.alpha1),
    "plant.alpha2": (1.8, lambda c: c.scenario.params.alpha2),
    "operating.l1": (4.2, lambda c: c.scenario.op_levels[0]),
    "operating.l2": (3.4, lambda c: c.scenario.op_levels[1]),
    "mpc.np": (12, lambda c: c.scenario.mpc.np_horizon),
    "mpc.nc": (4, lambda c: c.scenario.mpc.nc_horizon),
    "mpc.rw": (0.7, lambda c: c.scenario.mpc.rw),
    "sim.ts": (0.04, lambda c: c.scenario.ts),
    "sim.t_end": (14.0, lambda c: c.scenario.t_end),
    "sim.substeps": (5, lambda c: c.scenario.substeps),
    "sim.clamp_flows": (True, lambda c: c.scenario.clamp_flows),
    "sim.linear_plant": (True, lambda c: c.scenario.linear_plant),
    "setpoint.h1.amplitude": (0.45, lambda c: c.scenario.setpoints[0].amplitude),
    "setpoint.h1.start": (0.6, lambda c: c.scenario.setpoints[0].start),
    "setpoint.h1.duration": (4.5, lambda c: c.scenario.setpoints[0].duration),
    "setpoint.h2.amplitude": (0.35, lambda c: c.scenario.setpoints[1].amplitude),
    "setpoint.h2.start": (0.7, lambda c: c.scenario.setpoints[1].start),
    "setpoint.h2.duration": (5.5, lambda c: c.scenario.setpoints[1].duration),
    "disturbance.magnitude": (12.0, lambda c: c.scenario.disturbance.magnitude),
    "disturbance.start": (7.0, lambda c: c.scenario.disturbance.start),
    "disturbance.duration": (2.5, lambda c: c.scenario.disturbance.duration),
    "disturbance.target": ("both", lambda c: c.scenario.disturbance.target),
    "output.path": ("out.csv", lambda c: c.output_path),
}
DEFAULTS = _flat(default_run_config())


def test_empty_text_gives_defaults():
    assert loads_config("") == default_run_config()


def test_comments_and_blanks_ignored():
    cfg = loads_config("# a comment\n\n   \nmpc.rw = 2.5\n")
    assert cfg.scenario.mpc.rw == 2.5


def test_partial_override_keeps_other_defaults():
    cfg = loads_config("mpc.np = 20\nsetpoint.h1.amplitude = 0.7\n")
    assert cfg.scenario.mpc.np_horizon == 20
    assert cfg.scenario.mpc.nc_horizon == 3
    assert cfg.scenario.setpoints[0].amplitude == 0.7
    assert cfg.scenario.setpoints[1].amplitude == 0.3


def test_unknown_key_names_the_line():
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'plant\.a3'"):
        loads_config("mpc.np = 10\n\nplant.a3 = 1.0\n")


def test_bad_value_names_line_and_key():
    with pytest.raises(ConfigError, match=r"line 1: bad value for 'mpc\.np'"):
        loads_config("mpc.np = ten\n")
    with pytest.raises(ConfigError, match=r"line 2: bad value for 'sim\.clamp_flows'"):
        loads_config("mpc.np = 10\nsim.clamp_flows = maybe\n")


def test_missing_equals_sign_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        loads_config("mpc.np 10\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r"line 2: duplicate key"):
        loads_config("mpc.np = 10\nmpc.np = 12\n")


def test_semantic_invariants_enforced():
    with pytest.raises(ConfigError, match="nc"):
        loads_config("mpc.np = 2\nmpc.nc = 3\n")
    with pytest.raises(ConfigError, match="l1 > l2"):
        loads_config("operating.l1 = 3.5\noperating.l2 = 3.5\n")
    with pytest.raises(ConfigError):
        loads_config("plant.alpha2 = 0.0\n")


def test_negative_steady_feed_rejected_exactly_when_the_operating_point_has_one():
    # the config refuses just the points whose steady tank-2 feed is negative,
    # boundary included: at alpha2 sqrt(l2) = alpha1 sqrt(l1 - l2) it is 0.0
    rng = np.random.default_rng(20261023)
    for case in range(300):
        l2 = float(rng.uniform(0.5, 5.0))
        l1 = l2 + float(rng.uniform(0.1, 3.0))
        alpha1 = float(rng.uniform(0.0, 4.0))
        alpha2 = float(rng.choice([rng.uniform(0.1, 4.0),
                                   alpha1 * math.sqrt(l1 - l2) / math.sqrt(l2)]))
        if alpha2 <= 0.0:
            continue
        params = TankParams(DEFAULT_PARAMS.a1, DEFAULT_PARAMS.a2, alpha1, alpha2)
        negative = make_operating_point(params, l1, l2).fi2_bar < 0.0
        text = (f"plant.alpha1 = {alpha1!r}\nplant.alpha2 = {alpha2!r}\n"
                f"operating.l1 = {l1!r}\noperating.l2 = {l2!r}\n")
        if negative:
            with pytest.raises(ConfigError, match=r"^operating\.l1, operating\.l2, plant\.alpha1 "
                               r"and plant\.alpha2 give a negative steady tank-2 feed"):
                loads_config(text)
        else:
            assert loads_config(text).scenario.params == params, case


@pytest.mark.parametrize("key", ["setpoint.h1.duration", "setpoint.h2.duration",
                                 "disturbance.duration"])
def test_negative_duration_names_the_key(key):
    with pytest.raises(ConfigError) as exc_info:
        loads_config(f"{key} = -1\n")
    assert str(exc_info.value) == f"{key} must be >= 0, got -1.0"
    # constructed directly, the pulse records still refuse it
    record = SetpointPulse if key.startswith("setpoint") else DisturbanceProfile
    with pytest.raises(ValueError, match="pulse duration must be >= 0, got -1"):
        record(duration=-1.0)


def test_round_trip_identity():
    cfg = loads_config("mpc.rw = 0.25\ndisturbance.target = tank2\noutput.path = out.csv\n")
    assert loads_config(dumps_config(cfg)) == cfg


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_round_trips_alone(key):
    value, field = NON_DEFAULT[key]
    cfg = loads_config(f"{key} = {value}\n")
    assert field(cfg) == value
    assert parse_config_text(dumps_config(cfg)) == {**DEFAULTS, key: value}


def test_schema_keys():
    assert set(NON_DEFAULT) == set(DEFAULTS) | {"output.path"}
    bundled = parse_config_text(bundled_config_path().read_text(encoding="utf-8"))
    assert list(bundled) == list(DEFAULTS)


def test_bundled_config_equals_defaults():
    cfg = load_config(bundled_config_path())
    assert cfg == default_run_config()


def test_readme_config_examples_load():
    """Every ini block of README.md is a config that loads as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        loads_config(block)


def test_load_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/no/such/file.conf")


def test_load_non_utf8_file_names_it(tmp_path):
    """A config that is not UTF-8 is a config error that names its file
    (the decode error named no path)."""
    conf = tmp_path / "latin.conf"
    conf.write_bytes(b"\xffsim.ts = 0.1\n")
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(conf))}: 'utf-8' "
                                          "codec can't decode byte 0xff in position 0"):
        load_config(conf)


def test_sweep_value_substitution():
    cfg = default_run_config()
    assert with_mpc_value(cfg, "rw", 0.5).scenario.mpc.rw == 0.5
    assert with_mpc_value(cfg, "np", 12).scenario.mpc.np_horizon == 12
    assert with_mpc_value(cfg, "nc", 2).scenario.mpc.nc_horizon == 2
    with pytest.raises(ConfigError):
        with_mpc_value(cfg, "ts", 0.1)
    with pytest.raises(ValueError):
        with_mpc_value(cfg, "np", 2)  # below the control horizon


def test_rk4_step_count_bounded():
    # the bundled run takes 300 samples; unbounded, this substep count hung the run
    with pytest.raises(ConfigError, match="RK4 steps, more than"):
        loads_config("sim.substeps = 100000000\n")
    cfg = loads_config(f"sim.substeps = {MAX_RK4_STEPS // 300}\n")
    assert cfg.scenario.substeps == MAX_RK4_STEPS // 300
    with pytest.raises(ConfigError, match="RK4 steps"):
        loads_config(f"sim.substeps = {MAX_RK4_STEPS // 300 + 1}\n")


def test_horizon_product_bounded():
    assert loads_config("mpc.np = 500\nmpc.nc = 500\n").scenario.mpc.nc_horizon == 500
    cfg = loads_config(f"mpc.np = {MAX_HORIZON_PRODUCT}\nmpc.nc = 1\n")
    assert cfg.scenario.mpc.np_horizon == MAX_HORIZON_PRODUCT
    with pytest.raises(ConfigError, match=r"mpc\.np \* mpc\.nc = 250001, more than the 250000"):
        loads_config(f"mpc.np = {MAX_HORIZON_PRODUCT + 1}\nmpc.nc = 1\n")
    with pytest.raises(ConfigError, match=r"mpc\.np \* mpc\.nc = 250500"):
        loads_config("mpc.np = 501\nmpc.nc = 500\n")


def _outcome(make):
    try:
        return dumps_config(make())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name, value", [
    *[("rw", v) for v in (0.5, 0.0, -1.0, math.nan, math.inf, -math.inf)],
    *[("np", v) for v in (3, 2, 0, -1, 83333, 83334, 10**9)],  # at the bundled nc = 3
    *[("nc", v) for v in (1, 10, 11, 0, -1, 10**9)],  # at the bundled np = 10
    # a number is read as its text: an int key takes no bool, no non-finite
    # and no fractional number, and a float key no bool
    *[("np", v) for v in (12.7, 12.0, True, False, math.inf, -math.inf, math.nan)],
    *[("nc", v) for v in (2.5, math.inf)],
    *[("rw", v) for v in (True, False)],
    # raw text, as `sweep --values` passes it
    *[pytest.param(name, raw, id=f"{name}-text {raw}") for name in ("rw", "np", "nc")
      for raw in ("abc", "3.5", "0", "1e400", "nan", "-1", "inf", "2", "true")],
])
def test_swept_value_checked_like_config_value(name, value):
    # a config's parse errors also name the line
    cfg = default_run_config()
    assert (_outcome(lambda: with_mpc_value(cfg, name, value))
            == _outcome(lambda: loads_config(f"mpc.{name} = {value}\n")).replace("line 1: ", ""))


@pytest.mark.parametrize("key, value, want", [
    *[(key, value, value) for key, (value, _) in NON_DEFAULT.items() if key != "output.path"],
    # values that fail their key's check, and an endless pulse, which passes
    ("disturbance.magnitude", math.nan, None), ("sim.substeps", 2.5, None),
    ("sim.clamp_flows", "yes", None), ("disturbance.target", "tank3", None),
    ("setpoint.h1.duration", "-1", None), ("setpoint.h1.duration", "inf", math.inf),
])
def test_every_key_swept_like_its_config_line(key, value, want):
    """Every key but output.path is swept by its own name through
    SWEEP_KEYS: the value lands in the key's field, or fails with the
    message of the one-line config that sets it."""
    cfg = default_run_config()
    outcome = _outcome(lambda: with_mpc_value(cfg, key, value))
    assert outcome == _outcome(lambda: loads_config(f"{key} = {value}\n")).replace("line 1: ", "")
    if want is None:
        assert outcome.startswith("ConfigError: ")
    else:
        assert NON_DEFAULT[key][1](with_mpc_value(cfg, key, value)) == want


def test_sweep_keys_are_the_config_keys_and_three_short_names():
    assert SWEEP_KEYS == {**{key: key for key in DEFAULTS},
                          "rw": "mpc.rw", "np": "mpc.np", "nc": "mpc.nc"}


@pytest.mark.parametrize("name", ["output.path", "ts", "mpc"])
def test_name_outside_the_sweep_table_raises(name):
    with pytest.raises(ConfigError, match=f"^unknown sweep parameter '{name}'"):
        with_mpc_value(default_run_config(), name, "x")
