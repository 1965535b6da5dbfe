"""Config parsing, validation diagnostics, and round-tripping."""

import pytest

from tankmpc import (
    ConfigError,
    default_run_config,
    dumps_config,
    load_config,
    loads_config,
    bundled_config_path,
)
from tankmpc.config import MAX_RK4_STEPS, with_mpc_value


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


def test_round_trip_identity():
    cfg = loads_config("mpc.rw = 0.25\ndisturbance.target = tank2\noutput.path = out.csv\n")
    assert loads_config(dumps_config(cfg)) == cfg


def test_bundled_config_equals_defaults():
    cfg = load_config(bundled_config_path())
    assert cfg == default_run_config()


def test_load_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/no/such/file.conf")


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
