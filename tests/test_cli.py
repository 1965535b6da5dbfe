"""Command-line interface: output contracts and exit codes."""

import contextlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tankmpc
from tankmpc.cli import main
from tankmpc.config import SWEEP_KEYS
from test_config import NON_DEFAULT


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_matrix(out, name, rows=2):
    """Pull a printed matrix like 'A = ...' back into floats."""
    lines = out.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(f"{name} = "))
    block = [lines[start].split("=", 1)[1]] + lines[start + 1 : start + rows]
    return np.array([[float(v) for v in row.split()] for row in block])


# `tankmpc linearize` stdout on the bundled config and with plant.alpha1 = 0.0
LINEARIZE_BUNDLED = """\
Operating point: l1=4 m, l2=3.5 m, fi1_bar=1.556 m^3/s, fi2_bar=1.999 m^3/s

Continuous-time model:
A =     -7.925       7.925
         9.784      -12.98
B =      5.094           0
             0       6.289
C =          1           0
             0           1
D =          0           0
             0           0

Zero-order-hold model at Ts = 0.05 s:
Ad =     0.7339      0.2433
         0.3003      0.5787
Bd =     0.2161     0.04504
        0.04504      0.2381
"""

LINEARIZE_DECOUPLED = """\
Operating point: l1=4 m, l2=3.5 m, fi1_bar=0 m^3/s, fi2_bar=3.555 m^3/s

Continuous-time model:
A =          0           0
             0      -3.194
B =      5.094           0
             0       6.289
C =          1           0
             0           1
D =          0           0
             0           0

Zero-order-hold model at Ts = 0.05 s:
Ad =          1           0
              0      0.8524
Bd =     0.2547           0
              0      0.2906
"""


class TestLinearize:
    def test_default_config_matches_printed_plant(self, capsys):
        code, out, _ = run_cli(["linearize"], capsys)
        assert code == 0
        a = parse_matrix(out, "A")
        b = parse_matrix(out, "B")
        assert np.max(np.abs(a - [[-7.923, 7.923], [9.781, -12.97]])) < 0.01
        assert np.max(np.abs(b - [[5.093, 0.0], [0.0, 6.288]])) < 0.01
        assert "Ad = " in out and "Bd = " in out
        # four significant figures in the printout
        assert re.search(r"-7\.92\d", out)

    @pytest.mark.parametrize("conf_text, expected", [
        (None, LINEARIZE_BUNDLED),
        ("plant.alpha1 = 0.0\n", LINEARIZE_DECOUPLED),
    ], ids=["bundled", "alpha1_zero"])
    def test_stdout_pinned(self, tmp_path, capsys, conf_text, expected):
        """The whole printout, byte for byte: the D block and the sampled
        matrices included."""
        argv = ["linearize"]
        if conf_text is not None:
            conf = tmp_path / "model.conf"
            conf.write_text(conf_text)
            argv += ["--config", str(conf)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (0, expected, "")

    def test_singular_levels_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("operating.l1 = 3.5\noperating.l2 = 3.5\n")
        code, _, err = run_cli(["linearize", "--config", str(conf)], capsys)
        assert code == 2
        assert "l1 > l2" in err

    def test_decoupled_plant_prints_triangular_a(self, tmp_path, capsys):
        conf = tmp_path / "dec.conf"
        conf.write_text("plant.alpha1 = 0.0\n")
        code, out, _ = run_cli(["linearize", "--config", str(conf)], capsys)
        assert code == 0
        a = parse_matrix(out, "A")
        assert a[0, 0] == 0.0 and a[0, 1] == 0.0 and a[1, 0] == 0.0
        assert a[1, 1] < 0

    @pytest.mark.parametrize("line, message", [
        ("setpoint.h1.start = nan", "setpoint.h1.start must be finite"),
        ("operating.l1 = inf", "operating.l1 must be finite"),
        ("sim.t_end = 1e12", "samples, more than"),
        ("sim.substeps = 100000000", "RK4 steps, more than"),
    ])
    def test_non_finite_or_absurd_value_exit_2(self, tmp_path, capsys, line, message):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        code, out, err = run_cli(["simulate", "--config", str(conf),
                                  "--out", str(tmp_path / "run.csv")], capsys)
        assert code == 2
        assert err.count("\n") == 1 and message in err  # one line, no traceback
        assert not (tmp_path / "run.csv").exists()

    def test_endless_pulse_accepted(self, tmp_path, capsys):
        conf = tmp_path / "endless.conf"
        conf.write_text("setpoint.h1.duration = inf\nsim.t_end = 0.5\n")
        code, _, _ = run_cli(["simulate", "--config", str(conf),
                              "--out", str(tmp_path / "run.csv")], capsys)
        assert code == 0

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["linearize", "--config", str(tmp_path / "nope.conf")], capsys)
        assert code == 2 and "cannot read" in err

    def test_non_utf8_config_exit_2_naming_it(self, tmp_path, capsys):
        conf = tmp_path / "latin.conf"
        conf.write_bytes(b"\xffsim.ts = 0.1\n")
        code, out, err = run_cli(["linearize", "--config", str(conf)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read config {conf}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1


class TestSimulate:
    def test_bundled_scenario_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        code, out, _ = run_cli(["simulate", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,r1,r2,h1,h2,u1,u2,u3,fi1_abs,fi2_abs"
        assert len(lines) == 1 + 301
        assert "settling" in out

    def test_single_sample_run(self, tmp_path, capsys):
        conf = tmp_path / "short.conf"
        conf.write_text("sim.t_end = 0.05\n")
        out_csv = tmp_path / "short.csv"
        code, _, _ = run_cli(["simulate", "--config", str(conf), "--out", str(out_csv)], capsys)
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 1 + 2

    def test_output_path_from_config(self, tmp_path, capsys):
        out_csv = tmp_path / "cfg_out.csv"
        conf = tmp_path / "with_out.conf"
        conf.write_text(f"sim.t_end = 0.1\noutput.path = {out_csv}\n")
        code, _, _ = run_cli(["simulate", "--config", str(conf)], capsys)
        assert code == 0 and out_csv.exists()

    def test_missing_output_path_exit_2(self, capsys):
        code, _, err = run_cli(["simulate"], capsys)
        assert code == 2 and "output path" in err

    @pytest.mark.parametrize("linear_plant", ["false", "true"])
    def test_plant_overflow_exit_3_on_both_plants(self, tmp_path, capsys, linear_plant):
        conf = tmp_path / "overflow.conf"
        conf.write_text(f"sim.linear_plant = {linear_plant}\nsetpoint.h1.amplitude = 1.7e308\n"
                        "setpoint.h1.start = 0\nsetpoint.h1.duration = inf\nsim.t_end = 3\n")
        code, _, err = run_cli(["simulate", "--config", str(conf),
                                "--out", str(tmp_path / "run.csv")], capsys)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite at t=" in err and not (tmp_path / "run.csv").exists()

    def test_unwritable_output_exit_3_no_partial_file(self, tmp_path, capsys):
        target_dir = tmp_path / "missing"
        code, _, err = run_cli(["simulate", "--out", str(target_dir / "x.csv")], capsys)
        assert code == 3
        assert not target_dir.exists()
        assert list(tmp_path.iterdir()) == []  # no temp files left behind

    def test_output_path_is_a_directory_exit_3_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        target.mkdir()
        code, _, err = run_cli(["simulate", "--out", str(target)], capsys)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [target]  # the temp file is removed
        assert list(target.iterdir()) == []

    def test_temp_name_collision_takes_a_fresh_name(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / f"run.csv.{bytes(6).hex()}.tmp"
        taken.write_text("not ours")
        draws = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        code, _, _ = run_cli(["simulate", "--out", str(tmp_path / "run.csv")], capsys)
        assert code == 0
        assert next(draws, None) is None  # two collisions, then a fresh name
        assert taken.read_text() == "not ours"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", taken.name]
        assert (tmp_path / "run.csv").read_text().startswith("t,r1,r2,")


class TestSweep:
    def test_single_point_sweep_matches_simulate(self, tmp_path, capsys):
        """Each sweep value's CSV equals `simulate` on a config of its own.
        The values of one sweep share the model and CSV format memos, and a
        15001-row log (sim.ts = 0.001) is four CSV blocks."""
        cases = [  # (sweep config, param, values, {csv: simulate config})
            ("", "nc", "3", {"nc_3.csv": ""}),
            ("", "rw", "0.5,1,2", {f"rw_{v}.csv": f"mpc.rw = {v}\n" for v in ("0.5", "1", "2")}),
            ("sim.ts = 0.001\n", "rw", "1,1.0",
             {"rw_1.csv": "sim.ts = 0.001\n", "rw_1.0.csv": "sim.ts = 0.001\n"}),
        ]
        for i, (conf_text, param, values, expected) in enumerate(cases):
            conf = tmp_path / f"sweep_{i}.conf"
            conf.write_text(conf_text)
            out_dir = tmp_path / f"sweep_{i}"
            code, _, _ = run_cli(["sweep", "--config", str(conf), "--param", param,
                                  "--values", values, "--out-dir", str(out_dir)], capsys)
            assert code == 0
            for name, ref_text in expected.items():
                ref_conf, ref_csv = tmp_path / "ref.conf", tmp_path / "ref.csv"
                ref_conf.write_text(ref_text)
                run_cli(["simulate", "--config", str(ref_conf), "--out", str(ref_csv)], capsys)
                assert (out_dir / name).read_bytes() == ref_csv.read_bytes(), (values, name)

    def test_rw_sweep_all_values(self, tmp_path, capsys):
        out_dir = tmp_path / "rw"
        code, out, _ = run_cli(
            ["sweep", "--param", "rw", "--values", "10,0.1,1", "--out-dir", str(out_dir)],
            capsys)
        assert code == 0
        for v in ("0.1", "1", "10"):
            assert (out_dir / f"rw_{v}.csv").exists()
        # table sorted by value
        pos = [out.index(f"rw={v}") for v in ("0.1", "1", "10")]
        assert pos == sorted(pos)

    def test_table_lines(self, tmp_path, capsys):
        # per output, the worst settling time of its segments, or "not settled"
        # if any segment is (here the setpoint edges at 0.5 s have no dwell)
        unsettled = tmp_path / "unsettled.conf"
        unsettled.write_text("sim.t_end = 0.7\n" + "".join(
            f"setpoint.{h}.start = 0.5\nsetpoint.{h}.duration = 10\n" for h in ("h1", "h2")))
        for config, table in (([], ["  rw=0.5  h1: 4.8 s  h2: 4.7 s  -> rw_0.5.csv",
                                    "  rw=1  h1: 4.85 s  h2: 4.75 s  -> rw_1.csv"]),
                              (["--config", str(unsettled)],
                               ["  rw=0.5  h1: not settled  h2: not settled  -> rw_0.5.csv",
                                "  rw=1  h1: not settled  h2: not settled  -> rw_1.csv"])):
            code, out, _ = run_cli(["sweep", *config, "--param", "rw", "--values", "1,0.5",
                                    "--out-dir", str(tmp_path / "rw")], capsys)
            assert code == 0
            assert out.splitlines() == ["sweep over rw:", *table]

    def test_invalid_value_fails_alone_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "np"
        code, out, err = run_cli(
            ["sweep", "--param", "np", "--values", "2,10", "--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert (out_dir / "np_10.csv").exists()
        assert not (out_dir / "np_2.csv").exists()
        assert "FAILED" in err or "FAILED" in out

    def test_nan_and_non_numeric_values_sort_last(self, tmp_path, capsys):
        code, out, err = run_cli(["sweep", "--param", "rw", "--values", "10,nan,0.1,x,1",
                                  "--out-dir", str(tmp_path / "rw")], capsys)
        assert code == 1 and "Traceback" not in err
        assert "rw=nan  FAILED: mpc.rw must be finite, got nan" in out
        pos = [out.index(f"rw={v} ") for v in ("0.1", "1", "10", "nan", "x")]
        assert pos == sorted(pos)

    def test_unparsable_value_named_like_a_config_value(self, tmp_path, capsys):
        code, out, err = run_cli(["sweep", "--param", "np", "--values", "x,10",
                                  "--out-dir", str(tmp_path / "np")], capsys)
        assert code == 1 and "Traceback" not in err
        assert "np=x  FAILED: bad value for 'mpc.np': 'x' (" in out
        assert (tmp_path / "np" / "np_10.csv").exists()

    def test_empty_values_list_exit_2(self, tmp_path, capsys):
        code, out, err = run_cli(["sweep", "--param", "rw", "--values", " , ",
                                  "--out-dir", str(tmp_path / "rw")], capsys)
        assert (code, out, err) == (2, "", "error: empty --values list\n")
        assert not (tmp_path / "rw").exists()

    def test_rejects_unknown_param(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--param", "ts", "--values", "1", "--out-dir", "x"])
        assert exc_info.value.code == 2

    def test_negative_first_value_in_the_equals_form(self, tmp_path, capsys):
        """argparse reads `--values -150,10` as an option (it exempts only a
        plain negative number), so a negative first value takes `--values=`."""
        out_dir = tmp_path / "d"
        argv = ["sweep", "--param", "disturbance.magnitude", "--out-dir", str(out_dir)]
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--values", "-150,10"])
        assert exc_info.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli([*argv, "--values=-150,10"], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[1:]] == [
            "disturbance.magnitude=-150", "disturbance.magnitude=10"]

    def test_disturbance_study_matches_simulate(self, monkeypatch, tmp_path, capsys):
        """The paper's disturbance study is one sweep: each value's CSV is
        `simulate` on its one-line config, and the values share one
        controller set-up."""
        import tankmpc.loop as loop

        builds = []
        real = loop.build_prediction
        monkeypatch.setattr(loop, "build_prediction",
                            lambda aug, cfg: builds.append(cfg) or real(aug, cfg))
        monkeypatch.setattr(loop, "_last", {})
        out_dir = tmp_path / "d"
        code, _, _ = run_cli(["sweep", "--param", "disturbance.magnitude", "--values=-150,10",
                              "--out-dir", str(out_dir)], capsys)
        assert code == 0 and len(builds) == 1
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "disturbance.magnitude_-150.csv", "disturbance.magnitude_10.csv"]
        for value in ("-150", "10"):
            ref_conf, ref_csv = tmp_path / "ref.conf", tmp_path / "ref.csv"
            ref_conf.write_text(f"disturbance.magnitude = {value}\n")
            assert run_cli(["simulate", "--config", str(ref_conf), "--out", str(ref_csv)],
                           capsys)[0] == 0
            assert (out_dir / f"disturbance.magnitude_{value}.csv").read_bytes() == \
                ref_csv.read_bytes(), value

    def test_full_key_sweeps_as_its_short_name(self, tmp_path, capsys):
        for param in ("mpc.rw", "rw"):
            code, _, _ = run_cli(["sweep", "--param", param, "--values", "0.5",
                                  "--out-dir", str(tmp_path / param)], capsys)
            assert code == 0
        assert ((tmp_path / "mpc.rw" / "mpc.rw_0.5.csv").read_bytes()
                == (tmp_path / "rw" / "rw_0.5.csv").read_bytes())

    def test_rejects_output_path(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--param", "output.path", "--values", "x",
                  "--out-dir", str(tmp_path / "x")])
        assert exc_info.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", sorted(SWEEP_KEYS))
    def test_failed_value_of_any_key_is_one_line(self, tmp_path, capsys, name):
        """A valid value and one that fails its key's check: exit 1, the
        valid value's CSV, one FAILED table line and no traceback."""
        conf = tmp_path / "short.conf"
        conf.write_text("sim.t_end = 1.0\n")
        valid = NON_DEFAULT[SWEEP_KEYS[name]][0]
        bad = {float: "nan", int: "2.5", bool: "yes", str: "tank3"}[type(valid)]
        code, out, err = run_cli(["sweep", "--config", str(conf), "--param", name,
                                  f"--values={valid},{bad}", "--out-dir", str(tmp_path / "s")],
                                 capsys)
        assert code == 1 and "Traceback" not in err
        failed = [line for line in out.splitlines() if "FAILED" in line]
        assert len(failed) == 1 and failed[0].startswith(f"  {name}={bad}  FAILED: ")
        assert (tmp_path / "s" / f"{name}_{valid}.csv").exists()


class TestOneParser:
    """`main` parses with the one parser built when `tankmpc.cli` is
    imported, so calls in one process must not see each other."""

    def test_calls_in_one_process_do_not_see_each_other(self, monkeypatch, tmp_path, capsys):
        # a sweep, a usage error, help, a simulate and the sweep again, twice
        # over and then with build_parser broken: each call gives the exit
        # code, stdout, stderr and CSV bytes of the first call of its argv
        import tankmpc.cli as cli

        monkeypatch.setenv("COLUMNS", "80")
        short = tmp_path / "short.conf"  # only the simulate call names a config
        short.write_text("sim.t_end = 1\n")
        sweep = ["sweep", "--param", "rw", "--values", "0.5", "--out-dir", str(tmp_path / "s")]
        calls = [
            (sweep, tmp_path / "s" / "rw_0.5.csv"),
            (["sweep", "--values", "1", "--out-dir", str(tmp_path / "e")], None),
            (["sweep", "--help"], None),
            (["simulate", "--config", str(short), "--out", str(tmp_path / "run.csv")],
             tmp_path / "run.csv"),
            (sweep, tmp_path / "s" / "rw_0.5.csv"),
        ]

        def outcome(argv, csv):
            if csv is not None:
                csv.unlink(missing_ok=True)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err, csv.read_bytes() if csv is not None else None

        first = {}
        for _ in range(2):
            for argv, csv in calls:
                result = outcome(argv, csv)
                assert result == first.setdefault(tuple(argv), result), argv

        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        for argv, csv in calls:
            assert outcome(argv, csv) == first[tuple(argv)]
        assert [first[tuple(argv)][0] for argv, _ in calls] == [0, 2, 0, 0, 0]
        assert first[tuple(calls[1][0])][2].startswith("usage: tankmpc sweep")

    def test_help_wraps_to_the_width_at_the_call(self, monkeypatch, capsys):
        # COLUMNS is set after tankmpc.cli is imported, and the help follows it
        def sweep_help(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc_info:
                main(["sweep", "-h"])
            assert exc_info.value.code == 0
            return capsys.readouterr().out.splitlines()

        narrow = sweep_help(50)
        assert max(map(len, narrow)) <= 50
        assert not any("if the first is negative" in line for line in narrow)
        wide = sweep_help(200)
        assert any(line.split() == ["--values", "VALUES", "comma-separated", "values;", "write",
                                    "--values=-1,1", "if", "the", "first", "is", "negative"]
                   for line in wide)


@pytest.mark.parametrize("command, csv", [
    ("simulate --out {dir}/run.csv", "run.csv"),
    ("sweep --param rw --values 2 --out-dir {dir}", "rw_2.csv"),
], ids=["simulate", "sweep"])
def test_csv_mode_follows_the_umask(tmp_path, capsys, command, csv):
    # the CSV gets the mode a plain open() gives a new file, not a temp file's 0600
    conf = tmp_path / "short.conf"
    conf.write_text("sim.t_end = 0.1\n")
    umask = os.umask(0o027)
    try:
        code, _, _ = run_cli(command.format(dir=tmp_path).split() + ["--config", str(conf)],
                             capsys)
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE((tmp_path / csv).stat().st_mode) == 0o666 & ~0o027


@pytest.mark.parametrize("message, line", [
    ("cannot allocate the log", "error: out of memory (cannot allocate the log)\n"),
    ("", "error: out of memory\n"),
])
def test_out_of_memory_exits_3_with_one_line(monkeypatch, tmp_path, capsys, message, line):
    def exhausted(scenario):
        raise MemoryError(message)

    monkeypatch.setattr("tankmpc.cli.run_closed_loop", exhausted)
    code, out, err = run_cli(["simulate", "--out", str(tmp_path / "run.csv")], capsys)
    assert code == 3 and err == line
    assert not (tmp_path / "run.csv").exists()


def cli_process(tmp_path, conf_text, command):
    """`python -m tankmpc.cli <command>` on a config of its own, in a process
    of its own with numpy's warnings shown, and the CSV path it may write."""
    conf = tmp_path / "run.conf"
    conf.write_text(conf_text)
    csv = tmp_path / "run.csv"
    args = [command, "--config", str(conf)]
    if command == "simulate":
        args += ["--out", str(csv)]
    src = str(Path(tankmpc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tankmpc.cli", *args], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc, csv


@pytest.mark.parametrize("command", ["simulate", "linearize"])
def test_sampling_period_overflow_exits_2_with_one_line(tmp_path, command):
    """sim.ts = 1e308 overflows exp(A ts): one named line on stderr, no
    numpy warning ahead of it, in a process of its own."""
    proc, csv = cli_process(tmp_path, "sim.ts = 1e308\n", command)
    assert proc.returncode == 2
    assert proc.stderr == "error: sampling period 1e+308 s overflows the model's exponential\n"
    assert not csv.exists()


@pytest.mark.parametrize("command", ["simulate", "linearize"])
def test_exponential_squarings_overflow_exits_2_with_one_line(tmp_path, command):
    """plant.a1 = 1e300 at sim.ts = 1e300 overflows the squarings of
    exp(A ts): one line naming the keys (linearize printed NaN matrices and
    exited 0; simulate printed two numpy warnings and blamed phi.T phi)."""
    proc, csv = cli_process(tmp_path, "plant.a1 = 1e300\nsim.ts = 1e300\n", command)
    assert proc.returncode == 2
    assert proc.stderr == ("error: sampling period 1e+300 s overflows the squarings of the "
                           "model's exponential; the sim.ts and plant.* values are out of range\n")
    assert proc.stdout == "" and not csv.exists()


def test_prediction_overflow_exits_2_with_one_line(tmp_path):
    """plant.a2 = 1e-300 overflows phi.T phi: build_prediction names its
    stage in one line, before the first sample (was a two-line numpy
    warning, then a failure at sample 0 with exit 3)."""
    proc, csv = cli_process(tmp_path, "plant.a2 = 1e-300\n", "simulate")
    assert proc.returncode == 2
    assert proc.stderr == ("error: prediction set-up: phi.T phi overflows; the plant.* and "
                           "mpc.* values are out of range\n")
    assert not csv.exists()


@pytest.mark.parametrize("command", ["simulate", "linearize"])
def test_negative_steady_feed_exits_2_with_one_line(tmp_path, command):
    """alpha1 = 4, alpha2 = 0.5 at the bundled levels need a steady tank-2
    feed of -1.89 m^3/s: one line naming the keys (the run exited 0, logging
    that negative feed at every sample)."""
    proc, csv = cli_process(tmp_path, "plant.alpha1 = 4.0\nplant.alpha2 = 0.5\n", command)
    assert proc.returncode == 2
    assert proc.stderr == ("error: operating.l1, operating.l2, plant.alpha1 and plant.alpha2 "
                           "give a negative steady tank-2 feed: alpha2*sqrt(l2) = 0.935414 < "
                           "alpha1*sqrt(l1 - l2) = 2.82843\n")
    assert not csv.exists()


def test_clamp_then_failure_exits_3_with_two_lines(tmp_path):
    """A clamped linear-plant run whose state overflows after the clamp
    engaged: the clamp line for sample 160, then the error, and exit 3."""
    proc, csv = cli_process(tmp_path, "sim.linear_plant = true\nsim.clamp_flows = true\n"
                            "disturbance.magnitude = -150\nsetpoint.h1.amplitude = 1.7e308\n"
                            "setpoint.h1.start = 11\nsetpoint.h1.duration = inf\n", "simulate")
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 2, lines
    assert "clamp active from sample 160" in lines[0] and "non-finite at t=" in lines[1]
    assert not csv.exists()


def test_subnormal_setpoint_step_summarized_finite(tmp_path):
    """A 5e-324 m setpoint step runs and reports finite metrics, with
    nothing on stderr (the overshoot read inf%, after a numpy warning)."""
    proc, csv = cli_process(tmp_path, "setpoint.h1.amplitude = 5e-324\n", "simulate")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "inf" not in proc.stdout and "nan" not in proc.stdout
    assert "overshoot 0.00%" in proc.stdout and csv.exists()


def _either(valid, invalid):
    """Values from both sides of a documented limit, valid three times in four
    so that a config of several keys still runs now and then."""
    return st.one_of(valid, valid, valid, st.sampled_from(invalid))


_NON_FINITE = [math.nan, math.inf, -math.inf]

# Each key draws cheap valid values (a run stays under ~100 samples of at
# most 8 substeps) or values on the far side of the key's documented limit.
CONFIG_VALUES = {
    "sim.ts": _either(st.floats(0.01, 0.5), [0.0, -0.05, 1e-300, 1e-9, 1e300] + _NON_FINITE),
    "sim.t_end": _either(st.floats(0.01, 1.0), [0.0, -1.0, 1e7, 1e12, 1e300] + _NON_FINITE),
    "sim.substeps": _either(st.integers(1, 8), [0, -1, 10**8, 10**30]),
    "mpc.np": _either(st.integers(1, 30), [0, -3, 10**9]),
    "mpc.nc": _either(st.integers(1, 10), [0, -1, 31, 10**9]),
    "mpc.rw": _either(st.floats(1e-3, 1e3), [0.0, -1.0] + _NON_FINITE),
    "plant.a1": _either(st.floats(0.01, 1.0), [0.0, -0.1, 1e-300, 1e300] + _NON_FINITE),
    "plant.alpha1": _either(st.floats(0.0, 5.0), [-1.0, 1e300] + _NON_FINITE),
    "plant.alpha2": _either(st.floats(0.1, 5.0), [0.0, -1.0] + _NON_FINITE),
    "operating.l1": _either(st.floats(3.6, 10.0), [0.0, -1.0, 3.5] + _NON_FINITE),
    "operating.l2": _either(st.floats(0.1, 3.9), [0.0, -1.0, 4.0] + _NON_FINITE),
    "setpoint.h1.amplitude": _either(st.floats(-4.0, 4.0), [1e308, -1e308] + _NON_FINITE),
    "setpoint.h2.duration": _either(st.floats(0.0, 2.0), [-1.0, math.inf, math.nan]),
    "disturbance.magnitude": _either(st.floats(-300.0, 300.0), [1e308] + _NON_FINITE),
    "disturbance.duration": _either(st.floats(0.0, 2.0), [-1.0, math.inf, math.nan]),
    "disturbance.target": st.sampled_from(["tank1", "tank2", "both", "tank3"]),
    "sim.clamp_flows": st.sampled_from(["true", "false"]),
    "sim.linear_plant": st.sampled_from(["true", "false"]),
}


#: Configs of up to eight keys, each drawn from CONFIG_VALUES.
CONFIGS = (st.dictionaries(st.sampled_from(sorted(CONFIG_VALUES)), st.none(), max_size=8)
           .flatmap(lambda keys: st.fixed_dictionaries({k: CONFIG_VALUES[k] for k in keys})))


def main_on_config(values, *args):
    """main([*args, "--config", <values as a file>]) with RuntimeWarnings
    raised as errors: (exit code, stderr, the config text).  An `{out}` in
    args is a path in the config's temporary directory."""
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "run.conf"
        conf.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*(arg.format(out=tmp) for arg in args), "--config", str(conf)])
    return code, err.getvalue(), text


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(CONFIGS)
@example({"setpoint.h1.amplitude": 1e308})  # the plant overflows: exit 3
@example({"sim.substeps": 10**8})  # too many RK4 steps: exit 2
@example({"sim.ts": 1e308})  # exp(A ts) overflows: exit 2
@example({"plant.a1": 1e300, "sim.ts": 1e300})  # exp(A ts)'s squarings overflow: exit 2
@example({"plant.a2": 1e-300})  # phi.T phi overflows: exit 2
@example({"setpoint.h1.amplitude": 5e-324})  # a step below the level's resolution: exit 0
def test_simulate_exits_with_a_documented_code(values):
    """Any config runs (0) or fails with one line: 2 config, 3 runtime.
    A numpy RuntimeWarning, which would print lines of its own, fails it.

    Derandomized, so the suite sees the same configs on every run.
    """
    code, err, text = main_on_config(values, "simulate", "--out", "{out}/run.csv")
    assert code in (0, 2, 3), text
    if code:
        assert err.startswith("error: ") and "Traceback" not in err, text


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(CONFIGS)
@example({"sim.ts": 1e308})
@example({"plant.a1": 1e300, "sim.ts": 1e300})
@example({"plant.a2": 1e-300})
@example({"setpoint.h1.amplitude": 5e-324})
def test_linearize_and_sweep_exit_with_a_documented_code(values):
    """`linearize` runs (0) or fails with one line (2, 3); `sweep` runs (0),
    lists each failed value on a line of its own (1), or fails with one line
    (2, 3).  A numpy RuntimeWarning fails it, as it does for `simulate`."""
    code, err, text = main_on_config(values, "linearize")
    assert code in (0, 2, 3), text
    lines = err.splitlines()
    assert len(lines) == (0 if code == 0 else 1), text
    assert code == 0 or lines[0].startswith("error: "), text

    code, err, text = main_on_config(values, "sweep", "--param", "rw", "--values", "1,0.5",
                                     "--out-dir", "{out}/sweep")
    assert code in (0, 1, 2, 3), text
    lines = err.splitlines()
    if code == 0:
        assert lines == [], text
    elif code == 1:
        assert 1 <= len(lines) <= 2 and all(ln.startswith("value ") for ln in lines), text
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), text
