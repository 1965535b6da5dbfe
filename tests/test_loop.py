"""Closed-loop behavior: tracking, rejection, logging, metrics."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from tankmpc import (
    DEFAULT_PARAMS,
    DisturbanceProfile,
    MpcConfig,
    Scenario,
    SetpointPulse,
    SimulationError,
    SimulationLog,
    TankParams,
    augment,
    build_prediction,
    default_run_config,
    linearize,
    loads_config,
    make_operating_point,
    receding_step,
    run_closed_loop,
    summarize,
    zoh_discretize,
)
from tankmpc.loop import _LOOP_COLUMNS, CSV_BLOCK, SETTLE_DWELL, _controller
from tankmpc.plant import (
    NO_DISTURBANCE,
    disturbance_flow,
    disturbance_inflows,
    make_linear_advance,
    make_loop,
)

from oracles import (
    closed_loop_by_samples,
    closed_loop_matrices,
    controller_start,
    csv_text_by_value,
    disturbance_feeds,
    linear_closed_loop,
    random_tank_params,
    setpoint_value,
    settling_by_loop,
)


def make_scenario(**overrides):
    base = default_run_config().scenario
    fields = {name: getattr(base, name) for name in (
        "params", "op_levels", "mpc", "ts", "t_end", "setpoints",
        "disturbance", "substeps", "clamp_flows", "linear_plant")}
    fields.update(overrides)
    return Scenario(**fields)


def constant_setpoints(r1, r2):
    return (SetpointPulse(r1, 0.0, math.inf), SetpointPulse(r2, 0.0, math.inf))


DEFAULT_SCENARIO = make_scenario()


def hexes(values):
    return [float(v).hex() for v in values]


class TestRunClosedLoop:
    def test_undisturbed_equilibrium_stays_silent(self):
        sc = make_scenario(setpoints=(SetpointPulse(), SetpointPulse()),
                           disturbance=NO_DISTURBANCE, t_end=3.0)
        log = run_closed_loop(sc)
        for col in ("h1", "h2", "u1", "u2", "u3"):
            assert np.max(np.abs(getattr(log, col))) < 1e-9

    def test_row_count_and_time_grid(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        assert len(log) == math.floor(15.0 / 0.05) + 1 == 301
        assert np.allclose(np.diff(log.t), 0.05, atol=1e-12)
        assert np.all(np.diff(log.t) > 0)

        tiny = run_closed_loop(make_scenario(t_end=0.05))
        assert len(tiny) == 2 and tiny.t[0] == 0.0 and tiny.t[1] == 0.05

    def test_bundled_scenario_tracks_both_pulses(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        m = summarize(log, DEFAULT_SCENARIO)
        for name, amp in (("h1", 0.5), ("h2", 0.3)):
            rising = [s for s in m.outputs[name] if s.target == amp]
            assert len(rising) == 1 and rising[0].settled
            assert rising[0].steady_state_error < 1e-3
        assert abs(log.h1[-1]) < 1e-3 and abs(log.h2[-1]) < 1e-3

    def test_first_control_move_is_direct_acting(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        nz = np.nonzero(log.u1)[0]
        assert nz.size and log.u1[nz[0]] > 0
        assert log.r1[nz[0]] > 0  # the move happens at the setpoint edge
        nz2 = np.nonzero(log.u2)[0]
        assert nz2.size and log.u2[nz2[0]] > 0

    @pytest.mark.parametrize("r, rw", [
        ((0.4, 0.2), 0.01),
        ((-0.3, -0.45), 10.0),
        ((0.5, -0.5), 1.0),
    ])
    def test_offset_free_tracking(self, r, rw):
        """Constant setpoints anywhere in the band settle with no offset."""
        sc = make_scenario(mpc=MpcConfig(10, 3, rw), t_end=8.0,
                           setpoints=constant_setpoints(*r),
                           disturbance=NO_DISTURBANCE)
        log = run_closed_loop(sc)
        assert abs(log.h1[-1] - r[0]) < 1e-3
        assert abs(log.h2[-1] - r[1]) < 1e-3

    def test_disturbance_rejected_by_integral_action(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        pulse = (log.t >= 8.0) & (log.t < 10.0)
        assert 1e-4 < np.max(np.abs(log.h1[pulse])) < 0.2  # visible but bounded
        after = log.t >= 13.0  # pulse end + 3 s
        assert np.max(np.abs(log.h1[after])) < 1e-3
        assert np.max(np.abs(log.h2[after])) < 1e-3
        # the held control ends up cancelling the injected flow
        during = (log.t >= 9.5) & (log.t < 10.0)
        assert np.allclose(log.u1[during], -log.u3[during], atol=1e-3)

    def test_u3_column_logs_the_pulse(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        expected = 0.1 * 1.5556349186104046
        inside = (log.t >= 8.0) & (log.t < 10.0)
        assert np.allclose(log.u3[inside], expected, rtol=1e-12)
        assert np.all(log.u3[~inside] == 0.0)
        # absolute flow reconstruction on the disturbed channel
        assert np.allclose(log.fi1_abs, 1.5556349186104046 + log.u1 + log.u3, atol=1e-12)
        assert np.allclose(log.fi2_abs, 1.9989395988248397 + log.u2, atol=1e-12)

    @pytest.mark.parametrize("ts", [0.05, 0.01])
    def test_plant_entered_at_the_logged_sample_times(self, monkeypatch, ts):
        # the loop owns the clock: the body steps each sample from the time the
        # loop hands it, which is the logged k * ts, and the linear plant's
        # per-sample call is entered at that time too
        import tankmpc.loop as loop
        import tankmpc.plant as plant

        entries, linear_entries = [], []

        def recording_loop(*args):
            run = make_loop(*args)

            def recorded(i, t, *rest):
                final = rest[-1]
                entries.extend(t.tolist()[:-1] if final else t.tolist())
                return run(i, t, *rest)
            return recorded

        def recording_linear(*args):
            advance = make_linear_advance(*args)

            def recorded(t, *state):
                linear_entries.append(t)
                return advance(t, *state)
            return recorded

        monkeypatch.setattr(loop, "make_loop", recording_loop)
        monkeypatch.setattr(plant, "make_linear_advance", recording_linear)
        for linear_plant in (False, True):
            entries.clear()
            linear_entries.clear()
            log = run_closed_loop(make_scenario(ts=ts, linear_plant=linear_plant))
            want = hexes(log.t[:-1].tolist())
            assert hexes(entries) == want
            assert hexes(linear_entries) == (want if linear_plant else [])

    def test_pulse_end_on_a_sample_time_reaches_the_plant_as_logged(self):
        # the bundled pulse ends at t = 10.0 = 200 ts, and the log shows it off
        # from sample 200: the step from sample 200 is the undisturbed one
        sc = DEFAULT_SCENARIO
        log = run_closed_loop(sc)
        k = 200
        assert log.t[k] == 10.0 == sc.disturbance.start + sc.disturbance.duration
        assert log.u3[k] == 0.0 < log.u3[k - 1]
        op, _, pred = _controller(sc)
        d = np.array([disturbance_feeds(sc.disturbance, op, t) for t in log.t.tolist()])
        disturbed, undisturbed = (
            make_loop(sc.params, op, sc.ts, sc.substeps, profile, sc.clamp_flows, pred.gains)
            for profile in (sc.disturbance, NO_DISTURBANCE))
        carry = disturbed(0, log.t[:k], log.r1[:k], log.r2[:k], d[:k, 0], d[:k, 1], None, [],
                          False)
        logged = []
        x1, x2, *_ = undisturbed(k, log.t[k : k + 1], log.r1[k : k + 1], log.r2[k : k + 1],
                                 np.zeros(1), np.zeros(1), carry, logged, False)
        assert hexes(logged) == hexes([getattr(log, c)[k] for c in ("h1", "h2", "u1", "u2")])
        assert hexes([x1 - op.l1, x2 - op.l2]) == hexes([log.h1[k + 1], log.h2[k + 1]])

    def test_h_and_u_match_the_sample_by_sample_oracle(self):
        # the loop body's law, clamp memory and RK4 substeps against
        # receding_step and rk4_by_derivatives applied one sample at a time,
        # in hex: clamp on and off, pulse and setpoint edges on sample times,
        # on stage times and between them, 1-16 substeps, setpoints deep
        # enough to empty a tank, and +-0.0 inputs
        rng = np.random.default_rng(20261022)
        emptied = clamped = 0
        for case in range(240):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            ts = float(rng.choice([0.05, 0.01, rng.uniform(0.01, 0.2)]))
            substeps = int(rng.integers(1, 17))
            n = int(rng.integers(2, 41))
            npred = int(rng.integers(2, 16))
            mpc = MpcConfig(npred, int(rng.integers(1, min(npred, 4) + 1)),
                            float(10.0 ** rng.uniform(-2.0, 1.0)))

            def edge():
                k = int(rng.integers(0, n))
                return float(rng.choice([k * ts, k * ts + int(rng.integers(1, 2 * substeps))
                                         * (ts / substeps) / 2, rng.uniform(0.0, n * ts)]))

            def window():
                start, end = sorted([edge(), edge()])
                return {"start": start,
                        "duration": math.inf if rng.random() < 0.1 else end - start}

            def amplitude(level):
                return float(rng.choice([0.0, -0.0, rng.uniform(-0.5, 0.5) * level,
                                         -rng.uniform(1.0, 1.5) * level]))

            setpoints = (SetpointPulse(amplitude(l1), **window()),
                         SetpointPulse(amplitude(l2), **window()))
            magnitude = float(rng.choice([0.0, -0.0, rng.uniform(-200.0, 100.0)]))
            dist = DisturbanceProfile(magnitude=magnitude, **window(),
                                      target=str(rng.choice(["tank1", "tank2", "both"])))
            sc = Scenario(params=params, op_levels=(l1, l2), mpc=mpc, ts=ts, t_end=(n - 1) * ts,
                          setpoints=setpoints, disturbance=dist, substeps=substeps,
                          clamp_flows=bool(case % 2))
            n = sc.n_samples()
            disc = zoh_discretize(linearize(params, op), ts)
            pred = build_prediction(augment(disc), mpc)
            log = run_closed_loop(sc)
            r = [[setpoint_value(p, k * ts) for p in setpoints] for k in range(n)]
            hs, us = closed_loop_by_samples(params, op, pred, ts, substeps, dist,
                                            sc.clamp_flows, r)
            for j, name in enumerate(("h1", "h2")):
                assert hexes(getattr(log, name)) == hexes(h[j] for h in hs), (case, name)
            for j, name in enumerate(("u1", "u2")):
                assert hexes(getattr(log, name)) == hexes(u[j] for u in us), (case, name)
            emptied += bool(np.any(log.h1 == -l1) or np.any(log.h2 == -l2))
            clamped += sc.clamp_flows and bool(np.any(log.fi1_abs == 0.0)
                                               or np.any(log.fi2_abs == 0.0))
        assert emptied >= 10 and clamped >= 10, (emptied, clamped)

    def test_signal_columns_match_per_sample_values(self):
        # t, r1, r2 and u3 are built once per run and the routed disturbance is
        # read from precomputed lists; each must equal its per-sample value at
        # k * ts, bit for bit, with window edges on sample times or between them
        rng = np.random.default_rng(11)

        def window(ts, t_end):
            k = int(rng.integers(0, 1 + round(t_end / ts)))
            start = k * ts if rng.random() < 0.5 else float(rng.uniform(0.0, t_end))
            duration = float(rng.choice([0.0, math.inf, int(rng.integers(1, 8)) * ts,
                                         rng.uniform(0.0, t_end)]))
            return {"start": start, "duration": duration}

        for case in range(41):
            ts, t_end = float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.5, 3.0))
            if case == 40:  # more samples than the loop converts to floats at a time
                ts, t_end = 0.001, (CSV_BLOCK + 2) * 0.001
            r1, r2 = (SetpointPulse(amplitude=float(rng.choice([-0.0, 0.4, -0.3])),
                                    **window(ts, t_end)) for _ in range(2))
            dist = DisturbanceProfile(magnitude=float(rng.uniform(-90.0, 90.0)),
                                      target=str(rng.choice(["tank1", "tank2", "both"])),
                                      **window(ts, t_end))
            for linear_plant in (False, True):
                sc = make_scenario(ts=ts, t_end=t_end, setpoints=(r1, r2), disturbance=dist,
                                   substeps=1, linear_plant=linear_plant)
                op = make_operating_point(sc.params, *sc.op_levels)
                log = run_closed_loop(sc)
                times = [k * ts for k in range(sc.n_samples())]
                at = (case, linear_plant)
                assert hexes(log.t) == hexes(times), at
                assert hexes(log.r1) == hexes(setpoint_value(r1, t) for t in times), at
                assert hexes(log.r2) == hexes(setpoint_value(r2, t) for t in times), at
                assert hexes(log.u3) == hexes(disturbance_flow(dist, op, t) for t in times), at
                routed = [disturbance_inflows(dist, op, t) for t in times]
                assert hexes(log.fi1_abs) == hexes(op.fi1_bar + u + d for u, (d, _)
                                                   in zip(log.u1.tolist(), routed)), at
                assert hexes(log.fi2_abs) == hexes(op.fi2_bar + u + d for u, (_, d)
                                                   in zip(log.u2.tolist(), routed)), at

    def test_determinism_bit_identical(self):
        a = run_closed_loop(DEFAULT_SCENARIO).to_csv_text()
        b = run_closed_loop(DEFAULT_SCENARIO).to_csv_text()
        assert a == b

    def test_longer_horizon_keeps_zero_offset(self):
        sc = make_scenario(mpc=MpcConfig(15, 3, 1.0))
        log = run_closed_loop(sc)
        assert abs(log.h1[-1]) < 1e-3 and abs(log.h2[-1]) < 1e-3
        m = summarize(log, sc)
        assert all(s.settled for s in m.outputs["h1"])

    def test_linear_plant_diagnostic_mode(self):
        sc = make_scenario(linear_plant=True, t_end=6.0,
                           setpoints=constant_setpoints(0.3, 0.2),
                           disturbance=NO_DISTURBANCE)
        log = run_closed_loop(sc)
        assert abs(log.h1[-1] - 0.3) < 1e-6
        assert abs(log.h2[-1] - 0.2) < 1e-6

    @pytest.mark.parametrize("clamp", [False, True])
    def test_linear_plant_integrates_the_logged_feed(self, clamp):
        # h(k+1) = Ad h(k) + Bd (fi_abs(k) - fi_bar): the sampled model is driven
        # by the feed the log shows, floored under the clamp
        sc = make_scenario(linear_plant=True, clamp_flows=clamp,
                           disturbance=DisturbanceProfile(8.0, 2.0, -150.0, "tank1"))
        op = make_operating_point(sc.params, *sc.op_levels)
        disc = zoh_discretize(linearize(sc.params, op), sc.ts)
        log = run_closed_loop(sc)
        h = np.column_stack([log.h1, log.h2])
        feed = np.column_stack([log.fi1_abs - op.fi1_bar, log.fi2_abs - op.fi2_bar])
        residual = h[1:] - h[:-1] @ disc.a.T - feed[:-1] @ disc.b.T
        assert np.max(np.abs(residual)) <= 1e-12
        assert (np.min(log.fi1_abs) == 0.0) == clamp

    def test_flow_clamp_floors_feeds(self, caplog):
        # a -200% feed pulse drives the absolute tank-1 feed negative
        dist = DisturbanceProfile(start=1.0, duration=1.0, magnitude=-200.0, target="tank1")
        free = make_scenario(disturbance=dist, t_end=4.0,
                             setpoints=(SetpointPulse(), SetpointPulse()))
        assert np.min(run_closed_loop(free).fi1_abs) < 0

        clamped = make_scenario(disturbance=dist, t_end=4.0,
                                setpoints=(SetpointPulse(), SetpointPulse()),
                                clamp_flows=True)
        with caplog.at_level(logging.WARNING, logger="tankmpc.loop"):
            log = run_closed_loop(clamped)
        assert np.min(log.fi1_abs) >= 0.0
        assert any("clamp" in rec.message for rec in caplog.records)

    def test_flow_clamp_does_not_wind_up(self):
        # setpoints far below the operating point floor the tank-1 feed; the
        # controller remembers the applied flow, so h1 does not overshoot
        sc = make_scenario(clamp_flows=True, setpoints=(SetpointPulse(-2.0, 0.5, 5.0),
                                                        SetpointPulse(-1.5, 0.5, 5.0)))
        log = run_closed_loop(sc)
        assert np.min(log.fi1_abs) == 0.0 and np.min(log.fi2_abs) >= 0.0
        (edge,) = [s for s in summarize(log, sc).outputs["h1"] if s.t_edge == 0.5]
        assert edge.settled and edge.overshoot_pct <= 0.5

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failure_carries_sample_index(self):
        sc = make_scenario(setpoints=(SetpointPulse(1e308, 0.0, math.inf), SetpointPulse()),
                           t_end=1.0)
        with pytest.raises(SimulationError) as exc_info:
            run_closed_loop(sc)
        assert exc_info.value.sample_index >= 0
        assert "sample" in str(exc_info.value)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("linear_plant", [False, True])
    def test_failure_in_a_later_block_names_its_sample(self, linear_plant):
        # a setpoint step of 1e308 past the first CSV_BLOCK samples: the error
        # names the sample whose plant step failed, at its logged time, and the
        # plant's own message
        ts = 0.001
        sc = make_scenario(setpoints=(SetpointPulse(1e308, 4.5, math.inf), SetpointPulse()),
                           ts=ts, t_end=5.0, substeps=1, linear_plant=linear_plant)
        with pytest.raises(SimulationError) as exc_info:
            run_closed_loop(sc)
        k = exc_info.value.sample_index
        assert CSV_BLOCK < 4500 <= k < sc.n_samples() - 1
        cause = "plant state non-finite" + ("" if linear_plant else f" at t={(k + 1) * ts:.6g}")
        assert str(exc_info.value) == f"simulation failed at sample {k} (t={k * ts:.6g} s): {cause}"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            make_scenario(ts=0.0)
        with pytest.raises(ValueError):
            make_scenario(t_end=-1.0)
        with pytest.raises(ValueError):
            make_scenario(substeps=0)


def _memo_scenarios():
    """Variants of the bundled plant, most of them sharing its controller set-up."""
    base = DEFAULT_SCENARIO
    dist = base.disturbance
    zero_a1 = TankParams(base.params.a1, base.params.a2, 0.0, base.params.alpha2)
    minus_zero_a1 = TankParams(base.params.a1, base.params.a2, -0.0, base.params.alpha2)
    return [
        base,
        make_scenario(setpoints=constant_setpoints(0.2, -0.1)),
        make_scenario(setpoints=(SetpointPulse(-2.0, 0.5, 5.0), SetpointPulse(-1.5, 0.5, 5.0))),
        make_scenario(setpoints=(SetpointPulse(-2.0, 0.5, 5.0), SetpointPulse(-1.5, 0.5, 5.0)),
                      clamp_flows=True),
        make_scenario(disturbance=DisturbanceProfile(8.03, 2.0, 10.0, "tank1")),
        make_scenario(disturbance=DisturbanceProfile(1.0, 1.0, -200.0, "both"), clamp_flows=True),
        make_scenario(disturbance=DisturbanceProfile(2.0, 3.0, 35.0, "tank2")),
        make_scenario(disturbance=DisturbanceProfile(8.0, 2.0, -0.0, "tank1")),
        make_scenario(disturbance=NO_DISTURBANCE),
        make_scenario(linear_plant=True),
        make_scenario(linear_plant=True, clamp_flows=True,
                      disturbance=DisturbanceProfile(8.0, 2.0, -150.0, "tank1")),
        make_scenario(t_end=3.0),
        make_scenario(mpc=MpcConfig(10, 3, 0.5)),
        make_scenario(mpc=MpcConfig(10, 3, 0.01)),
        make_scenario(mpc=MpcConfig(20, 3, 1.0)),
        make_scenario(mpc=MpcConfig(20, 5, 0.01)),
        make_scenario(ts=0.1, t_end=8.0),
        make_scenario(ts=0.025, t_end=4.0, substeps=2),
        make_scenario(params=zero_a1, disturbance=dist, t_end=4.0),
        make_scenario(params=minus_zero_a1, disturbance=dist, t_end=4.0),
        make_scenario(params=minus_zero_a1, disturbance=dist, t_end=4.0, linear_plant=True),
    ]


#: A plant no scenario above shares, run to force a fresh controller set-up.
OTHER_PLANT = make_scenario(params=TankParams(0.2, 0.16, 2.1, 1.8), t_end=0.5)


def _log_bytes(log):
    return [getattr(log, name).tobytes() for name in log.COLUMNS]


class TestControllerMemo:
    def test_logs_independent_of_the_runs_before(self):
        scenarios = _memo_scenarios()
        expected = []
        for sc in scenarios:
            run_closed_loop(OTHER_PLANT)
            expected.append(_log_bytes(run_closed_loop(sc)))
        rng = np.random.default_rng(6)
        for _ in range(2):
            order = rng.permutation(len(scenarios))
            for i in order:
                assert _log_bytes(run_closed_loop(scenarios[i])) == expected[i], i

    def test_one_set_up_per_plant(self, monkeypatch):
        import tankmpc.loop as loop

        builds = []
        real = loop.build_prediction

        def counting(aug, cfg):
            builds.append(cfg)
            return real(aug, cfg)

        monkeypatch.setattr(loop, "build_prediction", counting)
        for amplitude in (0.1, 0.2, 0.3, 0.4, 0.5):
            run_closed_loop(make_scenario(mpc=MpcConfig(10, 3, 0.777), t_end=1.0,
                                          setpoints=constant_setpoints(amplitude, 0.0)))
        assert len(builds) == 1

        changed = make_scenario(mpc=MpcConfig(10, 3, 0.778), t_end=1.0)
        run_closed_loop(changed)
        assert len(builds) == 2
        run_closed_loop(changed)
        assert len(builds) == 2

        # keys compare bit for bit: the sign of a zero plant constant counts
        for alpha1 in (0.0, -0.0, -0.0):
            params = TankParams(DEFAULT_PARAMS.a1, DEFAULT_PARAMS.a2, alpha1, DEFAULT_PARAMS.alpha2)
            run_closed_loop(make_scenario(mpc=changed.mpc, params=params, t_end=0.5))
        assert len(builds) == 4
        run_closed_loop(changed)
        assert len(builds) == 5

        # a set-up that raises (tank 2 empty at the operating point) leaves
        # the previous entry in place
        with pytest.raises(ValueError):
            run_closed_loop(make_scenario(op_levels=(4.0, 0.0)))
        run_closed_loop(changed)
        assert len(builds) == 5

    def test_one_model_per_sweep(self, monkeypatch, tmp_path, capsys):
        # a tuning sweep shares the sampled model across its values, and
        # builds the prediction gains once per value
        import tankmpc.cli as cli
        import tankmpc.loop as loop

        run_closed_loop(OTHER_PLANT)
        calls = {"zoh_discretize": 0, "build_prediction": 0}

        def counting(name):
            real = getattr(loop, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(loop, name, counting(name))
        code = cli.main(["sweep", "--param", "rw", "--values", "0.5,1,2,4,8",
                         "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        assert calls == {"zoh_discretize": 1, "build_prediction": 5}


class TestControlLaw:
    def test_logged_moves_are_the_reference_step(self):
        # the loop applies receding_step's law inline; replaying each log
        # through receding_step, with the loop's clamp memory, must give its
        # moves bit for bit (clamp on and off, both plants, -0.0 parameters)
        for j, sc in enumerate(_memo_scenarios()):
            op = make_operating_point(sc.params, *sc.op_levels)
            disc = zoh_discretize(linearize(sc.params, op), sc.ts)
            pred = build_prediction(augment(disc), sc.mpc)
            log = run_closed_loop(sc)
            ctrl = controller_start((0.0, 0.0), n_inputs=2)
            moves = []
            for t, h1, h2, r1, r2 in zip(*(getattr(log, c).tolist()
                                           for c in ("t", "h1", "h2", "r1", "r2"))):
                ctrl, (u1, u2) = receding_step(ctrl, pred, (h1, h2), (r1, r2))
                moves.append((u1.hex(), u2.hex()))
                d1, d2 = disturbance_inflows(sc.disturbance, op, t)
                if sc.clamp_flows and op.fi1_bar + u1 + d1 < 0:
                    u1 = 0.0 - op.fi1_bar - d1
                if sc.clamp_flows and op.fi2_bar + u2 + d2 < 0:
                    u2 = 0.0 - op.fi2_bar - d2
                ctrl = ctrl._replace(prev_control=(u1, u2))
            assert moves == [(u1.hex(), u2.hex()) for u1, u2
                             in zip(log.u1.tolist(), log.u2.tolist())], j


class TestLinearClosedLoop:
    """Linear-plant runs with no clamp against the closed loop written as one
    linear recursion on (h, previous h, previous u), which shares no code
    with the inline law, the linear kernel or the feed columns."""

    @pytest.mark.parametrize("target", ["tank1", "tank2", "both"])
    @pytest.mark.parametrize("rw, npred, nctl, ts", [(0.01, 3, 1, 0.05), (1.0, 10, 3, 0.05),
                                                     (100.0, 40, 10, 0.05), (0.01, 40, 10, 0.2),
                                                     (100.0, 3, 1, 0.2)])
    def test_log_is_the_linear_recursion(self, rw, npred, nctl, ts, target):
        sc = make_scenario(linear_plant=True, mpc=MpcConfig(npred, nctl, rw), ts=ts,
                           disturbance=DisturbanceProfile(start=8.0, duration=2.0,
                                                          magnitude=50.0, target=target))
        op = make_operating_point(sc.params, *sc.op_levels)
        disc = zoh_discretize(linearize(sc.params, op), ts)
        pred = build_prediction(augment(disc), sc.mpc)
        m = closed_loop_matrices(disc, pred)[0]
        assert np.max(np.abs(np.linalg.eigvals(m))) < 1.0  # the loop is stable

        log = run_closed_loop(sc)
        times = log.t.tolist()
        r = [[setpoint_value(p, t) for p in sc.setpoints] for t in times]
        d = [disturbance_feeds(sc.disturbance, op, t) for t in times]
        h, u, fi = linear_closed_loop(disc, pred, (op.fi1_bar, op.fi2_bar), r, d)
        for name, want in (("h1", h[:, 0]), ("h2", h[:, 1]), ("u1", u[:, 0]),
                           ("u2", u[:, 1]), ("fi1_abs", fi[:, 0]), ("fi2_abs", fi[:, 1])):
            assert np.max(np.abs(getattr(log, name) - want)) <= 1e-12, name

    def test_dc_gain_is_identity_and_kx_y_block_is_kr(self):
        # the velocity form's offset-free claim, stated on the loop itself:
        # a constant setpoint r is reached as h = r, whatever the plant and
        # tuning, and the law's gain on y is its gain on r
        rng = np.random.default_rng(20261021)
        for case in range(300):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            npred = int(rng.integers(1, 41))
            cfg = MpcConfig(npred, int(rng.integers(1, npred + 1)),
                            float(10.0 ** rng.uniform(-3.0, 3.0)))
            disc = zoh_discretize(linearize(params, op), float(rng.uniform(0.01, 0.5)))
            pred = build_prediction(augment(disc), cfg)
            kx_y = pred.kx[:, disc.n_states:]
            assert np.max(np.abs(kx_y - pred.kr)) <= 1e-12 * np.max(np.abs(pred.kr)), case
            m, n_w, _, _ = closed_loop_matrices(disc, pred)
            dc = np.linalg.solve(np.eye(m.shape[0]) - m, n_w[:, :2])[: disc.n_states]
            assert np.max(np.abs(dc - np.eye(2))) <= 1e-12, case


class TestSmallSignal:
    """The nonlinear closed loop tends to the linear one at second order in
    the input amplitude: the bundled inputs scaled by s, the largest level
    deviation from linear_closed_loop falls by about 4 per halving of s."""

    @staticmethod
    def deviations(setpoint_scale, pulse_scale):
        base = DEFAULT_SCENARIO
        out = []
        for s in (0.1, 0.05, 0.025):
            setpoints = tuple(dataclasses.replace(p, amplitude=p.amplitude * s * setpoint_scale)
                              for p in base.setpoints)
            dist = dataclasses.replace(base.disturbance,
                                       magnitude=base.disturbance.magnitude * s * pulse_scale)
            sc = make_scenario(setpoints=setpoints, disturbance=dist)
            op = make_operating_point(sc.params, *sc.op_levels)
            disc = zoh_discretize(linearize(sc.params, op), sc.ts)
            pred = build_prediction(augment(disc), sc.mpc)
            log = run_closed_loop(sc)
            times = log.t.tolist()
            r = [[setpoint_value(p, t) for p in setpoints] for t in times]
            d = [disturbance_feeds(dist, op, t) for t in times]
            h = linear_closed_loop(disc, pred, (op.fi1_bar, op.fi2_bar), r, d)[0]
            out.append(max(np.max(np.abs(log.h1 - h[:, 0])), np.max(np.abs(log.h2 - h[:, 1]))))
        return out

    def test_setpoints_only_converge_at_second_order(self):
        devs = self.deviations(1.0, 0.0)
        assert all(a >= 3.5 * b > 0.0 for a, b in zip(devs, devs[1:])), devs  # measured 3.97

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10: each RK4 step reads its last stage "
                       "with the next interval's feed, so a pulse edge leaks dt/6 of the pulse "
                       "into the step before it, a first-order error (measured ratio 2.00)")
    def test_disturbance_only_converges_at_second_order(self):
        devs = self.deviations(0.0, 1.0)
        assert all(a >= 3.5 * b > 0.0 for a, b in zip(devs, devs[1:])), devs


class TestCsvContract:
    def test_header_and_shape(self):
        text = run_closed_loop(make_scenario(t_end=0.25)).to_csv_text()
        lines = text.split("\n")
        assert lines[0] == "t,r1,r2,h1,h2,u1,u2,u3,fi1_abs,fi2_abs"
        assert lines[-1] == ""  # single trailing newline
        assert len(lines) == 1 + 6 + 1  # header + rows + trailing

    def test_nine_significant_digits(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        row = log.to_csv_text().split("\n")[162]  # inside the disturbance pulse
        fields = row.split(",")
        assert fields[7] == format(0.1 * 1.5556349186104048, ".9g")
        assert all(len(f.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 10
                   for f in fields)


    def test_block_encoder_matches_per_value_format(self):
        """Byte for byte the per-value encoder, across a block boundary and
        on the values whose spelling differs most between formatters."""
        n = CSV_BLOCK + 7
        rng = np.random.default_rng(13)
        cols = {name: rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                for name in SimulationLog.COLUMNS}
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1.8e308,
                   -1.8e308, 0.1, 123456789.5]
        for j, v in enumerate(special):
            name = SimulationLog.COLUMNS[j % len(SimulationLog.COLUMNS)]
            cols[name][j] = v
            cols[name][CSV_BLOCK - 1 + j % 2] = v
        empty = SimulationLog(**{name: np.zeros(0) for name in SimulationLog.COLUMNS})
        # held columns in runs: edges at row 0, at either side of the block
        # boundary and at the last row; 0.0 and -0.0 only; runs of nan
        r1 = np.full(n, 0.5)
        r1[0], r1[CSV_BLOCK - 1], r1[CSV_BLOCK:], r1[-1] = -0.3, 0.25, 0.1, 2.0
        r2 = np.where(np.arange(n) // 3 % 2 == 0, 0.0, -0.0)
        r2[CSV_BLOCK - 1 : CSV_BLOCK + 1] = -0.0
        u3 = np.full(n, math.nan)
        u3[100:200], u3[CSV_BLOCK:-1] = 0.25, -0.0
        held = SimulationLog(**{**cols, "r1": r1, "r2": r2, "u3": u3})
        for log in (SimulationLog(**cols), empty, held):
            got, want = log.to_csv_text().split("\n"), csv_text_by_value(log).split("\n")
            diff = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
            same = len(got) == len(want) and not diff  # a bare string diff of 4000 lines is slow
            assert same, f"{len(got)} vs {len(want)} lines, first differing line {diff[:1]}"


class TestCsvBlockMemo:
    """`to_csv_text` reuses the block formats it made for the last log when
    a log has the bits in t, r1, r2 and u3 of the log encoded before it."""

    @staticmethod
    def _variants(n):
        rng = np.random.default_rng(29)
        t = np.arange(n) * 0.05
        r1 = np.where((t >= 0.5) & (t < 5.5), 0.5, 0.0)
        r2 = np.where(t >= 2.0, -0.3, 0.0)
        u3 = np.where((t >= 1.0) & (t < 3.0), 0.155, 0.0)
        base = {"t": t, "r1": r1, "r2": r2, "u3": u3,
                **{name: rng.standard_normal(n) for name in _LOOP_COLUMNS}}

        def variant(**changes):
            return SimulationLog(**{**base, **changes})

        k = n - 1 - n // 3  # in a middle block of a four-block log

        def at_k(col, value):
            col = col.copy()
            col[k] = value
            return col

        return {
            "base": variant(),
            "same signals, other loop columns": variant(h1=rng.standard_normal(n),
                                                        fi2_abs=rng.standard_normal(n)),
            "u3 differs in one row": variant(u3=at_k(u3, 0.25)),
            "r1 differs in one row": variant(r1=at_k(r1, 0.4)),
            "r2 -0.0 for 0.0": variant(r2=np.where(r2 == 0.0, -0.0, r2)),
            "t one ulp up": variant(t=at_k(t, np.nextafter(t[k], np.inf))),
            "shorter": SimulationLog(**{name: col[: n - 5] for name, col in base.items()}),
            # its one block has the signals of the base's last block, but a header
            "last block alone": SimulationLog(**{name: col[(n - 1) // CSV_BLOCK * CSV_BLOCK :]
                                                 for name, col in base.items()}),
            # its second block, where it has one, repeats the first, header aside
            "first block twice": SimulationLog(**{name: np.tile(col[:CSV_BLOCK], 2)
                                                  for name, col in base.items()}),
        }

    @pytest.mark.parametrize("n", [301, 3 * CSV_BLOCK + 9], ids=["one block", "four blocks"])
    def test_alternating_logs_match_per_value_format(self, n):
        logs = self._variants(n)
        want = {name: csv_text_by_value(log) for name, log in logs.items()}
        names = list(logs)
        order = [names[i] for i in np.random.default_rng(31).integers(len(names), size=30)]
        order += [name for pair in zip(names, ["base"] * len(names)) for name in pair]
        order += [name for name in names for _ in range(3)]  # reused from the second on
        for name in order:
            assert logs[name].to_csv_text() == want[name], name

    @pytest.mark.parametrize("change", ["r2 -0.0 for 0.0", "t one ulp up"])
    def test_bitwise_key(self, monkeypatch, change):
        import tankmpc.loop as loop

        made = []  # the arguments of each block format made
        real = loop._block_format
        monkeypatch.setattr(loop, "_block_format", lambda *args: made.append(args) or real(*args))
        monkeypatch.setattr(loop, "_last", {})
        logs = self._variants(301)
        for name in ("base", "base", "same signals, other loop columns"):
            logs[name].to_csv_text()
        assert len(made) == 1  # made at the first encode, then reused
        for name in (change, "base", "base"):
            logs[name].to_csv_text()
        assert len(made) == 3  # the change misses once, and the base after it


    def test_second_value_of_a_long_sweep_builds_no_block_format(self, monkeypatch, tmp_path,
                                                               capsys):
        # a sim.ts = 0.001 log is 15001 rows, four blocks: the first sweep
        # value builds their formats, and the second reuses all four
        import tankmpc.cli as cli
        import tankmpc.loop as loop

        made = []
        real = loop._block_format
        monkeypatch.setattr(loop, "_block_format", lambda *args: made.append(args) or real(*args))
        monkeypatch.setattr(loop, "_last", {})
        conf = tmp_path / "long.conf"
        conf.write_text("sim.ts = 0.001\n")
        for value, builds in (("1", 4), ("2", 4)):
            code = cli.main(["sweep", "--config", str(conf), "--param", "rw", "--values", value,
                             "--out-dir", str(tmp_path / value)])
            assert code == 0 and len(made) == builds
        capsys.readouterr()
        assert 3 * CSV_BLOCK < 15001 < 4 * CSV_BLOCK
        text = (tmp_path / "2" / "rw_2.csv").read_text()
        assert text == csv_text_by_value(run_closed_loop(loads_config(
            "sim.ts = 0.001\nmpc.rw = 2\n").scenario))


class TestRecall:
    """`loop._recall` keeps one entry per kind, keyed bit for bit."""

    def test_keys_compare_bit_for_bit(self, monkeypatch):
        import tankmpc.loop as loop

        monkeypatch.setattr(loop, "_last", {})
        builds = []
        for key in (repr(0.0), repr(-0.0), repr(-0.0), repr(0.0)):
            loop._recall("x", key, lambda: builds.append(key) or len(builds))
        assert builds == ["0.0", "-0.0", "0.0"]

    def test_kinds_do_not_evict_each_other(self, monkeypatch):
        # a CSV encode between two runs of one plant and tuning keeps the gains
        import tankmpc.loop as loop

        builds = []
        real = loop.build_prediction
        monkeypatch.setattr(loop, "build_prediction",
                            lambda aug, cfg: builds.append(cfg) or real(aug, cfg))
        monkeypatch.setattr(loop, "_last", {})
        sc = make_scenario(t_end=1.0)
        run_closed_loop(sc).to_csv_text()
        run_closed_loop(sc).to_csv_text()
        assert len(builds) == 1
        assert set(loop._last) == {"model", "gains", "csv"}

    def test_raising_build_keeps_the_old_entry(self, monkeypatch):
        import tankmpc.loop as loop

        monkeypatch.setattr(loop, "_last", {})
        assert loop._recall("x", "a", lambda: 1) == 1

        def fail():
            raise ValueError("no build")

        with pytest.raises(ValueError):
            loop._recall("x", "b", fail)
        assert loop._recall("x", "a", fail) == 1
        assert loop._last == {"x": ("a", 1)}


class TestSummarize:
    def test_empty_log_rejected(self):
        empty = SimulationLog(**{name: np.empty(0) for name in SimulationLog.COLUMNS})
        with pytest.raises(ValueError, match="empty simulation log"):
            summarize(empty, DEFAULT_SCENARIO)

    def test_already_at_setpoint(self):
        sc = make_scenario(setpoints=(SetpointPulse(), SetpointPulse()),
                           disturbance=NO_DISTURBANCE, t_end=2.0)
        m = summarize(run_closed_loop(sc), sc)
        for name in ("h1", "h2"):
            (seg,) = m.outputs[name]
            assert seg.settled and seg.settling_time == 0.0
            assert seg.overshoot_pct == 0.0 and seg.steady_state_error == 0.0

    def test_bundled_scenario_metrics_finite(self):
        log = run_closed_loop(DEFAULT_SCENARIO)
        m = summarize(log, DEFAULT_SCENARIO)
        for name in ("h1", "h2"):
            segs = m.outputs[name]
            assert len(segs) == 3  # initial hold, pulse up, pulse down
            assert all(s.settled for s in segs)
            rising = segs[1]
            assert rising.rise_time is not None and 0 < rising.rise_time < 1.0
            assert 0 < rising.settling_time < 2.0
        assert m.max_control_step["u1"] > 0

    def test_segments_and_settling_match_loops(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            runs = rng.integers(1, 3 * SETTLE_DWELL, size=int(rng.integers(1, 6)))
            r = np.repeat(rng.choice([0.0, 0.5, -0.3], size=runs.size), runs)
            # a share of samples, from none to all, leaves the band
            out = rng.random(r.size) < rng.choice([0.0, 0.05, 0.3, 1.0])
            y = r + np.where(out, 0.1, 1e-3) * rng.standard_normal(r.size)
            t = np.arange(r.size) * 0.05
            zero = np.zeros(r.size)
            log = SimulationLog(t, r, zero, y, zero, zero, zero, zero, zero, zero)
            got = [(m.t_edge, m.settling_time)
                   for m in summarize(log, DEFAULT_SCENARIO).outputs["h1"]]
            assert got == settling_by_loop(t, r, y, SETTLE_DWELL)

    def test_step_below_the_level_resolution_reports_no_step(self):
        # a 5e-324 m step cannot be told from rounding: no rise time, 0 %
        # overshoot (it read inf), and every field finite
        sc = make_scenario(setpoints=(SetpointPulse(5e-324, 0.5, 5.0), SetpointPulse(0.3, 0.5, 5.0)))
        m = summarize(run_closed_loop(sc), sc)
        rising = m.outputs["h1"][1]
        assert rising.step == 5e-324
        assert rising.rise_time is None and rising.overshoot_pct == 0.0
        for segs in m.outputs.values():
            for seg in segs:
                assert all(math.isfinite(v) for v in dataclasses.astuple(seg)[1:]
                           if v is not None), seg

    def test_every_field_finite_on_finite_logs(self):
        # steps and excursions from subnormal to large, none overflowing a difference
        rng = np.random.default_rng(29)
        for case in range(300):
            runs = rng.integers(1, 3 * SETTLE_DWELL, size=int(rng.integers(1, 6)))
            levels = rng.choice([-1.0, 0.0, 1.0], size=runs.size) * 10.0 ** rng.uniform(
                -323.5, 100.0, size=runs.size)
            r = np.repeat(levels, runs)
            y = r + 10.0 ** rng.uniform(-323.5, 100.0) * rng.standard_normal(r.size)
            t = np.arange(r.size) * 0.05
            zero = np.zeros(r.size)
            log = SimulationLog(t, r, zero, y, zero, zero, zero, zero, zero, zero)
            for seg in summarize(log, DEFAULT_SCENARIO).outputs["h1"]:
                assert all(math.isfinite(v) for v in dataclasses.astuple(seg)[1:]
                           if v is not None), (case, seg)

    def test_unsettled_run_is_marked_not_crashed(self):
        sc = make_scenario(t_end=0.7, setpoints=(
            SetpointPulse(0.5, 0.5, 10.0), SetpointPulse(0.3, 0.5, 10.0)))
        m = summarize(run_closed_loop(sc), sc)
        rising = m.outputs["h1"][-1]
        assert not rising.settled
        assert rising.settling_time is None
