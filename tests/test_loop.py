"""Closed-loop behavior: tracking, rejection, logging, metrics."""

import dataclasses
import logging
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from tankmpc.loop import (
    _LOOP_COLUMNS,
    CSV_BLOCK,
    SETTLE_DWELL,
    _check_rk4_step,
    _controller,
    _rk4_stable,
)
from tankmpc.plant import (
    NO_DISTURBANCE,
    _routed_pulse,
    disturbance_flow,
    disturbance_inflows,
    make_loop,
)

from test_acceptance import HOLD_CONFIG

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


def stable_substeps(params, op, ts, substeps):
    """substeps, or the fewest above it whose RK4 step is stable on the
    plant's fastest mode, which run_closed_loop refuses otherwise."""
    rate = float(np.abs(np.linalg.eigvals(linearize(params, op).a)).max())
    while not _rk4_stable(ts, substeps, rate):
        substeps += 1
    return substeps


def body_in_blocks(patch, block):
    """Have run_closed_loop's one call of its loop body run the samples in
    blocks of `block` instead, each block a call of its own on its slice of
    the columns, the cuts and the rows, from the carry the call before it
    returned, and final only on the last: a block of one sample never
    takes the stretch or fixed-point path."""
    import tankmpc.loop as loop

    def loop_in_blocks(*args):
        run = make_loop(*args)

        def blocks(t, r1, r2, d1, d2, cuts, carry, rows, final):
            n = t.size
            for i in range(0, n, block):
                j = min(i + block, n)
                carry = run(t[i:j], r1[i:j], r2[i:j], d1[i:j], d2[i:j],
                            {k - i: c for k, c in cuts.items() if i <= k < j}, carry, rows[i:j],
                            final and j == n)
            return carry
        return blocks

    patch.setattr(loop, "make_loop", loop_in_blocks)


def oracle_run(rng, case, linear_plant):
    """A random scenario, its run and the sample-by-sample oracle's logged
    (h1, h2) and (u1, u2), as (scenario, log, hs, us): the clamp on in
    odd cases, pulse and setpoint edges on sample times, on stage times and
    between them, 1-16 substeps, setpoints deep enough to empty a tank, and
    +-0.0 inputs."""
    params, l1, l2 = random_tank_params(rng)
    outlet, coupling = params.alpha2 * math.sqrt(l2), params.alpha1 * math.sqrt(l1 - l2)
    if outlet < coupling:
        # Scenario refuses a negative steady tank-2 feed: the coupling is cut to half the outlet
        params = dataclasses.replace(params, alpha1=params.alpha1 * (outlet / coupling / 2))
    op = make_operating_point(params, l1, l2)
    ts = float(rng.choice([0.05, 0.01, rng.uniform(0.01, 0.2)]))
    substeps = int(rng.integers(1, 17))
    if not linear_plant:
        substeps = stable_substeps(params, op, ts, substeps)
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
        return {"start": start, "duration": math.inf if rng.random() < 0.1 else end - start}

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
                  clamp_flows=bool(case % 2), linear_plant=linear_plant)
    n = sc.n_samples()
    disc = zoh_discretize(linearize(params, op), ts)
    pred = build_prediction(augment(disc), mpc)
    log = run_closed_loop(sc)
    r = [[setpoint_value(p, k * ts) for p in setpoints] for k in range(n)]
    hs, us = closed_loop_by_samples(params, op, pred, ts, substeps, dist, sc.clamp_flows, r,
                                    linear_model=disc if linear_plant else None)
    return sc, log, hs, us


def assert_h_and_u(log, hs, us, case):
    """The log's h1, h2, u1 and u2 equal the oracle's, in hex."""
    for j, name in enumerate(("h1", "h2")):
        assert hexes(getattr(log, name)) == hexes(h[j] for h in hs), (case, name)
    for j, name in enumerate(("u1", "u2")):
        assert hexes(getattr(log, name)) == hexes(u[j] for u in us), (case, name)


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
        # the loop owns the clock: the body steps each sample, on either
        # plant, from the time the loop hands it, which is the logged k * ts
        import tankmpc.loop as loop

        entries = []

        def recording_loop(*args):
            run = make_loop(*args)

            def recorded(t, *rest):
                final = rest[-1]
                entries.extend(t.tolist()[:-1] if final else t.tolist())
                return run(t, *rest)
            return recorded

        monkeypatch.setattr(loop, "make_loop", recording_loop)
        for linear_plant in (False, True):
            entries.clear()
            log = run_closed_loop(make_scenario(ts=ts, linear_plant=linear_plant))
            assert hexes(entries) == hexes(log.t[:-1].tolist()), linear_plant

    def test_pulse_end_on_a_sample_time_reaches_the_plant_as_logged(self):
        # the bundled pulse ends at t = 10.0 = 200 ts, and the log shows it off
        # from sample 200: the step from sample 200 is the undisturbed one
        sc = DEFAULT_SCENARIO
        log = run_closed_loop(sc)
        k = 200
        assert log.t[k] == 10.0 == sc.disturbance.start + sc.disturbance.duration
        assert log.u3[k] == 0.0 < log.u3[k - 1]
        op, _, pred, _ = _controller(sc)
        d = np.array([disturbance_feeds(sc.disturbance, op, t) for t in log.t.tolist()])
        run = make_loop(sc.params, op, sc.ts, sc.substeps, sc.clamp_flows, pred.gains)
        carry = run(log.t[:k], log.r1[:k], log.r2[:k], d[:k, 0], d[:k, 1], {}, None,
                    np.empty((k, 4)), False)
        row = np.empty((1, 4))
        x1, x2, *_ = run(log.t[k : k + 1], log.r1[k : k + 1], log.r2[k : k + 1], np.zeros(1),
                         np.zeros(1), {}, carry, row, False)
        assert hexes(row[0]) == hexes([getattr(log, c)[k] for c in ("h1", "h2", "u1", "u2")])
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
            sc, log, hs, us = oracle_run(rng, case, linear_plant=False)
            assert_h_and_u(log, hs, us, case)
            l1, l2 = sc.op_levels
            emptied += bool(np.any(log.h1 == -l1) or np.any(log.h2 == -l2))
            clamped += sc.clamp_flows and bool(np.any(log.fi1_abs == 0.0)
                                               or np.any(log.fi2_abs == 0.0))
        assert emptied >= 10 and clamped >= 10, (emptied, clamped)

    def test_linear_plant_h_and_u_match_the_sample_by_sample_oracle(self):
        # the loop body's law, clamp memory and sampled-model step against
        # receding_step and linear_step applied one sample at a time, in hex,
        # on scenarios drawn as above: clamp on in half of them, edges on
        # sample times and between them, +-0.0 inputs
        rng = np.random.default_rng(20261023)
        clamped = 0
        for case in range(240):
            sc, log, hs, us = oracle_run(rng, case, linear_plant=True)
            assert_h_and_u(log, hs, us, case)
            clamped += sc.clamp_flows and bool(np.any(log.fi1_abs == 0.0)
                                               or np.any(log.fi2_abs == 0.0))
        assert clamped >= 10, clamped

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
            if case == 40:  # more samples than the CSV encoder formats at a time
                ts, t_end = 0.001, (CSV_BLOCK + 2) * 0.001
            r1, r2 = (SetpointPulse(amplitude=float(rng.choice([-0.0, 0.4, -0.3])),
                                    **window(ts, t_end)) for _ in range(2))
            dist = DisturbanceProfile(magnitude=float(rng.uniform(-90.0, 90.0)),
                                      target=str(rng.choice(["tank1", "tank2", "both"])),
                                      **window(ts, t_end))
            for linear_plant in (False, True):
                sc = make_scenario(ts=ts, t_end=t_end, setpoints=(r1, r2), disturbance=dist,
                                   substeps=2, linear_plant=linear_plant)
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

    @pytest.mark.parametrize("linear_plant", [False, True])
    def test_clamp_report_names_the_first_floored_sample(self, caplog, linear_plant):
        # one line naming the first sample whose unfloored feed fi_bar + u + d,
        # from the sample-by-sample oracle's moves, is negative, at its time or,
        # on the nonlinear plant, from a pulse edge inside a sample it steps;
        # no line when no feed is or the clamp is off; with the loop body
        # called once and in blocks of 7 and 1 samples
        rng = np.random.default_rng(20261025)
        reported = quiet = 0
        for case in range(60):
            sc, _, _, us = oracle_run(rng, case, linear_plant)
            op = make_operating_point(sc.params, *sc.op_levels)
            dist, ts, last = sc.disturbance, sc.ts, len(us) - 1

            def feed_times(k):
                ends = (dist.start, dist.start + dist.duration)
                edges = [] if linear_plant or k == last else [
                    e for e in ends if k * ts < e < (k + 1) * ts]
                return [k * ts, *edges]

            floored = [k for k, (u1, u2) in enumerate(us) for at in feed_times(k)
                       for d1, d2 in [disturbance_feeds(dist, op, at)]
                       if op.fi1_bar + u1 + d1 < 0 or op.fi2_bar + u2 + d2 < 0]
            expected = [f"feed-flow clamp active from sample {k} (t={k * sc.ts:.4g} s)"
                        for k in floored[:1] if sc.clamp_flows]
            for block in (None, 7, 1):
                caplog.clear()
                with pytest.MonkeyPatch.context() as patch, \
                        caplog.at_level(logging.WARNING, logger="tankmpc"):
                    if block:
                        body_in_blocks(patch, block)
                    run_closed_loop(sc)
                clamps = [rec.message for rec in caplog.records if rec.name == "tankmpc.loop"]
                assert clamps == expected, (case, block)
            reported += bool(expected)
            quiet += sc.clamp_flows and not floored
        # measured 11 runs that clamp, first at samples 1-15, and 19 clamped runs that do not
        assert reported >= 10 and quiet >= 10, (reported, quiet)

    @pytest.mark.parametrize("block", [4096, 7])
    def test_a_failed_run_reports_its_clamp_first(self, monkeypatch, caplog, block):
        # on the linear plant a -150 % pulse from 8 s floors the tank-1 feed
        # from sample 160, and a 1.7e308 setpoint step from 11 s overflows the
        # plant state in sample 221's step: the clamp line, then the error,
        # with the loop body in blocks of 4096 (one call) and of 7 samples
        body_in_blocks(monkeypatch, block)
        sc = loads_config("sim.linear_plant = true\nsim.clamp_flows = true\n"
                          "disturbance.magnitude = -150\nsetpoint.h1.amplitude = 1.7e308\n"
                          "setpoint.h1.start = 11\nsetpoint.h1.duration = inf\n").scenario
        with caplog.at_level(logging.WARNING, logger="tankmpc"), \
                pytest.raises(SimulationError) as exc_info:
            run_closed_loop(sc)
        assert caplog.messages == ["feed-flow clamp active from sample 160 (t=8 s)"]
        assert exc_info.value.sample_index == 221
        assert str(exc_info.value) == ("simulation failed at sample 221 (t=11.05 s): "
                                       "plant state non-finite at t=11.1")

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
        # the plant state overflows in the first substep of sample 0: the first
        # row the loop body wrote is the failed sample's, and no later one
        sc = make_scenario(setpoints=(SetpointPulse(1e308, 0.0, math.inf), SetpointPulse()),
                           t_end=1.0)
        with pytest.raises(SimulationError) as exc_info:
            run_closed_loop(sc)
        assert exc_info.value.sample_index == 0
        assert str(exc_info.value) == ("simulation failed at sample 0 (t=0 s): "
                                       "plant state non-finite at t=0.0125")

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("linear_plant", [False, True])
    def test_failure_late_in_a_long_run_names_its_sample(self, linear_plant):
        # a setpoint step of 1e308 past the first 4096 samples: the error
        # names the sample whose plant step failed, at its logged time, and the
        # plant's own message
        ts = 0.001
        sc = make_scenario(setpoints=(SetpointPulse(1e308, 4.5, math.inf), SetpointPulse()),
                           ts=ts, t_end=5.0, substeps=1, linear_plant=linear_plant)
        with pytest.raises(SimulationError) as exc_info:
            run_closed_loop(sc)
        k = exc_info.value.sample_index
        assert 4096 < 4500 <= k < sc.n_samples() - 1
        cause = f"plant state non-finite at t={(k + 1) * ts:.6g}"
        assert str(exc_info.value) == f"simulation failed at sample {k} (t={k * ts:.6g} s): {cause}"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            make_scenario(ts=0.0)
        with pytest.raises(ValueError):
            make_scenario(t_end=-1.0)
        with pytest.raises(ValueError):
            make_scenario(substeps=0)

    def test_negative_steady_feed_refused_on_the_library_path(self):
        # levels 5.0/2.0 need a steady tank-2 feed of alpha2 sqrt(2) - alpha1 sqrt(3)
        # = -1.12 m^3/s: the Scenario itself refuses them, before any run
        with pytest.raises(ValueError, match=r"^operating\.l1, operating\.l2, plant\.alpha1 and "
                           r"plant\.alpha2 give a negative steady tank-2 feed: alpha2\*sqrt\(l2\) "
                           r"= 2\.68701 < alpha1\*sqrt\(l1 - l2\) = 3\.81051$"):
            dataclasses.replace(DEFAULT_SCENARIO, op_levels=(5.0, 2.0))
        with pytest.raises(ValueError, match=r"^operating levels need l1 > l2 > 0"):
            make_scenario(op_levels=(3.5, 3.5))
        # a zero steady feed is an operating point: tank 2 drains what tank 1 passes
        params = dataclasses.replace(DEFAULT_PARAMS, alpha1=1.0, alpha2=1.0)
        sc = make_scenario(params=params, op_levels=(2.0, 1.0), t_end=1.0)
        assert make_operating_point(params, 2.0, 1.0).fi2_bar == 0.0
        assert np.all(run_closed_loop(sc).fi2_abs >= 0.0)


def run_counting_steps(monkeypatch, sc):
    """run_closed_loop(sc) and the number of samples its loop body stepped:
    the body writes a stepped sample's row with one pack_into of its
    struct.Struct("4d"), and copies a fixed point's row into the rest of
    its stretch without one."""
    import tankmpc.plant as plant

    writes = []

    def counting_struct(fmt):
        packer = struct.Struct(fmt)

        def pack_into(*args):
            writes.append(fmt)
            packer.pack_into(*args)
        return types.SimpleNamespace(pack=packer.pack, pack_into=pack_into)

    with monkeypatch.context() as patch:
        patch.setattr(plant, "struct", types.SimpleNamespace(Struct=counting_struct))
        log = run_closed_loop(sc)
    return log, len(writes)


def held_scenarios(linear_plant):
    """Scenarios of 1001-1501 samples at ts = 0.01 whose closed loop sits at
    exact fixed points for long stretches: at rest, at a fixed point with the
    clamp floor active, with both tanks held empty under the clamp, on +-0.0
    setpoints and pulses, before a pulse edge and a setpoint edge, and the
    bundled inputs."""
    return [make_scenario(ts=0.01, substeps=substeps, t_end=t_end, linear_plant=linear_plant,
                          **fields) for substeps, t_end, fields in [
        (1, 10.0, {"setpoints": constant_setpoints(0.0, 0.0), "disturbance": NO_DISTURBANCE}),
        (1, 12.0, {"setpoints": constant_setpoints(0.0, -4.0), "disturbance": NO_DISTURBANCE,
                   "clamp_flows": True}),
        (1, 12.0, {"setpoints": constant_setpoints(-5.0, -5.0), "disturbance": NO_DISTURBANCE,
                   "clamp_flows": True}),
        (1, 10.0, {"setpoints": (SetpointPulse(-0.0, 0.0, math.inf),
                                 SetpointPulse(-0.0, 2.0, 3.0)),
                   "disturbance": DisturbanceProfile(4.0, 3.0, -0.0, "both")}),
        (2, 15.0, {"setpoints": (SetpointPulse(0.3, 9.0, 3.0), SetpointPulse(-0.2, 9.0, 3.0)),
                   "disturbance": DisturbanceProfile(1.0, 2.005, 20.0, "tank2")}),
        (1, 15.0, {}),
    ]]


class TestFixedPoints:
    """The loop body repeats the row of a sample that left its carry
    unchanged, bit for bit, for the samples after it with the same inputs
    and no split sample, without stepping them."""

    @pytest.mark.parametrize("block", [4096, 400])
    @pytest.mark.parametrize("linear_plant", [False, True])
    def test_held_stretches_match_the_sample_by_sample_oracle(self, monkeypatch, caplog,
                                                             linear_plant, block):
        # in hex against receding_step and the plant applied one sample at a
        # time, with the warnings of the loop body called on one sample at a
        # time, which steps every sample; the body runs in blocks of 4096
        # samples (one call) or of 400, which puts block starts inside held
        # stretches (the run at rest is held across 400 and 800)
        samples = stepped = 0
        for case, sc in enumerate(held_scenarios(linear_plant)):
            op, disc, pred, _ = _controller(sc)
            with caplog.at_level(logging.WARNING, logger="tankmpc"):
                caplog.clear()
                with monkeypatch.context() as patch:
                    body_in_blocks(patch, block)
                    log, steps = run_counting_steps(patch, sc)
                messages = caplog.messages
                caplog.clear()
                with monkeypatch.context() as patch:
                    body_in_blocks(patch, 1)
                    one_by_one = run_closed_loop(sc)
                assert caplog.messages == messages, case
            assert _log_bytes(one_by_one) == _log_bytes(log), case
            r = [[setpoint_value(p, t) for p in sc.setpoints] for t in log.t.tolist()]
            hs, us = closed_loop_by_samples(sc.params, op, pred, sc.ts, sc.substeps,
                                            sc.disturbance, sc.clamp_flows, r,
                                            linear_model=disc if linear_plant else None)
            assert_h_and_u(log, hs, us, case)
            samples += len(log)
            stepped += steps
            if case == 1:
                # the fixed point holds tank 2's feed at the clamp floor
                assert log.fi2_abs[-1] == 0.0 and hexes(hs[-1] + us[-1]) == hexes(hs[-2] + us[-2])
        # the share of samples the body did not step, measured at 0.73 and 0.46
        assert 1 - stepped / samples >= (0.4 if linear_plant else 0.7), (stepped, samples)

    @pytest.mark.parametrize("substeps", [1, 4])
    def test_a_run_at_rest_steps_one_sample(self, monkeypatch, substeps):
        # at rest the first sample leaves the carry as it found it, and the
        # other 1000 repeat it: only its stages take square roots, two each
        roots = []
        sqrt = math.sqrt

        def counting_sqrt(x):
            roots.append(x)
            return sqrt(x)

        monkeypatch.setattr(math, "sqrt", counting_sqrt)
        op, _, pred, _ = _controller(DEFAULT_SCENARIO)
        run = make_loop(DEFAULT_SCENARIO.params, op, 0.01, substeps, False, pred.gains)
        roots.clear()
        n = 1001
        zeros, rows = np.zeros(n), np.empty((n, 4))
        carry = run(np.arange(n) * 0.01, zeros, zeros, zeros, zeros, {}, None, rows, True)
        assert len(roots) == 4 * 2 * substeps
        assert hexes(rows.ravel()) == hexes([0.0] * (4 * n))
        # the remembered measurement is a level, the operating point's
        assert hexes(carry[:6]) == hexes([op.l1, op.l2, op.l1, op.l2, 0.0, 0.0])

    def test_a_carry_changed_only_in_the_sign_of_a_zero_is_no_fixed_point(self):
        # on the linear plant at rest, a carried level of -0.0 logs h1 = -0.0
        # and steps to 0.0: the carry compares equal, but the next sample logs
        # h1 = 0.0, as the same samples run one call each do
        sc = make_scenario(linear_plant=True)
        op, disc, pred, _ = _controller(sc)
        run = make_loop(sc.params, op, sc.ts, 1, False, pred.gains, disc)
        n = 5
        t, zeros = np.arange(n) * sc.ts, np.zeros(n)
        carry = start = (-0.0, 0.0, -0.0, 0.0, 0.0, 0.0)
        rows, by_sample = np.empty((n, 4)), np.empty((n, 4))
        end = run(t, zeros, zeros, zeros, zeros, {}, start, rows, False)
        for k in range(n):
            carry = run(t[k : k + 1], zeros[:1], zeros[:1], zeros[:1], zeros[:1], {}, carry,
                        by_sample[k : k + 1], False)
        assert hexes(rows.ravel()) == hexes(by_sample.ravel())
        assert hexes(end[:6]) == hexes(carry[:6])
        assert hexes(rows[:2, 0]) == hexes([-0.0, 0.0])

    def test_a_tank_emptied_at_every_sample_warns_at_every_sample(self, monkeypatch, caplog):
        # held empty, tank 2 fills by a rounding residue in the first substep
        # of each sample and is floored again in the second: the sample leaves
        # the carry unchanged and warns, so it is stepped, not repeated, as
        # the loop body called on one sample at a time steps it
        params = TankParams(0.37446932796053556, 0.28475904196923046, 0.7937889469975279,
                            2.416482075485289)
        sc = make_scenario(params=params, op_levels=(5.484215165291941, 3.9031401916328368),
                           mpc=MpcConfig(10, 3, 0.0240511752493777), ts=0.025, t_end=5.0,
                           substeps=2, clamp_flows=True,
                           setpoints=constant_setpoints(-7.141489586769083, -4.476252515917823),
                           disturbance=DisturbanceProfile(0.0, math.inf, -197.019020604134))
        with caplog.at_level(logging.WARNING, logger="tankmpc"):
            log = run_closed_loop(sc)
            messages = caplog.messages
            caplog.clear()
            body_in_blocks(monkeypatch, 1)
            assert _log_bytes(run_closed_loop(sc)) == _log_bytes(log)
        assert caplog.messages == messages
        assert sum("tank 2 ran empty" in m for m in messages) >= 100

    def test_a_run_that_clamps_and_empties_reports_the_clamp_last(self, caplog):
        # the scenario above: the clamp, active from sample 0, is reported
        # from the log after the loop, so after every "ran empty" line
        params = TankParams(0.37446932796053556, 0.28475904196923046, 0.7937889469975279,
                            2.416482075485289)
        sc = make_scenario(params=params, op_levels=(5.484215165291941, 3.9031401916328368),
                           mpc=MpcConfig(10, 3, 0.0240511752493777), ts=0.025, t_end=5.0,
                           substeps=2, clamp_flows=True,
                           setpoints=constant_setpoints(-7.141489586769083, -4.476252515917823),
                           disturbance=DisturbanceProfile(0.0, math.inf, -197.019020604134))
        with caplog.at_level(logging.WARNING, logger="tankmpc"):
            run_closed_loop(sc)
        assert caplog.messages[-1] == "feed-flow clamp active from sample 0 (t=0 s)"
        assert sum("clamp active" in m for m in caplog.messages) == 1
        assert sum("ran empty" in m for m in caplog.messages) >= 100


def drawn_scenario(data):
    """A drawn scenario for the block-size property: both plants, 1-8
    substeps, the clamp on or off, setpoint and pulse edges on sample times,
    on stage times and between them, inside the last sample of a block of
    7, endless windows and windows shorter than a sample, +-0.0 inputs,
    pulses deep enough to empty a tank, and now and then a setpoint that
    overflows the plant."""
    params = TankParams(*(data.draw(st.floats(lo, hi), label=name) for name, lo, hi in (
        ("a1", 0.05, 0.5), ("a2", 0.05, 0.5), ("alpha1", 0.5, 4.0), ("alpha2", 0.5, 4.0))))
    l2 = data.draw(st.floats(0.5, 5.0), label="l2")
    l1 = l2 + data.draw(st.floats(0.3, 3.0), label="l1 - l2")
    outlet, coupling = params.alpha2 * math.sqrt(l2), params.alpha1 * math.sqrt(l1 - l2)
    if outlet < coupling:
        # Scenario refuses a negative steady tank-2 feed: the coupling is cut to half the outlet
        params = dataclasses.replace(params, alpha1=params.alpha1 * (outlet / coupling / 2))
    ts = data.draw(st.one_of(st.sampled_from([0.05, 0.01]), st.floats(0.01, 0.2)), label="ts")
    substeps = stable_substeps(params, make_operating_point(params, l1, l2), ts,
                               data.draw(st.integers(1, 8), label="substeps"))
    n = data.draw(st.integers(2, 120), label="samples")
    npred = data.draw(st.integers(2, 15), label="np")
    mpc = MpcConfig(npred, data.draw(st.integers(1, min(npred, 4)), label="nc"),
                    10.0 ** data.draw(st.floats(-2.0, 1.0), label="log10 rw"))
    half_stage = ts / substeps / 2

    def window(name):
        edges = [data.draw(st.one_of(
            st.integers(0, n).map(lambda k: k * ts),
            st.tuples(st.integers(0, n), st.integers(1, 2 * substeps)).map(
                lambda km: km[0] * ts + km[1] * half_stage),
            st.tuples(st.integers(0, n // 7), st.floats(0.01, 0.99)).map(
                lambda mf: (7 * mf[0] + 6 + mf[1]) * ts),
            st.floats(0.0, n * ts)), label=f"{name} edge") for _ in range(2)]
        start, end = sorted(edges)
        duration = data.draw(st.one_of(st.just(end - start), st.just(math.inf),
                                       st.floats(0.0, 1.0).map(lambda f: f * ts)),
                             label=f"{name} duration")
        return {"start": start, "duration": duration}

    def amplitude(name, level):
        return data.draw(st.one_of(st.sampled_from([0.0, -0.0, 1e308]),
                                   st.floats(-0.5, 0.5).map(lambda f: f * level),
                                   st.floats(-1.5, -1.0).map(lambda f: f * level)), label=name)

    setpoints = (SetpointPulse(amplitude("r1", l1), **window("r1")),
                 SetpointPulse(amplitude("r2", l2), **window("r2")))
    magnitude = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-400.0, -1.0),
                                    st.floats(-1.0, 100.0)), label="pulse %")
    target = data.draw(st.sampled_from(["tank1", "tank2", "both"]), label="target")
    return Scenario(params=params, op_levels=(l1, l2), mpc=mpc, ts=ts, t_end=(n - 1) * ts,
                    setpoints=setpoints,
                    disturbance=DisturbanceProfile(magnitude=magnitude, target=target,
                                                   **window("pulse")),
                    substeps=substeps, clamp_flows=data.draw(st.booleans(), label="clamp"),
                    linear_plant=data.draw(st.booleans(), label="linear"))


class TestBlockSizes:
    """run_closed_loop calls make_loop's body once over the run, and the
    body walks its samples one stretch of held inputs at a time.  Called
    instead on blocks of 7 samples, or of one, from the carry the call
    before returned, it restarts a stretch at each block; at one sample a
    block it steps every sample.  The log, the warnings and an error's text
    are those of the one call."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_drawn_runs_match_in_blocks_of_7_and_1(self, caplog, data):
        """Derandomized, so the suite sees the same scenarios on every run."""
        sc = drawn_scenario(data)
        caplog.set_level(logging.WARNING, logger="tankmpc")
        outcomes = []
        for block in (None, 7, 1):
            caplog.clear()
            with pytest.MonkeyPatch.context() as patch:
                if block:
                    body_in_blocks(patch, block)
                try:
                    result = _log_bytes(run_closed_loop(sc))
                except SimulationError as exc:
                    result = str(exc)
            outcomes.append((result, caplog.messages))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("start, duration, split, first", [
        (6.3 * 0.05, 7.2 * 0.05, [(6, 2), (13, 2)], "sample 6 (t=0.3 s)"),
        (20.2 * 0.05, 0.5 * 0.05, [(20, 3)], "sample 20 (t=1 s)"),
    ], ids=["edges inside samples 6 and 13", "pulse inside sample 20"])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_a_split_sample_ending_a_block(self, caplog, start, duration, split, first, clamp):
        # each split sample is the last of a block of 7 (and of 1) that the
        # loop body is called on: the log, the warnings and the pieces are
        # those of the one call; the -300 % pulse floors both feeds first in a
        # later piece of the first split sample (-2.83 and -2.81 m^3/s inside
        # sample 20), and the clamp reports that sample
        sc = make_scenario(t_end=2.0, clamp_flows=clamp,
                           disturbance=DisturbanceProfile(start, duration, -300.0, "both"))
        op = make_operating_point(sc.params, *sc.op_levels)
        cuts = _routed_pulse(np.arange(sc.n_samples()) * sc.ts, sc.disturbance, op)[3]
        assert [(k, len(pieces)) for k, pieces in sorted(cuts.items())] == split
        caplog.set_level(logging.WARNING, logger="tankmpc")
        outcomes = []
        for block in (None, 7, 1):
            caplog.clear()
            with pytest.MonkeyPatch.context() as patch:
                if block:
                    body_in_blocks(patch, block)
                outcomes.append((_log_bytes(run_closed_loop(sc)), caplog.messages))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        clamps = [m for m in outcomes[0][1] if "clamp" in m]
        assert clamps == ([f"feed-flow clamp active from {first}"] if clamp else [])


class TestSettlingInBits:
    """The law runs on the absolute levels, so a held setpoint r is reached
    at the level fl(l + r) itself: the error is then exactly zero, the
    integrator stops, and the closed loop sits at an exact fixed point,
    whose row the loop body repeats.  With the error formed as r - (x - l)
    no level x gives a zero error when l + r is not a double."""

    def test_the_hold_configs_setpoint_step_is_held(self):
        # ts 0.01, one substep, the fastest tuning_sweep value: inside the
        # step of both setpoints at 0.5-5.5 s the loop holds 427 rows
        sc = loads_config(HOLD_CONFIG + "mpc.rw = 0.01306\n").scenario
        log = run_closed_loop(sc)
        assert log.t[50] == 0.5 and log.t[550] == 5.5 and log.r1[50] == log.r1[549] != log.r1[550]
        rows = np.array([log.h1, log.h2, log.u1, log.u2]).T.copy().view(np.int64)
        # the rows that repeat the one before them, bit for bit
        held = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1)) + 1
        inside = held[(51 <= held) & (held <= 549)]
        assert inside.size >= 350 and inside[-1] == 549, inside.size
        l1, l2 = sc.op_levels
        r1, r2 = log.r1[549], log.r2[549]
        assert hexes([log.h1[549], log.h2[549]]) == hexes([(l1 + r1) - l1, (l2 + r2) - l2])

    def test_held_setpoints_end_held_on_the_level_l_plus_r(self):
        # 60 drawn setpoints held for 40 s, rw 0.01-10, ts 0.01-0.1 and 1-8
        # substeps: 53 end in a held row on x = fl(l + r) exactly (5 with the
        # error r - (x - l)).  The others settle an ulp off it, where the
        # move's increment is below half an ulp of the move, dither by an
        # ulp about it, or have not settled by 40 s
        rng = np.random.default_rng(20261024)
        on_level = 0
        for _ in range(60):
            r1, r2 = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.5, 0.5))
            sc = make_scenario(mpc=MpcConfig(10, 3, float(10.0 ** rng.uniform(-2.0, 1.0))),
                               ts=float(rng.uniform(0.01, 0.1)), substeps=int(rng.integers(1, 9)),
                               t_end=40.0, setpoints=constant_setpoints(r1, r2),
                               disturbance=NO_DISTURBANCE)
            log = run_closed_loop(sc)
            l1, l2 = sc.op_levels
            last, before = ([getattr(log, c)[k] for c in ("h1", "h2", "u1", "u2")]
                            for k in (-1, -2))
            on_level += (hexes(last) == hexes(before)
                         and hexes(last[:2]) == hexes([(l1 + r1) - l1, (l2 + r2) - l2]))
        assert on_level >= 50, on_level


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

        # a set-up that raises (a sampling period that overflows exp(A ts))
        # leaves the previous entry in place
        with pytest.raises(ValueError, match="overflows"):
            run_closed_loop(make_scenario(ts=1e308, t_end=1.0))
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
        # the loop applies receding_step's law inline, in the absolute frame;
        # replaying each log through receding_step on the levels x the plant
        # reached and the setpoints r + l, with the loop's clamp memory, must
        # give its moves bit for bit (clamp on and off, both plants, -0.0
        # parameters).  The levels are the sample-by-sample oracle's, whose
        # h = x - l is the log's: below half its operating level a tank's x
        # is not h + l bit for bit, so the log alone cannot give it back
        for j, sc in enumerate(_memo_scenarios()):
            op = make_operating_point(sc.params, *sc.op_levels)
            disc = zoh_discretize(linearize(sc.params, op), sc.ts)
            pred = build_prediction(augment(disc), sc.mpc)
            log = run_closed_loop(sc)
            l1, l2 = (0.0, 0.0) if sc.linear_plant else (op.l1, op.l2)
            setpoints = list(zip(log.r1.tolist(), log.r2.tolist()))
            levels = []
            hs, _ = closed_loop_by_samples(sc.params, op, pred, sc.ts, sc.substeps,
                                           sc.disturbance, sc.clamp_flows, setpoints,
                                           linear_model=disc if sc.linear_plant else None,
                                           levels=levels)
            assert hexes(h for h, _ in hs) == hexes(log.h1), j
            assert hexes(h for _, h in hs) == hexes(log.h2), j
            ctrl = controller_start((l1, l2), n_inputs=2)
            moves = []
            for t, x, (r1, r2) in zip(log.t.tolist(), levels, setpoints):
                ctrl, (u1, u2) = receding_step(ctrl, pred, x, (r1 + l1, r2 + l2))
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
    with the inline law, the linear step or the feed columns."""

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

    def test_disturbance_only_converges_at_second_order(self):
        devs = self.deviations(0.0, 1.0)
        assert all(a >= 3.5 * b > 0.0 for a, b in zip(devs, devs[1:])), devs  # measured 3.98


class TestSubstepConvergence:
    """RK4 keeps its fourth order across a pulse: every step holds one feed,
    and a sample with a pulse edge inside it is split there.  The largest
    level error against a 512-substep run falls by 8 or more per doubling
    of the substeps from 1 to 16."""

    @pytest.mark.parametrize("start", [8.0, 8.013], ids=["bundled", "edge inside a sample"])
    def test_pulse_runs_converge_at_fourth_order(self, start):
        sc = make_scenario(disturbance=dataclasses.replace(DEFAULT_SCENARIO.disturbance,
                                                           start=start))
        ref = run_closed_loop(dataclasses.replace(sc, substeps=512))
        errs = []
        for substeps in (1, 2, 4, 8, 16):
            log = run_closed_loop(dataclasses.replace(sc, substeps=substeps))
            errs.append(max(np.max(np.abs(log.h1 - ref.h1)), np.max(np.abs(log.h2 - ref.h2))))
        # measured 1.5e-4 to 1.1e-9 (bundled) and 9.7e-5 to 7.0e-10, ratios 16.4-24.5
        assert all(a >= 8.0 * b > 0.0 for a, b in zip(errs, errs[1:])), errs
        assert errs[2] < 1e-6, errs


class TestRk4StabilityGuard:
    """run_closed_loop refuses a nonlinear-plant RK4 step past RK4's real
    stability interval on the plant's fastest mode at the operating point,
    dt |lambda| > 2.785, and runs every other step as it did without the
    guard.  The bundled config with plant.a1 changed: |lambda| ts is 0.98,
    2.09, 4.40, 8.28 and 16.05 from a1 = 0.1963 down to 0.005."""

    #: The fewest substeps that pass, for each a1 some of the cells refuse.
    FEWEST = {0.02: 2, 0.01: 3, 0.005: 6}

    def test_rate_is_the_spectral_radius(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            params, l1, l2 = random_tank_params(rng)
            if params.alpha2 * math.sqrt(l2) < params.alpha1 * math.sqrt(l1 - l2):
                params = dataclasses.replace(params, alpha1=0.0)  # no negative steady feed
            sc = make_scenario(params=params, op_levels=(l1, l2))
            op = make_operating_point(params, l1, l2)
            radius = np.abs(np.linalg.eigvals(linearize(params, op).a)).max()
            assert _controller(sc)[3] == pytest.approx(radius, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("a1", [0.1963, 0.05, 0.02, 0.01, 0.005])
    def test_refused_exactly_past_the_bound(self, monkeypatch, a1):
        import tankmpc.loop as loop

        fewest = self.FEWEST.get(a1, 1)
        for substeps in (1, 2, 4, 8):
            sc = make_scenario(params=dataclasses.replace(DEFAULT_PARAMS, a1=a1),
                               substeps=substeps)
            if substeps < fewest:
                with pytest.raises(ValueError, match=rf"^sim\.ts = 0\.05 s over sim\.substeps = "
                                   rf"{substeps} is an RK4 step .* set sim\.substeps >= "
                                   rf"{fewest}, or change sim\.ts or the plant\.\* "):
                    run_closed_loop(sc)
                continue
            log = _log_bytes(run_closed_loop(sc))
            with monkeypatch.context() as patch:
                patch.setattr(loop, "_check_rk4_step", lambda *args: None)
                assert log == _log_bytes(run_closed_loop(sc)), substeps

    @pytest.mark.parametrize("a1", sorted(FEWEST))
    def test_the_named_fewest_substeps_run(self, a1):
        sc = make_scenario(params=dataclasses.replace(DEFAULT_PARAMS, a1=a1), t_end=1.0)
        fewest = self.FEWEST[a1]
        with pytest.raises(ValueError, match=rf"sim\.substeps >= {fewest},"):
            run_closed_loop(dataclasses.replace(sc, substeps=fewest - 1))
        assert len(run_closed_loop(dataclasses.replace(sc, substeps=fewest))) == 21

    def test_linear_plant_not_checked(self):
        sc = make_scenario(params=dataclasses.replace(DEFAULT_PARAMS, a1=0.005), substeps=1,
                           linear_plant=True)
        assert len(run_closed_loop(sc)) == 301

    @pytest.mark.parametrize("rate", [1e300, math.inf, math.nan])
    def test_rate_past_counting_refused_without_a_count(self, rate):
        with pytest.raises(ValueError, match=r"; the sim\.ts and plant\.\* values are out of "
                                             r"range$"):
            _check_rk4_step(DEFAULT_SCENARIO, rate)


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
            assert_csv_by_value(log)


def assert_csv_by_value(log):
    """log.to_csv_text() is byte for byte the per-value encoder's text."""
    got, want = log.to_csv_text().split("\n"), csv_text_by_value(log).split("\n")
    diff = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    same = len(got) == len(want) and not diff  # a bare string diff of 4000 lines is slow
    assert same, f"{len(got)} vs {len(want)} lines, first differing line {diff[:1]}"


def held_log(rows, stretches=(), **columns):
    """A SimulationLog of the loop rows, an (n, 6) array, in which each row
    of the stretches [a, b) repeats row a - 1; t steps by 0.01, r1, r2 and u3
    are 0.0, 0.3 and 0.0, and columns replaces any column."""
    rows = np.array(rows, dtype=np.float64)
    for a, b in stretches:
        rows[a:b] = rows[a - 1]
    n = len(rows)
    cols = {"t": np.arange(n) * 0.01, "r1": np.zeros(n), "r2": np.full(n, 0.3), "u3": np.zeros(n),
            **dict(zip(_LOOP_COLUMNS, rows.T.copy()))}
    return SimulationLog(**{**cols, **columns})


def random_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, len(_LOOP_COLUMNS))) * 10.0 ** rng.integers(-5, 6, (n, 6))


#: Float values whose spelling differs most between formatters, for drawn rows.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1.8e308,
                  0.1, 1.5556349186104048, 123456789.5]


class TestHeldStretches:
    """`to_csv_text` formats the loop columns of a held stretch, rows that
    repeat the row before them bit for bit, once.  Every layout of stretches
    gives the per-value encoder's bytes, at CSV_BLOCK and in blocks of 7."""

    #: name: (rows, stretches) for the block size B
    LAYOUTS = {
        "from row 1": lambda B: (20, [(1, 6)]),
        "to the last row": lambda B: (B + 6, [(B + 2, B + 6)]),
        "across a block boundary": lambda B: (B + 8, [(B - 2, B + 3)]),
        "a block of one repeated row": lambda B: (2 * B + 3, [(B, 2 * B)]),
        "a last block of one row, repeating": lambda B: (2 * B + 1, [(2 * B - 3, 2 * B + 1)]),
        "every row repeats row 0": lambda B: (2 * B + 3, [(1, 2 * B + 3)]),
        "stretches of one row": lambda B: (30, [(2, 3), (4, 5), (9, 10), (11, 13)]),
        "no stretch": lambda B: (30, []),
    }

    @pytest.fixture(params=[CSV_BLOCK, 7], ids=["CSV_BLOCK", "block 7"])
    def block(self, request, monkeypatch):
        import tankmpc.loop as loop

        monkeypatch.setattr(loop, "CSV_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_matches_per_value_format(self, block, layout):
        n, stretches = self.LAYOUTS[layout](block)
        assert_csv_by_value(held_log(random_rows(n), stretches))

    def test_nan_rows(self, block):
        rows = random_rows(20)
        rows[4, [0, 3]] = math.nan, -math.nan
        rows[12] = math.nan
        assert_csv_by_value(held_log(rows, [(5, 9), (13, 20)]))

    def test_zero_after_negative_zero_is_not_a_repeat(self, block):
        # rows 2-4 hold -0.0 in one column and rows 5-8 0.0: two stretches
        # with the same value, spelled -0 and 0
        for j in range(len(_LOOP_COLUMNS)):
            rows = random_rows(12, seed=j)
            rows[2, j] = -0.0
            rows[3:9] = rows[2]
            rows[5:9, j] = 0.0
            text = held_log(rows).to_csv_text().split("\n")
            assert [line.split(",")[3 + j + (j >= 4)] for line in text[3:10]] == (
                ["-0"] * 3 + ["0"] * 4)
            assert_csv_by_value(held_log(rows))

    def test_rows_differing_in_one_column(self, block):
        rows = random_rows(40)
        rows[2:40] = rows[1]
        for j in range(len(_LOOP_COLUMNS)):
            rows[5 + 6 * j :, j] += 1.0  # a new value from here on: one stepped row, then held
        assert_csv_by_value(held_log(rows))

    def test_held_columns_change_inside_a_stretch(self, block):
        # the loop columns repeat from row 3 on, while r1, r2 and u3 change
        # their text (and r2 only its sign)
        n = 30
        r1, r2, u3 = np.zeros(n), np.full(n, -0.0), np.zeros(n)
        r1[8:], r2[11:20], u3[15:17] = 0.5, 0.0, math.nan
        assert_csv_by_value(held_log(random_rows(n), [(3, n)], r1=r1, r2=r2, u3=u3))

    def test_logs_with_and_without_stretches_share_block_formats(self, block, monkeypatch):
        import tankmpc.loop as loop

        made = []
        real = loop._block_format
        monkeypatch.setattr(loop, "_block_format", lambda *args: made.append(args) or real(*args))
        n = 2 * block + 5
        rows = random_rows(n)
        logs = [held_log(rows), held_log(rows, [(1, 4), (block - 1, block + 2), (n - 3, n)]),
                held_log(random_rows(n, seed=1), [(2, n)])]
        want = [csv_text_by_value(log) for log in logs]
        for k in (0, 1, 2, 1, 0, 2):
            assert logs[k].to_csv_text() == want[k]
        assert len(made) == 3  # one format per block, built at the first encode

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_drawn_stretch_layouts_match_per_value_format(self, data):
        """Rows that are new, repeat the row before, or change one column of
        it (perhaps to the same bits, or to 0.0 from -0.0), under r1, r2 and
        u3 that change now and then; blocks of 1, 2, 3, 7 and CSV_BLOCK rows.

        Derandomized, so the suite sees the same layouts on every run.
        """
        import tankmpc.loop as loop

        block = data.draw(st.sampled_from([1, 2, 3, 7, CSV_BLOCK]), label="block")
        n = data.draw(st.integers(1, 40), label="n")
        value = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
        kinds = data.draw(st.lists(st.sampled_from(["new", "repeat", "repeat", "one column"]),
                                   min_size=n - 1, max_size=n - 1), label="kinds")
        rows = [data.draw(st.lists(value, min_size=6, max_size=6))]
        for kind in kinds:
            row = list(rows[-1])
            if kind == "new":
                row = data.draw(st.lists(value, min_size=6, max_size=6))
            elif kind == "one column":
                row[data.draw(st.integers(0, 5))] = data.draw(value)
            rows.append(row)
        held = {}
        for name in ("r1", "r2", "u3"):  # up to three edges, at drawn rows
            edges = sorted(data.draw(st.lists(st.integers(0, n), max_size=3), label=name))
            levels = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, math.nan]),
                                        min_size=len(edges) + 1, max_size=len(edges) + 1))
            held[name] = np.repeat(levels, np.diff([0, *edges, n]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loop, "CSV_BLOCK", block)
            assert_csv_by_value(held_log(rows, **held))


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

    def test_block_size_is_part_of_the_key(self, monkeypatch):
        # the same log encoded at CSV_BLOCK, in blocks of 7 and of 3 and at
        # CSV_BLOCK again in one process, the memo kept: each encode has the
        # bytes of a fresh one, and each switch of the block size builds anew
        import tankmpc.loop as loop

        made = []
        real = loop._block_format
        monkeypatch.setattr(loop, "_block_format", lambda *args: made.append(args) or real(*args))
        log = self._variants(301)["base"]
        want = csv_text_by_value(log)
        blocks = []
        for block in (CSV_BLOCK, 7, 7, 3, CSV_BLOCK):
            monkeypatch.setattr(loop, "CSV_BLOCK", block)
            before = len(made)
            assert log.to_csv_text() == want, block
            blocks.append(len(made) - before)
        assert blocks[1:] == [math.ceil(301 / 7), 0, math.ceil(301 / 3), 1]

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
