"""The nonlinear plant step of the loop body, the sampled linear kernel, and the
disturbance pulse."""

import logging
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tankmpc import (
    DEFAULT_PARAMS,
    ControllerState,
    DeviationState,
    DisturbanceProfile,
    MpcConfig,
    PredictionMatrices,
    TankParams,
    augment,
    build_prediction,
    loads_config,
    make_operating_point,
    nonlinear_derivatives,
    run_closed_loop,
    zoh_discretize,
    linearize,
)
from tankmpc.plant import (
    NO_DISTURBANCE,
    PlantState,
    disturbance_flow,
    disturbance_inflows,
    make_linear_advance,
    make_loop,
    rk4_step,
)

from oracles import (
    closed_loop_by_samples,
    disturbance_feeds,
    level_rates,
    random_tank_params,
    rk4_by_derivatives,
)

DEFAULT_OP = make_operating_point(DEFAULT_PARAMS, 4.0, 3.5)


def reference_trajectory(params, op, h0, inflow, t_end):
    """High-accuracy adaptive integration of the same dynamics."""

    def rhs(t, h):
        return nonlinear_derivatives(params, op, DeviationState(h[0], h[1]), *inflow)

    sol = solve_ivp(rhs, (0.0, t_end), h0, method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    assert sol.success
    return sol


def integrate_fixed(params, op, h0, inflow, dt, n_steps, disturbance=None):
    state = PlantState(t=0.0, dev=DeviationState(h0[0], h0[1]))
    for _ in range(n_steps):
        state = rk4_step(params, op, state, inflow, disturbance, dt)
    return state


class TestDisturbance:
    def test_pulse_magnitude_from_steady_feed(self):
        prof = DisturbanceProfile(start=8.0, duration=2.0, magnitude=10.0)
        inside = disturbance_flow(prof, DEFAULT_OP, 9.0)
        assert inside == pytest.approx(0.1 * 1.5556349186104046, rel=1e-12)

    def test_pulse_window_half_open(self):
        prof = DisturbanceProfile(start=8.0, duration=2.0, magnitude=10.0)
        assert disturbance_flow(prof, DEFAULT_OP, 7.999) == 0.0
        assert disturbance_flow(prof, DEFAULT_OP, 8.0) > 0.0
        assert disturbance_flow(prof, DEFAULT_OP, 10.0) == 0.0

    def test_zero_duration_never_fires(self):
        prof = DisturbanceProfile(start=1.0, duration=0.0, magnitude=50.0)
        for t in (0.0, 1.0, 2.0):
            assert disturbance_flow(prof, DEFAULT_OP, t) == 0.0

    def test_target_routing(self):
        prof1 = DisturbanceProfile(start=0.0, duration=1.0, magnitude=10.0, target="tank1")
        prof2 = DisturbanceProfile(start=0.0, duration=1.0, magnitude=10.0, target="tank2")
        both = DisturbanceProfile(start=0.0, duration=1.0, magnitude=10.0, target="both")
        f = disturbance_flow(prof1, DEFAULT_OP, 0.5)
        assert disturbance_inflows(prof1, DEFAULT_OP, 0.5) == (f, 0.0)
        assert disturbance_inflows(prof2, DEFAULT_OP, 0.5) == (0.0, f)
        assert disturbance_inflows(both, DEFAULT_OP, 0.5) == (f, f)

    def test_validation(self):
        with pytest.raises(ValueError):
            DisturbanceProfile(start=0.0, duration=-1.0, magnitude=10.0)
        with pytest.raises(ValueError):
            DisturbanceProfile(start=0.0, duration=1.0, magnitude=float("nan"))
        with pytest.raises(ValueError):
            DisturbanceProfile(start=0.0, duration=1.0, magnitude=10.0, target="tank3")


class TestRk4Step:
    def test_equilibrium_is_a_fixed_point(self):
        state = PlantState(t=0.0, dev=DeviationState(0.0, 0.0))
        for _ in range(10):
            state = rk4_step(DEFAULT_PARAMS, DEFAULT_OP, state, (0.0, 0.0), None, 0.0125)
            assert abs(state.dev.h1) < 1e-12 and abs(state.dev.h2) < 1e-12

    def test_pure_integrator_no_truncation_error(self):
        # with the coupling valve shut, tank 1 is a pure integrator
        params = TankParams(a1=0.25, a2=0.1, alpha1=0.0, alpha2=1.0)
        op = make_operating_point(params, 2.0, 1.0)
        c, dt = 0.35, 0.05
        state = PlantState(t=0.0, dev=DeviationState(0.0, 0.0))
        for k in range(1, 21):
            state = rk4_step(params, op, state, (c, 0.0), None, dt)
            assert state.dev.h1 == pytest.approx(k * dt * c / 0.25, rel=1e-13)

    def test_single_step_against_adaptive_reference(self):
        # true truncation error of a classical step here is 7.1e-8; halving
        # the step buys the expected ~16x
        h0 = (0.1, 0.1)
        ref = reference_trajectory(DEFAULT_PARAMS, DEFAULT_OP, h0, (0.0, 0.0), 0.0125)
        ref_end = ref.y[:, -1]

        got = integrate_fixed(DEFAULT_PARAMS, DEFAULT_OP, h0, (0.0, 0.0), 0.0125, 1)
        err = np.max(np.abs([got.dev.h1, got.dev.h2] - ref_end))
        assert err < 1e-7

        got_half = integrate_fixed(DEFAULT_PARAMS, DEFAULT_OP, h0, (0.0, 0.0), 0.00625, 2)
        err_half = np.max(np.abs([got_half.dev.h1, got_half.dev.h2] - ref_end))
        assert err_half < 1e-8
        assert err_half < err / 8

    def test_fourth_order_convergence(self):
        """Global error versus the adaptive reference decays like dt^4."""
        h0, t_end = (0.1, 0.1), 0.2
        ref = reference_trajectory(DEFAULT_PARAMS, DEFAULT_OP, h0, (0.0, 0.0), t_end)
        ref_end = ref.y[:, -1]
        dts = [0.025, 0.0125, 0.00625]
        errs = []
        for dt in dts:
            got = integrate_fixed(DEFAULT_PARAMS, DEFAULT_OP, h0, (0.0, 0.0), dt, round(t_end / dt))
            errs.append(np.max(np.abs([got.dev.h1, got.dev.h2] - ref_end)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 <= slope <= 4.3

    def test_small_signal_matches_linear_model(self):
        """Near the operating point the sampled linear model tracks the plant."""
        lin = linearize(DEFAULT_PARAMS, DEFAULT_OP)
        disc = zoh_discretize(lin, 0.05)
        h0 = np.array([0.04, 0.02])
        u = (0.005, 0.005)

        x_lin = h0.copy()
        state = PlantState(t=0.0, dev=DeviationState(h0[0], h0[1]))
        max_dev, max_mag = 0.0, np.max(np.abs(h0))
        for _ in range(20):  # 1 s at the controller rate
            for _ in range(4):
                state = rk4_step(DEFAULT_PARAMS, DEFAULT_OP, state, u, None, 0.0125)
            x_lin = disc.a @ x_lin + disc.b @ np.asarray(u)
            h_nl = np.array([state.dev.h1, state.dev.h2])
            max_dev = max(max_dev, np.max(np.abs(h_nl - x_lin)))
            max_mag = max(max_mag, np.max(np.abs(h_nl)))
        assert max_dev / max_mag < 0.02

    def test_tank1_drains_monotonically(self):
        state = PlantState(t=0.0, dev=DeviationState(0.3, 0.0))
        h1s = [state.dev.h1]
        for _ in range(160):  # 2 s
            state = rk4_step(DEFAULT_PARAMS, DEFAULT_OP, state, (0.0, 0.0), None, 0.0125)
            h1s.append(state.dev.h1)
        assert all(b < a for a, b in zip(h1s[:-1], h1s[1:]))
        assert h1s[-1] < 0.02

    def test_disturbance_resolved_at_stage_times(self):
        # a pulse covering only the second half of the step must act less
        # than one covering all of it
        full = DisturbanceProfile(start=0.0, duration=1.0, magnitude=10.0, target="tank1")
        half = DisturbanceProfile(start=0.00625, duration=1.0, magnitude=10.0, target="tank1")
        s_full = integrate_fixed(DEFAULT_PARAMS, DEFAULT_OP, (0.0, 0.0), (0.0, 0.0), 0.0125, 1,
                                 disturbance=full)
        s_half = integrate_fixed(DEFAULT_PARAMS, DEFAULT_OP, (0.0, 0.0), (0.0, 0.0), 0.0125, 1,
                                 disturbance=half)
        assert s_full.dev.h1 > s_half.dev.h1 > 0.0

    def test_level_floor_logged(self, caplog):
        # drain tank 2 hard enough to empty it
        op = make_operating_point(DEFAULT_PARAMS, 1.0, 0.5)
        state = PlantState(t=0.0, dev=DeviationState(0.0, 0.0))
        with caplog.at_level(logging.WARNING, logger="tankmpc.plant"):
            for _ in range(200):
                state = rk4_step(DEFAULT_PARAMS, op, state, (0.0, -50.0), None, 0.0125)
        assert state.dev.h2 == -0.5  # physical level clamped at empty
        assert any("ran empty" in rec.message for rec in caplog.records)

    def test_empty_tank_logged_once_per_event(self, caplog):
        # drain tank 2 twice, refilling in between: two events, two warnings
        op = make_operating_point(DEFAULT_PARAMS, 1.0, 0.5)
        state = PlantState(t=0.0, dev=DeviationState(0.0, 0.0))
        with caplog.at_level(logging.WARNING, logger="tankmpc.plant"):
            for inflow in ((0.0, -50.0), (0.0, 50.0), (0.0, -50.0)):
                for _ in range(100):
                    state = rk4_step(DEFAULT_PARAMS, op, state, inflow, None, 0.0125)
        assert state.dev.h2 == -0.5
        empties = [rec for rec in caplog.records if "ran empty" in rec.message]
        assert len(empties) == 2 and all("tank 2" in rec.message for rec in empties)

    def test_closed_loop_emptying_logged_once(self, caplog):
        # a setpoint at the bottom of tank 2 holds it empty for ~100 samples
        scenario = loads_config("setpoint.h2.amplitude = -3.5\nmpc.rw = 0.01\n").scenario
        with caplog.at_level(logging.WARNING, logger="tankmpc.plant"):
            log = run_closed_loop(scenario)
        at_empty = log.h2 == -scenario.op_levels[1]
        assert at_empty.sum() > 50
        events = int(at_empty[0]) + int(np.sum(at_empty[1:] & ~at_empty[:-1]))
        assert events == 1
        assert sum("ran empty" in rec.message for rec in caplog.records) == events

    def test_non_finite_state_raises(self):
        state = PlantState(t=0.0, dev=DeviationState(0.0, 0.0))
        with pytest.raises(ArithmeticError):
            rk4_step(DEFAULT_PARAMS, DEFAULT_OP, state, (float("inf"), 0.0), None, 0.0125)

    def test_bad_step_size(self):
        state = PlantState(t=0.0, dev=DeviationState(0.0, 0.0))
        with pytest.raises(ValueError):
            rk4_step(DEFAULT_PARAMS, DEFAULT_OP, state, (0.0, 0.0), None, 0.0)


#: Zero gains: the law holds the move it starts from.
ZERO_GAINS = (0.0,) * 8


def zero_gain_prediction():
    """PredictionMatrices whose law holds its move, for receding_step."""
    return PredictionMatrices(psi=np.zeros((2, 4)), phi=np.zeros((2, 2)), kr=np.zeros((2, 2)),
                              kx=np.zeros((2, 4)))


def run_loop(params, op, ts, substeps, profile, clamp, gains, r, carry=None, i=0, final=True):
    """make_loop's body over the samples i, i + 1, ... at k ts, with the
    setpoints r (one (r1, r2) row per sample) and the pulse routed at each
    sample time: the logged (h1, h2, u1, u2) rows and the carry after them."""
    run = make_loop(params, op, ts, substeps, profile, clamp, gains)
    t = np.arange(i, i + len(r)) * ts
    d = np.array([disturbance_feeds(profile, op, tk) for tk in t.tolist()])
    r = np.array(r, dtype=float)
    logged = []
    carry = run(i, t, r[:, 0], r[:, 1], d[:, 0], d[:, 1], carry, logged, final)
    return np.array(logged).reshape(-1, 4), carry


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def stage_times(t, dt, substeps):
    """The stage times of `substeps` steps, summed the way the body sums them."""
    times = []
    for _ in range(substeps):
        times += [t, t + dt / 2, t + dt]
        t = t + dt
    return times


def outcome(run):
    """A step's result as exact hex floats (sign of zero included), or its error."""
    try:
        return [x.hex() for x in run()]
    except ArithmeticError:
        return "ArithmeticError"


def plant_step(params, op, t, x, u, ts, substeps, profile, clamp):
    """The levels after one sample of make_loop's body entered at t from the
    levels x, its law holding the move u (zero gains), the pulse routed at t."""
    run = make_loop(params, op, ts, substeps, profile, clamp, ZERO_GAINS)
    d1, d2 = disturbance_feeds(profile, op, t)
    carry = run(0, np.array([t]), np.zeros(1), np.zeros(1), np.array([d1]), np.array([d2]),
                (*x, 0.0, 0.0, *u, False), [], False)
    return carry[:2]


class TestAdvanceKernel:
    """The plant step inside make_loop's body: one sample against the RK4
    oracle, its floors, warnings, errors and rest state.  The logged values
    of whole runs against a sample-by-sample oracle are pinned in
    test_loop.py (TestRunClosedLoop)."""

    def test_matches_rk4_oracle_bit_for_bit(self):
        # one sample of the body, with zero gains and a preset move, against
        # rk4_by_derivatives from the same levels and time, compared in hex
        rng = np.random.default_rng(20261018)

        def check(case, params, op, ts, substeps, t0, start, duration):
            dt = ts / substeps
            l1, l2 = op.l1, op.l2
            profile = DisturbanceProfile(start=start, duration=duration,
                                         magnitude=float(rng.uniform(-300.0, 300.0)),
                                         target=str(rng.choice(["tank1", "tank2", "both"])))
            # levels from below empty (entered as empty) to well above the operating point
            h = (rng.uniform(-1.2, 1.0, 2) * [l1, l2]).tolist()
            u = (rng.uniform(-2.0, 2.0, 2) * op.fi1_bar).tolist()
            if rng.random() < 0.2:
                h, u = rng.choice([0.0, -0.0], 2).tolist(), rng.choice([0.0, -0.0], 2).tolist()
            x = [max(l + hi, 0.0) for l, hi in zip((l1, l2), h)]
            clamp = bool(rng.integers(2))
            got = outcome(lambda: plant_step(params, op, t0, x, u, ts, substeps, profile, clamp))
            want = outcome(lambda: rk4_by_derivatives(params, op, t0, x, u, dt, substeps,
                                                      profile, clamp))
            assert got == want, f"case {case}"

        for case in range(400):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            substeps = int(rng.integers(1, 9))
            ts = float(rng.uniform(1e-3, 0.1)) * substeps
            t0 = float(rng.uniform(0.0, 20.0))
            # pulse edges on a stage time or halfway between two of them
            times = stage_times(t0, ts / substeps, substeps)
            edges = []
            for _ in range(2):
                i = int(rng.integers(len(times) - 1))
                edges.append(times[i] if rng.random() < 0.5 else (times[i] + times[i + 1]) / 2)
            start, end = sorted(edges)
            check(case, params, op, ts, substeps, t0, start, end - start)

        # Edges outside the stage times too: before t, at t, just past the
        # last stage time, and at t + 2 substeps dt, the reach of one sample,
        # or 1 ulp either side of it; endless pulses; and steps of ~0.6 ulp(t),
        # each of which rounds up to a whole ulp, so that the stage times
        # outrun t + substeps dt.
        for case in range(400, 800):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            substeps = int(rng.integers(1, 9))
            if case % 4 == 0:
                t0 = 1e6
                ts = 0.6 * math.ulp(t0) * float(rng.uniform(0.9, 1.1)) * substeps
            else:
                ts = float(rng.uniform(1e-3, 0.1)) * substeps
                t0 = float(rng.uniform(0.0, 20.0))
            dt = ts / substeps
            times = stage_times(t0, dt, substeps)
            reach = t0 + 2 * substeps * dt
            edges = []
            for _ in range(2):
                i = int(rng.integers(len(times)))
                edges.append([times[i], t0 - float(rng.uniform(0.0, 2.0)) * substeps * dt, t0,
                              math.nextafter(times[-1], math.inf),
                              math.nextafter(reach, -math.inf), reach,
                              math.nextafter(reach, math.inf)][int(rng.integers(7))])
            start, end = sorted(edges)
            duration = math.inf if rng.random() < 0.2 else end - start
            check(case, params, op, ts, substeps, t0, start, duration)

    def test_empty_tank_floored_and_warned_once(self, caplog):
        # 8 substeps a sample, the move held at (0, -50) by zero gains, drain
        # tank 2 over several samples at k * 0.1: one event, one warning
        op = make_operating_point(DEFAULT_PARAMS, 1.0, 0.5)
        start = (op.l1, op.l2, 0.0, 0.0, 0.0, -50.0, False)
        with caplog.at_level(logging.WARNING, logger="tankmpc.plant"):
            rows, carry = run_loop(DEFAULT_PARAMS, op, 0.1, 8, NO_DISTURBANCE, False, ZERO_GAINS,
                                   [(0.0, 0.0)] * 25, carry=start)
        hs, us = closed_loop_by_samples(DEFAULT_PARAMS, op, zero_gain_prediction(), 0.1, 8,
                                        NO_DISTURBANCE, False, [(0.0, 0.0)] * 25,
                                        ctrl=ControllerState((0.0, 0.0), (0.0, -50.0)))
        assert hexes(rows[:, :2]) == hexes(hs) and hexes(rows[:, 2:]) == hexes(us)
        assert rows[-1, 1] == -0.5 and carry[1] == 0.0
        empties = [rec for rec in caplog.records if "ran empty" in rec.message]
        assert len(empties) == 1 and "tank 2" in empties[0].message

    def test_oracle_rates_are_nonlinear_derivatives(self):
        # the oracle's rates on physical levels and reciprocal areas, against
        # tank.nonlinear_derivatives on the same levels as deviations
        rng = np.random.default_rng(20261019)
        for case in range(2000):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            h = (rng.uniform(-1.0, 1.0, 2) * [l1, l2]).tolist()
            fi = (rng.uniform(-2.0, 2.0, 2) * op.fi1_bar).tolist()
            got = level_rates(params, op, (op.l1 + h[0], op.l2 + h[1]), *fi)
            want = nonlinear_derivatives(params, op, DeviationState(*h), *fi)
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * math.ulp(w), case

    def test_plant_at_rest_stays_at_exactly_zero(self):
        # zero setpoints, zero-flow pulse edges and any finite gains: every
        # logged level and move is exactly 0.0, with or without the clamp,
        # across blocks: the rates are deviation flows, which cancel bit for
        # bit at the operating point.  Areas are drawn where 1/a is finite
        # (zoh_discretize rejects the rest).
        rng = np.random.default_rng(20261020)
        for case in range(400):
            a1, a2 = (10.0 ** rng.uniform(-300.0, 300.0, 2)).tolist()
            alpha1 = 0.0 if case % 10 == 0 else float(10.0 ** rng.uniform(-3.0, 3.0))
            l2 = float(10.0 ** rng.uniform(-6.0, 4.0))
            l1 = l2 + float(10.0 ** rng.uniform(-6.0, 4.0))
            alpha2 = float(10.0 ** rng.uniform(-3.0, 3.0))
            clamp = bool(case % 2)
            if clamp:  # a floored negative steady feed would not be a rest
                alpha2 += alpha1 * math.sqrt(l1 - l2) / math.sqrt(l2)
            params = TankParams(a1=a1, a2=a2, alpha1=alpha1, alpha2=alpha2)
            op = make_operating_point(params, l1, l2)
            assert not clamp or op.fi2_bar >= 0.0
            substeps = int(rng.integers(1, 9))
            ts = float(10.0 ** rng.uniform(-4.0, 1.0))
            profile = DisturbanceProfile(start=float(rng.uniform(0.0, 20 * ts)),
                                         duration=float(rng.uniform(0.0, 20 * ts)),
                                         magnitude=0.0, target="both")
            gains = tuple((rng.standard_normal(8) * 10.0 ** rng.uniform(-3.0, 3.0)).tolist())
            r = rng.choice([0.0, -0.0], (20, 2)).tolist()
            first, carry = run_loop(params, op, ts, substeps, profile, clamp, gains, r[:10],
                                    final=False)
            second, carry = run_loop(params, op, ts, substeps, profile, clamp, gains, r[10:],
                                     carry=carry, i=10)
            assert hexes([first, second]) == [(0.0).hex()] * 80, case
            assert carry[:2] == (l1, l2), case

    @pytest.mark.parametrize("h, u", [((0.0, 0.0), (math.inf, 0.0)),
                                      ((0.0, 0.0), (0.0, math.nan)),
                                      ((math.nan, 0.0), (0.0, 0.0))])
    def test_non_finite_state_raises(self, h, u):
        # the first step of the first sample ends non-finite, at t = dt
        op = DEFAULT_OP
        start = (op.l1 + h[0], op.l2 + h[1], *h, *u, False)
        pred = build_prediction(augment(zoh_discretize(linearize(DEFAULT_PARAMS, op), 0.05)),
                                MpcConfig(10, 3, 1.0))
        for gains in (ZERO_GAINS, pred.gains):
            with pytest.raises(ArithmeticError, match=r"^plant state non-finite at t=0\.0125$"):
                run_loop(DEFAULT_PARAMS, op, 0.05, 4, NO_DISTURBANCE, True, gains,
                         [(0.0, 0.0)] * 3, carry=start)


class TestLinearAdvance:
    def test_matches_numpy_reference(self):
        # ad @ h + bd @ f with f = u plus the pulse routed at t, and under the
        # clamp f = max(fi_abs, 0) - fi_bar; pulse edges on sample times or
        # between them, t on, before or after an edge
        rng = np.random.default_rng(7)
        for case in range(400):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            ts = float(rng.choice([0.05, 0.01, 0.001, rng.uniform(1e-3, 0.2)]))
            disc = zoh_discretize(linearize(params, op), ts)
            k1, k2 = sorted(int(v) for v in rng.integers(0, 200, 2))
            if rng.random() < 0.5:
                start, duration = k1 * ts, (k2 - k1) * ts
            else:
                start, duration = (k1 + rng.random()) * ts, (k2 - k1 + rng.random()) * ts
            profile = DisturbanceProfile(start=start, duration=duration,
                                         magnitude=float(rng.uniform(-300.0, 300.0)),
                                         target=str(rng.choice(["tank1", "tank2", "both"])))
            k = int(rng.choice([k1 - 1, k1, k1 + 1, k2 - 1, k2, k2 + 1, rng.integers(0, 250)]))
            t = max(k, 0) * ts
            h = (rng.uniform(-1.2, 1.0, 2) * [l1, l2]).tolist()
            u = (rng.uniform(-2.0, 2.0, 2) * op.fi1_bar).tolist()
            clamp = bool(rng.integers(2))
            d = disturbance_inflows(profile, op, t)
            bar = (op.fi1_bar, op.fi2_bar)
            f = [max(fb + ui + di, 0.0) - fb if clamp else ui + di
                 for fb, ui, di in zip(bar, u, d)]
            want = disc.a @ h + disc.b @ f
            got = make_linear_advance(disc, op, profile, clamp)(t, *h, *u)
            assert np.max(np.abs(np.array(got) - want)) <= 1e-12, case

    @pytest.mark.parametrize("h, u", [((0.0, 0.0), (math.inf, 0.0)),
                                      ((0.0, 0.0), (0.0, math.nan)),
                                      ((math.nan, 0.0), (0.0, 0.0))])
    def test_non_finite_state_raises(self, h, u):
        disc = zoh_discretize(linearize(DEFAULT_PARAMS, DEFAULT_OP), 0.05)
        with pytest.raises(ArithmeticError, match="non-finite"):
            make_linear_advance(disc, DEFAULT_OP, NO_DISTURBANCE, False)(0.0, *h, *u)
