"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tankmpc import (
    DEFAULT_PARAMS,
    ControllerState,
    DeviationState,
    LinearModel,
    MpcConfig,
    augment,
    build_prediction,
    default_run_config,
    linearize,
    loads_config,
    make_operating_point,
    nonlinear_derivatives,
    receding_step,
    run_closed_loop,
    summarize,
    zoh_discretize,
)
from tankmpc.loop import make_loop

from oracles import (
    fd_gradient,
    fd_jacobian,
    iterate_prediction,
    naive_optimal_du,
    random_system,
    random_tank_params,
    tracking_cost,
    tracking_cost_gradient,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The bundled config at one RK4 step per 0.01-s sample, whose closed loop
#: sits at exact fixed points for about a third of its 1501 samples.
HOLD_CONFIG = "sim.ts = 0.01\nsim.substeps = 1\n"

REF_A = np.array([[-7.923, 7.923], [9.781, -12.97]])
REF_B = np.array([[5.093, 0.0], [0.0, 6.288]])


@contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f} s (> {budget_s} s)"
    print(f"\n[criterion {number}] {name}: PASS ({elapsed:.2f} s)")


def reference_setup():
    op = make_operating_point(DEFAULT_PARAMS, 4.0, 3.5)
    lin = linearize(DEFAULT_PARAMS, op)
    return op, lin


def test_criterion_1_linearization_reproduction():
    with criterion(1, "linearization reproduction"):
        _, lin = reference_setup()
        assert np.max(np.abs(lin.a - REF_A)) < 0.01
        # printed B entries carry the 4-digit rounding of the tank areas,
        # so the 0.001 tolerance is relative
        rel_b = np.abs(lin.b - REF_B) / np.maximum(np.abs(REF_B), 1.0)
        assert np.max(rel_b) < 0.001
        assert np.array_equal(lin.c, np.eye(2))
        # a model has no feedthrough field: it cannot carry one
        assert [f.name for f in dataclasses.fields(lin)] == ["a", "b", "c"]


def test_criterion_2_jacobian_consistency():
    with criterion(2, "finite-difference Jacobian consistency", budget_s=1.0):
        rng = np.random.default_rng(2024)
        cases = [(DEFAULT_PARAMS, 4.0, 3.5)]
        cases += [random_tank_params(rng) for _ in range(20)]
        for params, l1, l2 in cases:
            op = make_operating_point(params, l1, l2)
            lin = linearize(params, op)

            def f(h, params=params, op=op):
                return nonlinear_derivatives(params, op, DeviationState(h[0], h[1]), 0.0, 0.0)

            jac = fd_jacobian(f, np.zeros(2), step=1e-6)
            assert np.max(np.abs(jac - lin.a) / np.abs(lin.a)) < 1e-4


def test_criterion_3_prediction_equivalence():
    with criterion(3, "prediction-equation equivalence", budget_s=5.0):
        rng = np.random.default_rng(777)
        for _ in range(200):
            a, b, c, q, m, npred, nctl = random_system(rng, max_dim=6, max_np=12)
            aug = LinearModel(a=a, b=b, c=c)
            pred = build_prediction(aug, MpcConfig(npred, nctl))
            x = rng.uniform(-1, 1, a.shape[0])
            du = rng.uniform(-1, 1, nctl * m)
            y_iter = iterate_prediction(a, b, c, x, du, npred)
            assert np.max(np.abs(pred.psi @ x + pred.phi @ du - y_iter)) < 1e-10


def test_criterion_4_optimality():
    with criterion(4, "gradient and closed-form optimality", budget_s=5.0):
        _, lin = reference_setup()
        aug = augment(zoh_discretize(lin, 0.05))
        pred = build_prediction(aug, MpcConfig(10, 3, rw=1.0))
        psi, phi = pred.psi, pred.phi
        rng = np.random.default_rng(4242)
        for _ in range(100):
            x = rng.uniform(-1, 1, 4)
            r = rng.uniform(-1, 1, 2)
            du = rng.uniform(-1, 1, 6)
            g = tracking_cost_gradient(psi, phi, 1.0, x, r, du)
            g_fd = fd_gradient(lambda v: tracking_cost(psi, phi, 1.0, x, r, v), du, step=1e-6)
            assert np.max(np.abs(g - g_fd)) / max(np.max(np.abs(g)), 1e-12) < 1e-5

            du_opt = naive_optimal_du(aug.a, aug.b, aug.c, 10, 3, 1.0, x, r)
            assert np.max(np.abs(tracking_cost_gradient(psi, phi, 1.0, x, r, du_opt))) < 1e-9
            # the move the law applies from x = [y - prev_y; y], from zero control
            y = x[2:]
            _, u = receding_step(ControllerState(tuple(y - x[:2]), (0.0, 0.0)), pred, tuple(y), tuple(r))
            assert np.max(np.abs(np.array(u) - du_opt[:2])) < 1e-6


def test_criterion_5_offset_free_tracking():
    with criterion(5, "offset-free tracking of the pulse setpoints", budget_s=1.0):
        scenario = default_run_config().scenario
        log = run_closed_loop(scenario)
        metrics = summarize(log, scenario)
        for name, amp in (("h1", 0.5), ("h2", 0.3)):
            rising = [s for s in metrics.outputs[name] if s.target == amp]
            assert len(rising) == 1
            # enters and holds the +/-2% band until the pulse ends
            assert rising[0].settled
            assert rising[0].settling_time < 5.0
            assert rising[0].steady_state_error < 1e-3
        assert abs(log.h1[-1] - log.r1[-1]) < 1e-3
        assert abs(log.h2[-1] - log.r2[-1]) < 1e-3


def test_criterion_6_disturbance_rejection():
    with criterion(6, "rejection of the 10% feed pulse", budget_s=1.0):
        scenario = default_run_config().scenario
        log = run_closed_loop(scenario)
        pulse = (log.t >= 8.0) & (log.t < 10.0)
        excursion = max(np.max(np.abs(log.h1[pulse])), np.max(np.abs(log.h2[pulse])))
        assert 0.0 < excursion < 0.5  # bounded, and the pulse is actually wired in
        recovered = log.t >= 13.0  # pulse end + 3 s
        assert np.max(np.abs(log.h1[recovered] - log.r1[recovered])) < 1e-3
        assert np.max(np.abs(log.h2[recovered] - log.r2[recovered])) < 1e-3


def test_criterion_7_integrator_and_plant_invariants():
    with criterion(7, "equilibrium hold, RK4 order, ZOH semigroup, determinism",
                   budget_s=10.0):
        op, lin = reference_setup()

        # the loop body's plant steps with zero gains and a zero move
        def run(ts, substeps, n, h0):
            rows = np.empty((n, 4))
            zero = np.zeros(n)
            make_loop(DEFAULT_PARAMS, op, ts, substeps, False, (0.0,) * 8)(
                np.arange(n) * ts, zero, zero, zero, zero, {},
                (op.l1 + h0, op.l2 + h0, op.l1 + h0, op.l2 + h0, 0.0, 0.0), rows, True)
            return rows[:, :2]

        # equilibrium hold: drift below 1e-9 per step over 300 steps
        h = run(0.0125, 1, 301, 0.0)
        assert np.max(np.abs(np.diff(h, axis=0))) < 1e-9

        # RK4 order: slope 4 +/- 0.3 against an adaptive reference
        def rhs(t, h):
            return nonlinear_derivatives(DEFAULT_PARAMS, op, DeviationState(*h), 0.0, 0.0)

        sol = solve_ivp(rhs, (0.0, 0.2), [0.1, 0.1], method="DOP853",
                        rtol=1e-12, atol=1e-14)
        ref_end = sol.y[:, -1]
        dts = [0.025, 0.0125, 0.00625]
        errs = []
        for dt in dts:
            errs.append(np.max(np.abs(run(0.2, round(0.2 / dt), 2, 0.1)[1] - ref_end)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 <= slope <= 4.3

        # ZOH semigroup
        d1 = zoh_discretize(lin, 0.02)
        d2 = zoh_discretize(lin, 0.03)
        d12 = zoh_discretize(lin, 0.05)
        assert np.max(np.abs(d12.a - d1.a @ d2.a)) < 1e-10

        # determinism: bit-identical CSV across two runs
        scenario = default_run_config().scenario
        assert run_closed_loop(scenario).to_csv_text() == run_closed_loop(scenario).to_csv_text()


def metrics_as_json(metrics) -> str:
    return json.dumps(dataclasses.asdict(metrics), indent=2, sort_keys=True) + "\n"


def test_criterion_8_regression_goldens():
    with criterion(8, "frozen scenario CSV and metrics reproduce bit-exactly"):
        csv_path = GOLDEN_DIR / "default_scenario.csv"
        metrics_path = GOLDEN_DIR / "default_metrics.json"
        hold_path = GOLDEN_DIR / "hold_scenario.csv"
        assert csv_path.exists() and metrics_path.exists() and hold_path.exists(), (
            "golden files missing; generate them with "
            "`python3 tests/make_goldens.py` after criteria 1-7 pass"
        )
        scenario = default_run_config().scenario
        log = run_closed_loop(scenario)
        assert log.to_csv_text() == csv_path.read_text(encoding="utf-8")
        assert metrics_as_json(summarize(log, scenario)) == metrics_path.read_text(encoding="utf-8")
        hold = run_closed_loop(loads_config(HOLD_CONFIG).scenario)
        assert hold.to_csv_text() == hold_path.read_text(encoding="utf-8")
