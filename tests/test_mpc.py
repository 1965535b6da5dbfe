"""Velocity-form augmentation, prediction matrices, and the closed-form law."""

import numpy as np
import pytest

from tankmpc import (
    DEFAULT_PARAMS,
    ControllerState,
    LinearModel,
    MpcConfig,
    augment,
    build_prediction,
    linearize,
    make_operating_point,
    receding_step,
    zoh_discretize,
)

from oracles import (
    controller_start,
    fd_gradient,
    iterate_prediction,
    naive_optimal_du,
    naive_prediction_matrices,
    random_system,
    tracking_cost,
    tracking_cost_gradient,
)


def tank_augmented():
    lin = linearize(DEFAULT_PARAMS, make_operating_point(DEFAULT_PARAMS, 4.0, 3.5))
    return augment(zoh_discretize(lin, 0.05))


def scalar_augmented(a, b, c=1.0):
    """A 1x1 system treated as already augmented (n=0 plant states)."""
    return LinearModel(a=[[a]], b=[[b]], c=[[c]])


class TestAugment:
    def test_identity_plant_blocks(self):
        disc = LinearModel(a=np.eye(2), b=np.eye(2), c=np.eye(2))
        aug = augment(disc)
        eye, zero = np.eye(2), np.zeros((2, 2))
        assert np.array_equal(aug.a, np.block([[eye, zero], [eye, eye]]))
        assert np.array_equal(aug.b, np.vstack([eye, eye]))
        assert np.array_equal(aug.c, np.hstack([zero, eye]))

    def test_scalar_blocks(self):
        aug = augment(LinearModel(a=[[0.9]], b=[[0.1]], c=[[1.0]]))
        assert np.array_equal(aug.a, [[0.9, 0.0], [0.9, 1.0]])
        # lower input block is Cd*Bd: the output recursion adds Cd Bd du
        assert np.array_equal(aug.b, [[0.1], [0.1]])
        assert np.array_equal(aug.c, [[0.0, 1.0]])

    def test_one_step_identity(self):
        """Augmented recursion must reproduce the plant's increment/output pair."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m, q = 3, 2, 2
            ad = rng.uniform(-1, 1, (n, n))
            bd = rng.uniform(-1, 1, (n, m))
            cd = rng.uniform(-1, 1, (q, n))
            aug = augment(LinearModel(a=ad, b=bd, c=cd))

            xm_prev = rng.uniform(-1, 1, n)
            u_prev = rng.uniform(-1, 1, m)
            u = rng.uniform(-1, 1, m)
            # plant truth: consecutive states from the same recursion
            xm = ad @ xm_prev + bd @ u_prev
            xm_next = ad @ xm + bd @ u
            y, y_next = cd @ xm, cd @ xm_next
            # augmented model
            x = np.concatenate([xm - xm_prev, y])
            x_next = aug.a @ x + aug.b @ (u - u_prev)
            assert np.allclose(x_next[:n], xm_next - xm, atol=1e-12)
            assert np.allclose(x_next[n:], y_next, atol=1e-12)
            assert np.allclose(aug.c @ x, y, atol=1e-12)

    def test_tank_plant_structure(self):
        aug = tank_augmented()
        assert aug.a.shape == (4, 4)
        assert np.array_equal(aug.a[2:, 2:], np.eye(2))
        assert np.array_equal(aug.a[:2, 2:], np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            LinearModel(a=np.eye(2), b=np.ones((3, 1)), c=np.eye(2))
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            LinearModel(a=np.eye(2), b=np.ones((2, 1)), c=np.ones((2, 3)))

    def test_dimensions_read_off_the_arrays(self):
        """augment of an (n, m, q) model has n + q states, m inputs and q
        outputs, and its gains carry m and q in kr's shape."""
        rng = np.random.default_rng(5)
        n, m, q = 3, 2, 1
        disc = LinearModel(a=rng.uniform(-1, 1, (n, n)), b=rng.uniform(-1, 1, (n, m)),
                           c=rng.uniform(-1, 1, (q, n)))
        assert (disc.n_states, disc.n_inputs, disc.n_outputs) == (n, m, q)
        aug = augment(disc)
        assert (aug.n_states, aug.n_inputs, aug.n_outputs) == (n + q, m, q)
        pred = build_prediction(aug, MpcConfig(6, 2))
        assert (pred.m, pred.q) == pred.kr.shape == (m, q)
        assert len(pred.gains) == m * q + m * n


class TestMpcConfig:
    def test_horizon_ordering(self):
        with pytest.raises(ValueError):
            MpcConfig(np_horizon=2, nc_horizon=3)
        with pytest.raises(ValueError):
            MpcConfig(np_horizon=5, nc_horizon=0)
        with pytest.raises(ValueError):
            MpcConfig(np_horizon=5, nc_horizon=3, rw=-1.0)
        assert MpcConfig(np_horizon=3, nc_horizon=3).rw == 1.0


class TestBuildPrediction:
    def test_scalar_two_step(self):
        pred = build_prediction(scalar_augmented(1.0, 1.0), MpcConfig(2, 1, rw=0.3))
        assert np.array_equal(pred.psi, [[1.0], [1.0]])
        assert np.array_equal(pred.phi, [[1.0], [1.0]])
        # one move against the Hessian phi.T phi + rw = 2.3: both gains are 2 / 2.3
        assert pred.kr[0, 0] == pytest.approx(2.0 / 2.3, rel=1e-15)
        assert pred.kx[0, 0] == pytest.approx(2.0 / 2.3, rel=1e-15)

    def test_scalar_decaying(self):
        pred = build_prediction(scalar_augmented(0.5, 1.0), MpcConfig(3, 2))
        assert np.array_equal(pred.psi, [[0.5], [0.25], [0.125]])
        assert np.array_equal(pred.phi, [[1.0, 0.0], [0.5, 1.0], [0.25, 0.5]])

    def test_tank_plant_toeplitz(self):
        pred = build_prediction(tank_augmented(), MpcConfig(10, 3))
        assert pred.psi.shape == (20, 4)
        assert pred.phi.shape == (20, 6)
        q, m = 2, 2
        for i in range(1, 10):
            for j in range(1, 3):
                blk = pred.phi[i * q : (i + 1) * q, j * m : (j + 1) * m]
                prev = pred.phi[(i - 1) * q : i * q, (j - 1) * m : j * m]
                assert np.array_equal(blk, prev)

    def test_matches_naive_construction(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b, c, q, m, npred, nctl = random_system(rng)
            aug = LinearModel(a=a, b=b, c=c)
            pred = build_prediction(aug, MpcConfig(npred, nctl))
            psi_ref, phi_ref = naive_prediction_matrices(a, b, c, npred, nctl)
            assert np.allclose(pred.psi, psi_ref, atol=1e-12)
            assert np.allclose(pred.phi, phi_ref, atol=1e-12)

    def test_every_horizon_around_powers_of_two(self):
        # psi is built by doubling; horizons on either side of 2^k take a
        # partial last product
        aug = tank_augmented()
        for npred in range(1, 41):
            pred = build_prediction(aug, MpcConfig(npred, min(npred, 3)))
            psi_ref, phi_ref = naive_prediction_matrices(aug.a, aug.b, aug.c, npred, min(npred, 3))
            assert pred.psi.shape == psi_ref.shape, npred
            assert np.allclose(pred.psi, psi_ref, rtol=1e-12, atol=1e-14), npred
            assert np.allclose(pred.phi, phi_ref, rtol=1e-12, atol=1e-14), npred

    def test_prediction_equivalence_master_property(self):
        """Stepping the recursion must equal psi x + phi dU."""
        rng = np.random.default_rng(29)
        for _ in range(50):
            a, b, c, q, m, npred, nctl = random_system(rng)
            aug = LinearModel(a=a, b=b, c=c)
            pred = build_prediction(aug, MpcConfig(npred, nctl))
            x = rng.uniform(-1, 1, a.shape[0])
            du = rng.uniform(-1, 1, nctl * m)
            y_direct = iterate_prediction(a, b, c, x, du, npred)
            assert np.max(np.abs(pred.psi @ x + pred.phi @ du - y_direct)) < 1e-10

    def test_singular_hessian_fails_loudly(self):
        # b = 0 makes phi vanish; with rw = 0 the normal matrix is singular
        with pytest.raises(np.linalg.LinAlgError):
            build_prediction(scalar_augmented(0.9, 0.0), MpcConfig(4, 2, rw=0.0))


class TestCostAndGradient:
    """The tracking cost and its gradient (tests/oracles.py) on the package's
    psi and phi: the references criterion 4 checks the law against."""

    def test_zero_cost_at_setpoint_with_zero_move(self):
        pred = build_prediction(tank_augmented(), MpcConfig(10, 3))
        r = np.array([0.4, -0.2])
        x = np.concatenate([np.zeros(2), r])  # integrator state pinned at r
        assert tracking_cost(pred.psi, pred.phi, 1.0, x, r, np.zeros(6)) == 0.0

    def test_expanded_form_identity(self):
        """Residual form and expanded quadratic form agree to roundoff."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c, q, m, npred, nctl = random_system(rng)
            aug = LinearModel(a=a, b=b, c=c)
            cfg = MpcConfig(npred, nctl, rw=float(rng.uniform(0, 2)))
            pred = build_prediction(aug, cfg)
            x = rng.uniform(-1, 1, a.shape[0])
            r = rng.uniform(-1, 1, q)
            du = rng.uniform(-1, 1, nctl * m)
            rs = np.tile(r, npred)
            e0 = rs - pred.psi @ x
            expanded = e0 @ e0 - 2 * du @ (pred.phi.T @ e0) + du @ ((pred.phi.T @ pred.phi + cfg.rw * np.eye(du.size)) @ du)
            direct = tracking_cost(pred.psi, pred.phi, cfg.rw, x, r, du)
            assert direct == pytest.approx(expanded, rel=1e-10, abs=1e-12)

    def test_scalar_hand_expansion(self):
        # a=0.5, b=1, c=1, Np=2, Nc=1: Y = [0.5 x + du, 0.25 x + 0.5 du]
        pred = build_prediction(scalar_augmented(0.5, 1.0), MpcConfig(2, 1, rw=0.7))
        x, r, du = 0.8, 1.5, 0.4
        y1 = 0.5 * x + du
        y2 = 0.25 * x + 0.5 * du
        by_hand = (r - y1) ** 2 + (r - y2) ** 2 + 0.7 * du**2
        assert tracking_cost(pred.psi, pred.phi, 0.7, [x], [r], [du]) == pytest.approx(by_hand, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            a, b, c, q, m, npred, nctl = random_system(rng)
            aug = LinearModel(a=a, b=b, c=c)
            rw = float(rng.uniform(0.1, 2))
            pred = build_prediction(aug, MpcConfig(npred, nctl, rw=rw))
            x = rng.uniform(-1, 1, a.shape[0])
            r = rng.uniform(-1, 1, q)
            du = rng.uniform(-1, 1, nctl * m)
            g = tracking_cost_gradient(pred.psi, pred.phi, rw, x, r, du)
            g_fd = fd_gradient(lambda v: tracking_cost(pred.psi, pred.phi, rw, x, r, v), du, step=1e-6)
            assert np.max(np.abs(g - g_fd)) / max(np.max(np.abs(g)), 1e-12) < 1e-5

    def test_gradient_vanishes_at_optimum(self):
        aug = tank_augmented()
        pred = build_prediction(aug, MpcConfig(10, 3))
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 4)
            r = rng.uniform(-0.5, 0.5, 2)
            du = naive_optimal_du(aug.a, aug.b, aug.c, 10, 3, 1.0, x, r)
            assert np.max(np.abs(tracking_cost_gradient(pred.psi, pred.phi, 1.0, x, r, du))) < 1e-9

    def test_gradient_without_plant_influence(self):
        pred = build_prediction(scalar_augmented(0.8, 0.0), MpcConfig(3, 2, rw=0.9))
        du = np.array([0.3, -1.1])
        g = tracking_cost_gradient(pred.psi, pred.phi, 0.9, [0.5], [1.0], du)
        assert np.allclose(g, 2 * 0.9 * du, atol=1e-14)


class TestSolveOptimal:
    """The first-move gain against the full-horizon optimum it is cut from,
    the oracle's dense solve."""

    def test_zero_move_at_setpoint(self):
        pred = build_prediction(tank_augmented(), MpcConfig(10, 3))
        r = np.array([0.2, 0.1])
        x = np.concatenate([np.zeros(2), r])
        assert np.max(np.abs(pred.kr @ r - pred.kx @ x)) < 1e-15

    def test_one_step_deadbeat(self):
        pred = build_prediction(scalar_augmented(1.0, 1.0), MpcConfig(1, 1, rw=0.0))
        du = pred.kr @ [1.0] - pred.kx @ [0.0]
        assert du[0] == pytest.approx(1.0, rel=1e-14)

    def test_matches_independent_dense_solve(self):
        """kr and kx are the dense solve's first move per unit setpoint and
        per unit state: its columns for r = I, x = 0 and for r = 0, x = I."""
        aug = tank_augmented()
        pred = build_prediction(aug, MpcConfig(10, 3))
        kr_ref = naive_optimal_du(aug.a, aug.b, aug.c, 10, 3, 1.0, np.zeros((4, 2)), np.eye(2))[:2]
        kx_ref = -naive_optimal_du(aug.a, aug.b, aug.c, 10, 3, 1.0, np.eye(4), np.zeros((2, 4)))[:2]
        assert np.max(np.abs(pred.kr - kr_ref)) < 1e-12
        assert np.max(np.abs(pred.kx - kx_ref)) < 1e-12

    def test_minimizes_cost(self):
        """The optimum with its first block replaced by the law's move beats
        random perturbations of itself."""
        rng = np.random.default_rng(59)
        aug = tank_augmented()
        pred = build_prediction(aug, MpcConfig(8, 4, rw=0.2))
        x = rng.uniform(-0.5, 0.5, 4)
        r = rng.uniform(-0.5, 0.5, 2)
        du = naive_optimal_du(aug.a, aug.b, aug.c, 8, 4, 0.2, x, r)
        du[:2] = pred.kr @ r - pred.kx @ x
        j_opt = tracking_cost(pred.psi, pred.phi, 0.2, x, r, du)
        for _ in range(50):
            j_other = tracking_cost(pred.psi, pred.phi, 0.2, x, r, du + rng.normal(0, 0.1, du.size))
            assert j_opt <= j_other

    def test_argmin_scales_linearly(self):
        pred = build_prediction(tank_augmented(), MpcConfig(10, 3))
        rng = np.random.default_rng(61)
        prev_y, y, r = (rng.uniform(-1, 1, 2) for _ in range(3))
        prev_u = rng.uniform(-1, 1, 2)

        def move(tau):
            ctrl = ControllerState(tuple(tau * prev_y), tuple(tau * prev_u))
            return np.array(receding_step(ctrl, pred, tuple(tau * y), tuple(tau * r))[1])

        base = move(1.0)
        for tau in (0.5, 2.0, 7.5):
            assert np.allclose(move(tau), tau * base, rtol=1e-12, atol=1e-14)


class TestFirstMoveGain:
    @pytest.mark.parametrize("npred, nctl, rw", [
        (10, 3, 1.0), (1, 1, 0.5), (20, 5, 0.01), (40, 3, 100.0), (6, 6, 0.2),
    ])
    def test_gain_equals_first_optimal_move(self, npred, nctl, rw):
        """kr @ r - kx @ x is the first block of the full-horizon optimum.

        Both sides carry roundoff of order cond(H) * eps, H = phi.T phi + rw I:
        with rw = 0.01 and Nc = 5, cond(H) is ~2.5e4 and each side is ~1e-12
        off a 50-digit reference, so the tolerance grows with cond(H) there.
        """
        aug = tank_augmented()
        pred = build_prediction(aug, MpcConfig(npred, nctl, rw))
        assert pred.kr.shape == (2, 2) and pred.kx.shape == (2, 4)
        hessian = pred.phi.T @ pred.phi + rw * np.eye(nctl * 2)
        tol = max(1e-12, 10 * np.linalg.cond(hessian) * np.finfo(float).eps)
        rng = np.random.default_rng(npred * 100 + nctl)
        x = rng.uniform(-1, 1, (1000, 4)).T  # one case per column
        r = rng.uniform(-1, 1, (1000, 2)).T
        du = pred.kr @ r - pred.kx @ x
        du_ref = naive_optimal_du(aug.a, aug.b, aug.c, npred, nctl, rw, x, r)[:2]
        assert np.max(np.abs(du - du_ref)) < tol

    def test_gain_on_random_systems(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            a, b, c, q, m, npred, nctl = random_system(rng)
            aug = LinearModel(a=a, b=b, c=c)
            rw = float(rng.uniform(0.1, 2))
            pred = build_prediction(aug, MpcConfig(npred, nctl, rw=rw))
            x = rng.uniform(-1, 1, a.shape[0])
            r = rng.uniform(-1, 1, q)
            du = pred.kr @ r - pred.kx @ x
            du_ref = naive_optimal_du(a, b, c, npred, nctl, rw, x, r)[:m]
            assert np.allclose(du, du_ref, rtol=1e-10, atol=1e-12)

    def test_receding_step_applies_first_optimal_move(self):
        aug = tank_augmented()
        cfg = MpcConfig(10, 3)
        pred = build_prediction(aug, cfg)
        rng = np.random.default_rng(71)
        for _ in range(100):
            prev_y = rng.uniform(-1, 1, 2)
            prev_u = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            r = rng.uniform(-1, 1, 2)
            ctrl = ControllerState(prev_plant_state=prev_y, prev_control=prev_u)
            _, u = receding_step(ctrl, pred, y, r)
            x = np.concatenate([y - prev_y, y])
            du = naive_optimal_du(aug.a, aug.b, aug.c, 10, 3, 1.0, x, r)[:2]
            assert np.max(np.abs(u - (prev_u + du))) < 1e-12

    def test_setpoint_checked(self):
        aug = tank_augmented()
        cfg = MpcConfig(10, 3)
        pred = build_prediction(aug, cfg)
        ctrl = controller_start(np.zeros(2), n_inputs=2)
        with pytest.raises(ValueError, match="entries"):
            receding_step(ctrl, pred, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            receding_step(ctrl, pred, np.zeros(2), [np.nan, 0.0])


class TestRecedingStep:
    def setup_method(self):
        self.aug = tank_augmented()
        self.cfg = MpcConfig(10, 3)
        self.pred = build_prediction(self.aug, self.cfg)

    def test_steady_at_setpoint_means_no_move(self):
        y = np.array([0.25, 0.15])
        ctrl = ControllerState(prev_plant_state=y, prev_control=np.array([0.1, -0.2]))
        new_ctrl, u = receding_step(ctrl, self.pred, y, y)
        assert np.array_equal(u, ctrl.prev_control)
        assert np.array_equal(new_ctrl.prev_control, u)

    def test_first_step_at_operating_point(self):
        ctrl = controller_start(np.zeros(2), n_inputs=2)
        _, u = receding_step(ctrl, self.pred, np.zeros(2), np.zeros(2))
        assert np.array_equal(u, np.zeros(2))

    def test_integral_action_holds_output(self):
        """With zero increments and zero state increment, y stays put."""
        x = np.concatenate([np.zeros(2), [0.3, -0.1]])
        for _ in range(100):
            x = self.aug.a @ x
            assert np.array_equal(self.aug.c @ x, np.array([0.3, -0.1]))

    def test_measurement_dimension_checked(self):
        ctrl = controller_start(np.zeros(2), n_inputs=2)
        with pytest.raises(ValueError):
            receding_step(ctrl, self.pred, np.zeros(3), np.zeros(2))

    def test_frozen_first_moves_after_setpoint_edge(self):
        """Regression trace recorded once the solver passed its oracles."""
        from tankmpc import default_run_config, run_closed_loop

        # (t, u1, u2, h1, h2) of the first three samples after the step
        frozen = [
            (0.50, 0.3594589027675589, 0.1889180282186346, 0.0, 0.0),
            (0.55, 0.5060528120228294, 0.22466623894904478,
             0.08623554579221683, 0.061142662401552916),
            (0.60, 0.530488655597098, 0.1799386790012143,
             0.197952057240488, 0.1373329392835125),
        ]
        log = run_closed_loop(default_run_config().scenario)
        for (t, u1, u2, h1, h2), k in zip(frozen, (10, 11, 12)):
            assert log.t[k] == pytest.approx(t, abs=1e-12)
            assert log.u1[k] == pytest.approx(u1, rel=1e-10)
            assert log.u2[k] == pytest.approx(u2, rel=1e-10)
            assert log.h1[k] == pytest.approx(h1, rel=1e-10, abs=1e-12)
            assert log.h2[k] == pytest.approx(h2, rel=1e-10, abs=1e-12)
