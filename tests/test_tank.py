"""Tank dynamics, steady-state solver, and linearization."""

import dataclasses
import math

import numpy as np
import pytest

from tankmpc import (
    DEFAULT_PARAMS,
    DeviationState,
    LinearModel,
    OperatingPoint,
    TankParams,
    linearize,
    make_operating_point,
    nonlinear_derivatives,
    steady_inflows,
)

from oracles import fd_jacobian, random_tank_params

DEFAULT_OP = make_operating_point(DEFAULT_PARAMS, 4.0, 3.5)

# published reference matrices, 4 significant figures
REF_A = np.array([[-7.923, 7.923], [9.781, -12.97]])
REF_B = np.array([[5.093, 0.0], [0.0, 6.288]])

# frozen 50-digit evaluations of the closed-form right-hand sides
DERIV_AT_05_03 = (-1.451946713013559, 0.854149724354715)
STEADY_REF = (1.5556349186104046, 1.9989395988248397)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TankParams(a1=0.0, a2=0.1, alpha1=1.0, alpha2=1.0)
        with pytest.raises(ValueError):
            TankParams(a1=0.1, a2=-0.1, alpha1=1.0, alpha2=1.0)
        with pytest.raises(ValueError):
            TankParams(a1=0.1, a2=0.1, alpha1=-0.1, alpha2=1.0)
        with pytest.raises(ValueError):
            TankParams(a1=0.1, a2=0.1, alpha1=1.0, alpha2=0.0)

    def test_operating_point_ordering(self):
        with pytest.raises(ValueError):
            OperatingPoint(l1=3.5, l2=3.5, fi1_bar=0.0, fi2_bar=1.0)
        with pytest.raises(ValueError):
            OperatingPoint(l1=2.0, l2=-0.1, fi1_bar=0.0, fi2_bar=1.0)


class TestNonlinearDerivatives:
    def test_equilibrium_is_exact_zero(self):
        rng = np.random.default_rng(7)
        cases = [(DEFAULT_PARAMS, 4.0, 3.5)]
        cases += [random_tank_params(rng) for _ in range(20)]
        for params, l1, l2 in cases:
            op = make_operating_point(params, l1, l2)
            d = nonlinear_derivatives(params, op, DeviationState(0.0, 0.0), 0.0, 0.0)
            assert d == (0.0, 0.0)

    def test_frozen_high_precision_point(self):
        d = nonlinear_derivatives(DEFAULT_PARAMS, DEFAULT_OP, DeviationState(0.5, 0.3), 0.0, 0.0)
        assert d[0] == pytest.approx(DERIV_AT_05_03[0], rel=1e-12)
        assert d[1] == pytest.approx(DERIV_AT_05_03[1], rel=1e-12)

    def test_decoupled_when_alpha1_zero(self):
        params = TankParams(a1=1.0, a2=0.2, alpha1=0.0, alpha2=1.5)
        op = make_operating_point(params, 3.0, 2.0)
        d = nonlinear_derivatives(params, op, DeviationState(0.7, -0.4), 1.0, 0.0)
        assert d[0] == 1.0  # pure integrator: fi1 / a1 with a1 = 1
        # dh2 depends only on h2
        d_other = nonlinear_derivatives(params, op, DeviationState(-1.2, -0.4), 1.0, 0.0)
        assert d[1] == d_other[1]

    def test_reverse_coupling_flow_is_signed(self):
        # tank 2 above tank 1: flow runs backwards, filling tank 1
        d = nonlinear_derivatives(DEFAULT_PARAMS, DEFAULT_OP, DeviationState(-0.5, 0.5), 0.0, 0.0)
        assert d[0] > 0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            nonlinear_derivatives(DEFAULT_PARAMS, DEFAULT_OP, DeviationState(0.0, -3.6), 0.0, 0.0)


class TestSteadyInflows:
    def test_reference_values(self):
        fi1, fi2 = steady_inflows(DEFAULT_PARAMS, 4.0, 3.5)
        assert fi1 == pytest.approx(STEADY_REF[0], rel=1e-13)
        assert fi2 == pytest.approx(STEADY_REF[1], rel=1e-13)

    def test_no_coupling(self):
        params = TankParams(a1=0.1963, a2=0.159, alpha1=0.0, alpha2=1.9)
        fi1, fi2 = steady_inflows(params, 4.0, 3.5)
        assert fi1 == 0.0
        assert fi2 == 1.9 * math.sqrt(3.5)

    def test_zero_head_difference(self):
        fi1, _ = steady_inflows(DEFAULT_PARAMS, 3.5, 3.5)
        assert fi1 == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            steady_inflows(DEFAULT_PARAMS, 3.0, 3.5)
        with pytest.raises(ValueError):
            steady_inflows(DEFAULT_PARAMS, 3.0, -0.5)

    def test_substitute_back_residual(self):
        """The returned feeds must zero the mass balances."""
        rng = np.random.default_rng(11)
        cases = [(DEFAULT_PARAMS, 4.0, 3.5)]
        cases += [random_tank_params(rng) for _ in range(20)]
        for params, l1, l2 in cases:
            fi1, fi2 = steady_inflows(params, l1, l2)
            out1 = params.alpha1 * math.sqrt(l1 - l2)
            out2 = params.alpha2 * math.sqrt(l2)
            assert abs(fi1 - out1) < 1e-12
            assert abs(fi2 - out2 + out1) < 1e-12

    def test_strict_physical_mode(self):
        params = TankParams(a1=0.1, a2=0.1, alpha1=4.0, alpha2=0.5)
        assert make_operating_point(params, 4.0, 0.5).fi2_bar < 0


class TestLinearize:
    def test_reference_plant(self):
        lin = linearize(DEFAULT_PARAMS, DEFAULT_OP)
        assert np.max(np.abs(lin.a - REF_A)) < 0.01
        assert np.max(np.abs(lin.b - REF_B) / np.maximum(np.abs(REF_B), 1.0)) < 1e-3
        # exact structure
        assert np.array_equal(lin.b, np.diag([1 / 0.1963, 1 / 0.159]))
        assert np.array_equal(lin.c, np.eye(2))
        # a model has no feedthrough field: it cannot carry one
        assert [f.name for f in dataclasses.fields(lin)] == ["a", "b", "c"]

    def test_decoupled(self):
        params = TankParams(a1=0.1963, a2=0.159, alpha1=0.0, alpha2=1.9)
        lin = linearize(params, make_operating_point(params, 4.0, 3.5))
        assert lin.a[0, 0] == 0.0 and lin.a[0, 1] == 0.0 and lin.a[1, 0] == 0.0
        assert lin.a[1, 1] < 0.0

    def test_row1_antisymmetry_and_signs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params, l1, l2 = random_tank_params(rng)
            lin = linearize(params, make_operating_point(params, l1, l2))
            assert lin.a[0, 0] == -lin.a[0, 1]
            assert lin.a[0, 0] < 0 and lin.a[1, 1] < 0
            assert lin.a[0, 1] > 0 and lin.a[1, 0] > 0

    def test_singular_at_empty_tank2(self):
        op = OperatingPoint(l1=1.0, l2=0.0, fi1_bar=2.2, fi2_bar=-2.2)
        with pytest.raises(ValueError, match="singular"):
            linearize(DEFAULT_PARAMS, op)

    def test_jacobian_consistency(self):
        """Finite differences of the nonlinear dynamics must reproduce `a`."""
        rng = np.random.default_rng(31)
        cases = [(DEFAULT_PARAMS, 4.0, 3.5)]
        cases += [random_tank_params(rng) for _ in range(20)]
        for params, l1, l2 in cases:
            op = make_operating_point(params, l1, l2)
            lin = linearize(params, op)

            def f(h, params=params, op=op):
                return nonlinear_derivatives(params, op, DeviationState(h[0], h[1]), 0.0, 0.0)

            jac = fd_jacobian(f, np.zeros(2), step=1e-6)
            assert np.max(np.abs(jac - lin.a) / np.abs(lin.a)) < 1e-4

    def test_input_slope_is_exactly_b(self):
        """At the operating point the dynamics are affine in the feeds with slope b."""
        rng = np.random.default_rng(43)
        for _ in range(10):
            params, l1, l2 = random_tank_params(rng)
            op = make_operating_point(params, l1, l2)
            lin = linearize(params, op)
            z = DeviationState(0.0, 0.0)
            base = np.array(nonlinear_derivatives(params, op, z, 0.0, 0.0))
            col1 = np.array(nonlinear_derivatives(params, op, z, 1.0, 0.0)) - base
            col2 = np.array(nonlinear_derivatives(params, op, z, 0.0, 1.0)) - base
            assert np.array_equal(np.column_stack([col1, col2]), lin.b)


def test_linear_model_freezes_a_copy():
    """The record is read-only, yet the caller can still write the array it
    passed; an array that is already read-only is shared, not copied."""
    a, c = np.eye(2), np.eye(2)
    c.setflags(write=False)
    model = LinearModel(a=a, b=np.ones((2, 1)), c=c)
    a[0, 0] = 5.0
    assert model.a[0, 0] == 1.0 and not model.a.flags.writeable
    assert model.c is c
    with pytest.raises(ValueError, match="read-only"):
        model.a[0, 0] = 5.0
