"""Zero-order-hold discretization against closed forms and an eigen-oracle."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from tankmpc import DEFAULT_PARAMS, LinearModel, linearize, make_operating_point, zoh_discretize
from tankmpc.discretize import expm

from oracles import expm_by_eig

REF_LIN = linearize(DEFAULT_PARAMS, make_operating_point(DEFAULT_PARAMS, 4.0, 3.5))


def scalar_model(a, b):
    return LinearModel(a=[[a]], b=[[b]], c=[[1.0]])


def test_zero_dynamics_pure_gain():
    model = LinearModel(a=np.zeros((2, 2)), b=[[1.0, 2.0], [3.0, 4.0]], c=np.eye(2))
    disc = zoh_discretize(model, 0.5)
    assert np.allclose(disc.a, np.eye(2), atol=1e-14)
    assert np.allclose(disc.b, np.asarray(model.b) * 0.5, atol=1e-14)


def test_scalar_closed_form():
    disc = zoh_discretize(scalar_model(-1.0, 1.0), 0.05)
    # e^-0.05 and 1 - e^-0.05 to 50 digits
    assert disc.a[0, 0] == pytest.approx(0.951229424500714, rel=1e-12)
    assert disc.b[0, 0] == pytest.approx(0.048770575499285984, rel=1e-12)


def test_reference_plant_matches_eigendecomposition():
    """The plant has two real distinct eigenvalues, so diagonalization is exact."""
    disc = zoh_discretize(REF_LIN, 0.05)
    ad_ref = expm_by_eig(REF_LIN.a, 0.05)
    bd_ref = np.linalg.solve(REF_LIN.a, (ad_ref - np.eye(2)) @ REF_LIN.b)
    assert np.max(np.abs(disc.a - ad_ref)) < 1e-10
    assert np.max(np.abs(disc.b - bd_ref)) < 1e-10
    # the sampled model shares the read-only c and carries no feedthrough
    assert disc.c is REF_LIN.c
    assert [f.name for f in dataclasses.fields(disc)] == ["a", "b", "c"]


def test_semigroup_property():
    d1 = zoh_discretize(REF_LIN, 0.03)
    d2 = zoh_discretize(REF_LIN, 0.07)
    d12 = zoh_discretize(REF_LIN, 0.10)
    assert np.max(np.abs(d12.a - d1.a @ d2.a)) < 1e-10


def test_euler_consistency_quadratic_decay():
    """||ad - (I + a ts)|| and ||bd - b ts|| must shrink ~4x per halving."""
    a, b = REF_LIN.a, REF_LIN.b
    errs_a, errs_b = [], []
    ts = 0.02
    for _ in range(4):
        disc = zoh_discretize(REF_LIN, ts)
        errs_a.append(np.linalg.norm(disc.a - (np.eye(2) + a * ts)))
        errs_b.append(np.linalg.norm(disc.b - b * ts))
        ts /= 2
    for seq in (errs_a, errs_b):
        for big, small in zip(seq[:-1], seq[1:]):
            assert 3.0 < big / small < 5.0


def test_small_ts_continuity():
    disc = zoh_discretize(REF_LIN, 1e-8)
    assert np.allclose(disc.a, np.eye(2), atol=1e-6)
    assert np.allclose(disc.b, REF_LIN.b * 1e-8, rtol=1e-6)


def test_stability_preserved():
    disc = zoh_discretize(REF_LIN, 0.05)
    assert np.all(np.abs(np.linalg.eigvals(REF_LIN.a).real) > 0)  # both stable poles
    assert np.all(np.abs(np.linalg.eigvals(disc.a)) < 1.0)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        zoh_discretize(REF_LIN, 0.0)
    with pytest.raises(ValueError):
        zoh_discretize(REF_LIN, -0.05)
    bad = LinearModel(a=[[np.inf]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(ValueError, match="finite"):
        zoh_discretize(bad, 0.05)


def test_overflowing_squarings_rejected_without_a_warning():
    """plant.a1 = 1e300 at ts = 1e300: the 1-norm of [A B] ts is 1.3e301,
    finite, so expm scales it by 2^-998 and squares 998 times.  The
    squarings overflow, though exp(A ts) is bounded (its eigenvalues are
    e^-1.56 and 0).  One ValueError naming the keys, and no numpy
    RuntimeWarning before it (the sampled model was NaN)."""
    params = dataclasses.replace(DEFAULT_PARAMS, a1=1e300)
    lin = linearize(params, make_operating_point(params, 4.0, 3.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"1e\+300 s overflows the squarings.*sim\.ts and "
                                             r"plant\.\* values"):
            zoh_discretize(lin, 1e300)


@pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.01, 0.2, 0.9, 2.0, 5.0, 5.5, 20.0, 60.0])
def test_expm_matches_scipy(norm):
    """The degree-13 Pade approximant against scipy: unscaled up to
    theta_13 (about 5.37), then with 1 (norm 5.5) up to 4 squarings.

    Errors are normwise, relative to the largest entry.  From a norm of
    about 5 on, scipy's own error reaches 1e-13..1e-12 (checked against a
    40-digit reference), so the tolerance allows for it.
    """
    rng = np.random.default_rng(int(norm * 1000))
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        ref = scipy.linalg.expm(a)
        assert np.max(np.abs(expm(a) - ref)) <= 2e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("scale", [0.05, 1.0, 10.0, 30.0])
def test_expm_matches_eigendecomposition(scale):
    """Symmetric matrices have an orthogonal eigenbasis, so the oracle is
    accurate; 1-norms reach ~340, up to 6 squarings."""
    rng = np.random.default_rng(int(scale * 100))
    for _ in range(30):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n))
        a = (g + g.T) * scale
        ref = expm_by_eig(a, 1.0)
        assert np.max(np.abs(expm(a) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_expm_of_zero_and_diagonal():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    d = np.array([-40.0, -1.0, 0.5, 3.0])
    assert np.max(np.abs(expm(np.diag(d)) - np.diag(np.exp(d)))) <= 1e-14 * np.exp(3.0)
