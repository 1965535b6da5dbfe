"""Receding-horizon predictive control in velocity form.

The sampled plant model is rewritten in control increments and stacked
with the measured output (`augment`, another `LinearModel`), which
embeds an integrator in the controller and gives offset-free tracking
of constant setpoints.  Over a prediction horizon the future outputs are
an affine map of the current augmented state and the stacked control
increments,

    Y = psi @ x + phi @ dU,

and minimizing ||Rs - Y||^2 + rw*||dU||^2 has the closed-form solution

    dU = (phi.T phi + rw I)^-1 phi.T (Rs - psi @ x).

Only the first control increment is applied.  The model is time
invariant, so the first m rows of that map are a fixed gain, computed
once: du(k) = kr @ r - kx @ x(k), with r the setpoint held over the
horizon (Wang, Model Predictive Control System Design and
Implementation Using MATLAB, Springer 2009, ch. 1).  Only that gain runs;
the tests hold the cost and full-horizon optimum as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tank import LinearModel


@dataclass(frozen=True)
class MpcConfig:
    """Horizon lengths and the control-move weight.

    rw scales the identity penalty on the stacked control increments;
    rw > 0 guarantees a positive-definite Hessian.
    """

    np_horizon: int  # prediction horizon (samples)
    nc_horizon: int  # control horizon (samples)
    rw: float = 1.0  # control-move weight

    def __post_init__(self):
        if not 1 <= self.nc_horizon <= self.np_horizon:
            raise ValueError(
                f"need 1 <= nc <= np, got nc={self.nc_horizon}, np={self.np_horizon}"
            )
        if self.rw < 0:
            raise ValueError(f"control-move weight must be >= 0, got {self.rw}")


def augment(model: LinearModel) -> LinearModel:
    """Velocity-form model of a sampled model (Ad, Bd, Cd): its state is
    [delta x_m; y] and its input is delta u,

        a = [[Ad,    0 ],     b = [[Bd   ],     c = [0  I].
             [Cd Ad, I ]],         [Cd Bd]],

    The construction satisfies the one-step identity
    y(k+1) = y(k) + Cd Ad dx_m(k) + Cd Bd du(k).
    """
    n, m, q = model.n_states, model.n_inputs, model.n_outputs

    a = np.zeros((n + q, n + q))
    a[:n, :n] = model.a
    a[n:, :n] = model.c @ model.a
    a[n:, n:] = np.eye(q)

    b = np.zeros((n + q, m))
    b[:n] = model.b
    b[n:] = model.c @ model.b

    c = np.zeros((q, n + q))
    c[:, n:] = np.eye(q)
    return LinearModel(a=a, b=b, c=c)


@dataclass(frozen=True)
class PredictionMatrices:
    """Horizon maps and the first-move gains.

    psi : (Np*q, n+q)   block row k is C A^(k+1)
    phi : (Np*q, Nc*m)  block (i, j) is C A^(i-j) B for i >= j, else 0
    kr : (m, q)    first-move gain on the setpoint
    kx : (m, n+q)  first-move gain on the augmented state [dx_m; y]
    gains : kr and the dx_m block kx[:, :n], row by row, as one flat tuple
        of floats, the form the per-sample law reads them in
    m, q : plant inputs and outputs, read off kr
    """

    psi: np.ndarray
    phi: np.ndarray
    kr: np.ndarray
    kx: np.ndarray
    gains: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for mat in (self.psi, self.phi, self.kr, self.kx):
            mat.setflags(write=False)
        n = self.psi.shape[1] - self.q
        gains = self.kr.ravel().tolist() + self.kx[:, :n].ravel().tolist()
        object.__setattr__(self, "gains", tuple(gains))

    @property
    def m(self) -> int:
        return self.kr.shape[0]

    @property
    def q(self) -> int:
        return self.kr.shape[1]


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises the named ValueError below
def build_prediction(aug: LinearModel, cfg: MpcConfig) -> PredictionMatrices:
    """Assemble psi, phi and the first-move gains.

    Raises numpy.linalg.LinAlgError if rw = 0 and phi.T phi is
    singular; the closed-form law assumes phi.T phi + rw I is invertible.
    Raises ValueError, naming this stage, if phi.T phi or the gains
    overflow, as they do for a plant scaled far out of range.
    """
    nq, m, q = aug.n_states, aug.n_inputs, aug.n_outputs
    npred, nctl = cfg.np_horizon, cfg.nc_horizon

    # block k of rows is C A^k, k = 0..Np, by doubling: the first `done`
    # blocks times A^done give the next ones, so log2(Np) stacked products
    rows = np.empty(((npred + 1) * q, nq))
    rows[:q] = aug.c
    power, done = aug.a, 1  # power is A^done
    while done <= npred:
        take = min(done, npred + 1 - done)
        np.matmul(rows[: take * q], power, out=rows[done * q : (done + take) * q])
        done += take
        if done <= npred:
            power = power @ power
    psi = rows[q:]
    impulse = rows[: npred * q] @ aug.b  # block k is C A^k B

    phi = np.zeros((npred * q, nctl * m))
    for j in range(nctl):
        phi[j * q :, j * m : (j + 1) * m] = impulse[: (npred - j) * q]

    h = phi.T @ phi
    if not np.isfinite(h).all():
        raise _overflow("phi.T phi")
    h = (h + h.T) * 0.5 + cfg.rw * np.eye(nctl * m)
    np.linalg.cholesky(h)  # raises LinAlgError unless h is positive definite
    first = np.linalg.solve(h, phi.T)[:m]  # first-move rows of h^-1 phi.T
    kr = first.reshape(m, npred, q).sum(axis=1)
    kx = first @ psi
    if not (np.isfinite(kr).all() and np.isfinite(kx).all()):
        raise _overflow("the first-move gain")
    return PredictionMatrices(psi=psi, phi=phi, kr=kr, kx=kx)


def _overflow(what: str) -> ValueError:
    return ValueError(f"prediction set-up: {what} overflows; the plant.* and mpc.* values "
                      f"are out of range")


class ControllerState(NamedTuple):
    """History the receding-horizon controller carries between samples."""

    prev_plant_state: tuple[float, ...]  # last measured plant state (= output here)
    prev_control: tuple[float, ...]  # last applied control, deviation flows


def receding_step(
    ctrl: ControllerState,
    pred: PredictionMatrices,
    measurement,
    r,
) -> tuple[ControllerState, tuple[float, float]]:
    """One controller sample: measure, apply the first optimal increment.

    The output matrix is the identity for the tank plant, so the
    measured output *is* the plant state and the state increment is the
    difference of consecutive measurements; no observer is needed.
    Returns the updated controller state and the absolute control u(k)
    (still in deviation flows relative to the operating point).

    The increment is kr @ r - kx @ [dx; y].  In the velocity form the
    y-block of kx equals kr (every output row of psi carries an identity
    on y), so it is applied as kr @ (r - y) - kx_dx @ dx: a plant held
    at its setpoint then gets exactly zero move.  The law is written out
    in floats for the tank's two inputs and two outputs; the loop body of
    `plant.make_loop` applies it inline, in the same expression order, and
    is tested against this one-sample form.
    """
    if len(measurement) != pred.q:
        raise ValueError(f"measurement has {len(measurement)} entries, expected {pred.q}")
    if len(r) != pred.q:
        raise ValueError(f"setpoint has {len(r)} entries, expected {pred.q}")
    y1, y2 = measurement
    r1, r2 = r
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError("setpoint entries must be finite")
    kr11, kr12, kr21, kr22, kx11, kx12, kx21, kx22 = pred.gains
    p1, p2 = ctrl.prev_plant_state
    u1, u2 = ctrl.prev_control
    e1, e2 = r1 - y1, r2 - y2
    dx1, dx2 = y1 - p1, y2 - p2
    u = (u1 + ((kr11 * e1 + kr12 * e2) - (kx11 * dx1 + kx12 * dx2)),
         u2 + ((kr21 * e1 + kr22 * e2) - (kx21 * dx1 + kx22 * dx2)))
    return ControllerState((y1, y2), u), u
