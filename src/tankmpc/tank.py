"""Physical model of the two coupled tanks.

Two tanks in series: tank 1 drains into tank 2 through valve V1, tank 2
drains to the outside through valve V2, and each tank has its own feed
flow.  Both outflows follow the square-root orifice law, so the level
dynamics are nonlinear.  This module holds the plant constants, the
nonlinear level dynamics written as deviations from a steady operating
point, the steady-state flow solver, the first-order Taylor
linearization about that operating point, and `LinearModel`, the one
state-space record of the package.

Units: levels in m, flows in m^3/s, areas in m^2, discharge
coefficients in m^(5/2)/s, time in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Negative sqrt arguments within this margin are treated as 0 (roundoff
# from the integrator); anything worse is a genuine domain violation.
SQRT_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class TankParams:
    """Plant constants: cross-section areas and valve discharge coefficients."""

    a1: float  # tank 1 cross-section area (m^2)
    a2: float  # tank 2 cross-section area (m^2)
    alpha1: float  # discharge coefficient of the coupling valve V1 (m^(5/2)/s)
    alpha2: float  # discharge coefficient of the outlet valve V2 (m^(5/2)/s)

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError(f"tank areas must be positive, got a1={self.a1}, a2={self.a2}")
        if self.alpha1 < 0 or self.alpha2 <= 0:
            raise ValueError(
                f"need alpha1 >= 0 and alpha2 > 0, got alpha1={self.alpha1}, alpha2={self.alpha2}"
            )


#: Plant constants used throughout the bundled example scenario.
DEFAULT_PARAMS = TankParams(a1=0.1963, a2=0.159, alpha1=2.2, alpha2=1.9)

#: Operating levels used throughout the bundled example scenario (m).
DEFAULT_LEVELS = (4.0, 3.5)


@dataclass(frozen=True)
class OperatingPoint:
    """Steady levels and the feed flows that hold them constant."""

    l1: float  # steady level of tank 1 (m)
    l2: float  # steady level of tank 2 (m)
    fi1_bar: float  # steady feed into tank 1 (m^3/s)
    fi2_bar: float  # steady feed into tank 2 (m^3/s)

    def __post_init__(self):
        if not (self.l1 > self.l2 >= 0):
            raise ValueError(f"need l1 > l2 >= 0, got l1={self.l1}, l2={self.l2}")


class DeviationState(NamedTuple):
    """Tank levels expressed as deviations from the operating point."""

    h1: float
    h2: float


@dataclass(frozen=True)
class LinearModel:
    """State-space triple (a, b, c) with no feedthrough: the continuous
    linearization, its zero-order-hold sampling and the controller's
    velocity form alike.  The dimensions are read off the arrays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            mat = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if mat.flags.writeable:  # freeze a copy, never the caller's array
                mat = mat.copy()
                mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape[0] != n or self.c.shape[1] != n:
            raise ValueError(
                f"inconsistent dimensions: a {self.a.shape}, b {self.b.shape}, c {self.c.shape}"
            )

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]


def nonlinear_derivatives(
    params: TankParams,
    op: OperatingPoint,
    state: DeviationState,
    fi1: float,
    fi2: float,
) -> tuple[float, float]:
    """Level rates (dh1/dt, dh2/dt) of the deviation-form mass balances.

    Parameters
    ----------
    state : DeviationState or any (h1, h2) pair
        Levels relative to the operating point; physical levels are
        (l1 + h1, l2 + h2) and must be nonnegative.
    fi1, fi2 : float
        Feed-flow deviations from the steady feeds (m^3/s).

    Returns
    -------
    (dh1_dt, dh2_dt) in m/s, exactly (0, 0) at h = 0, fi = 0: the steady
    outflow terms cancel.  The loop body of `loop.make_loop` computes the
    same deviation flows on the physical levels it carries, and moves the
    levels by each flow times a step over the tank's area, so it agrees
    with these rates to a few ulps, not bit for bit.
    """
    h1, h2 = state
    lvl1 = op.l1 + h1
    lvl2 = op.l2 + h2
    if lvl1 < -SQRT_CLAMP_TOL or lvl2 < -SQRT_CLAMP_TOL:
        raise ValueError(f"physical level negative: tank1={lvl1:.6g}, tank2={lvl2:.6g}")
    # coupling flow deviation from the steady coupling flow (the steady head
    # l1 - l2 of an OperatingPoint is positive); the orifice law is only
    # stated for positive head, and its signed extension sqrt(|head|) *
    # sign(head) keeps reverse flow physical when tank 2 rises above tank 1
    head = lvl1 - lvl2
    q12 = (params.alpha1 * math.copysign(math.sqrt(abs(head)), head)
           - params.alpha1 * math.sqrt(op.l1 - op.l2))
    # tank-2 outlet flow deviation; strictly one-way, roundoff below empty reads as empty
    q2 = params.alpha2 * (math.sqrt(lvl2 if lvl2 >= 0.0 else 0.0) - math.sqrt(op.l2))
    return (fi1 - q12) / params.a1, (fi2 - q2 + q12) / params.a2


def steady_inflows(params: TankParams, l1: float, l2: float) -> tuple[float, float]:
    """Feed flows that hold the levels (l1, l2) in equilibrium.

    fi1_bar = alpha1*sqrt(l1 - l2) balances the coupling outflow of
    tank 1; fi2_bar makes up the difference between tank 2's outlet
    flow and what it receives from tank 1.

    Raises
    ------
    ValueError
        If l1 < l2 or l2 < 0 (square-root law undefined at steady state).
    """
    if l2 < 0:
        raise ValueError(f"tank 2 level must be nonnegative, got {l2}")
    if l1 < l2:
        raise ValueError(f"need l1 >= l2 at steady state, got l1={l1}, l2={l2}")
    fi1_bar = params.alpha1 * math.sqrt(l1 - l2)
    fi2_bar = params.alpha2 * math.sqrt(l2) - fi1_bar
    return fi1_bar, fi2_bar


def make_operating_point(params: TankParams, l1: float, l2: float) -> OperatingPoint:
    """Build the operating point at levels (l1, l2) with equilibrium feeds."""
    fi1_bar, fi2_bar = steady_inflows(params, l1, l2)
    return OperatingPoint(l1=l1, l2=l2, fi1_bar=fi1_bar, fi2_bar=fi2_bar)


def linearize(params: TankParams, op: OperatingPoint) -> LinearModel:
    """First-order Taylor linearization of the level dynamics at the operating point.

    Returns the continuous-time model with

        a = [[-k1/a1,            k1/a1          ],
             [ k1/a2,  -(k1 + k2)/a2            ]],   k1 = alpha1/(2 sqrt(l1-l2)),
                                                      k2 = alpha2/(2 sqrt(l2)),
        b = diag(1/a1, 1/a2),  c = I.

    Raises
    ------
    ValueError
        If l2 == 0, which makes the tank-2 square-root slope singular
        (an OperatingPoint already has l1 > l2).
    """
    if op.l2 <= 0:
        raise ValueError(f"linearization singular: need l2 > 0 strictly, got l2={op.l2}")

    k1 = params.alpha1 / (2.0 * math.sqrt(op.l1 - op.l2))
    k2 = params.alpha2 / (2.0 * math.sqrt(op.l2))
    a = np.array(
        [
            [-k1 / params.a1, k1 / params.a1],
            [k1 / params.a2, -(k1 + k2) / params.a2],
        ]
    )
    b = np.diag([1.0 / params.a1, 1.0 / params.a2])
    return LinearModel(a=a, b=b, c=np.eye(2))
