"""The disturbance pulse a closed-loop run adds to the plant's feeds.

`DisturbanceProfile` is a rectangular feed-flow pulse: its flow and how
it is routed to the two feeds.  `NO_DISTURBANCE` injects nothing.  The
plant's dynamics are `tank.nonlinear_derivatives`; the loop body that
integrates them (`make_loop`), its one-sample reference form
(`rk4_step`) and the pulse at the sample times (`_routed_pulse`) live in
`tankmpc.loop`, beside the run that reads their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tank import (  # noqa: F401  (nonlinear_derivatives: a boundary perfbench traces)
    OperatingPoint,
    nonlinear_derivatives,
)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Rectangular feed-flow disturbance pulse.

    magnitude is a percentage of the steady tank-1 feed; target selects
    which feed the pulse enters ("tank1", "tank2" or "both").
    """

    start: float = 0.0
    duration: float = 0.0
    magnitude: float = 0.0  # percent of fi1_bar
    target: str = "tank1"

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"pulse duration must be >= 0, got {self.duration}")
        if not math.isfinite(self.magnitude):
            raise ValueError("pulse magnitude must be finite")
        if self.target not in ("tank1", "tank2", "both"):
            raise ValueError(f"unknown disturbance target {self.target!r}")

    def flow(self, op: OperatingPoint) -> float:
        """Disturbance flow while the pulse is on (m^3/s)."""
        return self.magnitude / 100.0 * op.fi1_bar

    def route(self, f: float) -> tuple[float, float]:
        """Disturbance flow f split into (tank 1, tank 2) feed flows."""
        if f == 0.0:
            return 0.0, 0.0
        if self.target == "tank1":
            return f, 0.0
        if self.target == "tank2":
            return 0.0, f
        return f, f


#: Profile that injects nothing; keeps scenario wiring uniform.
NO_DISTURBANCE = DisturbanceProfile()
