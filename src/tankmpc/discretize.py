"""Zero-order-hold sampling of a continuous state-space model into a
sampled `LinearModel`, with a numpy-only matrix exponential."""

from __future__ import annotations

import math

import numpy as np

from .tank import LinearModel

# Coefficients b_0..b_13 of the diagonal [13/13] Pade approximant to exp,
# scaled so that b_0 = 1, and the largest 1-norm theta_13 at which it is
# accurate to double precision without scaling (Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005, Table 2.3).
_B13 = np.array((
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)) / 64764752532480000.0
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of a finite square matrix by scaling and squaring.

    One degree-13 Pade approximant: a whose 1-norm exceeds theta_13 is
    scaled by 2^-s into range and the result squared s times (Higham
    2005, Algorithm 2.3, with the degree fixed at 13).  A squaring that
    overflows leaves inf or nan in the result, without a warning; the
    caller checks it.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()
    s = 0
    if norm > _THETA13:
        s = math.ceil(math.log2(norm / _THETA13))
        a = a * 0.5**s
    # numerator v + u and denominator v - u from the even powers of a
    a2 = a @ a
    powers = [np.eye(n)]
    for _ in range(6):
        powers.append(powers[-1] @ a2)
    flat = np.reshape(powers, (7, n * n))
    u = a @ (_B13[1::2] @ flat).reshape(n, n)
    v = (_B13[0::2] @ flat).reshape(n, n)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def zoh_discretize(model: LinearModel, ts: float) -> LinearModel:
    """Exact zero-order-hold discretization at sampling period ts.

    The sampled model has a = exp(A*ts) and b = (integral_0^ts
    exp(A*tau) dtau) B, both read off the matrix exponential of the
    (n+m)x(n+m) block matrix [[A, B], [0, 0]] scaled by ts, and shares
    the read-only c.
    """
    if ts <= 0:
        raise ValueError(f"sampling period must be positive, got {ts}")
    if not (np.all(np.isfinite(model.a)) and np.all(np.isfinite(model.b))):
        raise ValueError("model matrices contain non-finite entries")

    n = model.n_states
    m = model.n_inputs
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = model.a
    blk[:n, n:] = model.b
    # in Python floats, which overflow to inf without a warning: a bound on
    # the 1-norm of blk * ts, which must be finite for expm to scale it
    if not math.isfinite(float(np.abs(blk).max()) * float(ts) * (n + m)):
        raise ValueError(f"sampling period {ts!r} s overflows the model's exponential")
    e = expm(blk * ts)
    # a stiff, non-normal A ts can take so many squarings that they
    # overflow, though exp(A ts) itself is bounded
    if not np.all(np.isfinite(e)):
        raise ValueError(f"sampling period {ts!r} s overflows the squarings of the model's "
                         "exponential; the sim.ts and plant.* values are out of range")
    return LinearModel(a=e[:n, :n], b=e[:n, n:], c=model.c)
