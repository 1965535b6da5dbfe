"""Zero-order-hold sampling of a continuous state-space model into a
sampled `LinearModel`, with a numpy-only matrix exponential."""

from __future__ import annotations

import math

import numpy as np

from .tank import LinearModel

# Coefficients b_0..b_m of the diagonal [m/m] Pade approximant to exp, and
# the largest 1-norm theta_m at which it is accurate to double precision
# without scaling (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE = {m: np.array(b) for m, b in {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}.items()}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 5.371920351148152e0))


def expm(a) -> np.ndarray:
    """Matrix exponential of a finite square matrix by scaling and squaring.

    Uses the lowest Pade degree m whose theta_m bounds the 1-norm of a;
    beyond theta_13, a is scaled by 2^-s into range and the degree-13
    result squared s times (Higham 2005, Algorithm 2.3).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()
    s = 0
    for m, theta in _THETA:
        if norm <= theta:
            break
    else:
        s = math.ceil(math.log2(norm / theta))
        a = a * 0.5**s
    b = _PADE[m]
    # numerator v + u and denominator v - u from the even powers of a
    a2 = a @ a
    powers = np.empty((m // 2 + 1, n, n))
    powers[0] = np.eye(n)
    for k in range(1, m // 2 + 1):
        np.matmul(powers[k - 1], a2, out=powers[k])
    flat = powers.reshape(m // 2 + 1, n * n)
    u = a @ (b[1::2] @ flat).reshape(n, n)
    v = (b[0::2] @ flat).reshape(n, n)
    r = np.linalg.solve(v - u, v + u)
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
    e = expm(blk * ts)
    return LinearModel(a=e[:n, :n], b=e[:n, n:], c=model.c)
