"""Independent reference computations the tests check the package against.

Everything here is deliberately naive: explicit matrix powers, plain
dense solves, step-by-step recursions.  None of it shares code with the
package internals it verifies.
"""

import math

import numpy as np


def naive_prediction_matrices(a, b, c, npred, nctl):
    """psi/phi from their definitions with explicit matrix powers."""
    a, b, c = np.atleast_2d(a), np.atleast_2d(b), np.atleast_2d(c)
    q, m = c.shape[0], b.shape[1]
    psi = np.vstack([c @ np.linalg.matrix_power(a, k + 1) for k in range(npred)])
    phi = np.zeros((npred * q, nctl * m))
    for i in range(npred):
        for j in range(nctl):
            if i >= j:
                blk = c @ np.linalg.matrix_power(a, i - j) @ b
                phi[i * q : (i + 1) * q, j * m : (j + 1) * m] = blk
    return psi, phi


def iterate_prediction(a, b, c, x0, du_seq, npred):
    """Outputs y(1..npred) from the state recursion, increments beyond
    the control horizon held at zero."""
    a, b, c = np.atleast_2d(a), np.atleast_2d(b), np.atleast_2d(c)
    m = b.shape[1]
    x = np.asarray(x0, dtype=float).copy()
    ys = []
    for k in range(npred):
        du = du_seq[k * m : (k + 1) * m] if (k + 1) * m <= len(du_seq) else np.zeros(m)
        x = a @ x + b @ du
        ys.append(c @ x)
    return np.concatenate(ys)


def naive_optimal_du(a, b, c, npred, nctl, rw, x, r):
    """Closed-form minimizer via naive matrices and a plain dense solve.

    x and r are one state and setpoint, or (n+q, k) and (q, k) arrays of k
    cases, one per column; the result then has one column per case."""
    psi, phi = naive_prediction_matrices(a, b, c, npred, nctl)
    r = np.asarray(r, dtype=float)
    rs = np.tile(r, (npred,) + (1,) * (r.ndim - 1))
    h = phi.T @ phi + rw * np.eye(phi.shape[1])
    return np.linalg.solve(h, phi.T @ (rs - psi @ np.asarray(x, dtype=float)))


def tracking_cost(psi, phi, rw, x, r, du):
    """||Rs - (psi x + phi du)||^2 + rw ||du||^2, Rs the setpoint r repeated
    down the horizon: the cost whose minimizer's first block the law applies."""
    du = np.asarray(du, dtype=float)
    rs = np.tile(np.asarray(r, dtype=float), psi.shape[0] // len(r))
    err = rs - (psi @ np.asarray(x, dtype=float) + phi @ du)
    return float(err @ err + rw * (du @ du))


def tracking_cost_gradient(psi, phi, rw, x, r, du):
    """Analytic gradient of tracking_cost in du: -2 phi.T (Rs - psi x - phi du) + 2 rw du."""
    du = np.asarray(du, dtype=float)
    rs = np.tile(np.asarray(r, dtype=float), psi.shape[0] // len(r))
    free_err = rs - psi @ np.asarray(x, dtype=float)
    return -2.0 * (phi.T @ free_err) + 2.0 * ((phi.T @ phi) @ du + rw * du)


def expm_by_eig(a, ts):
    """Matrix exponential through an eigendecomposition (diagonalizable a)."""
    w, v = np.linalg.eig(np.asarray(a, dtype=float))
    e = v @ np.diag(np.exp(w * ts)) @ np.linalg.inv(v)
    return np.real_if_close(e, tol=1000).real


def fd_jacobian(fun, x0, step=1e-6):
    """Central-difference Jacobian of fun: R^n -> R^m at x0."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for i in range(x0.size):
        dx = np.zeros_like(x0)
        dx[i] = step
        cols.append((np.asarray(fun(x0 + dx)) - np.asarray(fun(x0 - dx))) / (2 * step))
    return np.column_stack(cols)


def fd_gradient(fun, x0, step=1e-6):
    """Central-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        dx = np.zeros_like(x0)
        dx[i] = step
        g[i] = (fun(x0 + dx) - fun(x0 - dx)) / (2 * step)
    return g


def random_tank_params(rng):
    """A valid, well-conditioned random parameter set and operating levels."""
    from tankmpc import TankParams

    params = TankParams(
        a1=rng.uniform(0.05, 0.5),
        a2=rng.uniform(0.05, 0.5),
        alpha1=rng.uniform(0.5, 4.0),
        alpha2=rng.uniform(0.5, 4.0),
    )
    l2 = rng.uniform(0.5, 5.0)
    l1 = l2 + rng.uniform(0.3, 3.0)
    return params, l1, l2


def random_system(rng, max_dim=6, max_np=12):
    """Random (a, b, c) triple and horizons for prediction checks."""
    nq = rng.integers(2, max_dim + 1)
    q = rng.integers(1, nq)
    m = rng.integers(1, 4)
    a = rng.uniform(-1, 1, (nq, nq))
    b = rng.uniform(-1, 1, (nq, m))
    c = rng.uniform(-1, 1, (q, nq))
    npred = int(rng.integers(1, max_np + 1))
    nctl = int(rng.integers(1, npred + 1))
    return a, b, c, int(q), int(m), npred, nctl


def csv_text_by_value(log):
    """A SimulationLog's CSV, one format(v, ".9g") call per value."""
    cols = [getattr(log, name) for name in log.COLUMNS]
    lines = [",".join(log.COLUMNS)]
    for k in range(len(log)):
        lines.append(",".join(format(col[k], ".9g") for col in cols))
    return "\n".join(lines) + "\n"


def settling_by_loop(t, r, y, dwell):
    """(t_edge, settling time or None) per setpoint segment of one output,
    by element-wise loops over the log."""
    edges = [0] + [k for k in range(1, len(r)) if r[k] != r[k - 1]]
    out = []
    for e, (i0, i1) in enumerate(zip(edges, edges[1:] + [len(r)])):
        target = r[i0]
        step = target - (y[0] if e == 0 else r[i0 - 1])
        band = 0.02 * max(abs(target), abs(step))
        trailing = 0
        for k in range(i1 - 1, i0 - 1, -1):
            if not (abs(y[k] - target) <= band if band > 0 else y[k] == target):
                break
            trailing += 1
        out.append((t[i0], t[i1 - trailing] - t[i0] if trailing >= dwell else None))
    return out


def setpoint_value(pulse, t):
    """A SetpointPulse's setpoint at time t: its amplitude on
    [start, start + duration), 0.0 elsewhere."""
    return pulse.amplitude if pulse.start <= t < pulse.start + pulse.duration else 0.0


def controller_start(measurement, n_inputs):
    """The controller's start-up state: the first measurement remembered as
    the last one, so the first state increment is zero (no derivative kick),
    and zero deviation control."""
    from tankmpc import ControllerState

    y = tuple(np.asarray(measurement, dtype=float).reshape(-1).tolist())
    return ControllerState(prev_plant_state=y, prev_control=(0.0,) * n_inputs)


def disturbance_feeds(profile, op, t):
    """(tank 1, tank 2) feed flows a DisturbanceProfile adds at time t:
    magnitude percent of fi1_bar on [start, start + duration), 0.0
    elsewhere, routed to its target; a zero flow feeds neither tank."""
    on = profile.start <= t < profile.start + profile.duration
    f = profile.magnitude / 100.0 * op.fi1_bar if on else 0.0
    if f == 0.0:
        return 0.0, 0.0
    return (f if profile.target in ("tank1", "both") else 0.0,
            f if profile.target in ("tank2", "both") else 0.0)


def closed_loop_matrices(disc, pred):
    """The closed loop of the fixed-gain law and the sampled linear plant,
    with no clamp, as (m, n_w, k_z, k_r): the state z = (h(k), h(k-1),
    u(k-1)) moves as z(k+1) = m z(k) + n_w (r(k), d(k)), r the setpoint
    and d the routed pulse, and the applied move is u(k) = k_z z(k) + k_r r(k),
    with u = m_prev + kr (r - h) - kx_dx (h - h_prev)."""
    a, b = np.asarray(disc.a), np.asarray(disc.b)
    n, nu = b.shape
    kr = np.asarray(pred.kr)
    kd = np.asarray(pred.kx)[:, :n]
    k_z = np.hstack([-(kr + kd), kd, np.eye(nu)])
    m = np.block([[a + b @ k_z[:, :n], b @ k_z[:, n:]],
                  [np.eye(n), np.zeros((n, n + nu))],
                  [k_z]])
    n_w = np.block([[b @ kr, b],
                    [np.zeros((n, kr.shape[1] + nu))],
                    [kr, np.zeros((nu, nu))]])
    return m, n_w, k_z, kr


def linear_closed_loop(disc, pred, fi_bar, r, d):
    """The logged h, u and absolute feeds fi of a linear-plant run with no
    clamp, one row per sample, by iterating closed_loop_matrices from
    z(0) = 0, given the setpoints r and routed pulse d at the sample times
    (one row per sample).  The feed is fi_bar + u + d."""
    m, n_w, k_z, k_r = closed_loop_matrices(disc, pred)
    r, d = np.asarray(r, dtype=float), np.asarray(d, dtype=float)
    z = np.zeros(m.shape[0])
    n = np.asarray(disc.a).shape[0]
    hs, us = [], []
    for r_k, d_k in zip(r, d):
        hs.append(z[:n])
        us.append(k_z @ z + k_r @ r_k)
        z = m @ z + n_w @ np.concatenate([r_k, d_k])
    h, u = np.array(hs), np.array(us)
    return h, u, np.asarray(fi_bar) + u + d


def net_flows(params, op, x, fi1, fi2):
    """Net inflows (into tank 1, into tank 2) at the physical levels
    x = (x1, x2) >= 0, in deviations from the steady flows: the feed
    deviations fi1, fi2 less tank.nonlinear_derivatives' outflow deviations,
    its orifice law for the coupling valve signed by the head."""
    x1, x2 = x
    head = x1 - x2
    q12 = (params.alpha1 * math.copysign(math.sqrt(abs(head)), head)
           - params.alpha1 * math.sqrt(op.l1 - op.l2))
    q2 = params.alpha2 * (math.sqrt(x2) - math.sqrt(op.l2))
    return fi1 - q12, fi2 - q2 + q12


def level_rates(params, op, x, fi1, fi2):
    """Level rates (dh1/dt, dh2/dt) at the physical levels x: net_flows
    over each tank's area, as a product with the reciprocal area."""
    f1, f2 = net_flows(params, op, x, fi1, fi2)
    return f1 * (1.0 / params.a1), f2 * (1.0 / params.a2)


def rk4_by_derivatives(params, op, t, t_next, x, u, ts, substeps, profile, clamp_flows):
    """The physical levels after the sample [t, t_next) of the plant from the
    levels x = (x1, x2), by classical Runge-Kutta steps on one feed each.
    The sample is cut at each pulse edge strictly inside it across which
    disturbance_feeds changes its bits; each piece [s, s') then takes
    `substeps` steps of (s' - s)/substeps on the feed at s, and an uncut
    sample takes `substeps` steps of ts/substeps on the feed at t.  A feed
    is the move u plus disturbance_feeds, each absolute feed floored at
    zero under clamp_flows.  Each stage takes net_flows and moves a level
    by its flow times (h/2)/a, h/a or (h/6)/a for a step h; the stage flows
    combine as f1 + f4 + 2 (f2 + f3).  Stage levels are floored at empty,
    as is each step's end, which must be finite."""
    areas = (params.a1, params.a2)
    bars = (op.fi1_bar, op.fi2_bar)

    def feed(at):
        d = disturbance_feeds(profile, op, at)
        if clamp_flows:
            d = [max(bar + ui + di, 0.0) - bar - ui for bar, ui, di in zip(bars, u, d)]
        return [ui + di for ui, di in zip(u, d)]

    starts = [t]
    for e in sorted([profile.start, profile.start + profile.duration]):
        before, after = (disturbance_feeds(profile, op, at) for at in (starts[-1], e))
        if t < e < t_next and [v.hex() for v in before] != [v.hex() for v in after]:
            starts.append(e)
    if len(starts) == 1:
        pieces = [(t, ts)]
    else:
        pieces = [(s, end - s) for s, end in zip(starts, starts[1:] + [t_next])]

    def flows(x, fi):
        return net_flows(params, op, [0.0 if xi < 0.0 else xi for xi in x], *fi)

    def moved(x, c, f):
        return [xi + ci * fi for xi, ci, fi in zip(x, c, f)]

    for s, length in pieces:
        fi = feed(s)
        h = length / substeps
        half = [h / 2 / a for a in areas]
        whole = [h / a for a in areas]
        sixth = [h / 6 / a for a in areas]
        for _ in range(substeps):
            f1 = flows(x, fi)
            f2 = flows(moved(x, half, f1), fi)
            f3 = flows(moved(x, half, f2), fi)
            f4 = flows(moved(x, whole, f3), fi)
            x = moved(x, sixth, [a + d + 2.0 * (b + c) for a, b, c, d in zip(f1, f2, f3, f4)])
            if not all(math.isfinite(xi) for xi in x):
                raise ArithmeticError("plant state non-finite")
            x = [0.0 if xi < 0.0 else xi for xi in x]
    return x


def linear_step(model, op, t, h, u, profile, clamp_flows):
    """One sample of the sampled linear model, h <- a h + b f, on floats:
    the feed f is the move u plus the pulse routed by disturbance_feeds at
    the sample time t, each absolute feed floored at zero under clamp_flows.
    The new state must be finite."""
    (a11, a12), (a21, a22) = model.a.tolist()
    (b11, b12), (b21, b22) = model.b.tolist()
    d = disturbance_feeds(profile, op, t)
    if clamp_flows:
        d = [max(bar + ui + di, 0.0) - bar - ui
             for bar, ui, di in zip((op.fi1_bar, op.fi2_bar), u, d)]
    f1, f2 = (ui + di for ui, di in zip(u, d))
    h = [a11 * h[0] + a12 * h[1] + (b11 * f1 + b12 * f2),
         a21 * h[0] + a22 * h[1] + (b21 * f1 + b22 * f2)]
    if not all(math.isfinite(hi) for hi in h):
        raise ArithmeticError("plant state non-finite")
    return h


def closed_loop_by_samples(params, op, pred, ts, substeps, profile, clamp_flows, setpoints,
                           ctrl=None, linear_model=None, levels=None):
    """The logged (h1, h2) and (u1, u2) of a closed-loop run, one sample at
    a time: at t = k ts, tankmpc.receding_step in the absolute frame, on the
    levels x and the setpoints (r1 + l1, r2 + l2) of sample k, logging
    h = x - l; under clamp_flows the floored move remembered in place of the
    commanded one, and then the plant over the sample (none after the
    last): rk4_by_derivatives over [k ts, (k + 1) ts) on the physical levels
    x, carried from sample to sample, or with linear_model linear_step on the deviations h, which
    it carries as levels about l = 0.  ctrl is the controller's start, its
    remembered measurement a level, by default controller_start at x = l.
    If levels is a list, each sample's measured levels x are appended to it."""
    from tankmpc import receding_step

    l1, l2 = (op.l1, op.l2) if linear_model is None else (0.0, 0.0)
    x = [l1 + 0.0, l2 + 0.0]
    ctrl = controller_start((l1, l2), 2) if ctrl is None else ctrl
    bars = (op.fi1_bar, op.fi2_bar)
    hs, us = [], []
    for k, (r1, r2) in enumerate(setpoints):
        t = k * ts
        h = (x[0] - l1, x[1] - l2)
        ctrl, u = receding_step(ctrl, pred, x, (r1 + l1, r2 + l2))
        if levels is not None:
            levels.append(tuple(x))
        hs.append(h)
        us.append(u)
        if clamp_flows:
            d = disturbance_feeds(profile, op, t)
            applied = tuple(0.0 - bar - di if bar + ui + di < 0 else ui
                            for bar, ui, di in zip(bars, u, d))
            ctrl = ctrl._replace(prev_control=applied)
        if k == len(setpoints) - 1:
            break
        if linear_model is None:
            x = rk4_by_derivatives(params, op, t, (k + 1) * ts, x, u, ts, substeps, profile,
                                   clamp_flows)
        else:
            x = linear_step(linear_model, op, t, x, u, profile, clamp_flows)
    return hs, us
