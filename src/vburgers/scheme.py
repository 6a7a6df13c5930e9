"""Successive-approximation construction of the Burgers solution.

Each iterate solves a linear transport equation whose drift is the previous
iterate; the iteration stops when the sup norm of the update falls below
the fixed-point tolerance.  All solving happens in the unit-viscosity frame;
the (un)rescaling maps move data in and out of it.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .fields import GridSpec, Trajectory, VectorField, frame_blocks, gradient_arrays, hessian_arrays, time_derivative_frames
from .forcing import Forcing, ZeroForcing
from .heat import duhamel_forced_heat, n_steps
from .norms import KConstants, KProfile, frame_sups, parabolic_seminorm_array
from .transport import TransportProblem, solve_transport

T_INIT_INFINITE = math.inf
T_INIT_HORIZON = 1e6  # compute_t_init reports T_INIT_INFINITE when t c K(t) < 1 up to here


@dataclass(frozen=True)
class SchemeConfig:
    grid: GridSpec
    nu: float = 1.0
    c: float = 1.0
    alpha: float = 0.5
    beta: float = 0.25
    T: float = 1.0
    dt: float = 1e-3
    m_max: int = 12
    tol_fp: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.beta < 0.5:
            raise ValueError("beta must lie in the open interval (0, 0.5)")
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("T and dt must be positive")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        n_steps(self.T, self.dt)


@dataclass(frozen=True)
class IterationRecord:
    """Per-iterate sup-norm and Hoelder diagnostics along the trajectory."""

    m: int
    times: np.ndarray
    sup_u: np.ndarray
    sup_grad_u: np.ndarray
    sup_hess_u: np.ndarray
    sup_dt_u: np.ndarray
    sup_v: np.ndarray
    sup_grad_v: np.ndarray
    holder_hess: float
    holder_dt: float

    def __post_init__(self):
        for name in ("sup_u", "sup_grad_u", "sup_hess_u", "sup_dt_u", "sup_v", "sup_grad_v"):
            a = getattr(self, name)
            if not (np.all(np.isfinite(a)) and np.all(a >= 0)):
                raise ValueError(f"{name} must be finite and nonnegative")


def _diagnose(
    m: int,
    traj: Trajectory,
    prev: Trajectory | None,
    alpha: float,
    seed: int,
    record_holder: bool,
) -> IterationRecord:
    spec, u = traj.grid, traj.values
    dt_u = time_derivative_frames(traj)
    hess_u = np.empty((len(u), spec.d**3) + spec.shape) if record_holder else None
    cols = []
    for sl in frame_blocks(len(u), spec):
        ub = u[sl]
        hess = hessian_arrays(ub, spec)
        if record_holder:
            hess_u[sl] = hess.reshape((-1, spec.d**3) + spec.shape)
        sups = [frame_sups(ub, 1), frame_sups(gradient_arrays(ub, spec), 2), frame_sups(hess, 3), frame_sups(dt_u[sl], 1)]
        if prev is not None:
            v = ub - prev.values[sl]
            sups += [frame_sups(v, 1), frame_sups(gradient_arrays(v, spec), 2)]
        cols.append(sups)
    sup_u, sup_grad, sup_hess, sup_dt, *update = map(np.concatenate, zip(*cols))
    sup_v, sup_grad_v = update or (sup_u, sup_grad)

    holder_hess = holder_dt = 0.0
    if record_holder:
        holder_hess = parabolic_seminorm_array(hess_u, spec, traj.dt, alpha, seed).value
        holder_dt = parabolic_seminorm_array(dt_u, spec, traj.dt, alpha, seed).value

    return IterationRecord(
        m=m,
        times=traj.times,
        sup_u=sup_u,
        sup_grad_u=sup_grad,
        sup_hess_u=sup_hess,
        sup_dt_u=sup_dt,
        sup_v=sup_v,
        sup_grad_v=sup_grad_v,
        holder_hess=holder_hess,
        holder_dt=holder_dt,
    )


def run_picard(
    cfg: SchemeConfig,
    u0: VectorField,
    g: Forcing | None = None,
    record_holder: bool = False,
    min_iters: int = 1,
):
    """Iterate the linear transport solves until the update is negligible.

    Returns (records, fixed_point, converged).  The zeroth iterate is the
    forced heat trajectory; iterate m solves transport with the previous
    iterate as drift.  Non-convergence at m_max is reported, not raised.
    The solve is in the unit-viscosity frame, so ``cfg.nu`` must be 1.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial data grid does not match the configuration")
    if cfg.nu != 1:
        raise ValueError(
            f"run_picard solves in the unit-viscosity frame, got nu={cfg.nu}: map the data with "
            "scheme.rescale_viscosity, solve with nu = 1 and map back with scheme.unrescale"
        )
    if g is None:
        g = ZeroForcing(cfg.grid)
    records = []
    traj = duhamel_forced_heat(u0, g, cfg.T, cfg.dt)
    records.append(_diagnose(0, traj, None, cfg.alpha, cfg.seed, record_holder))
    converged = False
    for m in range(1, cfg.m_max + 1):
        p = TransportProblem(u0=u0, b=traj, C=None, f=g, T=cfg.T, dt=cfg.dt)
        new = solve_transport(p)
        rec = _diagnose(m, new, traj, cfg.alpha, cfg.seed, record_holder)
        records.append(rec)
        traj = new
        if m >= min_iters and float(rec.sup_v.max()) < cfg.tol_fp:
            converged = True
            break
    return records, traj, converged


# ---------------------------------------------------------------------------
# initial horizon


def compute_t_init(
    u0: VectorField,
    g: Forcing | None,
    c: float = 1.0,
    alpha: float = 0.5,
    tol: float = 1e-10,
    kfn=None,
) -> float:
    """Root of t * c * K(t) = 1 (bisection on the nondecreasing map).

    kfn maps a time to the KConstants computed at c = 1 (default: a KProfile
    of u0 and g).  Returns the infinite sentinel when the product never
    reaches 1 up to T_INIT_HORIZON; a constant K (zero forcing) is resolved in
    closed form.
    """
    if g is None:
        g = ZeroForcing(u0.grid)
    if kfn is None:
        kfn = KProfile(u0, g, alpha)

    if g.is_zero:
        k = kfn(0.0).at_c(c).K
        if k == 0.0:
            return T_INIT_INFINITE
        return 1.0 / (c * k)

    def f(t: float) -> float:
        return t * c * kfn(t).at_c(c).K - 1.0

    lo, hi = 0.0, 1.0
    while f(hi) < 0:
        lo, hi = hi, hi * 2.0
        if hi > T_INIT_HORIZON:
            return T_INIT_INFINITE
    while True:
        mid = 0.5 * (lo + hi)
        val = f(mid)
        if abs(val) <= tol or hi - lo <= 1e-16 * max(1.0, mid):
            return mid
        if val < 0:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# tail-sum majorant


def series_majorant(m0: int, gamma: float, cK: float, t: float):
    """Tail sum_{m > m0} (cK t / m)^{gamma m} against its closed-form bound.

    Requires m0 >= floor(cK t); the bound is e^gamma / (e^gamma - 1).
    Returns (bound, empirical).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = cK * t
    if x < 0:
        raise ValueError("cK * t must be nonnegative")
    if m0 < math.floor(x):
        raise ValueError(f"m0={m0} below floor(cK t)={math.floor(x)}")
    bound = math.exp(gamma) / (math.exp(gamma) - 1.0)
    total = 0.0
    m = m0 + 1
    while True:
        term = (x / m) ** (gamma * m) if x > 0 else 0.0
        total += term
        if term < 1e-18 * max(total, 1.0) or m > m0 + 10000:
            break
        m += 1
    return bound, total


# ---------------------------------------------------------------------------
# viscosity rescaling


def rescale_viscosity(u0: VectorField, g: Forcing | None, nu: float):
    """Map data into the unit-viscosity frame: u/nu and g/nu^2 at time nu t."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    if g is None:
        g = ZeroForcing(u0.grid)
    u0_tilde = u0 * (1.0 / nu)
    if g.is_zero:
        return u0_tilde, ZeroForcing(u0.grid)
    if nu == 1.0:
        return u0_tilde, g
    return u0_tilde, Forcing(g.base * (1.0 / nu**2), lambda t: g.env(t / nu), lambda t: g.env_dt(t / nu) / nu)


def unrescale(fixed_point: Trajectory, nu: float):
    """Undo the viscosity normalization: u(t, x) = nu * u_tilde(nu t, x).

    Returns the physical-frame trajectory and the derivative-bound weights
    that the normalization induces on the reference constants.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    phys = Trajectory(fixed_point.grid, fixed_point.t0 / nu, fixed_point.dt / nu, fixed_point.values * nu)
    weights = {
        "sup": 1.0,
        "grad": 1.0 / nu,
        "dt": 1.0 / nu,
        "hess": 1.0 / nu**2,
    }
    return phys, weights


def records_to_csv(records) -> str:
    """All iterates in one long table, one row per (m, t)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["m", "t", "sup_u", "sup_grad_u", "sup_hess_u", "sup_dt_u", "sup_v", "sup_grad_v"])
    for r in records:
        for k, t in enumerate(r.times):
            w.writerow(
                [r.m]
                + [
                    f"{v:.17g}"
                    for v in (t, r.sup_u[k], r.sup_grad_u[k], r.sup_hess_u[k], r.sup_dt_u[k], r.sup_v[k], r.sup_grad_v[k])
                ]
            )
    return buf.getvalue()


def run_summary_json(t_init: float, converged: bool, residual: float, kc: KConstants) -> str:
    """Run-level summary; an unbounded existence time serializes as "inf"."""
    return json.dumps(
        {
            "t_init": "inf" if math.isinf(t_init) else t_init,
            "converged": bool(converged),
            "residual": residual,
            "k_constants": json.loads(kc.to_json()),
        }
    )
