"""Linear parabolic transport solves (d_t - Lap + b.grad + C) u = f.

Diffusion is exact through the spectral integrating factor and the
advection / zeroth-order / source part takes an explicit midpoint stage
(``heat.integrate``), second order in dt overall.  Quadratic products are
dealiased by the two-thirds rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .fields import (
    GridSpec,
    Trajectory,
    VectorField,
    _dealias_mask,
    advect_hat,
    dealias_values,
    frame_blocks,
    irfft,
    rfft,
)
from .forcing import Forcing, ZeroForcing
from .heat import integrate, n_steps
from .norms import frame_sups, opnorm_sup, sup_norm

BLOCKING_GATE = 1e-6
MP_DT2_FACTOR = 25.0


@dataclass
class TransportProblem:
    u0: VectorField
    b: object = None  # None | VectorField | Trajectory
    C: object = None  # None | (d, d) array | (d, d)+shape array | callable t -> array
    f: Forcing | None = None
    T: float = 1.0
    dt: float = 1e-3

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        n_steps(self.T, self.dt)
        grid = self.u0.grid
        if isinstance(self.b, (VectorField, Trajectory)) and self.b.grid != grid:
            raise ValueError("drift grid mismatch")
        if isinstance(self.b, Trajectory) and self.b.t_end < self.T - 1e-9 * self.dt:
            raise ValueError("drift trajectory does not cover [0, T]")
        if self.f is not None and self.f.grid != grid:
            raise ValueError("source grid mismatch")

    @property
    def grid(self) -> GridSpec:
        return self.u0.grid

    @property
    def n_steps(self) -> int:
        return n_steps(self.T, self.dt)

    def drift_at(self, t: float) -> VectorField | None:
        if self.b is None:
            return None
        if isinstance(self.b, VectorField):
            return self.b
        return self.b.at_time(t)

    def matrix_at(self, t: float) -> np.ndarray | None:
        if self.C is None:
            return None
        if callable(self.C):
            return np.asarray(self.C(t), dtype=np.float64)
        return np.asarray(self.C, dtype=np.float64)

    def forcing(self) -> Forcing:
        return self.f if self.f is not None else ZeroForcing(self.grid)


def _apply_matrix_hat(m: np.ndarray, u_hat: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Half-spectrum of C u: a constant matrix acts on the spectrum, a field of matrices node-wise."""
    if m.ndim == 2:
        return np.tensordot(m, u_hat, axes=(1, 0))
    return rfft(np.einsum("ij...,j...->i...", m, irfft(u_hat, spec)), spec)


def _dealiased_drift(p: TransportProblem):
    """t -> dealiased drift array (d,) + shape; a Trajectory is dealiased once."""
    if p.b is None:
        return None
    if isinstance(p.b, VectorField):
        b = dealias_values(p.b.as_array(), p.grid)
        return lambda t: b
    b = np.empty_like(p.b.values)
    for sl in frame_blocks(len(b), p.grid):
        b[sl] = dealias_values(p.b.values[sl], p.grid)

    def at(t: float) -> np.ndarray:
        k, w = p.b.locate(t)
        return b[k] if w == 0.0 else b[k] * (1.0 - w) + b[k + 1] * w

    return at


def _blocking_guard(spec: GridSpec):
    """Integrator guard: ResolutionError once the top third of the spectrum holds energy."""
    top = ~_dealias_mask(spec)
    # weight the half-spectrum so energies count conjugate pairs once each
    w = np.full(top.shape, 2.0)
    w[..., 0] = 1.0
    if spec.n % 2 == 0:
        w[..., -1] = 1.0

    def guard(t: float, u: np.ndarray, u_hat: np.ndarray) -> None:
        e = (w * np.abs(u_hat) ** 2).sum(axis=0)
        total = e.sum()
        frac = e[top].sum() / total if total >= 1e-300 else 0.0
        if frac > BLOCKING_GATE:
            raise ResolutionError(
                f"spectral blocking at t={t:g}: top-third energy "
                f"fraction {frac:.3e} exceeds {BLOCKING_GATE:g}"
            )

    return guard


def solve_transport(p: TransportProblem) -> Trajectory:
    """Integrating-factor midpoint solve; raises on blocking or divergence."""
    spec = p.grid
    g = p.forcing()
    drift = _dealiased_drift(p)

    def rhs(t: float, u_hat: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u_hat) if g.is_zero else rfft(g.at(t).as_array(), spec)
        if drift is not None:
            out -= advect_hat(drift(t), u_hat, spec)
        m = p.matrix_at(t)
        if m is not None:
            out -= _apply_matrix_hat(m, u_hat, spec)
        return out

    u = integrate(p.u0.as_array(), spec, p.T, p.dt, rhs, _blocking_guard(spec))
    return Trajectory(spec, 0.0, p.dt, u)


def amplification_factors(p: TransportProblem, times: np.ndarray) -> np.ndarray:
    """A(0, t) = exp of the integrated sup operator norm of the matrix term."""
    if p.C is None:
        return np.ones(times.size)
    norms = np.array([opnorm_sup(p.matrix_at(float(t))) for t in times])
    out = np.zeros(times.size)
    out[1:] = np.cumsum(0.5 * (norms[1:] + norms[:-1]) * np.diff(times))
    return np.exp(out)


def mp_tolerance(p: TransportProblem, scale: float | None = None) -> float:
    """Discrete maximum-principle tolerance: O(dt^2) plus a rounding floor."""
    if scale is None:
        g = p.forcing()
        times = np.arange(p.n_steps + 1) * p.dt
        fs = np.array([sup_norm(g.at(float(t))) for t in times[:: max(1, p.n_steps // 8)]])
        scale = sup_norm(p.u0) + p.T * float(fs.max(initial=0.0))
    return MP_DT2_FACTOR * scale * p.dt**2 + 1e-10


def max_principle_slack(traj: Trajectory, p: TransportProblem) -> np.ndarray:
    """Per-frame slack RHS - ||u_t||_inf of the maximum-principle bound."""
    if traj.grid != p.grid:
        raise ValueError("trajectory grid does not match the problem grid")
    times = traj.times
    cumint = np.log(amplification_factors(p, times))
    g = p.forcing()
    f_sup = np.array([sup_norm(g.at(float(t))) for t in times])
    u0_sup = sup_norm(p.u0)
    rhs = np.empty(times.size)
    for k in range(times.size):
        weights = np.exp(cumint[k] - cumint[: k + 1])
        rhs[k] = np.exp(cumint[k] - cumint[0]) * u0_sup + np.trapezoid(weights * f_sup[: k + 1], times[: k + 1])
    return rhs - frame_sups(traj.values, 1)
