"""Linear parabolic transport solves (d_t - Lap + b.grad + C) u = f.

The drift b may vary in time; the zeroth-order coefficient C is a constant
matrix.  Diffusion is exact through the spectral integrating factor and the
advection / zeroth-order / source part takes an explicit midpoint stage
(``heat.integrate``), second order in dt overall.  Quadratic products are
dealiased by the two-thirds rule.  ``_transport_rhs`` builds that stage for
these solves and the Picard iterates, iterate 0's forced heat flow
included; the oracle solves (``oracle.cole_hopf``, ``oracle.direct_solve``)
build their own.
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
    rfft_shape,
)
from .forcing import Forcing, ZeroForcing
from .heat import integrate, n_steps
from .norms import channel_sup, frame_sups, opnorm_sup, sup_norm

BLOCKING_GATE = 1e-6
MP_DT2_FACTOR = 25.0


@dataclass
class TransportProblem:
    u0: VectorField
    b: object = None  # None | VectorField | Trajectory
    C: object = None  # None | (d, d) array: the zeroth-order coefficient, constant in t and x
    f: Forcing | None = None  # None: zero forcing, set in __post_init__
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
        if self.f is None:
            self.f = ZeroForcing(grid)
        elif self.f.grid != grid:
            raise ValueError("source grid mismatch")
        if self.C is not None:  # converted once; a constant C has one operator norm
            c, d = np.asarray(self.C), grid.d
            if c.dtype.kind not in "iuf" or c.shape != (d, d):
                raise ValueError(f"C must be None or a real ({d}, {d}) array")
            self.C = np.asarray(c, dtype=np.float64)

    @property
    def grid(self) -> GridSpec:
        return self.u0.grid

    @property
    def n_steps(self) -> int:
        return n_steps(self.T, self.dt)

    def drift_at(self, t: float) -> np.ndarray | None:
        """The drift array (d,) + grid.shape at time t, or None."""
        if self.b is None:
            return None
        if isinstance(self.b, VectorField):
            return self.b.values
        return self.b.values_at(t)


def _dealiased_drift(p: TransportProblem):
    """(s, ts) -> dealiased drift of the one lane, shape (1, d) + shape; a Trajectory is dealiased once."""
    if p.b is None:
        return None
    if isinstance(p.b, VectorField):
        b = dealias_values(p.b.values, p.grid)[None]
        return lambda s, ts: b
    b = np.empty_like(p.b.values)
    for sl in frame_blocks(len(b), p.grid):
        b[sl] = dealias_values(p.b.values[sl], p.grid)

    def at(s, ts) -> np.ndarray:
        k, w = p.b.locate(ts[0])
        return (b[k] if w == 0.0 else b[k] * (1.0 - w) + b[k + 1] * w)[None]

    return at


def _blocking_fractions(spec: GridSpec):
    """u_hat, lanes stacked (a, ch) + half-spectrum -> each lane's energy share in the top third of the spectrum."""
    top = ~_dealias_mask(spec) if spec.d > 1 else slice(spec.n // 3 + 1, None)  # 1-D: the top modes, contiguous
    # weight the half-spectrum so energies count conjugate pairs once each
    w = np.full(rfft_shape(spec), 2.0)
    w[..., 0] = 1.0
    if spec.n % 2 == 0:
        w[..., -1] = 1.0

    def fractions(u_hat: np.ndarray) -> np.ndarray:
        e = np.abs(u_hat)  # w |u_hat|^2, in place
        e *= e
        e *= w
        e = e.sum(axis=1) if e.shape[1] > 1 else e[:, 0]
        total = e.reshape(len(e), -1).sum(axis=1)
        return np.divide(e[:, top].sum(axis=1), total, out=np.zeros(len(e)), where=total >= 1e-300)

    return fractions


def _blocking_guard(spec: GridSpec):
    """Integrator guard: ResolutionError for the first lane whose top third of the spectrum holds energy."""
    fractions = _blocking_fractions(spec)

    def guard(ts, u: np.ndarray, u_hat: np.ndarray):
        frac = fractions(u_hat)
        bad = frac > BLOCKING_GATE
        if not np.count_nonzero(bad):
            return None
        i = int(np.argmax(bad))
        return i, ResolutionError(
            f"spectral blocking at t={ts[i]:g}: top-third energy "
            f"fraction {frac[i]:.3e} exceeds {BLOCKING_GATE:g}"
        )

    return guard


def _transport_rhs(spec: GridSpec, g: Forcing, drift, C=None):
    """The one right-hand side of ``heat.integrate`` for d_t u - Lap u + b.grad u + C u = g, on every lane at once.

    ``drift(s, ts)`` gives the dealiased drift of the active lanes, stacked
    (a, d) + shape, or is None.  Pure heat flow gets None, ``integrate``'s
    heat-only step, and forced heat flow the forcing's half-spectra.
    """
    if drift is None and C is None:
        return None if g.is_zero else (lambda s, ts, u_hat: g.spectra(ts))

    def rhs(s, ts, u_hat: np.ndarray) -> np.ndarray:
        a = np.zeros_like(u_hat) if drift is None else advect_hat(drift(s, ts), u_hat, spec)
        out = np.subtract(0.0 if g.is_zero else g.spectra(ts), a, out=a)
        if C is not None:  # the constant matrix acts on each lane's spectrum: np.tensordot(C, uh, axes=(1, 0))
            for lane, uh in zip(out, u_hat):
                lane -= np.dot(C, uh.reshape(len(uh), -1)).reshape(uh.shape)
        return out

    return rhs


def solve_transport(p: TransportProblem) -> Trajectory:
    """Integrating-factor midpoint solve; raises on blocking or divergence."""
    rhs = _transport_rhs(p.grid, p.f, _dealiased_drift(p), p.C)
    return Trajectory(p.grid, 0.0, p.dt, integrate(p.u0.values, p.grid, p.T, p.dt, rhs, _blocking_guard(p.grid)))


def _log_amplification(p: TransportProblem, times: np.ndarray) -> np.ndarray:
    """log A(0, t): the integral of the operator norm of the matrix term, which is constant in t."""
    out = np.zeros(times.size)
    if p.C is not None:
        norm = opnorm_sup(p.C)
        out[1:] = np.cumsum(norm * np.diff(times))
    return out


def _amplified_integral(log_a: np.ndarray, h: np.ndarray, times: np.ndarray) -> np.ndarray:
    """int_0^t exp(log_a(t) - log_a(s)) h(s) ds at every t of ``times`` (trapezoid rule, O(nt^2))."""
    return np.array(
        [np.trapezoid(np.exp(log_a[k] - log_a[: k + 1]) * h[: k + 1], times[: k + 1]) for k in range(times.size)]
    )


def amplification_factors(p: TransportProblem, times: np.ndarray) -> np.ndarray:
    """A(0, t) = exp(t |C|): the operator norm of the matrix term is constant in t."""
    return np.exp(_log_amplification(p, times))


def mp_tolerance(p: TransportProblem, scale: float | None = None) -> float:
    """Discrete maximum-principle tolerance: O(dt^2) plus a rounding floor."""
    if scale is None:
        g = p.f
        times = np.arange(p.n_steps + 1) * p.dt
        env = max(abs(g.env(float(t))) for t in times[:: max(1, p.n_steps // 8)])
        scale = sup_norm(p.u0) + p.T * env * channel_sup(g.values)
    return MP_DT2_FACTOR * scale * p.dt**2 + 1e-10


def max_principle_slack(traj: Trajectory, p: TransportProblem) -> np.ndarray:
    """Per-frame slack RHS - ||u_t||_inf of the maximum-principle bound."""
    if traj.grid != p.grid:
        raise ValueError("trajectory grid does not match the problem grid")
    times, g = traj.times, p.f
    log_a = _log_amplification(p, times)
    f_sup = np.abs([g.env(float(t)) for t in times]) * channel_sup(g.values)
    rhs = np.exp(log_a) * sup_norm(p.u0) + _amplified_integral(log_a, f_sup, times)
    return rhs - frame_sups(traj.values, 1)
