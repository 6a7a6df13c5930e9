"""Independent ground truth: Cole-Hopf solutions and residual checks.

The transform u = lam * grad(log phi) converts gradient-forced Burgers into
the scalar linear PDE d_t phi = Lap phi + f phi (unit-viscosity frame).
With our sign conventions lam = ``COLE_HOPF_LAMBDA`` = -2; the tests
validate that constant by residual rather than assume it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .fields import (
    ScalarField,
    Trajectory,
    VectorField,
    _dealias_mask,
    advect_hat,
    frame_blocks,
    gradient_arrays,
    irfft,
    laplacian_arrays,
    rfft,
    time_derivative_arrays,
)
from .forcing import Forcing
from .heat import integrate
from .norms import frame_sups
from .transport import _blocking_guard

COLE_HOPF_LAMBDA = -2.0


@dataclass(frozen=True)
class ResidualSeries:
    """Per-frame sup norm of (d_t - Lap) u + (u . grad) u - g."""

    times: tuple
    values: tuple

    def __post_init__(self):
        v = np.asarray(self.values)
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("residuals must be nonnegative and finite")

    @property
    def max(self) -> float:
        return float(np.max(self.values))


def residual(u: Trajectory, g: Forcing | None = None) -> ResidualSeries:
    """Burgers residual with spectral space derivatives and dealiased u.grad u."""
    spec, times = u.grid, u.times
    dt_u = time_derivative_arrays(u.values, u.dt)
    out = []
    for sl in frame_blocks(len(u), spec):
        ub = u.values[sl]
        uh = rfft(ub, spec)
        b = irfft(uh * _dealias_mask(spec), spec)
        res = dt_u[sl] - laplacian_arrays(ub, spec, uh) + irfft(advect_hat(b, uh, spec), spec)
        if g is not None and not g.is_zero:
            res -= g.frames(times[sl])
        out.append(frame_sups(res, 1))
    return ResidualSeries(tuple(float(t) for t in times), tuple(float(r) for r in np.concatenate(out)))


def cole_hopf(phi0: ScalarField, f=None, T: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """Exact-solution trajectory via the logarithmic gradient transform.

    ``f`` is an optional scalar potential forcing (callable t -> ScalarField
    or a constant ScalarField); the matching Burgers forcing is lam * grad f
    with lam = ``COLE_HOPF_LAMBDA``.
    The scalar PDE is solved spectrally (exact heat propagator, midpoint
    stage for the f*phi term); phi must stay positive throughout.
    """
    spec = phi0.grid
    if np.any(phi0.values <= 0):
        raise OracleError("initial phi must be positive node-wise")

    rhs = None
    if f is not None:
        def rhs(s, ts, phi_hat: np.ndarray) -> np.ndarray:
            return rfft((f(ts[0]) if callable(f) else f).values * irfft(phi_hat, spec), spec)

    def positive(ts, phi: np.ndarray, phi_hat: np.ndarray):
        bad = phi.reshape(len(phi), -1).min(axis=1) <= 0
        if not np.count_nonzero(bad):
            return None
        i = int(np.argmax(bad))
        return i, OracleError(f"phi lost positivity at t={ts[i]:g}")

    phis = integrate(phi0.values[None], spec, T, dt, rhs, positive)
    u = np.empty((len(phis), spec.d) + spec.shape)
    for sl in frame_blocks(len(phis), spec):
        u[sl] = COLE_HOPF_LAMBDA * gradient_arrays(np.log(phis[sl, 0]), spec)
    return Trajectory(spec, 0.0, dt, u)


def direct_solve(u0: VectorField, g: Forcing | None, T: float, dt: float) -> Trajectory:
    """Semi-implicit pseudo-spectral Burgers solve (no fixed-point iteration).

    Diffusion is exact via the integrating factor; the dealiased nonlinearity
    and forcing advance with an explicit midpoint stage (second order).
    """
    spec = u0.grid

    def rhs(s, ts, u_hat: np.ndarray) -> np.ndarray:
        out = -advect_hat(irfft(u_hat * _dealias_mask(spec), spec), u_hat, spec)
        if g is not None and not g.is_zero:
            out += g.spectra(ts)
        return out

    return Trajectory(spec, 0.0, dt, integrate(u0.values, spec, T, dt, rhs, _blocking_guard(spec)))
