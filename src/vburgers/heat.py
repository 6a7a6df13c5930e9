"""Exact spectral heat propagator, the integrating-factor midpoint integrator
built on it, and heat-kernel scaling probes."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, WindowError
from .fields import (
    GridSpec,
    ScalarField,
    Trajectory,
    VectorField,
    _ksq_half,
    gradient_arrays,
    hessian_arrays,
    irfft,
    rfft,
)
from .forcing import Forcing


def heat_multiplier(spec: GridSpec, tau: float) -> np.ndarray:
    return np.exp(-_ksq_half(spec) * tau)


def heat_apply_values(values: np.ndarray, spec: GridSpec, tau: float) -> np.ndarray:
    if tau < 0:
        raise ValueError("backward heat flow (tau < 0) is ill-posed")
    if tau == 0:
        return values.copy()
    return irfft(rfft(values, spec) * heat_multiplier(spec, tau), spec)


def heat_apply(f, tau: float):
    """Exact semigroup e^{tau * Laplacian} on the trigonometric interpolant."""
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, heat_apply_values(f.values, f.grid, tau))
    if isinstance(f, VectorField):
        return VectorField.from_arrays(f.grid, heat_apply_values(f.as_array(), f.grid, tau))
    raise TypeError(f"cannot heat-apply {type(f).__name__}")


def n_steps(T: float, dt: float) -> int:
    """Number of steps of size dt that tile [0, T]; dt must divide T."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return n


def integrate(u0: np.ndarray, spec: GridSpec, T: float, dt: float, rhs, guard) -> np.ndarray:
    """Integrating-factor midpoint solve of d_t u = Lap u + rhs(t, u) on [0, T].

    Maps a channels-first array (ch,) + grid shape to the stack of states on
    t = k dt, shape (n_steps + 1, ch) + grid shape.  Diffusion is exact via
    E = e^{dt Lap}.  The state is stepped as its half-spectrum u_hat, and
    ``rhs(t, u_hat)`` takes and returns half-spectra: one explicit midpoint
    stage, second order in dt, with no transform of its own:

        s_hat = E_half (u_hat + dt/2 rhs(t, u_hat))
        u_hat = E u_hat + dt E_half rhs(t + dt/2, s_hat)

    Only the stored states are inverse-transformed.  ``rhs`` None is pure
    heat flow.  A non-finite state or one above 1e10 times the data scale
    raises DivergenceError; then ``guard(t, u, u_hat)``, unless None, checks
    each new state.
    """
    steps = n_steps(T, dt)
    e_full = heat_multiplier(spec, dt)
    e_half = heat_multiplier(spec, dt / 2.0)
    ceiling = 1e10 * (float(np.abs(u0).max()) + 1.0)
    out = np.empty((steps + 1,) + u0.shape)
    out[0] = u0
    u_hat = rfft(u0, spec)
    for k in range(steps):
        t = k * dt
        if rhs is None:
            u_hat = e_full * u_hat
        else:
            s_hat = e_half * (u_hat + (dt / 2.0) * rhs(t, u_hat))
            u_hat = e_full * u_hat + dt * e_half * rhs(t + dt / 2.0, s_hat)
        u = out[k + 1] = irfft(u_hat, spec)
        peak = np.abs(u).max()
        if not peak <= ceiling:
            raise DivergenceError(f"solution diverged at t={t + dt:g}: sup {peak:.3g} above {ceiling:.3g}")
        if guard is not None:
            guard(t + dt, u, u_hat)
    return out


def duhamel_forced_heat(u0: VectorField, g: Forcing, T: float, dt: float) -> Trajectory:
    """Trajectory of e^{t L}u0 + int_0^t e^{(t-s) L} g_s ds.

    The Duhamel integral uses the midpoint rule composed with the exact
    propagator, step by step: second order in dt, exact for a space-time constant g.
    """
    spec = u0.grid
    rhs = None if g.is_zero else (lambda t, u_hat: rfft(g.at(t).as_array(), spec))
    return Trajectory(spec, 0.0, dt, integrate(u0.as_array(), spec, T, dt, rhs, None))


# ---------------------------------------------------------------------------
# lacunary probe fields and the derivative-decay scaling probe


def lacunary_field(spec: GridSpec, alpha: float, seed: int, j_max: int | None = None) -> ScalarField:
    """Weierstrass-type field sum_j 2^{-j alpha} cos(2^j k0 x + theta_j).

    Varies along the first axis; the largest active wavenumber is
    2^{j_max} * 2 pi / L with 2^{j_max} <= n/4 by default.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if j_max is None:
        j_max = int(np.log2(spec.n)) - 2
    if 2**j_max >= spec.n / 2:
        raise ValueError("largest lacunary mode would alias")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, j_max + 1)
    x = spec.axis_coords()
    k0 = 2.0 * np.pi / spec.L
    line = np.zeros(spec.n)
    for j in range(j_max + 1):
        line += 2.0 ** (-j * alpha) * np.cos(2**j * k0 * x + theta[j])
    values = line.reshape((spec.n,) + (1,) * (spec.d - 1)) * np.ones(spec.shape)
    return ScalarField(spec, values)


def _derivative_sup(f: ScalarField, kappa: int) -> float:
    if kappa == 1:
        g = gradient_arrays(f.values, f.grid)
        return float(np.sqrt((g**2).sum(axis=0)).max())
    if kappa == 2:
        h = hessian_arrays(f.values, f.grid)
        return float(np.sqrt((h**2).sum(axis=(0, 1))).max())
    raise ValueError("kappa must be 1 or 2")


@dataclass(frozen=True)
class ScalingProbeReport:
    alpha: float
    kappa: int
    times: tuple
    norms: tuple
    slope: float
    predicted_slope: float
    fitted_constant: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times)
        if not (np.all(np.diff(t) > 0) and np.all(t > 0)):
            raise ValueError("times must be strictly increasing and positive")
        if not np.isfinite(self.slope):
            raise ValueError("fitted slope must be finite")

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "kappa": self.kappa,
                "times": list(self.times),
                "norms": list(self.norms),
                "slope": self.slope,
                "predicted_slope": self.predicted_slope,
            }
        )


def holder_scaling_probe(
    alpha: float,
    kappa: int,
    t_list,
    spec: GridSpec,
    seed: int,
    field: ScalarField | None = None,
) -> ScalingProbeReport:
    """Fit the decay exponent of sup|grad^kappa e^{t L} u0| on rough data.

    With the built-in lacunary field of Hoelder exponent ``alpha`` the fitted
    log-log slope approaches (alpha - kappa) / 2.  A custom ``field`` skips
    the resolvable-window gate (smooth data saturate at slope 0).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if kappa not in (1, 2):
        raise ValueError("kappa must be 1 or 2")
    t_arr = np.asarray(sorted(t_list), dtype=np.float64)
    if t_arr.size < 2 or np.any(t_arr <= 0):
        raise ValueError("need at least two positive probe times")

    if field is None:
        probe = lacunary_field(spec, alpha, seed)
        j_max = int(np.log2(spec.n)) - 2
        k_top = 2**j_max * 2.0 * np.pi / spec.L
        if k_top**2 * t_arr.min() < 1.0:
            raise WindowError(
                f"min probe time {t_arr.min():g} below resolvable window "
                f"1/k_top^2 = {1.0 / k_top**2:g}"
            )
    else:
        probe = field

    norms = [_derivative_sup(heat_apply(probe, float(t)), kappa) for t in t_arr]
    logs_t = np.log(t_arr)
    logs_n = np.log(norms)
    slope, intercept = np.polyfit(logs_t, logs_n, 1)
    return ScalingProbeReport(
        alpha=alpha,
        kappa=kappa,
        times=tuple(float(t) for t in t_arr),
        norms=tuple(float(v) for v in norms),
        slope=float(slope),
        predicted_slope=(alpha - kappa) / 2.0,
        fitted_constant=float(np.exp(intercept)),
    )
