"""Separable forcing terms g(t, x) = env(t) base(x).

Every forcing of the package is one fixed field scaled by a scalar time
envelope, so consumers read the base once: its samples, its half-spectrum
and, in ``norms.KProfile``, its sup norms and those of its spatial
derivatives.  The time derivative is ``env_dt(t) base`` in closed form.
The named forcings are constructors of the one ``Forcing`` class.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .fields import GridSpec, ScalarField, VectorField, gradient, make_trig_field, rfft


class Forcing:
    """g(t, x) = env(t) base(x); ``env`` and ``env_dt`` are callables t -> float or constants."""

    def __init__(self, base: VectorField, env=1.0, env_dt=0.0):
        self.grid = base.grid
        self.base = base
        self.values = base.values
        self.env = env if callable(env) else (lambda t: env)
        self.env_dt = env_dt if callable(env_dt) else (lambda t: env_dt)
        # read by the transport right-hand side at every stage
        self.is_zero = not self.values.any()

    @cached_property
    def base_hat(self) -> np.ndarray:
        """Half-spectrum of the base, transformed once."""
        return rfft(self.values, self.grid)

    def spectra(self, times) -> np.ndarray:
        """Half-spectra env(t) base_hat at ``times``, shape (nt, d) + half-spectrum shape."""
        env = np.array([self.env(t) for t in times])
        return env.reshape((-1,) + (1,) * self.base_hat.ndim) * self.base_hat

    def frames(self, times) -> np.ndarray:
        """Samples on ``times``, shape (nt, d) + grid shape."""
        env = np.array([self.env(float(t)) for t in times])
        return env.reshape((-1,) + (1,) * self.values.ndim) * self.values


def ZeroForcing(grid: GridSpec) -> Forcing:
    return Forcing(VectorField.zero(grid))


def ConstantForcing(field: VectorField) -> Forcing:
    return Forcing(field)


def _modulated(base: VectorField, omega: float, mod: float) -> Forcing:
    """env(t) = 1 + mod sin(omega t)."""
    omega, mod = float(omega), float(mod)
    return Forcing(base, lambda t: 1.0 + mod * np.sin(omega * t), lambda t: mod * omega * np.cos(omega * t))


def TrigForcing(
    grid: GridSpec, seed: int, kmax: int, amplitude: float, omega: float = 1.0, mod: float = 0.5
) -> Forcing:
    """Seeded band-limited field modulated by a smooth time envelope.

    g(t, x) = (1 + mod * sin(omega t)) * base(x)
    """
    return _modulated(make_trig_field(grid, seed, kmax, amplitude), omega, mod)


def GradientForcing(potential: ScalarField, omega: float = 0.0, mod: float = 0.0) -> Forcing:
    """Gradient-type forcing g = (1 + mod sin(omega t)) * grad(potential)."""
    return _modulated(gradient(potential), omega, mod)
