"""Time-indexed forcing terms g(t, x).

A forcing exposes sampled values on the grid at any time, a time derivative,
and enough structure for the data-dependent reference constants (spatial
derivatives come from the spectral operators, the time derivative either in
closed form or by central differences).
"""
from __future__ import annotations

import numpy as np

from .fields import GridSpec, ScalarField, Trajectory, VectorField, gradient, make_trig_field


class Forcing:
    """Base class; subclasses must set ``grid`` and implement ``at``."""

    grid: GridSpec

    def at(self, t: float) -> VectorField:
        raise NotImplementedError

    def dt_at(self, t: float, eps: float = 1e-6) -> VectorField:
        lo = max(t - eps, 0.0)
        hi = t + eps
        return (self.at(hi) - self.at(lo)) * (1.0 / (hi - lo))

    @property
    def is_zero(self) -> bool:
        return False

    def sample(self, t0: float, dt: float, n_frames: int) -> Trajectory:
        return Trajectory(self.grid, t0, dt, [self.at(t0 + k * dt) for k in range(n_frames)])


class ZeroForcing(Forcing):
    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._zero = VectorField.zero(grid)

    def at(self, t: float) -> VectorField:
        return self._zero

    def dt_at(self, t: float, eps: float = 1e-6) -> VectorField:
        return self._zero

    @property
    def is_zero(self) -> bool:
        return True


class ConstantForcing(Forcing):
    def __init__(self, field: VectorField):
        self.grid = field.grid
        self._field = field

    def at(self, t: float) -> VectorField:
        return self._field

    def dt_at(self, t: float, eps: float = 1e-6) -> VectorField:
        return VectorField.zero(self.grid)


class TrigForcing(Forcing):
    """Seeded band-limited field modulated by a smooth time envelope.

    g(t, x) = (1 + mod * sin(omega t)) * base(x)
    """

    def __init__(self, grid: GridSpec, seed: int, kmax: int, amplitude: float,
                 omega: float = 1.0, mod: float = 0.5):
        self.grid = grid
        self.omega = float(omega)
        self.mod = float(mod)
        self._base = make_trig_field(grid, seed, kmax, amplitude)

    def _envelope(self, t: float) -> float:
        return 1.0 + self.mod * np.sin(self.omega * t)

    def at(self, t: float) -> VectorField:
        return self._base * self._envelope(t)

    def dt_at(self, t: float, eps: float = 1e-6) -> VectorField:
        return self._base * (self.mod * self.omega * np.cos(self.omega * t))


class GradientForcing(Forcing):
    """Gradient-type forcing g = env(t) * grad(potential).

    Keeps the scalar potential accessible so the exact-solution transform can
    consume it directly.
    """

    def __init__(self, potential: ScalarField, omega: float = 0.0, mod: float = 0.0):
        self.grid = potential.grid
        self.potential = potential
        self.omega = float(omega)
        self.mod = float(mod)
        self._grad = gradient(potential)

    def _envelope(self, t: float) -> float:
        return 1.0 + self.mod * np.sin(self.omega * t)

    def at(self, t: float) -> VectorField:
        return self._grad * self._envelope(t)

    def dt_at(self, t: float, eps: float = 1e-6) -> VectorField:
        return self._grad * (self.mod * self.omega * np.cos(self.omega * t))
