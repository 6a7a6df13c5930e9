"""Sup norms, Hoelder seminorms and the data-dependent reference constants.

Discrete Hoelder seminorms are lower bounds of the continuum value: the sup
runs over sampled pairs only.  Pair evaluation is exhaustive (all cyclic
shifts) when the pair count fits the budget, otherwise stratified random
offsets grouped by dyadic distance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fields import (
    GridSpec,
    ScalarField,
    Trajectory,
    VectorField,
    frame_blocks,
    gradient_arrays,
    hessian_arrays,
    jacobian_arrays,
    time_derivative_frames,
)
from .forcing import Forcing

EXHAUSTIVE_PAIR_LIMIT = 2**24


# ---------------------------------------------------------------------------
# sup norms


def sup_norm(f) -> float:
    """Maximum Euclidean magnitude over nodes."""
    if isinstance(f, ScalarField):
        return float(np.abs(f.values).max())
    if isinstance(f, VectorField):
        return float(f.magnitude().max())
    raise TypeError(f"cannot take sup norm of {type(f).__name__}")


def frame_sups(arr: np.ndarray, n_channel_axes: int = 1) -> np.ndarray:
    """Per-frame ``channel_sup`` of a stack (nt,) + channel axes + grid shape."""
    sq = arr**2
    for _ in range(n_channel_axes):
        sq = sq.sum(axis=1)
    return np.sqrt(sq.reshape(len(arr), -1).max(axis=1))


def channel_sup(arr: np.ndarray, n_channel_axes: int = 1) -> float:
    """Max over nodes of the Euclidean magnitude over leading channel axes."""
    return float(frame_sups(arr[None], n_channel_axes)[0])


def grad_sup(v: VectorField) -> float:
    """Frobenius sup norm of the Jacobian."""
    return channel_sup(jacobian_arrays(v), 2)


def hessian_sup(v: VectorField) -> float:
    return channel_sup(hessian_arrays(v.as_array(), v.grid), 3)


def opnorm_sup(m: np.ndarray) -> float:
    """Sup over nodes of the spectral norm of a (d x d)-matrix field.

    ``m`` has shape (d, d) or (d, d) + grid shape.
    """
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[0]
    flat = m.reshape(d, d, -1).transpose(2, 0, 1)
    sv = np.linalg.svd(flat, compute_uv=False)
    return float(sv[:, 0].max())


# ---------------------------------------------------------------------------
# Hoelder seminorms


@dataclass(frozen=True)
class HolderEstimate:
    alpha: float
    mode: str
    value: float
    pairs: int
    exhaustive: bool

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("seminorm estimate must be nonnegative")


def _offset_distance(spec: GridSpec, offset) -> float:
    n, h = spec.n, spec.h
    return math.sqrt(sum((min(o % n, n - o % n) * h) ** 2 for o in offset))


def _diff_max(v: np.ndarray, offset, spatial_axes) -> float:
    w = np.roll(v, shift=offset, axis=spatial_axes)
    # sqrt is monotone, so one root of the largest squared distance is the same value
    return float(np.sqrt(((v - w) ** 2).sum(axis=0).max()))


def _iso_offsets(spec: GridSpec, seed: int, per_stratum: int, force_sampled: bool = False):
    """Yield spatial offsets: exhaustive when affordable, else stratified.

    Returns (offsets, exhaustive_flag).
    """
    n, d = spec.n, spec.d
    if not force_sampled and spec.num_nodes**2 / 2 <= EXHAUSTIVE_PAIR_LIMIT:
        if d == 1:
            return [(o,) for o in range(1, n // 2 + 1)], True
        offsets = [o for o in np.ndindex(*spec.shape) if any(o)]
        return offsets, True
    rng = np.random.default_rng(seed)
    offsets = set()
    n_strata = int(math.log2(n // 2)) + 1
    for s in range(n_strata):
        lo, hi = 2**s, min(2 ** (s + 1), n // 2 + 1)
        for _ in range(per_stratum):
            o = tuple(int(rng.integers(-hi + 1, hi)) % n for _ in range(d))
            centered = max(min(oi, n - oi) for oi in o)
            if centered >= lo or s == 0:
                if any(o):
                    offsets.add(o)
    # always include the nearest-neighbour shells
    for axis in range(d):
        for step in (1, 2):
            o = [0] * d
            o[axis] = step
            offsets.add(tuple(o))
    return sorted(offsets), False


def iso_seminorm_array(
    values: np.ndarray, spec: GridSpec, alpha: float, seed: int = 0, per_stratum: int = 8
) -> HolderEstimate:
    """Isotropic seminorm of a channels-first sample array (ch,) + shape."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    v = np.asarray(values, dtype=np.float64)
    if v.shape[1:] != spec.shape:
        raise ValueError("sample shape mismatch")
    spatial_axes = tuple(range(1, spec.d + 1))
    offsets, exhaustive = _iso_offsets(spec, seed, per_stratum)
    best = 0.0
    pair_count = 0
    for o in offsets:
        dist = _offset_distance(spec, o)
        best = max(best, _diff_max(v, o, spatial_axes) / dist**alpha)
        pair_count += spec.num_nodes
    return HolderEstimate(alpha, "isotropic", best, pair_count, exhaustive)


def parabolic_seminorm_array(
    u: np.ndarray,
    spec: GridSpec,
    dt: float,
    alpha: float,
    seed: int = 0,
    per_stratum: int = 8,
    time_per_stratum: int = 4,
) -> HolderEstimate:
    """Parabolic seminorm of a space-time array (nt, ch) + shape.

    Pairs are graded by the parabolic distance |x - x'| + sqrt|t - t'|;
    the denominator is |x - x'|^alpha + |t - t'|^{alpha/2}.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    u = np.asarray(u, dtype=np.float64)
    nt = u.shape[0]
    spatial_axes = tuple(range(2, spec.d + 2))
    n_points = nt * spec.num_nodes
    exhaustive = n_points**2 / 2 <= EXHAUSTIVE_PAIR_LIMIT

    space_offsets, space_exh = _iso_offsets(spec, seed, per_stratum, force_sampled=not exhaustive)
    if exhaustive and space_exh:
        time_offsets = list(range(nt))
    else:
        exhaustive = False
        rng = np.random.default_rng(seed + 1)
        qs = {1, 2} if nt > 2 else {1}
        s = 2
        while s < nt:
            hi = min(2 * s, nt)
            for _ in range(time_per_stratum):
                qs.add(int(rng.integers(s, hi)))
            s *= 2
        time_offsets = [0] + sorted(q for q in qs if q < nt)

    dists = {o: _offset_distance(spec, o) for o in space_offsets}
    best = 0.0
    pair_count = 0
    for q in time_offsets:
        tdenom = (q * dt) ** (alpha / 2.0)
        if q == 0:
            a = u
        else:
            a = u[q:] - u[:-q]
        for o in ([tuple([0] * spec.d)] if q > 0 else []) + list(space_offsets):
            if q == 0 and not any(o):
                continue
            if any(o):
                diff = a - np.roll(a, shift=o, axis=spatial_axes) if q > 0 else None
                if q == 0:
                    diff = u - np.roll(u, shift=o, axis=spatial_axes)
            else:
                diff = a
            mag = np.sqrt((diff**2).sum(axis=1).max())
            denom = dists.get(o, 0.0) ** alpha + tdenom if any(o) else tdenom
            best = max(best, float(mag) / denom)
            pair_count += (nt - q) * spec.num_nodes
    return HolderEstimate(alpha, "parabolic", best, pair_count, exhaustive)


def _field_channels(f) -> tuple:
    if isinstance(f, ScalarField):
        return f.values[None], f.grid
    if isinstance(f, VectorField):
        return f.as_array(), f.grid
    raise TypeError(f"cannot compute seminorm of {type(f).__name__}")


def holder_seminorm(samples, alpha: float, mode: str | None = None, seed: int = 0) -> HolderEstimate:
    """Sampled Hoelder seminorm, a declared lower bound of the continuum sup.

    Spatial fields use the isotropic seminorm with torus-periodic distances;
    trajectories use the parabolic space-time seminorm.
    """
    if isinstance(samples, Trajectory):
        if mode not in (None, "parabolic"):
            raise ValueError("trajectories take the parabolic seminorm")
        return parabolic_seminorm_array(samples.values, samples.grid, samples.dt, alpha, seed)
    if mode not in (None, "isotropic"):
        raise ValueError("spatial fields take the isotropic seminorm")
    values, grid = _field_channels(samples)
    return iso_seminorm_array(values, grid, alpha, seed)


# ---------------------------------------------------------------------------
# reference constants


@dataclass(frozen=True)
class KConstants:
    """Data-dependent reference scales K0, K1, K2, K_{2+alpha}, K at time t."""

    t: float
    c: float
    alpha: float
    nu: float
    K0: float
    K1: float
    K2: float
    K2plusAlpha: float
    K: float

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        expected = self.c**2 * self.base
        if abs(self.K - expected) > 1e-12 * max(1.0, expected):
            raise ValueError("K does not match its defining combination")

    @property
    def base(self) -> float:
        """K / c^2: the c-independent combination of the data scales."""
        return (
            self.K0**2
            + self.K1
            + self.K2 ** (2.0 / 3.0)
            + self.K2plusAlpha ** (2.0 / (3.0 + self.alpha))
        )

    @property
    def Kbar(self) -> float:
        return self.c * self.K

    def at_c(self, c: float) -> "KConstants":
        """Same data scales, different multiplicative constant."""
        return KConstants(
            self.t, c, self.alpha, self.nu,
            self.K0, self.K1, self.K2, self.K2plusAlpha, c**2 * self.base,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t, "c": self.c, "alpha": self.alpha, "nu": self.nu,
                "K0": self.K0, "K1": self.K1, "K2": self.K2,
                "K2alpha": self.K2plusAlpha, "K": self.K,
            }
        )


def _forcing_sup_series(g: Forcing, times: np.ndarray):
    """Per-time sup norms of g, grad g, hess g, d_t g, one batched transform per block of frames."""
    cols = []
    for sl in frame_blocks(len(times), g.grid):
        gb = np.stack([g.at(float(t)).as_array() for t in times[sl]])
        tb = np.stack([g.dt_at(float(t)).as_array() for t in times[sl]])
        cols.append([
            frame_sups(gb, 1), frame_sups(gradient_arrays(gb, g.grid), 2),
            frame_sups(hessian_arrays(gb, g.grid), 3), frame_sups(tb, 1),
        ])
    return map(np.concatenate, zip(*cols))


class KProfile:
    """K(t) of one datum and forcing: the datum scales once, each distinct t once.

    ``profile(t, c)`` gives the KConstants at time t and constant c.  The
    values are memoized by t at c = 1 and rescaled by ``KConstants.at_c``.
    """

    def __init__(self, u0: VectorField, g: Forcing, alpha: float = 0.5, seed: int = 0, nu: float = 1.0):
        self.u0, self.g, self.alpha, self.seed, self.nu = u0, g, alpha, seed, nu
        self._memo: dict = {}

    @cached_property
    def _datum(self) -> tuple:
        """The t-independent terms: sup u0, sup grad u0, sup hess u0, the Hessian's isotropic seminorm, sup g(0)."""
        u0, spec = self.u0, self.u0.grid
        hess = hessian_arrays(u0.as_array(), spec)
        seminorm = iso_seminorm_array(hess.reshape((spec.d**3,) + spec.shape), spec, self.alpha, self.seed).value
        return sup_norm(u0), grad_sup(u0), channel_sup(hess, 3), seminorm, sup_norm(self.g.at(0.0))

    def __call__(self, t: float, c: float = 1.0) -> KConstants:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t not in self._memo:
            self._memo[t] = self._at(t)
        # the memo is keyed by value; the returned t is the caller's own
        return replace(self._memo[t], t=t).at_c(c)

    def _at(self, t: float) -> KConstants:
        """The constants at c = 1 by trapezoid quadrature on 64 steps of [0, t]."""
        sup_u0, grad_u0, hess_u0, hess_seminorm, sup_g0 = self._datum
        g, alpha = self.g, self.alpha
        if g.is_zero or t == 0:
            int_g = int_dg = int_hess_dt = g_seminorm = 0.0
        else:
            times = np.linspace(0.0, t, 65)
            sup_g, sup_dg, sup_hg, sup_tg = _forcing_sup_series(g, times)
            if not np.all(np.isfinite(sup_g)):
                raise ValueError("non-integrable forcing samples")
            int_g = float(np.trapezoid(sup_g, times))
            int_dg = float(np.trapezoid(sup_dg, times))
            int_hess_dt = float(np.trapezoid(sup_hg + sup_tg, times))
            # the sampled seminorm is a lower bound either way, so it does not
            # need the quadrature resolution: 17 frames
            g_seminorm = holder_seminorm(g.sample(0.0, t / 16, 17), alpha, "parabolic", self.seed).value

        K0 = sup_u0 + int_g
        K1 = grad_u0 + int_dg
        K2 = hess_u0 + sup_u0 * grad_u0 + sup_g0 + int_hess_dt
        K2a = hess_seminorm + g_seminorm
        base = K0**2 + K1 + K2 ** (2.0 / 3.0) + K2a ** (2.0 / (3.0 + alpha))
        return KConstants(t, 1.0, alpha, self.nu, K0, K1, K2, K2a, base)


def compute_k_constants(
    u0: VectorField, g: Forcing, t: float, c: float = 1.0, alpha: float = 0.5, nu: float = 1.0, seed: int = 0
) -> KConstants:
    """The five reference constants at one (t, c); callers needing many t build one KProfile."""
    return KProfile(u0, g, alpha, seed, nu)(t, c)


# ---------------------------------------------------------------------------
# interpolation inequalities


def interpolation_gap(u, alpha: float, variant: str = "space", seed: int = 0) -> float:
    """RHS - LHS of the Hoelder interpolation inequality.

    space:     ||u||_alpha <= 2^{1-alpha} ||u||_inf^{1-alpha} ||grad u||_inf^alpha
    spacetime: ||u||_alpha <= 2 (||u||_inf^{1-a} ||grad u||_inf^a
                                 + ||u||_inf^{1-a/2} ||d_t u||_inf^{a/2})

    The 2^{1-alpha} comes from interpolating the chord bound
    |u(x) - u(y)| <= min(2 sup|u|, sup|grad u| |x - y|) and is sharp
    (sawtooth profiles approach it); without it the spatial inequality
    fails already for sin at alpha = 1/2.  The LHS uses the sampled
    (lower-bound) seminorm, so the gap never goes measurably negative.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if variant == "space":
        if isinstance(u, Trajectory):
            raise TypeError("space variant needs a spatial field")
        values, grid = _field_channels(u)
        lhs = iso_seminorm_array(values, grid, alpha, seed).value
        s = channel_sup(values, 1)
        gsup = channel_sup(gradient_arrays(values, grid), 2)
        rhs = 2.0 ** (1.0 - alpha) * s ** (1.0 - alpha) * gsup**alpha
        return rhs - lhs
    if variant == "spacetime":
        if not isinstance(u, Trajectory):
            raise TypeError("spacetime variant needs a trajectory")
        lhs = holder_seminorm(u, alpha, "parabolic", seed).value
        dts = time_derivative_frames(u)
        sups = []
        for sl in frame_blocks(len(u), u.grid):
            ub = u.values[sl]
            sups.append([frame_sups(ub, 1), frame_sups(gradient_arrays(ub, u.grid), 2), frame_sups(dts[sl], 1)])
        s, gsup, tsup = (float(np.max(col)) for col in zip(*sups))
        rhs = 2.0 * (s ** (1.0 - alpha) * gsup**alpha + s ** (1.0 - alpha / 2.0) * tsup ** (alpha / 2.0))
        return rhs - lhs
    raise ValueError(f"unknown variant {variant!r}")
