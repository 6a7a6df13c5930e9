"""Sup norms, Hoelder seminorms and the data-dependent reference constants.

Discrete Hoelder seminorms are lower bounds of the continuum value: the sup
runs over sampled pairs only.  Pair evaluation is exhaustive (all cyclic
shifts) when the pair count fits the budget, otherwise stratified random
offsets grouped by dyadic distance.

A pair (t + q dt, x), (t, x - o) has the denominator
``|o|**alpha + (q dt)**(alpha/2)``, and its difference is at most the time
difference at x plus the space difference at t, so no quotient exceeds the
larger of the space part (q = 0) and the time part (o = 0, q > 0).
``_seminorm`` takes only those, on finite samples (a NaN would drop the
quotients it touches), and of each mirrored offset pair o, -o one offset.
Its spatial loop visits the offsets in order of increasing denominator and
stops at the first with ``cap / denom <= best``: ``cap = 2 max|u| (1 +
1e-12)`` bounds every pair difference, with a margin for rounding, so the
result is the float the full loop gives.  The skipped pairs, like those
with q > 0 and o != 0, still count in ``pairs``: their quotients are only
known not to matter, so the estimate stays a lower bound over the same pair
set.  Where squares of ``u`` could overflow or go subnormal, nothing is
skipped.  The isotropic seminorm of a field is the parabolic one of that
field as a single frame.

The parabolic pair set (spatial offsets, time offsets, pair count and the
exhaustive flag) depends only on the grid, the frame count, alpha and the
sampling, and ``_parabolic_pairs`` chooses it for both parabolic
seminorms.  ``separable_seminorm`` serves frames of the form env[k] base,
such as the forcing inside K(t): the largest difference over the pairs of
time offset q and spatial offset o is A(q) D(o), with A(q) the largest
envelope difference at lag q (the largest |env| at q = 0) and D(o) the
largest base difference at offset o (``base_differences``, taken once).
So the larger of its q = 0 row and o = 0 column is the value
``parabolic_seminorm_array`` gives on the frame stack, up to the rounding of
the factored products, and it is the same lower bound.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import WindowError
from .fields import (
    GridSpec,
    Trajectory,
    VectorField,
    frame_blocks,
    gradient_arrays,
    hessian_arrays,
    rfft,
    time_derivative_arrays,
)
from .forcing import Forcing

EXHAUSTIVE_PAIR_LIMIT = 2**24
PER_STRATUM = 8  # sampled spatial offsets per dyadic stratum
TIME_PER_STRATUM = 4  # sampled time offsets per dyadic stratum of the parabolic seminorm


# ---------------------------------------------------------------------------
# sup norms


def sup_norm(f) -> float:
    """Maximum Euclidean magnitude over nodes."""
    if not isinstance(f, VectorField):
        raise TypeError(f"cannot take sup norm of {type(f).__name__}")
    return channel_sup(f.values)


def frame_sups(arr: np.ndarray, n_channel_axes: int = 1) -> np.ndarray:
    """Per-frame ``channel_sup`` of a stack (nt,) + channel axes + grid shape."""
    sq = arr**2
    for _ in range(n_channel_axes):
        sq = sq.sum(axis=1) if sq.shape[1] > 1 else sq[:, 0]  # a unit axis sums to itself
    return np.sqrt(sq.reshape(len(arr), -1).max(axis=1))


def channel_sup(arr: np.ndarray, n_channel_axes: int = 1) -> float:
    """Max over nodes of the Euclidean magnitude over leading channel axes."""
    return float(frame_sups(arr[None], n_channel_axes)[0])


def grad_sup(v: VectorField) -> float:
    """Frobenius sup norm of the Jacobian."""
    return channel_sup(gradient_arrays(v.values, v.grid), 2)


def hessian_sup(v: VectorField) -> float:
    return channel_sup(hessian_arrays(v.values, v.grid), 3)


def _block_sups(u: np.ndarray, spec: GridSpec, uh: np.ndarray | None = None) -> tuple:
    """(Hessians, [sup u, sup grad u, sup hess u]) of a block of frames, forward-transformed once (or given ``uh``)."""
    uh = rfft(u, spec) if uh is None else uh
    sup_grad = frame_sups(gradient_arrays(u, spec, uh), 2)
    hess = hessian_arrays(u, spec, uh)
    del uh  # the spectrum is not held while the Hessians are reduced: peak memory stays that of two transforms
    return hess, [frame_sups(u, 1), sup_grad, frame_sups(hess, 3)]


def opnorm_sup(m: np.ndarray) -> float:
    """Spectral norm (largest singular value) of one constant (d, d) matrix; any other shape is a ValueError."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"opnorm_sup takes one square (d, d) matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Hoelder seminorms


@dataclass(frozen=True)
class HolderEstimate:
    """A sampled seminorm: its value, the sampled pairs (each +/- pair once) and whether they are all pairs."""

    value: float
    pairs: int
    exhaustive: bool

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("seminorm estimate must be nonnegative")


def _offset_distance(spec: GridSpec, offset) -> float:
    n, h = spec.n, spec.h
    return math.sqrt(sum((min(o % n, n - o % n) * h) ** 2 for o in offset))


def _diff_max(a: np.ndarray, offset, spatial_axes) -> float:
    """Largest channel norm of ``a - roll(a, offset)``; of ``a`` itself for the zero offset.

    The channel axis is the one just before the spatial axes.
    """
    if any(offset):
        # one temporary of a's size, reused for the difference and its square
        sq = np.roll(a, shift=offset, axis=spatial_axes)
        np.subtract(a, sq, out=sq)
        np.square(sq, out=sq)
    else:
        sq = np.square(a)
    # sqrt is monotone, so one root of the largest squared distance is the same value
    return float(np.sqrt(sq.sum(axis=spatial_axes[0] - 1).max()))


def _pair_cap(a: np.ndarray, peak: float) -> float:
    """Bound on every computed pair difference of ``a``, from ``peak = max|a|``.

    ``2 peak`` by the triangle inequality, widened by 1e-12 for rounding.
    Outside [1e-150, 1e150] the squares may overflow or go subnormal, so the
    bound is inf (nothing is skipped) unless ``a`` is all zeros.
    """
    if 1e-150 <= peak <= 1e150:
        return 2.0 * peak * (1 + 1e-12)
    return math.inf if a.any() else 0.0


def _pruned_max(a, offsets, denoms, cap: float, best: float, spatial_axes) -> float:
    """``best`` raised by the quotients of ``a`` over ``offsets`` (denominators ascending).

    Stops at the first ``cap / denom <= best``: that quotient and every
    later one are at most ``best``.
    """
    for o, denom in zip(offsets, denoms):
        if cap / denom <= best:
            break
        best = max(best, _diff_max(a, o, spatial_axes) / denom)
    return best


def _iso_offsets(spec: GridSpec, seed: int, force_sampled: bool = False):
    """(spatial offsets, exhaustive flag): one of each pair o, -o; all when affordable, else stratified samples."""
    n, d = spec.n, spec.d
    if not force_sampled and spec.num_nodes**2 / 2 <= EXHAUSTIVE_PAIR_LIMIT:
        return [o for o in np.ndindex(*spec.shape) if any(o) and o <= tuple(-x % n for x in o)], True
    rng = np.random.default_rng(seed)
    offsets = set()
    n_strata = int(math.log2(n // 2)) + 1
    for s in range(n_strata):
        lo, hi = 2**s, min(2 ** (s + 1), n // 2 + 1)
        for _ in range(PER_STRATUM):
            o = tuple(int(rng.integers(-hi + 1, hi)) % n for _ in range(d))
            centered = max(min(oi, n - oi) for oi in o)
            if centered >= lo or s == 0:
                if any(o):
                    offsets.add(min(o, tuple(-x % n for x in o)))
    # always include the nearest-neighbour shells
    for axis in range(d):
        for step in (1, 2):
            o = [0] * d
            o[axis] = step
            offsets.add(tuple(o))
    return sorted(offsets), False


def iso_seminorm_array(values: np.ndarray, spec: GridSpec, alpha: float, seed: int = 0) -> HolderEstimate:
    """Isotropic seminorm of a channels-first sample array (ch,) + shape: ``_seminorm`` of it as one frame."""
    return _seminorm(np.asarray(values)[None], spec, 0.0, alpha, seed)


@lru_cache(maxsize=256)
def _parabolic_pairs(spec: GridSpec, nt: int, alpha: float, seed: int) -> tuple:
    """The pair set of the parabolic seminorm of ``nt`` frames on ``spec`` (one frame: the isotropic pair set).

    Returns (spatial offsets, their ``dist**alpha``, time offsets, exhaustive
    flag, pair count); the spatial offsets ascend in ``dist**alpha`` and the
    time offsets start at 0.  Memoized: it depends only on its arguments.
    """
    exhaustive = (nt * spec.num_nodes) ** 2 / 2 <= EXHAUSTIVE_PAIR_LIMIT
    offsets, space_exh = _iso_offsets(spec, seed, not exhaustive)
    powered = sorted((_offset_distance(spec, o) ** alpha, o) for o in offsets)
    ordered, dpows = tuple(o for _, o in powered), tuple(p for p, _ in powered)
    if exhaustive and space_exh:
        time_offsets = tuple(range(nt))
    else:
        exhaustive = False
        rng = np.random.default_rng(seed + 1)
        qs = {1, 2} if nt > 2 else {1}
        s = 2
        while s < nt:
            hi = min(2 * s, nt)
            for _ in range(TIME_PER_STRATUM):
                qs.add(int(rng.integers(s, hi)))
            s *= 2
        time_offsets = (0,) + tuple(sorted(q for q in qs if q < nt))
    # each time offset q pairs frames k and k + q: the spatial offsets, plus the zero offset when q > 0
    pairs = sum((len(ordered) + (q > 0)) * (nt - q) for q in time_offsets) * spec.num_nodes
    return ordered, dpows, time_offsets, exhaustive, pairs


def parabolic_seminorm_array(u: np.ndarray, spec: GridSpec, dt: float, alpha: float, seed: int = 0) -> HolderEstimate:
    """Parabolic seminorm of a space-time array (nt, ch) + shape.

    Pairs are graded by the parabolic distance |x - x'| + sqrt|t - t'|;
    the denominator is |x - x'|^alpha + |t - t'|^{alpha/2}.
    """
    return _seminorm(u, spec, dt, alpha, seed)


def _seminorm(u, spec: GridSpec, dt: float, alpha: float, seed: int) -> HolderEstimate:
    """Both seminorms over finite frames (nt, ch) + shape spaced by ``dt``: the larger of the space and time parts."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    u = np.asarray(u, dtype=np.float64)
    if u.shape[2:] != spec.shape:
        raise ValueError("sample shape mismatch")
    if not np.isfinite(u).all():
        raise ValueError("the seminorms take finite samples")
    spatial_axes, zero = tuple(range(2, spec.d + 2)), (0,) * spec.d
    ordered, dpows, time_offsets, exhaustive, pairs = _parabolic_pairs(spec, u.shape[0], alpha, seed)
    best = _pruned_max(u, ordered, dpows, _pair_cap(u, _diff_max(u, zero, spatial_axes)), 0.0, spatial_axes)
    for q in time_offsets[1:]:
        a = u[q:] - u[:-q]  # bound to a name: a temporary passed on directly ran slower
        best = max(best, _diff_max(a, zero, spatial_axes) / (q * dt) ** (alpha / 2.0))
    return HolderEstimate(best, pairs, exhaustive)


def base_differences(base: np.ndarray, spec: GridSpec, nt: int, alpha: float, seed: int = 0) -> np.ndarray:
    """D(o) = max_x |base(x) - base(x - o)| over the spatial offsets of the parabolic pair set of ``nt`` frames.

    ``base`` is channels-first, (ch,) + shape.  Entry 0 is max|base|, the
    zero offset; the others follow the offsets of ``_parabolic_pairs``.
    """
    ordered = _parabolic_pairs(spec, nt, alpha, seed)[0]
    spatial_axes = tuple(range(1, spec.d + 1))
    return np.array([_diff_max(base, o, spatial_axes) for o in ((0,) * spec.d,) + ordered])


def separable_seminorm(
    env, diffs: np.ndarray, spec: GridSpec, dt: float, alpha: float, seed: int = 0
) -> HolderEstimate:
    """Parabolic seminorm of the frames ``env[k] * base``, from ``diffs = base_differences(base, ...)``.

    A(q) = max_k |env[k + q] - env[k]| (A(0) = max_k |env[k]|) times D(o)
    is the largest difference over the pairs of time offset q and spatial
    offset o, and the value is the largest quotient of the q = 0 row and
    the o = 0 column; the pairs, their count and the exhaustive flag are
    those of ``parabolic_seminorm_array``.
    """
    env = np.asarray(env, dtype=np.float64)
    _, dpows, time_offsets, exhaustive, pairs = _parabolic_pairs(spec, len(env), alpha, seed)
    amp = np.array([np.abs(env[q:] - env[:-q]).max() if q else np.abs(env).max() for q in time_offsets])
    tdenom = np.array([(q * dt) ** (alpha / 2.0) for q in time_offsets[1:]])
    # the row: frames at one time; the column: frames at one node, q > 0 only
    best = max((amp[0] * diffs[1:] / dpows).max(initial=0.0), (amp[1:] * diffs[0] / tdenom).max(initial=0.0))
    return HolderEstimate(float(best), pairs, exhaustive)


def _field_channels(f) -> tuple:
    if isinstance(f, VectorField):
        return f.values, f.grid
    raise TypeError(f"cannot compute seminorm of {type(f).__name__}")


def holder_seminorm(samples, alpha: float, seed: int = 0) -> HolderEstimate:
    """Sampled Hoelder seminorm, a declared lower bound of the continuum sup.

    Spatial fields use the isotropic seminorm with torus-periodic distances;
    trajectories use the parabolic space-time seminorm.
    """
    if isinstance(samples, Trajectory):
        return parabolic_seminorm_array(samples.values, samples.grid, samples.dt, alpha, seed)
    values, grid = _field_channels(samples)
    return iso_seminorm_array(values, grid, alpha, seed)


# ---------------------------------------------------------------------------
# reference constants


@dataclass(frozen=True)
class KConstants:
    """Data-dependent reference scales K0, K1, K2, K_{2+alpha} at time t and K = c^2 base, at nu = 1."""

    t: float
    c: float
    alpha: float
    K0: float
    K1: float
    K2: float
    K2plusAlpha: float

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

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
    def K(self) -> float:
        """c^2 base; a WindowError where that is not a finite float."""
        try:
            k = self.c**2 * self.base
        except OverflowError:
            k = math.inf
        if not math.isfinite(k):
            raise WindowError(f"K = c^2 base does not fit in floats at c={self.c:g}")
        return k

    def at_c(self, c: float) -> "KConstants":
        """Same data scales, different multiplicative constant."""
        return replace(self, c=c)

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t, "c": self.c, "alpha": self.alpha, "nu": 1.0,
                "K0": self.K0, "K1": self.K1, "K2": self.K2,
                "K2alpha": self.K2plusAlpha, "K": self.K,
            }
        )


class KProfile:
    """K(t) of one datum and forcing: the datum scales once, each distinct t once.

    ``profile(t, c)`` gives the KConstants at time t and constant c, in the
    unit-viscosity frame (other nu: ``scheme.rescale_viscosity``).  The
    values are memoized by t at c = 1 and rescaled by ``KConstants.at_c``.

    The forcing g = env(t) base enters through its base, read once: the
    sups of the base and its derivatives, and its differences over the
    offsets of the 17-frame parabolic pair set.  A new t then costs 65
    envelope samples and, for the seminorm of g on [0, t], one table of
    products (``separable_seminorm``) over the pairs the frame-stack
    seminorm samples, so K_{2+alpha} stays a lower bound over those pairs.
    """

    def __init__(self, u0: VectorField, g: Forcing, alpha: float = 0.5, seed: int = 0):
        self.u0, self.g, self.alpha, self.seed = u0, g, alpha, seed
        self._memo: dict = {}

    @cached_property
    def _datum(self) -> tuple:
        """The t-independent terms.

        Sup, sup grad, sup hess and Hessian seminorm of u0; the three sups of
        g.base and its differences for the seminorm of 17 frames.
        """
        spec, b = self.u0.grid, self.g.values
        hess, sups = _block_sups(self.u0.values[None], spec)
        seminorm = iso_seminorm_array(hess.reshape((spec.d**3,) + spec.shape), spec, self.alpha, self.seed).value
        base_sups = _block_sups(b[None], spec)[1]
        diffs = base_differences(b, spec, 17, self.alpha, self.seed)
        return tuple(float(s[0]) for s in sups) + (seminorm,) + tuple(float(s[0]) for s in base_sups) + (diffs,)

    def __call__(self, t: float, c: float = 1.0) -> KConstants:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t not in self._memo:
            self._memo[t] = self._at(t)
        # the memo is keyed by value; the returned t is the caller's own
        return replace(self._memo[t], t=t).at_c(c)

    def _at(self, t: float) -> KConstants:
        """The constants at c = 1 by trapezoid quadrature on 64 steps of [0, t].

        The sups of g = env(t) base and its derivatives are |env(t)| or
        |env_dt(t)| times the sups of the base.
        """
        sup_u0, grad_u0, hess_u0, hess_seminorm, sup_b, grad_b, hess_b, diffs = self._datum
        g, alpha = self.g, self.alpha
        sup_g0 = abs(g.env(0.0)) * sup_b
        if g.is_zero or t == 0:
            int_g = int_dg = int_hess_dt = g_seminorm = 0.0
        else:
            times = np.linspace(0.0, t, 65)
            signed = np.array([g.env(float(s)) for s in times])
            if not np.all(np.isfinite(signed)):
                raise ValueError("non-integrable forcing samples")
            env, env_dt = np.abs(signed), np.abs([g.env_dt(float(s)) for s in times])
            int_g = float(np.trapezoid(env * sup_b, times))
            int_dg = float(np.trapezoid(env * grad_b, times))
            int_hess_dt = float(np.trapezoid(env * hess_b + env_dt * sup_b, times))
            # the sampled seminorm is a lower bound either way, so it does not
            # need the quadrature resolution: every fourth sample, 17 frames
            # k t/16; signed, since env may change sign
            g_seminorm = separable_seminorm(signed[::4], diffs, g.grid, t / 16, alpha, self.seed).value

        K0 = sup_u0 + int_g
        K1 = grad_u0 + int_dg
        K2 = hess_u0 + sup_u0 * grad_u0 + sup_g0 + int_hess_dt
        K2a = hess_seminorm + g_seminorm
        return KConstants(t, 1.0, alpha, K0, K1, K2, K2a)


def compute_k_constants(
    u0: VectorField, g: Forcing, t: float, c: float = 1.0, alpha: float = 0.5, seed: int = 0
) -> KConstants:
    """The five reference constants at one (t, c); callers needing many t build one KProfile."""
    return KProfile(u0, g, alpha, seed)(t, c)


# ---------------------------------------------------------------------------
# interpolation inequalities


def interpolation_gap(u, alpha: float, seed: int = 0) -> float:
    """RHS - LHS of the Hoelder interpolation inequality.

    A spatial field takes the spatial form and a trajectory the space-time
    form, as in ``holder_seminorm``:

    field:      ||u||_alpha <= 2^{1-alpha} ||u||_inf^{1-alpha} ||grad u||_inf^alpha
    trajectory: ||u||_alpha <= 2 (||u||_inf^{1-a} ||grad u||_inf^a
                                  + ||u||_inf^{1-a/2} ||d_t u||_inf^{a/2})

    The 2^{1-alpha} comes from interpolating the chord bound
    |u(x) - u(y)| <= min(2 sup|u|, sup|grad u| |x - y|) and is sharp
    (sawtooth profiles approach it); without it the spatial inequality
    fails already for sin at alpha = 1/2.  The LHS uses the sampled
    (lower-bound) seminorm, so the gap never goes measurably negative.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    lhs = holder_seminorm(u, alpha, seed).value
    if not isinstance(u, Trajectory):
        values, grid = _field_channels(u)
        s = channel_sup(values, 1)
        gsup = channel_sup(gradient_arrays(values, grid), 2)
        return 2.0 ** (1.0 - alpha) * s ** (1.0 - alpha) * gsup**alpha - lhs
    dts = time_derivative_arrays(u.values, u.dt)
    sups = []
    for sl in frame_blocks(len(u), u.grid):
        ub = u.values[sl]
        sups.append([frame_sups(ub, 1), frame_sups(gradient_arrays(ub, u.grid), 2), frame_sups(dts[sl], 1)])
    s, gsup, tsup = (float(np.max(col)) for col in zip(*sups))
    return 2.0 * (s ** (1.0 - alpha) * gsup**alpha + s ** (1.0 - alpha / 2.0) * tsup ** (alpha / 2.0)) - lhs
