"""Exact spectral heat propagator, the integrating-factor midpoint integrator
built on it, and heat-kernel scaling probes."""
from __future__ import annotations

import json
from dataclasses import dataclass

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
    tick_steps,
)
from .forcing import Forcing
from .norms import channel_sup


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
    if not isinstance(f, (ScalarField, VectorField)):
        raise TypeError(f"cannot heat-apply {type(f).__name__}")
    return type(f)(f.grid, heat_apply_values(f.values, f.grid, tau))


def n_steps(T: float, dt: float) -> int:
    """Number of steps of size dt that tile [0, T]; dt must divide T."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return n


def _first_failure(ts, u: np.ndarray, u_hat: np.ndarray, ceiling: float, guard):
    """None or (i, error) for the first failing state i of a tick's rows, at times ``ts``."""
    peak = np.abs(u).reshape(len(u), -1).max(axis=1)
    finite = peak <= ceiling
    n_ok = len(u) if np.count_nonzero(finite) == len(u) else int(np.argmin(finite))
    failed = None if guard is None or n_ok == 0 else guard(ts[:n_ok], u[:n_ok], u_hat[:n_ok])
    if failed is None and n_ok < len(u):
        failed = n_ok, DivergenceError(f"solution diverged at t={ts[n_ok]:g}: sup {peak[n_ok]:.3g} above {ceiling:.3g}")
    return failed


def integrate(u0: np.ndarray, spec: GridSpec, T: float, dt: float, rhs, guard, lanes: int = 1, emit=None):
    """Integrating-factor midpoint solve of d_t u = Lap u + rhs(t, u) on [0, T].

    Maps a channels-first array (ch,) + grid shape to the stack of states on
    t = k dt, shape (n_steps + 1, ch) + grid shape.  Diffusion is exact via
    E = e^{dt Lap}.  The state is stepped as its half-spectrum u_hat, and the
    right-hand side takes and returns half-spectra: one explicit midpoint
    stage, second order in dt, with no transform of its own:

        s_hat = E_half (u_hat + dt/2 rhs(t, u_hat))
        u_hat = E u_hat + dt E_half rhs(t + dt/2, s_hat)

    ``rhs`` None is pure heat flow.

    The state carries a leading lane axis: ``lanes`` problems that share u0
    march in ticks of B = ``fields.tick_steps(n_steps, lanes, spec)`` steps,
    staggered by one tick: at tick s lane j takes steps (s - j) B to
    (s - j) B + B - 1, so one batched transform serves every lane of a step
    and lane j can read the block lane j - 1 produced on the tick before.
    ``rhs(r, ts, u_hat)`` gets r = s B + b at the tick's step b (lane j
    takes step r - j B), the times of the active lanes (floats) and their
    stacked half-spectra (a, ch) + half-spectrum shape, a the lane count.

    After its B steps a tick inverse-transforms the states it made in one
    call and checks them in lane-major order, so the first failing row is
    the lowest failing lane's first failing state: a non-finite state or one
    above 1e10 times the data scale is a DivergenceError, then
    ``guard(ts, u, u_hat)``, unless None, returns None or (i, error) for the
    first failing row i.  Lanes march past a failure to the end of the tick
    with floating-point warnings silenced.  The rows past a lane's last
    step (its last tick may be short) repeat its last state, so they fail
    no check that state passes.

    ``emit(s, lo, u, failed)`` takes tick s's rows u of lanes lo, lo + 1, ...
    (B rows each, lane j's frames (s - j) B + 1, ...) and None or (j,
    error) for the first failing lane j, whose states and those of the lanes
    above it it must discard, and returns the number of lanes to go on with
    (lanes above it stop).  With ``emit`` None there is one lane, each
    tick's states go into the returned stack, and a failed check raises the
    error of its first failing state.
    """
    steps = n_steps(T, dt)
    block = tick_steps(steps, lanes, spec)
    ticks = -(-steps // block)
    e_full = heat_multiplier(spec, dt)
    e_half = heat_multiplier(spec, dt / 2.0)
    dt_e_half = dt * e_half
    ceiling = 1e10 * (float(np.abs(u0).max()) + 1.0)
    u_hat = np.repeat(rfft(u0, spec)[None], lanes, axis=0)
    t_end = (np.arange(ticks * block) * dt + dt).reshape(ticks, block)  # the time after each step, by tick

    def step(r, ts, uh):
        if rhs is None:
            return e_full * uh
        s_hat = e_half * (uh + (dt / 2.0) * rhs(r, ts, uh))
        return e_full * uh + dt_e_half * rhs(r, [t + dt / 2.0 for t in ts], s_hat)

    out = None
    if emit is None:
        out = np.empty((steps + 1,) + u0.shape)
        out[0] = u0

        def emit(s, lo, u, failed):
            if failed is not None:
                raise failed[1]
            out[s * block + 1 : s * block + block + 1] = u[: steps - s * block]
            return 1

    s = 0
    while 0 < lanes and s < ticks + lanes - 1:
        lo, hi = max(0, s - ticks + 1), min(lanes, s + 1)
        left = steps - (s - lo) * block  # lane lo's steps still to take; the lanes above take a whole block
        held = np.empty((hi - lo, block) + u_hat.shape[1:], dtype=u_hat.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(min(block, left) if hi == lo + 1 else block):
                a = lo if b < left else lo + 1
                ts = [(s * block + b - j * block) * dt for j in range(a, hi)]
                held[a - lo :, b] = u_hat[a:hi] = step(s * block + b, ts, u_hat[a:hi])
            if left < block:
                held[0, left:] = held[0, left - 1]
            held = held.reshape((-1,) + u_hat.shape[1:])
            u = irfft(held, spec)
        failed = _first_failure(t_end[s - hi + 1 : s - lo + 1][::-1].reshape(-1), u, held, ceiling, guard)
        held = None  # not held while the rows are filed
        if failed is not None:
            failed = lo + failed[0] // block, failed[1]
        lanes = emit(s, lo, u, failed)
        s += 1
    return out


def duhamel_forced_heat(u0: VectorField, g: Forcing, T: float, dt: float) -> Trajectory:
    """Trajectory of e^{t L}u0 + int_0^t e^{(t-s) L} g_s ds.

    The Duhamel integral uses the midpoint rule composed with the exact
    propagator, step by step: second order in dt, exact for a space-time constant g.
    The forcing spectrum is env(t) times the base's, transformed once.
    """
    spec = u0.grid
    return Trajectory(spec, 0.0, dt, integrate(u0.values, spec, T, dt, forced_heat_rhs(g), None))


def forced_heat_rhs(g: Forcing):
    """``integrate``'s right-hand side of the forced heat flow: the forcing's half-spectra, or None with no forcing."""
    return None if g.is_zero else (lambda s, ts, u_hat: g.spectra(ts))


# ---------------------------------------------------------------------------
# lacunary probe fields and the derivative-decay scaling probe


def _lacunary_j_max(spec: GridSpec) -> int:
    """Index of the top lacunary mode: 2^{j_max} = n/4, below the Nyquist n/2."""
    return int(np.log2(spec.n)) - 2


def lacunary_field(spec: GridSpec, alpha: float, seed: int) -> ScalarField:
    """Weierstrass-type field sum_j 2^{-j alpha} cos(2^j k0 x + theta_j), j = 0 .. j_max.

    Varies along the first axis; the largest active wavenumber is
    2^{j_max} * 2 pi / L with 2^{j_max} = n/4.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    j_max = _lacunary_j_max(spec)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, j_max + 1)
    x = spec.axis_coords()
    k0 = 2.0 * np.pi / spec.L
    line = np.zeros(spec.n)
    for j in range(j_max + 1):
        line += 2.0 ** (-j * alpha) * np.cos(2**j * k0 * x + theta[j])
    values = line.reshape((spec.n,) + (1,) * (spec.d - 1)) * np.ones(spec.shape)
    return ScalarField(spec, values)


@dataclass(frozen=True)
class ScalingProbeReport:
    alpha: float
    kappa: int
    times: tuple
    norms: tuple
    slope: float
    predicted_slope: float

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
) -> ScalingProbeReport:
    """Fit the decay exponent of sup|grad^kappa e^{t L} u0| on the lacunary field.

    With the lacunary field of Hoelder exponent ``alpha`` the fitted log-log slope approaches
    (alpha - kappa) / 2.  Probe times below 1/k_top^2 (k_top: its top wavenumber) raise WindowError.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if kappa not in (1, 2):
        raise ValueError("kappa must be 1 or 2")
    t_arr = np.asarray(sorted(t_list), dtype=np.float64)
    if t_arr.size < 2 or np.any(t_arr <= 0):
        raise ValueError("need at least two positive probe times")

    k_top = 2 ** _lacunary_j_max(spec) * 2.0 * np.pi / spec.L
    if k_top**2 * t_arr.min() < 1.0:
        raise WindowError(
            f"min probe time {t_arr.min():g} below resolvable window "
            f"1/k_top^2 = {1.0 / k_top**2:g}"
        )

    probe = lacunary_field(spec, alpha, seed).values
    derivative = gradient_arrays if kappa == 1 else hessian_arrays
    # one channel axis for the Hessian's (d, d) axes: its squares are summed in row-major order
    norms = [
        channel_sup(derivative(heat_apply_values(probe, spec, float(t)), spec).reshape((-1,) + spec.shape))
        for t in t_arr
    ]
    logs_t = np.log(t_arr)
    logs_n = np.log(norms)
    slope = np.polyfit(logs_t, logs_n, 1)[0]
    return ScalingProbeReport(
        alpha=alpha,
        kappa=kappa,
        times=tuple(float(t) for t in t_arr),
        norms=tuple(float(v) for v in norms),
        slope=float(slope),
        predicted_slope=(alpha - kappa) / 2.0,
    )
