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
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import (
    GridSpec,
    Trajectory,
    VectorField,
    dealias_values,
    frame_blocks,
    gradient_arrays,
    hessian_arrays,
    locate,
    rfft,
    time_derivative_arrays,
    time_derivative_frames,
)
from .forcing import Forcing, ZeroForcing
from .heat import duhamel_forced_heat, integrate, n_steps
from .norms import KConstants, KProfile, frame_sups, parabolic_seminorm_array
from .transport import _blocking_guard, _transport_rhs

T_INIT_INFINITE = math.inf
T_INIT_HORIZON = 1e6  # compute_t_init reports T_INIT_INFINITE when t c K(t) < 1 up to here


@dataclass(frozen=True)
class SchemeConfig:
    grid: GridSpec
    c: float = 1.0
    alpha: float = 0.5
    beta: float = 0.25
    T: float = 1.0
    dt: float = 1e-3
    m_max: int = 12
    tol_fp: float = 1e-9
    seed: int = 0

    def __post_init__(self):
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


SUP_ROWS = ("sup_u", "sup_grad_u", "sup_hess_u", "sup_dt_u", "sup_v", "sup_grad_v")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iterate sup-norm and Hoelder diagnostics along the trajectory; the seminorms are None unless recorded."""

    m: int
    times: np.ndarray
    sup_u: np.ndarray
    sup_grad_u: np.ndarray
    sup_hess_u: np.ndarray
    sup_dt_u: np.ndarray
    sup_v: np.ndarray
    sup_grad_v: np.ndarray
    holder_hess: float | None
    holder_dt: float | None

    def __post_init__(self):
        for name in SUP_ROWS:
            a = getattr(self, name)
            if not (np.all(np.isfinite(a)) and np.all(a >= 0)):
                raise ValueError(f"{name} must be finite and nonnegative")


HELD_TRAJECTORIES = 3  # what one solve at a time held beyond its drift: dealiased drift, new iterate, d_t stack
_CHUNK_SAMPLES = 2**10  # grid nodes per chunk of a kept trajectory


def _block_sups(u: np.ndarray, spec: GridSpec) -> tuple:
    """(Hessians, [sup u, sup grad u, sup hess u]) of a block of frames, forward-transformed once."""
    uh = rfft(u, spec)
    sup_grad = frame_sups(gradient_arrays(u, spec, uh), 2)
    hess = hessian_arrays(u, spec, uh)
    del uh  # the spectrum is not held while the Hessians are reduced: peak memory stays that of two transforms
    return hess, [frame_sups(u, 1), sup_grad, frame_sups(hess, 3)]


def _diagnose(traj: Trajectory, alpha: float, seed: int, record_holder: bool) -> IterationRecord:
    """The record of iterate 0, whose update is the iterate itself."""
    spec, u = traj.grid, traj.values
    dt_u = time_derivative_frames(traj)
    hess_u = np.empty((len(u), spec.d**3) + spec.shape) if record_holder else None
    cols = []
    for sl in frame_blocks(len(u), spec):
        hess, sups = _block_sups(u[sl], spec)
        if record_holder:
            hess_u[sl] = hess.reshape((-1, spec.d**3) + spec.shape)
        cols.append(sups + [frame_sups(dt_u[sl], 1)])
    sup_u, sup_grad, sup_hess, sup_dt = map(np.concatenate, zip(*cols))

    holder = [None, None]
    if record_holder:
        holder = [parabolic_seminorm_array(a, spec, traj.dt, alpha, seed).value for a in (hess_u, dt_u)]
    return IterationRecord(0, traj.times, sup_u, sup_grad, sup_hess, sup_dt, sup_u, sup_grad, *holder)


class _Frames:
    """Frames (d,) + grid shape of one trajectory, appended one at a time.

    They sit in chunks of about _CHUNK_SAMPLES grid nodes: an array of its
    own per frame would cost a header of about a tenth of a 1-D frame of
    128 nodes.  ``release(k)`` says frames up to k are read, and frees the
    chunk that holds no frame after k.  ``nbytes`` counts the live chunks,
    headers included.
    """

    def __init__(self, spec: GridSpec, frames=()):
        self.chunk = max(1, _CHUNK_SAMPLES // spec.num_nodes)
        self.shape = (spec.d,) + spec.shape
        self.chunks = []
        self.n = self.nbytes = 0
        for frame in frames:
            self.append(frame)

    def append(self, frame: np.ndarray) -> None:
        if self.n % self.chunk == 0:
            self.chunks.append(np.empty((self.chunk,) + self.shape))
            self.nbytes += sys.getsizeof(self.chunks[-1])
        self.chunks[-1][self.n % self.chunk] = frame
        self.n += 1

    def __getitem__(self, k: int) -> np.ndarray:
        return self.chunks[k // self.chunk][k % self.chunk]

    def release(self, k: int) -> None:
        if (k + 1) % self.chunk == 0 or k + 1 == self.n:
            self.nbytes -= sys.getsizeof(self.chunks[k // self.chunk])
            self.chunks[k // self.chunk] = None

    def stack(self) -> np.ndarray:
        return np.concatenate(self.chunks)[: self.n]


class _Wavefront:
    """Picard iterates m0 + 1 .. m0 + L marching together on the lane axis of ``heat.integrate``.

    ``records`` are those of iterates 0 .. m0.  Lane j solves iterate
    m0 + 1 + j.  Its drift is lane j - 1, or for lane 0 ``drift``, the
    frames of iterate m0 (released as they are read, and dealiased a block
    ahead).  At tick s lane j takes step k = s - j and writes its frame
    k + 1.  Rings of three frames are slotted by tick, s % 3, so all lanes
    of a tick read and write the same slots: lane j's dealiased drift frames k and k + 1,
    written by the lane below two ticks and one tick earlier, sit in slots
    (s - 2) % 3 and (s - 1) % 3.  Per-lane series are kept by column
    k + 1 + j, so a tick fills one column; lane j's frames are columns j to
    j + n_steps.  The update and time-derivative sups are taken at once,
    the spatial derivatives in buffered blocks of BLOCK_SAMPLES / 2 nodes.
    Frame 0 of every iterate is the datum: its sups are those in iterate
    0's record, and its update is zero.

    A lane keeps its full trajectory only while it may still be returned
    (m >= min_iters and its running update sup below tol_fp) or while it is
    the last lane, the next group's drift.  The group counts the bytes it
    holds: the kept frames, the drift frames not yet read and its own
    arrays (rings, series, buffer).  What one solve at a time held, the
    drift and HELD_TRAJECTORIES more trajectories, sizes the group: L is
    the most lanes, up to m_max - m0 and fields.LANE_SAMPLES grid nodes'
    worth, whose own arrays and first frames fit next to the drift.  While
    the group holds more than that, it is cut from the top: the lanes
    above the highest lane below the last that may still be returned are
    discarded, so the lower lanes that may be returned keep their frames.
    A lane that fails a check cuts the group at itself; its error stands
    unless a lane below it converges or a later cut discards that lane,
    whose iterate the next group then solves again.

    With ``record_holder`` the group has one lane, the last, so it keeps
    its whole trajectory.  Its Hessians are kept as the buffer flushes
    them, and ``finish`` takes the parabolic seminorms of those and of the
    time derivatives of its frames.
    """

    def __init__(self, cfg: SchemeConfig, u0: VectorField, drift: _Frames, records: list, min_iters: int, record_holder: bool):
        spec = self.spec = cfg.grid
        self.cfg, self.drift, self.min_iters, self.times = cfg, drift, min_iters, records[0].times
        m0 = self.m0 = len(records) - 1
        steps = self.steps = n_steps(cfg.T, cfg.dt)
        # locate(k dt) is frame k; locate(k dt + dt/2) weighs frames k and k + 1 by these
        w_mid = [locate(k * cfg.dt + cfg.dt / 2.0, 0.0, cfg.dt, steps + 1)[1] for k in range(steps)]
        self.w_mid = np.array(w_mid).reshape((-1,) + (1,) * (spec.d + 1))

        # the lanes whose rings, series, share of the buffer and first frame fit next to the drift
        self.frame = u0.values.nbytes
        cap = max(1, min(fields.BLOCK_SAMPLES // (2 * spec.num_nodes), (steps + 1) // 2))
        held = (1 + HELD_TRAJECTORIES) * (steps + 1) * self.frame

        def own(lanes: int) -> int:
            return (6 * lanes + 2 * cap) * self.frame + 8 * lanes * len(SUP_ROWS) * (steps + lanes)

        kept = _Frames(spec, u0.values[None])
        lanes = 1 if record_holder else min(cfg.m_max - m0, max(1, fields.LANE_SAMPLES // spec.num_nodes))
        while lanes > 1 and own(lanes) + lanes * kept.nbytes + drift.nbytes > held:
            lanes -= 1
        self.lanes, self.budget = lanes, held - own(lanes)

        # frame 0 of every iterate is the datum, as if lane j wrote it at tick j - 1
        ring = (3, lanes, spec.d) + spec.shape
        self.raw = np.empty(ring)  # lane j's last three frames
        self.dal = np.empty(ring)  # lane j's dealiased drift frames
        lane = self.lane_ids = np.arange(lanes)
        self.raw[(lane - 1) % 3, lane] = u0.values
        # lane 0's drift frames are dealiased ahead, a lane's share of BLOCK_SAMPLES nodes at a time: like the
        # transform temporaries, a block that does not grow with the trajectory and is not counted in ``own``
        self.ahead_len = max(1, min(steps + 1, fields.BLOCK_SAMPLES // (lanes * spec.num_nodes)))
        self.ahead_at = -self.ahead_len
        self.dal[(lane - 2) % 3, lane] = self._drift_dealiased(0)
        self.dal[2, 0] = self._drift_dealiased(1)
        drift.release(0)

        # column j is lane j's frame 0: iterate 0's sups, a zero update and a time derivative still to come
        self.cols = np.zeros((lanes, len(SUP_ROWS), steps + lanes))
        for row in (0, 1, 2):
            self.cols[lane, row, lane] = getattr(records[0], SUP_ROWS[row])[0]
        self.kept = [kept] + [_Frames(spec, u0.values[None]) for _ in range(lanes - 1)]
        self.running = np.zeros(lanes)
        self.hess = None
        if record_holder:
            self.hess = np.empty((steps + 1, spec.d**3) + spec.shape)
            self.hess[0] = hessian_arrays(u0.values, spec).reshape((-1,) + spec.shape)

        # frames and their updates: BLOCK_SAMPLES nodes, and no more than one trajectory, as ``own`` counts
        self.buf = np.empty((2, cap, spec.d) + spec.shape)
        self.buf_at = np.empty((2, cap), dtype=np.intp)  # lane and column of each buffered row
        self.fill = 0
        self.error = self.converged = self.cut = None  # error: (lane, exception)
        self.peak_kept = self.ticks = 0

    def drift_at(self, s: int, ts) -> np.ndarray:
        """The dealiased drift of tick s's active lanes at their times ``ts``."""
        lo = max(0, s - self.steps + 1)
        lanes = slice(lo, lo + len(ts))
        frame_k = self.dal[(s - 2) % 3, lanes]
        if ts[0] == (s - lo) * self.cfg.dt:  # the first stage, at lane lo's frame time
            return frame_k
        w = self.w_mid[s - lanes.stop + 1 : s - lo + 1][::-1]
        return frame_k * (1.0 - w) + self.dal[(s - 1) % 3, lanes] * w

    def _drift_dealiased(self, k: int) -> np.ndarray:
        """Lane 0's dealiased drift frame k; frames are read in order."""
        if k >= self.ahead_at + self.ahead_len:
            self.ahead_at = k
            frames = [self.drift[i] for i in range(k, min(k + self.ahead_len, self.steps + 1))]
            self.ahead = dealias_values(np.stack(frames), self.spec)
        return self.ahead[k - self.ahead_at]

    def _may_return(self, lo: int, hi: int) -> np.ndarray:
        """Whether each of lanes lo .. hi - 1 may still be returned."""
        return (self.running[lo:hi] < self.cfg.tol_fp) & (self.lane_ids[lo:hi] >= self.min_iters - self.m0 - 1)

    def _cut(self, lanes: int) -> None:
        for j in range(lanes, self.lanes):
            self.kept[j] = None
        self.lanes = lanes
        if self.error is not None and self.error[0] >= lanes:
            self.error = None  # the next group solves the failed iterate again

    def take(self, s: int, lo: int, u: np.ndarray, failed) -> int:
        """``heat.integrate``'s emit: file tick s's frames u of lanes lo, lo + 1, ...; return the lane count."""
        self.ticks += 1
        if failed is not None:
            self._cut(failed[0])
            self.error = failed
            u = u[: failed[0] - lo]
        hi = lo + len(u)
        if hi == lo:
            return self.lanes
        spec, steps, col = self.spec, self.steps, s + 1
        now, last, before = s % 3, (s - 1) % 3, (s - 2) % 3
        self.raw[now, lo:hi] = u

        # updates against the lane below's frame of the tick before (lane 0's against its drift), and the time
        # derivatives of the lanes with three frames, centered at the frame before: one sup call for both
        n, mid, dt = hi - lo, min(hi, s), self.cfg.dt
        work = np.empty((n + max(0, mid - lo), spec.d) + spec.shape)
        v = work[:n]
        if lo == 0:
            np.subtract(u[0], self.drift[s + 1], out=v[0])
        b = max(lo, 1)
        np.subtract(u[b - lo :], self.raw[last, b - 1 : hi - 1], out=v[b - lo :])
        if mid > lo:
            np.subtract(self.raw[now, lo:mid], self.raw[before, lo:mid], out=work[n:])
            work[n:] /= 2 * dt
        sups = frame_sups(work, 1)
        self.cols[lo:hi, 4, col] = sups[:n]
        self.cols[lo:mid, 3, col - 1] = sups[n:]
        np.maximum(self.running[lo:hi], sups[:n], out=self.running[lo:hi])

        # what the lanes read next: lane 0 its drift frame s + 2, the lanes above the new frames, dealiased
        if lo == 0:
            if s + 2 <= steps:
                self.dal[now, 0] = self._drift_dealiased(s + 2)
            self.drift.release(s + 1)
        feed = max(lo, min(hi, self.lanes - 1))
        if feed > lo:
            self.dal[now, lo + 1 : feed + 1] = dealias_values(u[: feed - lo], spec)

        # the one-sided time derivatives at the ends: lane s - 1 wrote its frame 2, lane lo its last
        for j, end, at in ((s - 1, 0, s - 1), (lo, 2, col)):
            if lo <= j < mid and (end == 0 or s - lo + 1 == steps):
                window = self.raw[[before, last, now], j : j + 1]
                self.cols[j, 3, at] = frame_sups(time_derivative_arrays(window, dt)[end], 1)[0]

        self._buffer(lo, hi, col, u, v)

        may = self._may_return(lo, hi)
        for i, j in enumerate(range(lo, hi)):
            if self.kept[j] is not None:
                if may[i] or j == self.lanes - 1:
                    self.kept[j].append(u[i])
                else:
                    self.kept[j] = None
        if s - lo + 1 == steps and may[0]:
            self.converged = lo
            self._cut(lo + 1)
            return self.lanes

        while True:
            kept = sum(frames.nbytes for frames in self.kept[: self.lanes] if frames is not None)
            self.peak_kept = max(self.peak_kept, kept // self.frame)
            if kept + self.drift.nbytes <= self.budget:
                return self.lanes
            # lanes yet to start may be returned too; with none below the last lane, nothing can go
            returnable = np.flatnonzero(self._may_return(0, self.lanes - 1))
            if len(returnable) == 0:
                return self.lanes
            c = int(returnable[-1])
            self.cut = self.m0 + 1 + c
            self._cut(c + 1)

    def _buffer(self, lo: int, hi: int, col: int, u: np.ndarray, v: np.ndarray) -> None:
        cap, i = self.buf.shape[1], 0
        while i < len(u):
            n = min(len(u) - i, cap - self.fill)
            rows = slice(self.fill, self.fill + n)
            self.buf[0, rows], self.buf[1, rows] = u[i : i + n], v[i : i + n]
            self.buf_at[0, rows], self.buf_at[1, rows] = self.lane_ids[lo + i : lo + i + n], col
            self.fill += n
            i += n
            if self.fill == cap:
                self._flush()

    def _flush(self) -> None:
        if self.fill:
            spec, (j, col), (u, v) = self.spec, self.buf_at[:, : self.fill], self.buf[:, : self.fill]
            hess, sups = _block_sups(u, spec)
            if self.hess is not None:  # one lane: column col is its frame col
                self.hess[col] = hess.reshape((-1, spec.d**3) + spec.shape)
            del hess  # not held while the updates are differentiated
            sups.append(frame_sups(gradient_arrays(v, spec), 2))
            for row, val in zip((0, 1, 2, 5), sups):
                self.cols[j, row, col] = val
            self.fill = 0

    def finish(self):
        """(records, frames of the last lane, converged) once the march is over; raises a lane's error."""
        self._flush()
        self.raw = self.dal = self.buf = self.ahead = None  # room for the seminorms
        if self.converged is None and self.error is not None:
            raise self.error[1]
        cfg, records = self.cfg, []
        for j in range(self.lanes):
            sups = [row.copy() for row in self.cols[j, :, j : j + self.steps + 1]]
            holder = [None, None]
            if self.hess is not None:
                dt_u = time_derivative_arrays(self.kept[j].stack(), cfg.dt)
                holder = [parabolic_seminorm_array(a, self.spec, cfg.dt, cfg.alpha, cfg.seed).value for a in (self.hess, dt_u)]
            records.append(IterationRecord(self.m0 + 1 + j, self.times.copy(), *sups, *holder))
        return records, self.kept[self.lanes - 1], self.converged is not None


def run_picard(
    cfg: SchemeConfig,
    u0: VectorField,
    g: Forcing | None = None,
    record_holder: bool = False,
    min_iters: int = 1,
    trace: list | None = None,
):
    """Iterate the linear transport solves until the update is negligible.

    Returns (records, fixed_point, converged).  The zeroth iterate is the
    forced heat trajectory; iterate m solves transport with the previous
    iterate as drift.  Non-convergence at m_max is reported, not raised.
    The solve is in the unit-viscosity frame (other nu: ``rescale_viscosity``,
    ``unrescale``).  The records' Hoelder seminorms are None without ``record_holder``.

    Iterate 0 runs alone.  The transport iterates march in groups as a
    wavefront on the lane axis of ``heat.integrate`` (see ``_Wavefront``):
    at tick s, iterate m0 + 1 + j takes step s - j, reading frames s - j
    and s - j + 1 of iterate m0 + j, which the two ticks before produced.
    A group has at most m_max - m0 lanes, fields.LANE_SAMPLES grid nodes'
    worth, and no more than fit, with their own arrays, in what one solve
    at a time held; with ``record_holder`` it has one lane, which keeps its
    Hessians and its trajectory for the Hoelder seminorms.  A lane keeps
    its full trajectory only while it may still be returned or is the
    group's last lane (the next group's drift); while the group holds more
    than one solve at a time did, it is cut from the top, down to the
    highest lane below the last that may still be returned.  The first
    m >= min_iters whose update sup is below tol_fp stops the run and the
    lanes above it are discarded; a lane's DivergenceError or
    ResolutionError is raised, with the message a lone solve gives, only if
    every lane below it ends unconverged and no later cut discards the
    lane (the next group then solves its iterate again).  Records, fixed
    point and ``converged`` are those of solving the iterates one after
    another, bit for bit.

    ``trace``, a list, gets one dict per group: first iterate, lanes, ticks,
    the iterate the memory rule last cut the group above (or None), the
    peak count of kept frames and the wall time.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial data grid does not match the configuration")
    if g is None:
        g = ZeroForcing(cfg.grid)
    spec = cfg.grid
    drift = duhamel_forced_heat(u0, g, cfg.T, cfg.dt)
    records = [_diagnose(drift, cfg.alpha, cfg.seed, record_holder)]
    drift, converged = _Frames(spec, drift.values), False
    while not converged and len(records) - 1 < cfg.m_max:
        start = time.perf_counter()
        front = _Wavefront(cfg, u0, drift, records, min_iters, record_holder)
        lanes = front.lanes
        integrate(u0.values, spec, cfg.T, cfg.dt, _transport_rhs(spec, g, front.drift_at), _blocking_guard(spec), lanes, front.take)
        recs, drift, converged = front.finish()
        if trace is not None:
            stats = {"ticks": front.ticks, "cut": front.cut, "peak_kept_frames": front.peak_kept}
            trace.append({"first_iterate": front.m0 + 1, "lanes": lanes, **stats, "wall_s": time.perf_counter() - start})
        records += recs
    return records, Trajectory(spec, 0.0, cfg.dt, drift.stack()), converged


# ---------------------------------------------------------------------------
# initial horizon


def compute_t_init(u0: VectorField, g: Forcing | None, c: float = 1.0, kfn=None) -> float:
    """Root of t * c * K(t) = 1 (bisection on the nondecreasing map, to |t c K(t) - 1| <= 1e-10).

    kfn maps a time to the KConstants computed at c = 1 (default: a KProfile
    of u0 and g at alpha = 1/2).  Returns the infinite sentinel when the
    product never reaches 1 up to T_INIT_HORIZON; a constant K (zero
    forcing) is resolved in closed form.
    """
    if g is None:
        g = ZeroForcing(u0.grid)
    if kfn is None:
        kfn = KProfile(u0, g)

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
        if abs(val) <= 1e-10 or hi - lo <= 1e-16 * max(1.0, mid):
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
