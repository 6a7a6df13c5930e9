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
    gradient_arrays,
    hessian_arrays,
    locate,
    rfft,
    time_derivative_arrays,
)
from .forcing import Forcing, ZeroForcing
from .heat import forced_heat_rhs, integrate, n_steps
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


def _block_sups(u: np.ndarray, spec: GridSpec, uh: np.ndarray | None = None) -> tuple:
    """(Hessians, [sup u, sup grad u, sup hess u]) of a block of frames, forward-transformed once (or given ``uh``)."""
    uh = rfft(u, spec) if uh is None else uh
    sup_grad = frame_sups(gradient_arrays(u, spec, uh), 2)
    hess = hessian_arrays(u, spec, uh)
    del uh  # the spectrum is not held while the Hessians are reduced: peak memory stays that of two transforms
    return hess, [frame_sups(u, 1), sup_grad, frame_sups(hess, 3)]


class _Frames:
    """Frames (d,) + grid shape of one trajectory, appended in order.

    They sit in chunks of about _CHUNK_SAMPLES grid nodes: an array of its
    own per frame would cost a header of about a tenth of a 1-D frame of
    128 nodes.  ``release(k)`` says frames up to k are read, and frees the
    chunks that hold no frame after k.  ``nbytes`` counts the live chunks,
    headers included.
    """

    def __init__(self, spec: GridSpec, frames=()):
        self.chunk = max(1, _CHUNK_SAMPLES // spec.num_nodes)
        self.shape = (spec.d,) + spec.shape
        self.chunks = []
        self.n = self.nbytes = self.freed = 0
        self.extend(frames)

    def extend(self, frames: np.ndarray) -> None:
        i = 0
        while i < len(frames):
            at = self.n % self.chunk
            if at == 0:
                self.chunks.append(np.empty((self.chunk,) + self.shape))
                self.nbytes += sys.getsizeof(self.chunks[-1])
            n = min(self.chunk - at, len(frames) - i)
            self.chunks[-1][at : at + n] = frames[i : i + n]
            self.n += n
            i += n

    def rows(self, a: int, b: int) -> np.ndarray:
        """A copy of frames a .. b - 1."""
        c = self.chunk
        return np.concatenate([self.chunks[q][max(0, a - q * c) : b - q * c] for q in range(a // c, (b - 1) // c + 1)])

    def release(self, k: int) -> None:
        stop = len(self.chunks) if k + 1 == self.n else (k + 1) // self.chunk
        for q in range(self.freed, stop):
            self.nbytes -= sys.getsizeof(self.chunks[q])
            self.chunks[q] = None
        self.freed = max(self.freed, stop)

    def stack(self) -> np.ndarray:
        return np.concatenate(self.chunks)[: self.n]


class _Wavefront:
    """Picard iterates m0 + 1 .. m0 + L marching together on the lane axis of ``heat.integrate``.

    Lane j solves iterate m0 + 1 + j.  Its drift is lane j - 1, or for
    lane 0 ``drift``, the frames of iterate m0 (released as they are read);
    iterate 0 (m0 = -1, ``drift`` None) is the forced heat flow, one lane
    whose update is the iterate itself.  Each tick advances every active
    lane by B = ``fields.tick_steps`` steps: at tick s lane j
    makes its frames k0 + 1 .. k0 + B, k0 = (s - j) B, reading lane j - 1's
    dealiased frames k0 .. k0 + B, which the tick before made.  Per lane
    two ring blocks hold what the next tick reads: ``dal``, the dealiased
    drift frames k0 .. k0 + B, and ``raw``, the lane's own frames
    k0 - 1 .. k0 + B.  All per-frame work runs once per tick over the
    tick's B x lanes rows: the update and time-derivative sups, and one
    forward transform of the rows and of lane 0's next drift block, which
    serves the spatial derivative sups and the dealiased frames the lanes
    read next.  Per-lane series are kept by column k + j B, so a tick fills
    the same B columns of every lane.  Frame 0 of every iterate is the
    datum; ``run`` holds what every group shares: times, midpoint weights,
    the datum's sups and (with ``record_holder``) Hessian.

    A lane keeps its full trajectory only while it may still be returned
    (m >= min_iters and its running update sup below tol_fp) or while it is
    the last lane, the next group's drift.  These decisions, the cuts and
    convergence are taken once per tick on the tick's running maxima: as
    ``running`` only grows, they come out as frame by frame.  The group
    counts the bytes it holds: the kept frames, the drift frames not yet
    read and its own arrays (rings, series).  What one solve at a time
    held, the drift and HELD_TRAJECTORIES more trajectories, sizes the
    group: L is the most lanes, up to m_max - m0 and fields.LANE_SAMPLES
    grid nodes' worth, whose own arrays and first frames fit next to the
    drift.  While the group holds more than that, it is cut from the top:
    the lanes above the highest lane below the last that may still be
    returned are discarded, so the lower lanes that may be returned keep
    their frames.  A lane that fails a check cuts the group at itself; its
    error stands unless a lane below it converges or a later cut discards
    that lane, whose iterate the next group then solves again.

    With ``record_holder`` the group has one lane, the last, so it keeps
    its whole trajectory.  Its Hessians are kept tick by tick, and
    ``finish`` takes the parabolic seminorms of those and of the time
    derivatives of its frames.
    """

    def __init__(self, cfg: SchemeConfig, u0: VectorField, drift: _Frames, m0: int, run, min_iters: int, record_holder: bool):
        spec = self.spec = cfg.grid
        self.cfg, self.drift, self.m0 = cfg, drift, m0
        self.min_iters = max(min_iters, 1)  # iterate 0 is never returned
        self.times, self.w_mid, sups0, hess0 = run
        steps = self.steps = len(self.times) - 1

        # the lanes whose rings, series and first frame fit next to the drift
        self.frame = u0.values.nbytes
        held = (1 + HELD_TRAJECTORIES) * (steps + 1) * self.frame

        def own(lanes: int) -> int:
            block = fields.tick_steps(steps, lanes, spec)
            return (2 * block + 3) * lanes * self.frame + 8 * lanes * len(SUP_ROWS) * (steps + lanes * block)

        kept = _Frames(spec, u0.values[None])
        lanes = 1 if record_holder or drift is None else min(cfg.m_max - m0, max(1, fields.LANE_SAMPLES // spec.num_nodes))
        while lanes > 1 and own(lanes) + lanes * kept.nbytes + drift.nbytes > held:
            lanes -= 1
        self.lanes, self.budget = lanes, held - own(lanes)
        block = self.block = fields.tick_steps(steps, lanes, spec)

        # frame 0 of every iterate is the datum, as if lane j made it at tick j - 1
        self.raw = np.zeros((lanes, block + 2, spec.d) + spec.shape)
        self.raw[:, -1] = u0.values
        self.dal = np.empty((lanes, block + 1, spec.d) + spec.shape)
        if drift is not None:
            self.dal[0] = dealias_values(drift.rows(0, block + 1), spec)
            self.dal[1:, -1] = self.dal[0, 0]
        self.mask = fields._dealias_mask(spec)

        # column j B is lane j's frame 0: the datum's sups, a zero update and a time derivative still to come
        lane = self.lane_ids = np.arange(lanes)
        self.cols = np.zeros((lanes, len(SUP_ROWS), steps + lanes * block))
        for row in (0, 1, 2):
            self.cols[lane, row, lane * block] = sups0[row]
        self.kept = [kept] + [_Frames(spec, u0.values[None]) for _ in range(lanes - 1)]
        self.running = np.zeros(lanes)
        self.hess = None
        if record_holder:
            self.hess = np.empty((steps + 1, spec.d**3) + spec.shape)
            self.hess[0] = hess0
        self.error = self.converged = self.cut = None  # error: (lane, exception)
        self.peak_kept = self.ticks = self.lane_steps = 0

    def drift_at(self, r: int, ts) -> np.ndarray:
        """The dealiased drift of the active lanes, lane j at step r - j B, at their times ``ts``."""
        block = self.block
        hi = min(self.lanes, r // block + 1)
        lo = hi - len(ts)
        k, b = r - lo * block, r % block  # lane lo's step, and the steps its tick took before it
        frame_k = self.dal[lo:hi, b]
        if ts[0] == k * self.cfg.dt:  # the first stage, at lane lo's frame time
            return frame_k
        w = self.w_mid[k - (hi - lo - 1) * block : k + 1 : block][::-1]
        return frame_k * (1.0 - w) + self.dal[lo:hi, b + 1] * w

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
        """``heat.integrate``'s emit: file tick s's rows u of lanes lo, lo + 1, ...; return the lane count."""
        spec, steps, block, dt = self.spec, self.steps, self.block, self.cfg.dt
        k0 = (s - lo) * block
        left = min(block, steps - k0)  # lane lo's new frames; the lanes above make a block each
        self.ticks += 1
        self.lane_steps += len(u) - block + left
        if failed is not None:
            self._cut(failed[0])
            self.error = failed
            u = u[: (failed[0] - lo) * block]
        hi = lo + len(u) // block
        if hi == lo:
            return self.lanes
        n, col = hi - lo, s * block  # lane j's frame (s - j) B + i sits in column s B + i
        new = slice(col + 1, col + block + 1)
        rows = u.reshape((n, block) + u.shape[1:])

        # updates against the lane below's block of the tick before (lane 0's against its drift)
        if self.drift is not None:
            v = np.empty(rows.shape)
            if lo == 0:
                np.subtract(rows[0, :left], self.drift.rows(k0 + 1, k0 + 1 + left), out=v[0, :left])
                v[0, left:] = 0.0
                self.drift.release(k0 + left)
            b = max(lo, 1)
            np.subtract(rows[b - lo :], self.raw[b - 1 : hi - 1, 2:], out=v[b - lo :])
            v = v.reshape(u.shape)
            self.cols[lo:hi, 4, new] = sup_v = frame_sups(v, 1).reshape(n, block)
            np.maximum(self.running[lo:hi], sup_v.max(axis=1), out=self.running[lo:hi])
            self.cols[lo:hi, 5, new] = frame_sups(gradient_arrays(v, spec), 2).reshape(n, block)
            del v

        # the time derivatives centered at the frame before each new one, and the one-sided ones at the ends:
        # frame 0 once frame 2 is made, frame ``steps`` by its lane
        raw = self.raw[lo:hi]
        raw[:, :2] = raw[:, block:]
        raw[:, 2:] = rows
        dt_u = np.subtract(raw[:, 2:], raw[:, :block]).reshape(u.shape)
        dt_u /= 2 * dt
        self.cols[lo:hi, 3, col : col + block] = frame_sups(dt_u, 1).reshape(n, block)
        del dt_u
        for j, f, end in ((s - 1 // block, 0, 0), (lo, steps - 2, 2)):
            if lo <= j < hi and (end == 0 or k0 + block >= steps):
                window = self.raw[j, f - (s - j) * block + 1 :][:3, None]  # frames f .. f + 2 of lane j
                self.cols[j, 3, f + end + j * block] = frame_sups(time_derivative_arrays(window, dt)[end], 1)[0]

        # one forward transform of lane 0's next drift block and the tick's frames: the frames' spatial sups,
        # and what the lanes read next, dealiased: lane 0 that block, the lanes above the frames below them
        ahead = max(0, min(block, steps - k0 - block)) if lo == 0 and self.drift is not None else 0
        feed = max(lo, min(hi, self.lanes - 1))
        uh = rfft(np.concatenate((self.drift.rows(k0 + block + 1, k0 + block + 1 + ahead), u)) if ahead else u, spec)
        hess, sups = _block_sups(u, spec, uh[ahead:])
        if self.hess is not None:  # one lane: its frames k0 + 1 ..
            self.hess[k0 + 1 : k0 + 1 + left] = hess[:left].reshape((-1, spec.d**3) + spec.shape)
        del hess
        for row, val in zip((0, 1, 2), sups):
            self.cols[lo:hi, row, new] = val.reshape(n, block)
        fed = uh[: ahead + (feed - lo) * block]
        if len(fed):  # a tick that feeds no lane skips the inverse transform
            fed *= self.mask
            fed = fields.irfft(fed, spec)
            if ahead:
                self.dal[0, 0] = self.dal[0, -1]
                self.dal[0, 1 : ahead + 1] = fed[:ahead]
            up = self.dal[lo + 1 : feed + 1]
            up[:, 0] = up[:, -1]
            up[:, 1:] = fed[ahead:].reshape((feed - lo, block) + u.shape[1:])

        may = self._may_return(lo, hi)
        for i, j in enumerate(range(lo, hi)):
            if self.kept[j] is not None:
                if may[i] or j == self.lanes - 1:
                    self.kept[j].extend(rows[i, : left if j == lo else block])
                else:
                    self.kept[j] = None
        if k0 + block >= steps and may[0]:
            self.converged = lo
            self._cut(lo + 1)
            return self.lanes

        unread = 0 if self.drift is None else self.drift.nbytes
        while True:
            kept = sum(frames.nbytes for frames in self.kept[: self.lanes] if frames is not None)
            self.peak_kept = max(self.peak_kept, kept // self.frame)
            if kept + unread <= self.budget:
                return self.lanes
            # lanes yet to start may be returned too; with none below the last lane, nothing can go
            returnable = np.flatnonzero(self._may_return(0, self.lanes - 1))
            if len(returnable) == 0:
                return self.lanes
            c = int(returnable[-1])
            self.cut = self.m0 + 1 + c
            self._cut(c + 1)

    def finish(self):
        """(records, frames of the last lane, converged) once the march is over; raises a lane's error."""
        self.raw = self.dal = None  # room for the seminorms
        if self.converged is None and self.error is not None:
            raise self.error[1]
        cfg, records = self.cfg, []
        for j in range(self.lanes):
            sups = [row.copy() for row in self.cols[j, :, j * self.block : j * self.block + self.steps + 1]]
            if self.drift is None:  # iterate 0's update is the iterate itself, frame 0 included
                sups[4:] = sups[:2]
            holder = [None, None]
            if self.hess is not None:
                dt_u = time_derivative_arrays(self.kept[j].stack(), cfg.dt)
                holder = [parabolic_seminorm_array(a, self.spec, cfg.dt, cfg.alpha, cfg.seed).value for a in (self.hess, dt_u)]
            times = self.times if self.drift is None else self.times.copy()  # iterate 0 keeps the run's array
            records.append(IterationRecord(self.m0 + 1 + j, times, *sups, *holder))
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

    The iterates march in groups as a wavefront on the lane axis of
    ``heat.integrate`` (see ``_Wavefront``); iterate 0 is the first group,
    one lane with no drift and no blocking guard, and every later group's
    drift is the last lane of the group before it.  Each tick advances
    every lane by B = ``fields.tick_steps`` steps, and at
    tick s iterate m0 + 1 + j makes its frames (s - j) B + 1 .. (s - j) B + B
    from those frames of iterate m0 + j, which the tick before produced.
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

    ``trace``, a list, gets one dict per group, iterate 0's first: first
    iterate, lanes, steps per tick, ticks, lane-steps marched, the iterate
    the memory rule last cut the group above (or None), the peak count of
    kept frames and the wall time.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial data grid does not match the configuration")
    if n_steps(cfg.T, cfg.dt) < 2:
        raise ValueError("run_picard needs T >= 2 dt: the records' time derivatives take three frames")
    if g is None:
        g = ZeroForcing(cfg.grid)
    spec, steps = cfg.grid, n_steps(cfg.T, cfg.dt)
    # what every group shares: times, locate's weights of frames k and k + 1 at k dt + dt/2, the datum's sups, Hessian
    w_mid = [locate(k * cfg.dt + cfg.dt / 2.0, 0.0, cfg.dt, steps + 1)[1] for k in range(steps)]
    hess, sups = _block_sups(u0.values[None], spec)
    hess = hess.reshape((-1,) + spec.shape) if record_holder else None
    run = cfg.dt * np.arange(steps + 1), np.reshape(w_mid, (-1,) + (1,) * (spec.d + 1)), [s[0] for s in sups], hess
    del w_mid, hess
    records, drift, converged = [], None, False
    while not converged and len(records) - 1 < cfg.m_max:
        start = time.perf_counter()
        front = _Wavefront(cfg, u0, drift, len(records) - 1, run, min_iters, record_holder)
        lanes = front.lanes
        if drift is None:  # iterate 0, the forced heat flow
            rhs, guard = forced_heat_rhs(g), None
        else:
            rhs, guard = _transport_rhs(spec, g, front.drift_at), _blocking_guard(spec)
        integrate(u0.values, spec, cfg.T, cfg.dt, rhs, guard, lanes, front.take)
        recs, drift, converged = front.finish()
        if trace is not None:
            stats = {"steps_per_tick": front.block, "ticks": front.ticks, "lane_steps": front.lane_steps}
            stats.update(cut=front.cut, peak_kept_frames=front.peak_kept, wall_s=time.perf_counter() - start)
            trace.append({"first_iterate": front.m0 + 1, "lanes": lanes, **stats})
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
