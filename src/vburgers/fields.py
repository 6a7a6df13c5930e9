"""Periodic-torus grids, sampled fields and spectral differentiation.

All fields live on a uniform periodic grid with ``n`` points per axis on a
box of side ``L``.  Derivatives are exact derivatives of the trigonometric
interpolant, computed with real FFTs (conjugate-symmetric half-spectrum).

A scalar field, a vector field and a trajectory each hold one read-only
float64 array: ``grid.shape``, ``(d,) + grid.shape`` and
``(nt, d) + grid.shape``.  The field classes are the API's edges; the
solvers and checks work on the arrays (the ``*_arrays`` helpers take any
leading frame and channel axes).  Every operation returns a new object; a
trajectory's frames are read-only views of its array.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResolutionError

_SNAPSHOT_MAGIC = b"BFLD"
_SNAPSHOT_VERSION = 1
_SNAPSHOT_HEADER = struct.Struct("<4sBIIdI")
BLOCK_SAMPLES = 2**14
LANE_SAMPLES = 2**12  # lanes x grid nodes of one Picard wavefront group (scheme.run_picard)


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the d-dimensional torus [0, L)^d."""

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.L > 0 and np.isfinite(self.L) and math.isfinite(2 * math.pi / float(self.L))):
            raise ValueError(f"L must be positive and finite, and 2 pi / L finite, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def num_nodes(self) -> int:
        return self.n**self.d

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def mesh(self) -> tuple:
        x = self.axis_coords()
        return np.meshgrid(*([x] * self.d), indexing="ij")


@lru_cache(maxsize=None)
def _freq_int(n: int) -> np.ndarray:
    """Integer frequencies in numpy fft layout."""
    return np.fft.fftfreq(n, d=1.0 / n)


@lru_cache(maxsize=None)
def _wavenumbers_half(spec: GridSpec) -> tuple:
    """Physical wavenumber arrays broadcast to the rfftn half-spectrum shape."""
    scale = 2.0 * np.pi / spec.L
    full = _freq_int(spec.n) * scale
    half = np.fft.rfftfreq(spec.n, d=1.0 / spec.n) * scale
    ks = []
    for axis in range(spec.d):
        k = half if axis == spec.d - 1 else full
        shape = [1] * spec.d
        shape[axis] = k.size
        ks.append(k.reshape(shape))
    return tuple(ks)


@lru_cache(maxsize=None)
def _ksq_half(spec: GridSpec) -> np.ndarray:
    ks = _wavenumbers_half(spec)
    out = np.zeros(rfft_shape(spec))
    for k in ks:
        out = out + k**2
    return out


@lru_cache(maxsize=None)
def _ik_half(spec: GridSpec) -> tuple:
    """(i k per axis, i k per axis times the two-thirds mask) on the half-spectrum."""
    ik = tuple(1j * k for k in _wavenumbers_half(spec))
    return ik, tuple(m * _dealias_mask(spec) for m in ik)


@lru_cache(maxsize=None)
def _dealias_mask(spec: GridSpec) -> np.ndarray:
    """Two-thirds rule mask on the half-spectrum: keep |k_int| <= n/3."""
    cut = spec.n // 3
    full = np.abs(_freq_int(spec.n))
    half = np.abs(np.fft.rfftfreq(spec.n, d=1.0 / spec.n))
    keep = np.ones(rfft_shape(spec), dtype=bool)
    for axis in range(spec.d):
        a = half if axis == spec.d - 1 else full
        shape = [1] * spec.d
        shape[axis] = a.size
        keep &= a.reshape(shape) <= cut
    return keep


def rfft_shape(spec: GridSpec) -> tuple:
    return (spec.n,) * (spec.d - 1) + (spec.n // 2 + 1,)


def rfft(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Real FFT over the trailing d (spatial) axes; leading axes are batch/channels.

    The one-axis transforms that ``np.fft.rfftn`` makes, in its order (same
    bits), without its per-call argument handling.
    """
    out = np.fft.rfft(values, spec.n)
    for axis in range(-2, -spec.d - 1, -1):
        out = np.fft.fft(out, spec.n, axis)
    return out


def irfft(spectrum: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Inverse of ``rfft``: the one-axis transforms of ``np.fft.irfftn``, in its order."""
    for axis in range(-spec.d, -1):
        spectrum = np.fft.ifft(spectrum, spec.n, axis)
    return np.fft.irfft(spectrum, spec.n)


def dealias_values(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    return irfft(rfft(values, spec) * _dealias_mask(spec), spec)


def _frozen_samples(values, shape: tuple, copy: bool = True) -> np.ndarray:
    """A read-only float64 copy of ``values`` (itself if float64 and not ``copy``), checked for shape and finiteness."""
    v = np.array(values, dtype=np.float64) if copy else np.asarray(values, dtype=np.float64)
    if v.shape != shape:
        raise ValueError(f"sample shape {v.shape} != {shape}")
    if not np.isfinite(v).all():
        raise ValueError("field contains non-finite samples")
    v.flags.writeable = False
    return v


def _adopt(cls, grid: GridSpec, values: np.ndarray, shape: tuple | None = None):
    """A ``cls`` field on ``values``, uncopied: a new array checked for ``shape``, or (None) a checked frame's view."""
    field = object.__new__(cls)
    object.__setattr__(field, "grid", grid)
    object.__setattr__(field, "values", values if shape is None else _frozen_samples(values, shape, copy=False))
    return field


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_samples(self.values, self.grid.shape))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return _adopt(ScalarField, self.grid, self.values + other.values, self.values.shape)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return _adopt(ScalarField, self.grid, self.values - other.values, self.values.shape)

    def __mul__(self, a: float) -> "ScalarField":
        return _adopt(ScalarField, self.grid, self.values * float(a), self.values.shape)

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    """d components on one grid, held as one read-only (d,) + grid.shape array."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_samples(self.values, (self.grid.d,) + self.grid.shape))

    @classmethod
    def from_arrays(cls, grid: GridSpec, arrays) -> "VectorField":
        """From d component arrays (a sequence, or one (d,) + grid.shape array)."""
        return cls(grid, arrays)

    @classmethod
    def zero(cls, grid: GridSpec) -> "VectorField":
        return cls(grid, np.zeros((grid.d,) + grid.shape))

    @classmethod
    def constant(cls, grid: GridSpec, vec) -> "VectorField":
        vec = np.atleast_1d(np.asarray(vec, dtype=np.float64))
        if vec.size != grid.d:
            raise ValueError("constant vector length must equal d")
        return cls(grid, np.broadcast_to(vec.reshape((grid.d,) + (1,) * grid.d), (grid.d,) + grid.shape))

    @property
    def components(self) -> tuple:
        """The components as ScalarFields, built on request."""
        return tuple(ScalarField(self.grid, c) for c in self.values)

    def __add__(self, other: "VectorField") -> "VectorField":
        return _adopt(VectorField, self.grid, self.values + other.values, self.values.shape)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return _adopt(VectorField, self.grid, self.values - other.values, self.values.shape)

    def __mul__(self, a: float) -> "VectorField":
        return _adopt(VectorField, self.grid, self.values * float(a), self.values.shape)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Trajectory:
    """Fields on a uniform time grid, held as one read-only (nt, d) + grid.shape array.

    ``values`` may also be a sequence of VectorFields, stacked once.  An
    array is wrapped without a copy; VectorFields are built only on request,
    as read-only views of its frames.
    """

    grid: GridSpec
    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        v = self.values
        if not isinstance(v, np.ndarray):
            frames = tuple(v)
            if any(f.grid != self.grid for f in frames):
                raise ValueError("all frames must share the trajectory GridSpec")
            v = np.stack([f.values for f in frames])
        v = np.asarray(v, dtype=np.float64).view()
        if v.shape[1:] != (self.grid.d,) + self.grid.shape:
            raise ValueError(f"trajectory shape {v.shape} != (nt, {self.grid.d}) + {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("trajectory contains non-finite samples")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (len(self) - 1)

    def frame(self, k: int) -> VectorField:
        """Frame k, a read-only view of ``values[k]``."""
        return _adopt(VectorField, self.grid, self.values[k])

    @property
    def frames(self) -> tuple:
        return tuple(self.frame(k) for k in range(len(self)))

    def locate(self, t: float) -> tuple:
        """(k, w) with t = (1 - w) t_k + w t_{k+1}; w = 0 at (and clamped beyond) frames."""
        return locate(t, self.t0, self.dt, len(self))

    def values_at(self, t: float) -> np.ndarray:
        """Linear interpolation between frames (exact at frame times), shape (d,) + grid.shape."""
        k, w = self.locate(t)
        if w == 0.0:
            return self.values[k]
        return self.values[k] * (1.0 - w) + self.values[k + 1] * w

    def at_time(self, t: float) -> VectorField:
        return VectorField(self.grid, self.values_at(t))


def locate(t: float, t0: float, dt: float, nt: int) -> tuple:
    """``Trajectory.locate`` on the time grid t0 + k dt, k < nt, for frames held elsewhere."""
    s = (t - t0) / dt
    k = min(max(math.floor(s), 0), nt - 1)
    w = s - k
    if k == nt - 1 or w <= 1e-12:
        return k, 0.0
    if w >= 1 - 1e-12:
        return k + 1, 0.0
    return k, w


def frame_blocks(nt: int, spec: GridSpec) -> list:
    """Slices of consecutive frames, BLOCK_SAMPLES grid nodes per block (at least one frame).

    Per-frame work over a trajectory runs one batched transform per block:
    a few Python calls per stack, and temporaries of bounded size (a
    transform of the whole stack holds several copies of it).
    """
    step = max(1, BLOCK_SAMPLES // spec.num_nodes)
    return [slice(k, min(k + step, nt)) for k in range(0, nt, step)]


def tick_steps(steps: int, lanes: int, spec: GridSpec) -> int:
    """Steps per lane and tick of ``heat.integrate``: a tick's frames fill half a block, and half the trajectory."""
    return max(1, min(BLOCK_SAMPLES // (2 * spec.num_nodes), (steps + 1) // 2) // lanes)


# ---------------------------------------------------------------------------
# spectral differential operators


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, gradient_arrays(f.values, f.grid))


# The array helpers below take sample arrays lead + grid.shape with any
# leading (batch, channel) axes and put new derivative axes just before the
# spatial ones.  ``fh``, if given, is ``rfft(values, spec)``, transformed
# once by a caller that takes several derivatives of the same values.


def gradient_arrays(values: np.ndarray, spec: GridSpec, fh: np.ndarray | None = None) -> np.ndarray:
    """Gradient, shape lead + (d,) + grid.shape."""
    fh = rfft(values, spec) if fh is None else fh
    return np.stack([irfft(ik * fh, spec) for ik in _ik_half(spec)[0]], axis=-spec.d - 1)


def laplacian_arrays(values: np.ndarray, spec: GridSpec, fh: np.ndarray | None = None) -> np.ndarray:
    return irfft(-_ksq_half(spec) * (rfft(values, spec) if fh is None else fh), spec)


def hessian_arrays(values: np.ndarray, spec: GridSpec, fh: np.ndarray | None = None) -> np.ndarray:
    """All second derivatives, shape lead + (d, d) + grid.shape."""
    fh = rfft(values, spec) if fh is None else fh
    ks = _wavenumbers_half(spec)
    # one copy of the d * d entries, row-major in (a, b)
    flat = np.stack([irfft(-ka * kb * fh, spec) for ka in ks for kb in ks], axis=-spec.d - 1)
    return flat.reshape(flat.shape[: -spec.d - 1] + (spec.d, spec.d) + spec.shape)


def advect_hat(b: np.ndarray, u_hat: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Half-spectrum of (b . grad) u from the half-spectrum of u.

    ``b`` (physical, lead + (d,) + shape) must already be dealiased; ``u_hat``
    (lead + (ch,) + half-spectrum) is masked here and so is the product
    (two-thirds rule on both factors and on the result).
    """
    acc = np.zeros(u_hat.shape[: -spec.d] + spec.shape)
    spatial = (slice(None),) * spec.d
    for i, ik_masked in enumerate(_ik_half(spec)[1]):
        # component i of b with a unit channel axis: lead + (1,) + shape
        acc += b[(Ellipsis, i, None) + spatial] * irfft(ik_masked * u_hat, spec)
    return rfft(acc, spec) * _dealias_mask(spec)


# ---------------------------------------------------------------------------
# off-grid evaluation (trigonometric interpolation)


def evaluate_many(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Value of the trigonometric interpolant at arbitrary torus points.

    ``points`` has shape (p, d); coordinates are wrapped into [0, L).
    Exact at grid nodes.
    """
    return evaluate_arrays(f.values[None], f.grid, points)[:, 0]


def evaluate_arrays(values: np.ndarray, spec: GridSpec, points: np.ndarray) -> np.ndarray:
    """``evaluate_many`` of each channel of a (ch,) + grid.shape array; shape (p, ch)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64)) % spec.L
    if pts.shape[1] != spec.d:
        raise ValueError(f"points must have {spec.d} coordinates")
    kvals = _freq_int(spec.n) * (2.0 * np.pi / spec.L)
    phases = [np.exp(1j * np.outer(pts[:, a], kvals)) for a in range(spec.d)]
    out = np.empty((len(pts), len(values)))
    for c, channel in enumerate(values):
        coeffs = np.fft.fftn(channel) / spec.num_nodes
        if spec.d == 1:
            out[:, c] = (phases[0] @ coeffs).real
        elif spec.d == 2:
            out[:, c] = np.einsum("px,py,xy->p", phases[0], phases[1], coeffs).real
        else:
            out[:, c] = np.einsum("px,py,pz,xyz->p", phases[0], phases[1], phases[2], coeffs).real
    return out


# ---------------------------------------------------------------------------
# synthetic data


@lru_cache(maxsize=None)
def _band_modes(d: int, kmax: int) -> tuple:
    """Canonical half-space of nonzero integer modes with |k|_inf <= kmax."""
    modes = []
    ranges = [range(-kmax, kmax + 1)] * d
    for m in np.ndindex(*[2 * kmax + 1] * d):
        vec = tuple(mi - kmax for mi in m)
        if all(v == 0 for v in vec):
            continue
        first = next(v for v in vec if v != 0)
        if first > 0:
            modes.append(vec)
    modes.sort()
    return tuple(modes)


def make_trig_field(spec: GridSpec, seed: int, kmax: int, amplitude: float) -> VectorField:
    """Seeded band-limited trigonometric polynomial field.

    Each component is sum_k a_k cos(k.x + theta_k) over modes |k|_inf <= kmax,
    so its sup norm is bounded by sum_k |a_k|.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax >= spec.n / 2:
        raise ResolutionError(f"kmax={kmax} >= n/2={spec.n / 2}: modes would alias")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    modes = _band_modes(spec.d, kmax)
    comps = []
    for _ in range(spec.d):
        full = np.zeros(spec.shape, dtype=complex)
        if modes and amplitude > 0:
            amps = amplitude * rng.standard_normal(len(modes)) / np.sqrt(len(modes))
            phases = rng.uniform(0.0, 2.0 * np.pi, len(modes))
            for vec, a, th in zip(modes, amps, phases):
                idx = tuple(int(m) % spec.n for m in vec)
                neg = tuple((-int(m)) % spec.n for m in vec)
                coeff = 0.5 * a * np.exp(1j * th)
                full[idx] += coeff
                full[neg] += np.conj(coeff)
        comps.append((np.fft.ifftn(full) * spec.num_nodes).real)
    return VectorField(spec, comps)


def time_derivative_frames(traj: Trajectory) -> np.ndarray:
    """Centered time differences per frame (one-sided second order at ends).

    Returns an array shaped like ``traj.values``.
    """
    return time_derivative_arrays(traj.values, traj.dt)


def time_derivative_arrays(u: np.ndarray, dt: float) -> np.ndarray:
    """``time_derivative_frames`` of frames stacked on the leading axis of ``u``, spaced ``dt`` apart."""
    if len(u) < 3:
        raise ValueError("need at least 3 frames for time differences")
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2 * dt)
    out[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dt)
    out[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dt)
    return out


# ---------------------------------------------------------------------------
# snapshot format


def write_snapshot(v: VectorField, path) -> None:
    """Binary field snapshot: magic 'BFLD', version, d, n, L, ncomp, samples."""
    spec = v.grid
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, spec.d, spec.n, spec.L, len(v.values)))
        fh.write(np.ascontiguousarray(v.values, dtype="<f8").tobytes())


def read_snapshot(path) -> VectorField:
    """Inverse of ``write_snapshot``; any malformed file raises ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_SNAPSHOT_HEADER.size)
        if len(header) < _SNAPSHOT_HEADER.size:
            raise ValueError(f"snapshot of {size} bytes is shorter than its header")
        magic, version, d, n, L, ncomp = _SNAPSHOT_HEADER.unpack(header)
        if magic != _SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if version != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        spec = GridSpec(d, n, L)
        payload = 8 * ncomp * spec.num_nodes
        if size - _SNAPSHOT_HEADER.size != payload:
            raise ValueError(f"snapshot payload is {size - _SNAPSHOT_HEADER.size} bytes, its header implies {payload}")
        values = np.frombuffer(fh.read(payload), dtype="<f8")
    return VectorField(spec, values.reshape((ncomp,) + spec.shape))
