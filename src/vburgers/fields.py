"""Periodic-torus grids, sampled fields and spectral differentiation.

All fields live on a uniform periodic grid with ``n`` points per axis on a
box of side ``L``.  Derivatives are exact derivatives of the trigonometric
interpolant, computed with real FFTs (conjugate-symmetric half-spectrum).
Field values are immutable after construction; every operation returns a
new object.
"""
from __future__ import annotations

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
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")

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
    """Real FFT over the trailing d (spatial) axes; leading axes are batch/channels."""
    return np.fft.rfftn(values, s=spec.shape, axes=tuple(range(-spec.d, 0)))


def irfft(spectrum: np.ndarray, spec: GridSpec) -> np.ndarray:
    return np.fft.irfftn(spectrum, s=spec.shape, axes=tuple(range(-spec.d, 0)))


def dealias_values(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    return irfft(rfft(values, spec) * _dealias_mask(spec), spec)


def _as_immutable(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"sample shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", _as_immutable(v))

    def spectrum(self) -> np.ndarray:
        return rfft(self.values, self.grid)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(a))

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        grid = comps[0].grid
        if any(c.grid != grid for c in comps):
            raise ValueError("all components must share one GridSpec")
        if len(comps) != grid.d:
            raise ValueError(f"expected {grid.d} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid

    @classmethod
    def from_arrays(cls, grid: GridSpec, arrays) -> "VectorField":
        return cls(tuple(ScalarField(grid, a) for a in arrays))

    @classmethod
    def zero(cls, grid: GridSpec) -> "VectorField":
        z = np.zeros(grid.shape)
        return cls.from_arrays(grid, [z] * grid.d)

    @classmethod
    def constant(cls, grid: GridSpec, vec) -> "VectorField":
        vec = np.atleast_1d(np.asarray(vec, dtype=np.float64))
        if vec.size != grid.d:
            raise ValueError("constant vector length must equal d")
        return cls.from_arrays(grid, [np.full(grid.shape, v) for v in vec])

    def as_array(self) -> np.ndarray:
        """Stack components, shape (d,) + grid.shape."""
        return np.stack([c.values for c in self.components])

    def magnitude(self) -> np.ndarray:
        return np.sqrt(sum(c.values**2 for c in self.components))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, a: float) -> "VectorField":
        return VectorField(tuple(c * a for c in self.components))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Trajectory:
    """Fields on a uniform time grid, held as one read-only (nt, d) + grid.shape array.

    ``values`` may also be a sequence of VectorFields, stacked once.  An
    array is wrapped without a copy; VectorFields are built only on request.
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
            v = np.stack([f.as_array() for f in frames])
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
        return VectorField.from_arrays(self.grid, self.values[k])

    @property
    def frames(self) -> tuple:
        return tuple(self.frame(k) for k in range(len(self)))

    def locate(self, t: float) -> tuple:
        """(k, w) with t = (1 - w) t_k + w t_{k+1}; w = 0 at (and clamped beyond) frames."""
        s = (t - self.t0) / self.dt
        k = min(max(int(np.floor(s)), 0), len(self) - 1)
        w = s - k
        if k == len(self) - 1 or w <= 1e-12:
            return k, 0.0
        if w >= 1 - 1e-12:
            return k + 1, 0.0
        return k, w

    def at_time(self, t: float) -> VectorField:
        """Linear interpolation between frames (exact at frame times)."""
        k, w = self.locate(t)
        if w == 0.0:
            return self.frame(k)
        return VectorField.from_arrays(self.grid, self.values[k] * (1.0 - w) + self.values[k + 1] * w)


def frame_blocks(nt: int, spec: GridSpec) -> list:
    """Slices of consecutive frames, BLOCK_SAMPLES grid nodes per block (at least one frame).

    Per-frame work over a trajectory runs one batched transform per block:
    a few Python calls per stack, and temporaries of bounded size (a
    transform of the whole stack holds several copies of it).
    """
    step = max(1, BLOCK_SAMPLES // spec.num_nodes)
    return [slice(k, min(k + step, nt)) for k in range(0, nt, step)]


# ---------------------------------------------------------------------------
# spectral differential operators


def gradient(f: ScalarField) -> VectorField:
    return VectorField.from_arrays(f.grid, gradient_arrays(f.values, f.grid))


def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, laplacian_arrays(f.values, f.grid))


# The array helpers below take sample arrays lead + grid.shape with any
# leading (batch, channel) axes and put new derivative axes just before the
# spatial ones.


def gradient_arrays(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Gradient, shape lead + (d,) + grid.shape."""
    fh = rfft(values, spec)
    return np.stack([irfft(1j * k * fh, spec) for k in _wavenumbers_half(spec)], axis=-spec.d - 1)


def laplacian_arrays(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    return irfft(-_ksq_half(spec) * rfft(values, spec), spec)


def jacobian_arrays(v: VectorField) -> np.ndarray:
    """Jacobian (d_i u_j -> [j, i]) of a vector field, shape (d, d) + shape."""
    return gradient_arrays(v.as_array(), v.grid)


def hessian_arrays(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """All second derivatives, shape lead + (d, d) + grid.shape."""
    fh = rfft(values, spec)
    ks = _wavenumbers_half(spec)
    rows = [np.stack([irfft(-ka * kb * fh, spec) for kb in ks], axis=-spec.d - 1) for ka in ks]
    return np.stack(rows, axis=-spec.d - 2)


def divergence(v: VectorField) -> ScalarField:
    spec = v.grid
    ks = _wavenumbers_half(spec)
    out = np.zeros(rfft_shape(spec), dtype=complex)
    for k, c in zip(ks, v.components):
        out += 1j * k * c.spectrum()
    return ScalarField(spec, irfft(out, spec))


def curl_components(v: VectorField) -> list:
    """Independent curl components: 1 for d=2, 3 for d=3, none for d=1."""
    spec = v.grid
    if spec.d == 1:
        return []
    jac = jacobian_arrays(v)  # jac[j, i] = d_i u_j
    if spec.d == 2:
        return [ScalarField(spec, jac[1, 0] - jac[0, 1])]
    return [
        ScalarField(spec, jac[2, 1] - jac[1, 2]),
        ScalarField(spec, jac[0, 2] - jac[2, 0]),
        ScalarField(spec, jac[1, 0] - jac[0, 1]),
    ]


def advect_hat(b: np.ndarray, u_hat: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Half-spectrum of (b . grad) u from the half-spectrum of u.

    ``b`` (physical, lead + (d,) + shape) must already be dealiased; ``u_hat``
    (lead + (ch,) + half-spectrum) is masked here and so is the product
    (two-thirds rule on both factors and on the result).
    """
    mask = _dealias_mask(spec)
    u_hat = u_hat * mask
    acc = np.zeros(u_hat.shape[: -spec.d] + spec.shape)
    spatial = (slice(None),) * spec.d
    for i, ki in enumerate(_wavenumbers_half(spec)):
        # component i of b with a unit channel axis: lead + (1,) + shape
        acc += b[(Ellipsis, i, None) + spatial] * irfft(1j * ki * u_hat, spec)
    return rfft(acc, spec) * mask


def advect_arrays(b: np.ndarray, u: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(b . grad) u on physical arrays lead + (d,) + shape and lead + (ch,) + shape (see ``advect_hat``)."""
    return irfft(advect_hat(b, rfft(u, spec), spec), spec)


def advect(b: VectorField, u: VectorField) -> VectorField:
    """Dealiased transport nonlinearity (b . grad) u."""
    spec = u.grid
    return VectorField.from_arrays(spec, advect_arrays(dealias_values(b.as_array(), spec), u.as_array(), spec))


# ---------------------------------------------------------------------------
# off-grid evaluation (trigonometric interpolation)


def evaluate_many(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Value of the trigonometric interpolant at arbitrary torus points.

    ``points`` has shape (p, d); coordinates are wrapped into [0, L).
    Exact at grid nodes.
    """
    spec = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64)) % spec.L
    if pts.shape[1] != spec.d:
        raise ValueError(f"points must have {spec.d} coordinates")
    coeffs = np.fft.fftn(f.values) / spec.num_nodes
    kvals = _freq_int(spec.n) * (2.0 * np.pi / spec.L)
    phases = [np.exp(1j * np.outer(pts[:, a], kvals)) for a in range(spec.d)]
    if spec.d == 1:
        out = phases[0] @ coeffs
    elif spec.d == 2:
        out = np.einsum("px,py,xy->p", phases[0], phases[1], coeffs)
    else:
        out = np.einsum("px,py,pz,xyz->p", phases[0], phases[1], phases[2], coeffs)
    return out.real


def evaluate_vector_many(v: VectorField, points: np.ndarray) -> np.ndarray:
    """Shape (p, d_comp)."""
    return np.stack([evaluate_many(c, points) for c in v.components], axis=1)


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
    return VectorField.from_arrays(spec, comps)


def time_derivative_frames(traj: Trajectory) -> np.ndarray:
    """Centered time differences per frame (one-sided second order at ends).

    Returns an array shaped like ``traj.values``.
    """
    u = traj.values
    if len(u) < 3:
        raise ValueError("need at least 3 frames for time differences")
    dt = traj.dt
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
        fh.write(_SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, spec.d, spec.n, spec.L, len(v.components)))
        fh.write(np.ascontiguousarray(v.as_array(), dtype="<f8").tobytes())


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
    return VectorField.from_arrays(spec, values.reshape((ncomp,) + spec.shape))
