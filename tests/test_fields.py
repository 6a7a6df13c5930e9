import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vburgers.errors import ResolutionError
from vburgers.fields import (
    GridSpec,
    ScalarField,
    Trajectory,
    VectorField,
    _dealias_mask,
    _wavenumbers_half,
    advect_hat,
    dealias_values,
    evaluate_arrays,
    gradient,
    gradient_arrays,
    hessian_arrays,
    irfft,
    laplacian_arrays,
    make_trig_field,
    read_snapshot,
    rfft,
    snapshot_bytes,
    time_derivative_arrays,
)

TWO_PI = 2 * np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 64, TWO_PI)
    with pytest.raises(ValueError):
        GridSpec(1, 48, TWO_PI)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 4, TWO_PI)  # too small
    with pytest.raises(ValueError):
        GridSpec(1, 64, -1.0)
    for L in (1e-320, np.float64(1e-320)):  # 2 pi / L overflows: the wavenumbers would be NaN
        with pytest.raises(ValueError, match="2 pi / L"):
            GridSpec(1, 64, L)
    # squared node distances or wavenumbers that are not normal floats: h^2 underflows, or d (L/2)^2 overflows
    for L in (1e-300, 1e300, np.float64(1e-300), float("inf")):
        with pytest.raises(ValueError, match="2 pi / L"):
            GridSpec(1, 64, L)
    assert GridSpec(3, 64, 1e-150).L == 1e-150 and GridSpec(3, 64, 1e150).L == 1e150


def test_gradient_of_sin_is_cos(grid1d):
    x = grid1d.axis_coords()
    f = ScalarField(grid1d, np.sin(x))
    g = gradient(f)
    assert np.allclose(g.components[0].values, np.cos(x), atol=1e-12)


def test_laplacian_eigenfunction(grid1d):
    x = grid1d.axis_coords()
    lap = laplacian_arrays(np.sin(3 * x), grid1d)
    assert np.allclose(lap, -9 * np.sin(3 * x), atol=1e-10)


def test_gradient_wavenumber_uses_domain_length():
    g = GridSpec(1, 64, 1.0)
    x = g.axis_coords()
    f = ScalarField(g, np.sin(TWO_PI * x))
    d = gradient(f).components[0].values
    assert np.allclose(d, TWO_PI * np.cos(TWO_PI * x), atol=1e-9)


def test_jacobian_shape_and_values(grid2d):
    xx, yy = grid2d.mesh()
    v = VectorField.from_arrays(grid2d, [np.sin(yy), np.cos(xx)])
    jac = gradient_arrays(v.values, grid2d)
    assert jac.shape == (2, 2) + grid2d.shape
    # d(sin y)/dx = 0, d(sin y)/dy = cos y
    assert np.abs(jac[0, 0]).max() < 1e-10
    assert np.allclose(jac[0, 1], np.cos(yy), atol=1e-10)


def test_hessian_symmetry(grid2d):
    xx, yy = grid2d.mesh()
    f = ScalarField(grid2d, np.sin(xx) * np.sin(2 * yy))
    h = hessian_arrays(f.values, grid2d)
    assert np.allclose(h[0, 1], h[1, 0], atol=1e-12)


def test_advect_matches_closed_form(grid1d):
    x = grid1d.axis_coords()
    b = VectorField.from_arrays(grid1d, [np.cos(x)])
    u = VectorField.from_arrays(grid1d, [np.sin(x)])
    out = irfft(advect_hat(dealias_values(b.values, grid1d), rfft(u.values, grid1d), grid1d), grid1d)  # cos * d(sin)/dx = cos^2
    assert np.allclose(out[0], np.cos(x) ** 2, atol=1e-10)


def test_advect_dealiases_quadratic_products(grid1d):
    # the product of two band-limited fields has no energy above the cutoff
    b = make_trig_field(grid1d, 1, grid1d.n // 3, 1.0)
    u = make_trig_field(grid1d, 2, grid1d.n // 3, 1.0)
    out = irfft(advect_hat(dealias_values(b.values, grid1d), rfft(u.values, grid1d), grid1d), grid1d)
    spec = np.fft.rfft(out[0])
    cutoff = grid1d.n // 3
    assert np.abs(spec[cutoff + 1 :]).max() < 1e-10 * max(1.0, np.abs(spec).max())


def test_trig_interpolation_exact_at_nodes(grid1d, random_field):
    x = grid1d.axis_coords()
    pts = x.reshape(-1, 1)
    vals = evaluate_arrays(random_field.components[0].values[None], grid1d, pts)[:, 0]
    assert np.allclose(vals, random_field.components[0].values, atol=1e-12)


def test_trig_interpolation_exact_at_nodes_3d():
    g = GridSpec(3, 8, TWO_PI)
    v = make_trig_field(g, seed=3, kmax=2, amplitude=1.0)
    pts = np.stack([m.ravel() for m in g.mesh()], axis=1)
    vals = evaluate_arrays(v.values, g, pts)
    assert np.abs(vals - v.values.reshape(3, -1).T).max() < 1e-13


def test_trig_interpolation_matches_closed_form_off_nodes(grid1d):
    x = grid1d.axis_coords()
    f = ScalarField(grid1d, np.sin(2 * x) + 0.3 * np.cos(5 * x))
    pts = np.array([[0.1], [1.234], [4.5]])
    expect = np.sin(2 * pts[:, 0]) + 0.3 * np.cos(5 * pts[:, 0])
    assert np.allclose(evaluate_arrays(f.values[None], f.grid, pts)[:, 0], expect, atol=1e-12)


def test_make_trig_field_deterministic_and_band_limited(grid1d):
    a = make_trig_field(grid1d, seed=5, kmax=3, amplitude=1.0)
    b = make_trig_field(grid1d, seed=5, kmax=3, amplitude=1.0)
    assert np.array_equal(a.values, b.values)
    spec = np.fft.rfft(a.components[0].values)
    assert np.abs(spec[4:]).max() < 1e-12 * max(1.0, np.abs(spec).max())
    with pytest.raises(ResolutionError):
        make_trig_field(grid1d, seed=0, kmax=grid1d.n // 2, amplitude=1.0)


def test_trajectory_interpolation(grid1d, sin_field):
    frames = tuple(sin_field * (1.0 + k) for k in range(4))
    traj = Trajectory(grid1d, 0.0, 0.5, frames)
    mid = traj.values_at(0.25)
    assert np.allclose(mid, 1.5 * sin_field.values, atol=1e-14)
    assert traj.t_end == pytest.approx(1.5)


def test_time_derivative_arrays_second_order(grid1d, sin_field):
    # u(t) = e^t * sin(x); centered differences are O(dt^2)
    dt = 1e-3
    frames = tuple(sin_field * float(np.exp(k * dt)) for k in range(5))
    traj = Trajectory(grid1d, 0.0, dt, frames)
    d = time_derivative_arrays(traj.values, traj.dt)
    expect = np.exp(2 * dt) * sin_field.values
    assert np.abs(d[2] - expect).max() < 1e-6


@pytest.mark.parametrize("d, n", [(1, 128), (2, 32), (3, 16)])
def test_lane_batched_transforms_equal_per_lane(d, n):
    # the Picard wavefront transforms every lane of a tick at once and must get each lane's floats
    spec = GridSpec(d, n, TWO_PI)
    lanes = np.stack([make_trig_field(spec, seed, kmax=5, amplitude=0.5).values for seed in range(6)])
    spectra = rfft(lanes, spec)
    back = irfft(spectra, spec)
    for j, lane in enumerate(lanes):
        assert np.array_equal(spectra[j], rfft(lane, spec))
        assert np.array_equal(back[j], irfft(spectra[j], spec))


_BITWISE_GRIDS = [GridSpec(1, 32, TWO_PI), GridSpec(2, 16, TWO_PI), GridSpec(3, 8, TWO_PI)]


def _bitwise_values(spec, lead):
    """Samples lead + grid.shape with energy in every band."""
    return np.random.default_rng(spec.d).standard_normal(lead + spec.shape)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=lambda lead: f"lead{len(lead)}")
@pytest.mark.parametrize("spec", _BITWISE_GRIDS, ids=lambda s: f"d{s.d}")
def test_transforms_equal_numpy_nd_wrappers(spec, lead):
    # fields.rfft / irfft make the one-axis transforms of np.fft.rfftn / irfftn, in their order
    axes = tuple(range(-spec.d, 0))
    values = _bitwise_values(spec, lead)
    spectrum = rfft(values, spec)
    assert spectrum.tobytes() == np.fft.rfftn(values, s=spec.shape, axes=axes).tobytes()
    assert irfft(spectrum, spec).tobytes() == np.fft.irfftn(spectrum, s=spec.shape, axes=axes).tobytes()


@pytest.mark.parametrize("spec", _BITWISE_GRIDS, ids=lambda s: f"d{s.d}")
def test_derivatives_of_a_given_spectrum(spec):
    values = _bitwise_values(spec, (4, spec.d))
    fh = rfft(values, spec)
    for derivative in (gradient_arrays, hessian_arrays, laplacian_arrays):
        assert derivative(values, spec, fh).tobytes() == derivative(values, spec).tobytes(), derivative.__name__


def _advect_hat_masking_first(b, u_hat, spec):
    """``advect_hat`` as it masked u_hat before multiplying by i k."""
    mask = _dealias_mask(spec)
    u_hat = u_hat * mask
    acc = np.zeros(u_hat.shape[: -spec.d] + spec.shape)
    spatial = (slice(None),) * spec.d
    for i, ki in enumerate(_wavenumbers_half(spec)):
        acc += b[(Ellipsis, i, None) + spatial] * irfft(1j * ki * u_hat, spec)
    return rfft(acc, spec) * mask


@pytest.mark.parametrize("spec", _BITWISE_GRIDS, ids=lambda s: f"d{s.d}")
def test_advect_hat_equals_masking_first(spec):
    b = dealias_values(_bitwise_values(spec, (3, spec.d)), spec)
    u_hat = rfft(_bitwise_values(spec, (3, 2)) * 0.5, spec)
    assert advect_hat(b, u_hat, spec).tobytes() == _advect_hat_masking_first(b, u_hat, spec).tobytes()


def test_snapshot_roundtrip(tmp_path, grid2d):
    v = make_trig_field(grid2d, seed=11, kmax=4, amplitude=0.7)
    p = tmp_path / "field.bfld"
    p.write_bytes(snapshot_bytes(v))
    w = read_snapshot(p)
    assert w.grid == grid2d
    assert np.array_equal(w.values, v.values)


def _valid_snapshot() -> bytes:
    return snapshot_bytes(make_trig_field(GridSpec(1, 8, TWO_PI), seed=1, kmax=2, amplitude=1.0))


def test_snapshot_rejects_malformed_headers(tmp_path):
    valid = _valid_snapshot()
    huge = valid[:9] + struct.pack("<I", 2**31) + valid[13:]  # n = 2**31: a 16 GB payload
    p = tmp_path / "bad.bfld"
    for raw in (valid[:24], valid + b"\0", valid[:-1], huge):
        p.write_bytes(raw)
        with pytest.raises(ValueError):
            read_snapshot(p)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.tuples(st.integers(0, 88), st.binary(max_size=12), st.integers(0, 89), st.binary(max_size=4)),
    )
)
def test_snapshot_reader_valid_or_value_error(tmp_path, data):
    # arbitrary bytes, or a valid snapshot with a span overwritten, cut short or extended
    raw = data
    if isinstance(data, tuple):
        valid = _valid_snapshot()
        at, patch, cut, tail = data
        raw = (valid[:at] + patch + valid[at + len(patch):])[:cut] + tail
    p = tmp_path / "fuzz.bfld"
    p.write_bytes(raw)
    try:
        v = read_snapshot(p)
    except ValueError:
        return
    assert snapshot_bytes(v) == raw


def test_trajectory_wraps_array_read_only(grid1d, sin_field):
    arr = np.stack([sin_field.values * k for k in range(3)])
    traj = Trajectory(grid1d, 0.0, 0.1, arr)
    assert np.shares_memory(traj.values, arr)
    assert not traj.values.flags.writeable and arr.flags.writeable
    with pytest.raises(ValueError):
        traj.values[0, 0, 0] = 1.0
    again = Trajectory(grid1d, 0.0, 0.1, traj.frames)
    assert np.array_equal(again.values, arr)
    assert np.array_equal(traj.frame(2).values, arr[2])
    arr[1, 0, 3] = np.nan
    with pytest.raises(ValueError):
        Trajectory(grid1d, 0.0, 0.1, arr)
    with pytest.raises(ValueError):
        Trajectory(grid1d, 0.0, 0.1, arr[:, :, :32])


def test_vector_field_is_one_read_only_array(grid2d):
    src = np.stack([np.sin(m) for m in grid2d.mesh()])
    v = VectorField(grid2d, src)
    src[0, 0, 0] = 5.0  # the field holds its own copy
    assert v.values[0, 0, 0] == 0.0 and not np.shares_memory(v.values, src)
    assert v.values.shape == (2,) + grid2d.shape and v.values.dtype == np.float64
    assert not v.values.flags.writeable
    with pytest.raises(ValueError):
        v.values[1, 0, 0] = 1.0
    for i, c in enumerate(v.components):
        assert isinstance(c, ScalarField) and np.array_equal(c.values, v.values[i])
    for bad_shape in (src[:1], src[:, :, :16], src[:, :, :, None]):
        with pytest.raises(ValueError):
            VectorField(grid2d, bad_shape)
    for bad_sample in (np.nan, np.inf, -np.inf):
        bad = src.copy()
        bad[1, 3, 4] = bad_sample
        with pytest.raises(ValueError):
            VectorField(grid2d, bad)
        with pytest.raises(ValueError):
            VectorField.from_arrays(grid2d, list(bad))
    traj = Trajectory(grid2d, 0.0, 0.1, np.stack([v.values * k for k in range(3)]))
    for k in range(3):
        assert np.array_equal(traj.frame(k).values, traj.values[k])


def test_trajectory_frames_are_read_only_views(grid2d):
    values = np.stack([make_trig_field(grid2d, seed=k, kmax=2, amplitude=0.5).values for k in range(3)])
    traj = Trajectory(grid2d, 0.0, 0.1, values)
    frames = traj.frames
    assert len(frames) == len(traj)
    for k, frame in enumerate(frames):
        for view in (frame, traj.frame(k)):
            assert isinstance(view, VectorField) and view.grid == grid2d
            assert np.shares_memory(view.values, traj.values) and np.array_equal(view.values, traj.values[k])
            assert not view.values.flags.writeable
            with pytest.raises(ValueError):
                view.values[0, 0, 0] = 1.0


def test_field_arithmetic_checks_its_result(grid1d):
    a = make_trig_field(grid1d, seed=1, kmax=3, amplitude=0.5)
    b = make_trig_field(grid1d, seed=2, kmax=3, amplitude=0.5)
    results = [
        (a + b, a.values + b.values), (a - b, a.values - b.values), (a * 2.5, a.values * 2.5),
        (2.5 * a, a.values * 2.5),
    ]
    for got, want in results:
        assert got.grid == grid1d and np.array_equal(got.values, want)
        assert not got.values.flags.writeable
        assert not np.shares_memory(got.values, a.values) and not np.shares_memory(got.values, b.values)
    big = VectorField.constant(grid1d, [1e308])
    for overflow in (
        lambda: big - big * -1.0,  # 1e308 - (-1e308)
        lambda: big + big,
        lambda: big * 10.0,
    ):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            overflow()


def test_snapshot_magic(tmp_path, random_field):
    p = tmp_path / "f.bfld"
    p.write_bytes(snapshot_bytes(random_field))
    assert p.read_bytes()[:4] == b"BFLD"
