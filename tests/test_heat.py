import json
import warnings

import numpy as np
import pytest
from conftest import forced_heat

from vburgers import fields, heat, oracle, transport
from vburgers.errors import DivergenceError, OracleError, ResolutionError, WindowError
from vburgers.fields import GridSpec, ScalarField, VectorField, irfft, make_trig_field, rfft
from vburgers.forcing import ConstantForcing, Forcing, TrigForcing, ZeroForcing
from vburgers.heat import (
    heat_apply,
    heat_multiplier,
    holder_scaling_probe,
    integrate,
    lacunary_field,
    n_steps,
)
from vburgers.oracle import cole_hopf, direct_solve
from vburgers.transport import TransportProblem, solve_transport


def test_heat_decays_single_mode(grid1d):
    x = grid1d.axis_coords()
    u = VectorField.from_arrays(grid1d, [np.sin(3 * x)])
    out = heat_apply(u, 0.2)
    expect = np.exp(-9 * 0.2) * np.sin(3 * x)
    assert np.allclose(out.components[0].values, expect, atol=1e-12)


def test_heat_semigroup_property(random_field):
    a = heat_apply(heat_apply(random_field, 0.1), 0.15)
    b = heat_apply(random_field, 0.25)
    assert np.allclose(a.values, b.values, atol=1e-13)


def test_heat_preserves_mean(grid1d, random_field):
    before = random_field.components[0].values.mean()
    after = heat_apply(random_field, 1.0).components[0].values.mean()
    assert after == pytest.approx(before, abs=1e-13)


def test_heat_rejects_negative_time(random_field):
    with pytest.raises(ValueError):
        heat_apply(random_field, -0.1)


def test_duhamel_zero_forcing_is_pure_heat(grid1d, random_field):
    traj = forced_heat(random_field, ZeroForcing(grid1d), 0.5, 1e-2)
    expect = heat_apply(random_field, 0.5)
    assert np.allclose(traj.frame(len(traj) - 1).values, expect.values, atol=1e-12)


def test_duhamel_constant_forcing_constant_mode():
    # u0 = 0, g = const vector: solution is g * t exactly (zero mode)
    g = GridSpec(1, 32, 2 * np.pi)
    force = ConstantForcing(VectorField.constant(g, [0.7]))
    traj = forced_heat(VectorField.zero(g), force, 1.0, 1e-2)
    final = traj.frame(len(traj) - 1).components[0].values
    assert np.allclose(final, 0.7, atol=1e-10)


def test_duhamel_quadrature_second_order(grid1d, random_field):
    force = TrigForcing(grid1d, seed=4, kmax=3, amplitude=0.5, omega=2.0)
    coarse = forced_heat(random_field, force, 0.5, 1e-2)
    fine = forced_heat(random_field, force, 0.5, 5e-3)
    ref = forced_heat(random_field, force, 0.5, 1.25e-3)
    e_c = np.abs(coarse.frame(-1 % len(coarse)).values - ref.frame(-1 % len(ref)).values).max()
    e_f = np.abs(fine.frame(-1 % len(fine)).values - ref.frame(-1 % len(ref)).values).max()
    assert e_f < e_c / 3.0  # ~4x for a second-order rule


def test_duhamel_non_finite_raises_divergence():
    # the forcing's mean mode overflows the FFT sum, so the state turns non-finite
    g = GridSpec(1, 64, 2 * np.pi)
    force = ConstantForcing(VectorField.constant(g, [1e307]))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        forced_heat(VectorField.zero(g), force, 0.1, 1e-2)


def test_lacunary_field_deterministic():
    g = GridSpec(1, 1024, 2 * np.pi)
    a = lacunary_field(g, 0.5, seed=1)
    b = lacunary_field(g, 0.5, seed=1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, lacunary_field(g, 0.5, seed=2).values)


def test_scaling_probe_slopes():
    g = GridSpec(1, 4096, 2 * np.pi)
    t_list = np.geomspace(1e-4, 1e-2, 9)
    r1 = holder_scaling_probe(0.5, 1, t_list, g, seed=0)
    assert r1.predicted_slope == pytest.approx(-0.25)
    assert abs(r1.slope - r1.predicted_slope) < 0.05
    r2 = holder_scaling_probe(0.5, 2, t_list, g, seed=0)
    assert abs(r2.slope + 0.75) < 0.05


def test_scaling_probe_json_keys():
    g = GridSpec(1, 4096, 2 * np.pi)
    rep = holder_scaling_probe(0.5, 1, np.geomspace(1e-4, 1e-2, 5), g, seed=0)
    d = json.loads(rep.to_json())
    assert set(d) >= {"alpha", "kappa", "times", "norms", "slope", "predicted_slope"}


def test_scaling_probe_window_gate():
    # a coarse grid cannot resolve the smoothing regime at tiny times
    g = GridSpec(1, 32, 2 * np.pi)
    with pytest.raises(WindowError):
        holder_scaling_probe(0.5, 1, np.array([1e-6, 1e-5]), g, seed=0)


def test_heat_commutes_with_gradient(grid1d):
    from vburgers.fields import gradient

    x = grid1d.axis_coords()
    f = ScalarField(grid1d, np.sin(2 * x) + 0.2 * np.cos(4 * x))
    a = gradient(ScalarField(grid1d, heat_apply(VectorField(grid1d, f.values[None]), 0.3).components[0].values))
    b = heat_apply(gradient(f), 0.3)
    assert np.allclose(a.values, b.values, atol=1e-12)


# ---------------------------------------------------------------------------
# the stored path of integrate: spectra held a block at a time, inverse-transformed and checked per block


def _march_reference(u0, spec, T, dt, rhs, guard):
    """``integrate``'s stored states one tick at a time: each state inverse-transformed and checked as it is made."""
    e_full, e_half = heat_multiplier(spec, dt), heat_multiplier(spec, dt / 2.0)
    dt_e_half = dt * e_half
    ceiling = 1e10 * (float(np.abs(u0).max()) + 1.0)
    u_hat, states = rfft(u0, spec)[None], [u0]
    for s in range(n_steps(T, dt)):
        t = s * dt
        if rhs is None:
            u_hat = e_full * u_hat
        else:
            s_hat = e_half * (u_hat + (dt / 2.0) * rhs(s, [t], u_hat))
            u_hat = e_full * u_hat + dt_e_half * rhs(s, [t + dt / 2.0], s_hat)
        u = irfft(u_hat, spec)
        peak = float(np.abs(u).max())
        if not peak <= ceiling:
            raise DivergenceError(f"solution diverged at t={t + dt:g}: sup {peak:.3g} above {ceiling:.3g}")
        failed = None if guard is None else guard([t + dt], u, u_hat)
        if failed is not None:
            raise failed[1]
        states.append(u[0])
    return np.stack(states)


def _spy_integrate(monkeypatch, module) -> list:
    """The arguments of every ``integrate`` call that ``module`` makes while the test runs, and its states."""
    calls, real = [], module.integrate

    def spy(*args):
        calls.append([args, None])
        calls[-1][1] = real(*args)
        return calls[-1][1]

    monkeypatch.setattr(module, "integrate", spy)
    return calls


@pytest.mark.parametrize("block_frames", [None, 5], ids=["default-blocks", "5-frame-blocks"])
@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)], ids=["d1", "d2", "d3"])
def test_stored_states_equal_a_per_tick_march(monkeypatch, d, n, block_frames):
    spec = GridSpec(d, n, 2 * np.pi)
    if block_frames is not None:  # 16 steps: blocks of 5, 5, 5 and 1 frames (a tick fills half a block)
        monkeypatch.setattr(fields, "BLOCK_SAMPLES", 2 * block_frames * spec.num_nodes)
    u0 = make_trig_field(spec, seed=3, kmax=2, amplitude=0.5)
    forcing = TrigForcing(spec, seed=5, kmax=2, amplitude=0.3)
    T, dt = 1 / 16, 1 / 256
    drift = forced_heat(u0, forcing, T, dt)
    solves = [
        (heat, lambda: forced_heat(u0, forcing, T, dt)),
        (transport, lambda: solve_transport(TransportProblem(u0=u0, b=drift, f=forcing, T=T, dt=dt))),
        (oracle, lambda: direct_solve(u0, forcing, T, dt)),
    ]
    if d < 3:
        phi0 = ScalarField(spec, 1.0 + 0.3 * np.cos(spec.mesh()[0]))
        potential = ScalarField(spec, 0.2 * np.sin(spec.mesh()[-1]))
        solves.append((oracle, lambda: cole_hopf(phi0, lambda t: ScalarField(spec, potential.values * (1.0 + t)), T, dt)))
    for module, solve in solves:
        calls = _spy_integrate(monkeypatch, module)
        solve()
        args, states = calls[-1]
        assert states.tobytes() == _march_reference(*args).tobytes()


def _diverging_transport():
    # Picard iterate 2 of a large 1-D datum diverges at frame 12: case (100, 6, 2, 12) of test_scheme's _DIVERGING
    spec = GridSpec(1, 16, 2 * np.pi)
    u0 = make_trig_field(spec, seed=6, kmax=3, amplitude=100)
    T, dt = 0.125, 1 / 256
    first = solve_transport(TransportProblem(u0=u0, b=forced_heat(u0, ZeroForcing(spec), T, dt), T=T, dt=dt))
    return transport, DivergenceError, lambda: solve_transport(TransportProblem(u0=u0, b=first, T=T, dt=dt))


def _blocking_transport():
    # a forcing in the top third of the spectrum fills it until the guard fires at frame 14
    spec = GridSpec(1, 16, 2 * np.pi)
    u0 = VectorField.from_arrays(spec, [np.sin(spec.axis_coords())])
    forcing = Forcing(VectorField.from_arrays(spec, [0.05 * np.cos(7 * spec.axis_coords())]))
    return transport, ResolutionError, lambda: solve_transport(TransportProblem(u0=u0, f=forcing, T=0.5, dt=1 / 256))


def _cole_hopf_losing_positivity():
    spec = GridSpec(1, 32, 2 * np.pi)
    x = spec.axis_coords()
    phi0, potential = ScalarField(spec, 1.0 + 0.9 * np.cos(x)), ScalarField(spec, 200.0 - 200.0 * np.cos(x))
    return oracle, OracleError, lambda: cole_hopf(phi0, potential, T=0.5, dt=1e-3)


@pytest.mark.parametrize("case", [_diverging_transport, _blocking_transport, _cole_hopf_losing_positivity])
def test_stored_solve_raises_the_per_tick_error(monkeypatch, case):
    module, error, solve = case()
    calls = _spy_integrate(monkeypatch, module)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # marching past the failing frame to the end of its block warns nothing
        with pytest.raises(error) as got:
            solve()
    with np.errstate(all="ignore"), pytest.raises(error) as want:
        _march_reference(*calls[-1][0])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("failing", [9, 12, 16], ids=["first-of-block", "middle", "last-of-block"])
@pytest.mark.parametrize("kind", ["guard", "divergence"])
def test_stored_failure_at_any_frame_of_a_block(monkeypatch, kind, failing):
    # 24 steps in blocks of 8 frames (a tick fills half a block): frames 9 to 16 form the second block
    spec, T, dt = GridSpec(1, 16, 2 * np.pi), 24 / 256, 1 / 256
    monkeypatch.setattr(fields, "BLOCK_SAMPLES", 2 * 8 * spec.num_nodes)
    u0 = make_trig_field(spec, seed=3, kmax=2, amplitude=0.5).values
    ticks = []

    def rhs(s, ts, u_hat):
        ticks.append(s)
        # a state past the double range at frame ``failing`` when diverging; nothing otherwise
        return u_hat * (1e308 if kind == "divergence" and s == failing - 1 else 0.0)

    def guard(ts, u, u_hat):
        late = [i for i, t in enumerate(ts) if kind == "guard" and round(t / dt) >= failing]
        return (late[0], ValueError(f"guard fails at t={ts[late[0]]:g}")) if late else None

    error = DivergenceError if kind == "divergence" else ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as got:
            integrate(u0, spec, T, dt, rhs, guard)
    assert failing - 1 <= max(ticks) < 16  # marched to the failing frame, and no further than its block
    with np.errstate(all="ignore"), pytest.raises(error) as want:
        _march_reference(u0, spec, T, dt, rhs, guard)
    assert str(got.value) == str(want.value) and f"t={failing * dt:g}" in str(got.value)


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16)], ids=["d1", "d2"])
def test_one_lane_emit_collects_the_stored_states(monkeypatch, d, n):
    # the stored path is the one-lane march whose emit files each tick's block; 21 steps in ticks of 10 make
    # ticks of 10, 10 and 1 steps, the last tick's rows past its step repeating its state
    spec = GridSpec(d, n, 2 * np.pi)
    monkeypatch.setattr(fields, "BLOCK_SAMPLES", 2 * 10 * spec.num_nodes)
    u0 = make_trig_field(spec, seed=3, kmax=2, amplitude=0.5)
    forcing = TrigForcing(spec, seed=5, kmax=2, amplitude=0.3)
    T, dt = 21 / 256, 1 / 256
    b = fields.dealias_values(forced_heat(u0, forcing, T, dt).values[7], spec)[None]
    rhs = transport._transport_rhs(spec, forcing, lambda s, ts: b)
    assert fields.tick_steps(21, 1, spec) == 10
    stored = integrate(u0.values, spec, T, dt, rhs, transport._blocking_guard(spec))
    ticks = []

    def emit(s, lo, u, failed):
        assert (lo, failed, len(u)) == (0, None, 10)
        ticks.append(s)
        blocks.append(u.copy())
        return 1

    blocks = [u0.values[None]]
    assert integrate(u0.values, spec, T, dt, rhs, transport._blocking_guard(spec), 1, emit) is None
    assert ticks == [0, 1, 2]
    assert np.concatenate(blocks)[:22].tobytes() == stored.tobytes()
    assert np.array_equal(blocks[-1][1:], np.repeat(blocks[-1][:1], 9, axis=0))
