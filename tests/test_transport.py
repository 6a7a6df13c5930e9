import numpy as np
import pytest

from vburgers.errors import DivergenceError, ResolutionError
from vburgers.fields import (
    GridSpec,
    ScalarField,
    Trajectory,
    VectorField,
    dealias_values,
    gradient_arrays,
    irfft,
    make_trig_field,
    rfft,
)
from vburgers.forcing import ConstantForcing, TrigForcing
from vburgers.heat import duhamel_forced_heat, heat_apply, heat_multiplier, n_steps
from vburgers.norms import sup_norm
from vburgers.oracle import COLE_HOPF_LAMBDA, cole_hopf, direct_solve
from vburgers.transport import (
    TransportProblem,
    amplification_factors,
    max_principle_slack,
    mp_tolerance,
    solve_transport,
)

TWO_PI = 2 * np.pi


def test_zero_drift_reduces_to_heat(grid1d, random_field):
    p = TransportProblem(u0=random_field, b=None, C=None, f=None, T=0.5, dt=1e-3)
    traj = solve_transport(p)
    expect = heat_apply(random_field, 0.5)
    err = np.abs(traj.frame(len(traj) - 1).as_array() - expect.as_array()).max()
    assert err < 1e-12  # diffusion handled exactly by the integrating factor


def test_constant_drift_is_translation():
    # (d/dt - Lap + b0 d/dx) u = 0 with u0 = sin: u = e^{-t} sin(x - b0 t)
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    u0 = VectorField.from_arrays(g, [np.sin(x)])
    b0 = 0.8
    T, dt = 0.5, 1e-3
    p = TransportProblem(u0=u0, b=VectorField.constant(g, [b0]), C=None, f=None, T=T, dt=dt)
    traj = solve_transport(p)
    expect = np.exp(-T) * np.sin(x - b0 * T)
    err = np.abs(traj.frame(len(traj) - 1).components[0].values - expect).max()
    assert err < 5e-6


def test_stepper_second_order(grid1d, random_field):
    b = make_trig_field(grid1d, seed=2, kmax=3, amplitude=0.5)
    errs = []
    ref = solve_transport(TransportProblem(u0=random_field, b=b, C=None, f=None, T=0.25, dt=1 / 4096))
    ref_final = ref.frame(len(ref) - 1).as_array()
    for dt in (1 / 256, 1 / 512):
        traj = solve_transport(TransportProblem(u0=random_field, b=b, C=None, f=None, T=0.25, dt=dt))
        errs.append(np.abs(traj.frame(len(traj) - 1).as_array() - ref_final).max())
    assert errs[1] < errs[0] / 3.2  # ~4x halving dt


def test_matrix_term_exponential_decay(grid1d):
    # constant diagonal C = lam I on the mean mode: u(t) = e^{-lam t} u0
    lam = 0.9
    u0 = VectorField.constant(grid1d, [1.0])
    p = TransportProblem(u0=u0, b=None, C=lam * np.eye(1), f=None, T=1.0, dt=1e-3)
    traj = solve_transport(p)
    final = traj.frame(len(traj) - 1).components[0].values
    assert np.allclose(final, np.exp(-lam), atol=1e-7)


def test_dt_must_divide_horizon(grid1d, random_field):
    with pytest.raises(ValueError):
        TransportProblem(u0=random_field, b=None, C=None, f=None, T=1.0, dt=0.3)


def test_divergence_detected():
    # strong anti-damping blows past the guard
    g = GridSpec(1, 32, TWO_PI)
    u0 = VectorField.constant(g, [1.0])
    p = TransportProblem(u0=u0, b=None, C=-80.0 * np.eye(1), f=None, T=2.0, dt=1e-2)
    with pytest.raises(DivergenceError):
        solve_transport(p)


def test_blocking_gate_raises():
    # all the energy of sin(15x) sits above the two-thirds cut n/3 on n = 32
    g = GridSpec(1, 32, TWO_PI)
    u0 = VectorField.from_arrays(g, [np.sin(15 * g.axis_coords())])
    with pytest.raises(ResolutionError):
        solve_transport(TransportProblem(u0=u0, b=None, C=None, f=None, T=0.01, dt=1e-3))


def test_max_principle_slack_no_lower_order(grid1d, random_field):
    p = TransportProblem(u0=random_field, b=random_field, C=None, f=None, T=0.25, dt=1e-3)
    traj = solve_transport(p)
    slack = max_principle_slack(traj, p)
    assert slack.min() >= -mp_tolerance(p, sup_norm(random_field))


def test_max_principle_slack_with_forcing(grid1d, random_field):
    f = TrigForcing(grid1d, seed=4, kmax=2, amplitude=0.3)
    p = TransportProblem(u0=random_field, b=random_field, C=None, f=f, T=0.25, dt=1e-3)
    traj = solve_transport(p)
    slack = max_principle_slack(traj, p)
    assert slack.min() >= -mp_tolerance(p, sup_norm(random_field) + 0.3)


def test_amplification_factors_constant_matrix(grid1d, random_field):
    lam = 0.7
    p = TransportProblem(u0=random_field, b=None, C=lam * np.eye(1), f=None, T=1.0, dt=1e-2)
    times = np.linspace(0, 1, 11)
    amp = amplification_factors(p, times)
    assert np.allclose(amp, np.exp(lam * times), rtol=1e-10)


def test_time_varying_drift_accepts_trajectory(grid1d, random_field):
    frames = tuple(heat_apply(random_field, 0.05 * k) for k in range(6))
    drift = Trajectory(grid1d, 0.0, 0.05, frames)
    p = TransportProblem(u0=random_field, b=drift, C=None, f=None, T=0.25, dt=1 / 512)
    traj = solve_transport(p)
    assert len(traj) == 129
    assert np.isfinite(traj.frame(128).as_array()).all()


def test_forced_solution_reproduces_manufactured():
    # pick u = e^{-t} sin x and drift b = 1; f = du/dt - Lap u + b du/dx
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    u0 = VectorField.from_arrays(g, [np.sin(x)])

    class Manufactured(ConstantForcing):
        def __init__(self, grid):
            self.grid = grid

        def at(self, t):
            return VectorField.from_arrays(self.grid, [np.exp(-t) * np.cos(x)])

        def dt_at(self, t, eps=1e-6):
            return VectorField.from_arrays(self.grid, [-np.exp(-t) * np.cos(x)])

    T, dt = 0.5, 1e-3
    p = TransportProblem(u0=u0, b=VectorField.constant(g, [1.0]), C=None, f=Manufactured(g), T=T, dt=dt)
    traj = solve_transport(p)
    expect = np.exp(-T) * np.sin(x)
    err = np.abs(traj.frame(len(traj) - 1).components[0].values - expect).max()
    assert err < 1e-6


# ---------------------------------------------------------------------------
# the spectral-state integrator against the physical-space midpoint step


def _physical_midpoint(u0, spec, T, dt, rhs):
    """Reference integrating-factor midpoint step with a physical right-hand side rhs(t, u).

    Each stage leaves Fourier space: u* = irfft(E_half (u_hat + dt/2 rfft(rhs(t, u)))),
    then u_hat <- E u_hat + dt E_half rfft(rhs(t + dt/2, u*)).
    """
    e_full, e_half = heat_multiplier(spec, dt), heat_multiplier(spec, dt / 2.0)
    out = [u0]
    u_hat = rfft(u0, spec)
    for k in range(n_steps(T, dt)):
        t = k * dt
        u_star = irfft(e_half * (u_hat + (dt / 2.0) * rfft(rhs(t, out[-1]), spec)), spec)
        u_hat = e_full * u_hat + dt * e_half * rfft(rhs(t + dt / 2.0, u_star), spec)
        out.append(irfft(u_hat, spec))
    return np.stack(out)


def _physical_advect(b, u, spec):
    """Dealiased (b . grad) u from physical arrays: both factors and the product by round trips."""
    grad = gradient_arrays(dealias_values(u, spec), spec)
    return dealias_values(np.einsum("i...,ci...->c...", b, grad), spec)


def _assert_rel_close(values, ref, rtol=1e-12):
    assert values.shape == ref.shape
    assert np.abs(values - ref).max() <= rtol * np.abs(ref).max()


_REF_GRIDS = [GridSpec(1, 32, TWO_PI), GridSpec(2, 16, TWO_PI), GridSpec(3, 16, TWO_PI)]
_REF_T, _REF_DT = 1 / 16, 1 / 256


def _ref_datum(spec):
    """Band-limited data plus a faint mode above the two-thirds cut (below the blocking gate),
    so that every dealiasing mask of the right-hand side shows in the solution."""
    high = 1e-4 * np.cos((spec.n // 3 + 1) * spec.mesh()[0])
    return VectorField.from_arrays(spec, make_trig_field(spec, seed=3, kmax=2, amplitude=0.5).as_array() + high)


@pytest.mark.parametrize("matrix", ["constant", "field"])
@pytest.mark.parametrize("spec", _REF_GRIDS, ids=lambda s: f"d{s.d}")
def test_solve_transport_matches_physical_midpoint(spec, matrix):
    d = spec.d
    u0 = _ref_datum(spec)
    frames = make_trig_field(spec, seed=4, kmax=2, amplitude=0.4).as_array()
    # a drift that changes between its frames, so the midpoint stages interpolate
    drift = Trajectory(spec, 0.0, 2 * _REF_DT, np.stack([frames * (1.0 + 0.5 * k) for k in range(9)]))
    f = TrigForcing(spec, seed=5, kmax=2, amplitude=0.3, omega=2.0)
    base = np.eye(d) * 0.4 + np.triu(np.full((d, d), 0.1))
    if matrix == "constant":
        C = lambda t: base * np.cos(3.0 * t)  # noqa: E731
    else:
        x0 = spec.mesh()[0]
        C = base[(...,) + (None,) * d] * (1.0 + 0.2 * np.cos(x0))
    traj = solve_transport(TransportProblem(u0=u0, b=drift, C=C, f=f, T=_REF_T, dt=_REF_DT))

    b = dealias_values(drift.values, spec)

    def rhs(t, u):
        k, w = drift.locate(t)
        bt = b[k] if w == 0.0 else b[k] * (1.0 - w) + b[k + 1] * w
        m = C(t) if callable(C) else C
        cu = np.tensordot(m, u, axes=(1, 0)) if m.ndim == 2 else np.einsum("ij...,j...->i...", m, u)
        return f.at(t).as_array() - _physical_advect(bt, u, spec) - cu

    _assert_rel_close(traj.values, _physical_midpoint(u0.as_array(), spec, _REF_T, _REF_DT, rhs))


@pytest.mark.parametrize("spec", _REF_GRIDS, ids=lambda s: f"d{s.d}")
def test_direct_solve_matches_physical_midpoint(spec):
    u0 = _ref_datum(spec)
    f = TrigForcing(spec, seed=5, kmax=2, amplitude=0.3, omega=2.0)
    traj = direct_solve(u0, f, _REF_T, _REF_DT)

    def rhs(t, u):
        return f.at(t).as_array() - _physical_advect(dealias_values(u, spec), u, spec)

    _assert_rel_close(traj.values, _physical_midpoint(u0.as_array(), spec, _REF_T, _REF_DT, rhs))


@pytest.mark.parametrize("spec", _REF_GRIDS, ids=lambda s: f"d{s.d}")
def test_duhamel_forced_heat_matches_physical_midpoint(spec):
    u0 = _ref_datum(spec)
    f = TrigForcing(spec, seed=5, kmax=2, amplitude=0.3, omega=2.0)
    traj = duhamel_forced_heat(u0, f, _REF_T, _REF_DT)
    ref = _physical_midpoint(u0.as_array(), spec, _REF_T, _REF_DT, lambda t, u: f.at(t).as_array())
    _assert_rel_close(traj.values, ref)


@pytest.mark.parametrize("spec", _REF_GRIDS, ids=lambda s: f"d{s.d}")
def test_forced_cole_hopf_matches_physical_midpoint(spec):
    x0 = spec.mesh()[0]
    phi0 = ScalarField(spec, 1.0 + 0.5 * np.cos(x0))
    pot = 0.3 * np.sin(spec.mesh()[-1])

    def f(t):
        return ScalarField(spec, pot * np.cos(2.0 * t))

    traj = cole_hopf(phi0, f, _REF_T, _REF_DT)
    phis = _physical_midpoint(phi0.values[None], spec, _REF_T, _REF_DT, lambda t, phi: f(t).values * phi)
    _assert_rel_close(traj.values, COLE_HOPF_LAMBDA * gradient_arrays(np.log(phis[:, 0]), spec))


@pytest.mark.parametrize("spec", _REF_GRIDS, ids=lambda s: f"d{s.d}")
def test_transport_step_transform_count(spec, monkeypatch):
    # a step transforms each drift axis and the product at both stages, and the new state once
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    # fields.rfft / fields.irfft look these up on every call
    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    u0 = make_trig_field(spec, seed=3, kmax=2, amplitude=0.5)
    b = make_trig_field(spec, seed=4, kmax=2, amplitude=0.4)
    steps = 16
    solve_transport(TransportProblem(u0=u0, b=b, C=None, f=None, T=steps * _REF_DT, dt=_REF_DT))
    assert len(calls) <= (2 * spec.d + 3) * steps + 4
