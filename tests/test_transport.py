import numpy as np
import pytest

from vburgers.errors import DivergenceError, ResolutionError
from vburgers.fields import GridSpec, Trajectory, VectorField, make_trig_field
from vburgers.forcing import ConstantForcing, TrigForcing
from vburgers.heat import heat_apply
from vburgers.norms import sup_norm
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
