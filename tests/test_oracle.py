import numpy as np
import pytest

from vburgers import oracle
from vburgers.errors import OracleError, ResolutionError
from vburgers.fields import GridSpec, ScalarField, Trajectory, VectorField, gradient, make_trig_field
from vburgers.forcing import GradientForcing
from vburgers.norms import sup_norm
from vburgers.oracle import COLE_HOPF_LAMBDA, cole_hopf, direct_solve, residual

TWO_PI = 2 * np.pi


def _phi0(grid, eps=0.5):
    x = grid.axis_coords()
    return ScalarField(grid, 1.0 + eps * np.cos(x))


def test_cole_hopf_residual_small():
    g = GridSpec(1, 128, TWO_PI)
    traj = cole_hopf(_phi0(g), None, T=0.5, dt=1e-3)
    r = residual(traj, None)
    assert r.max < 1e-5


def _best_lambda(phi0, T, dt, candidates=(-2.0, -1.0, 1.0, 2.0)):
    """The residual-minimizing transform constant over candidate values, and every score.

    u = lam grad log phi, so a candidate's frames are ``cole_hopf``'s scaled by lam / COLE_HOPF_LAMBDA.
    """
    u = cole_hopf(phi0, None, T, dt)
    scores = {
        lam: residual(Trajectory(u.grid, u.t0, u.dt, u.values * (lam / COLE_HOPF_LAMBDA))).max for lam in candidates
    }
    return min(scores, key=scores.get), scores


def test_cole_hopf_lambda_convention():
    # only the implemented sign/magnitude produces a Burgers solution
    g = GridSpec(1, 128, TWO_PI)
    lam, scores = _best_lambda(_phi0(g), T=0.25, dt=1e-3)
    assert lam == COLE_HOPF_LAMBDA
    others = [v for k, v in scores.items() if k != lam]
    assert scores[lam] * 100 < min(others)


def test_cole_hopf_rejects_nonpositive_potential():
    g = GridSpec(1, 64, TWO_PI)
    x = g.axis_coords()
    bad = ScalarField(g, 0.5 + np.cos(x))  # touches zero and below
    with pytest.raises(OracleError):
        cole_hopf(bad, None, T=0.1, dt=1e-3)


def test_cole_hopf_forced_variant():
    # potential forcing f phi moves through the transform as g = lam grad f
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    fpot = ScalarField(g, 0.2 * np.cos(2 * x))

    def f_field(t):
        return fpot

    traj = cole_hopf(_phi0(g), f_field, T=0.25, dt=5e-4)
    forcing = GradientForcing(ScalarField(g, fpot.values * COLE_HOPF_LAMBDA))
    r = residual(traj, forcing)
    assert r.max < 1e-4


def test_direct_solve_matches_cole_hopf():
    g = GridSpec(1, 128, TWO_PI)
    phi0 = _phi0(g)
    exact = cole_hopf(phi0, None, T=0.5, dt=1e-3)
    u0 = gradient(ScalarField(g, np.log(phi0.values))) * COLE_HOPF_LAMBDA
    num = direct_solve(u0, None, T=0.5, dt=1e-3)
    diff = max(sup_norm(a - b) for a, b in zip(num.frames, exact.frames))
    assert diff < 1e-6


def test_direct_solve_zero_data_stays_zero():
    g = GridSpec(1, 64, TWO_PI)
    traj = direct_solve(VectorField.zero(g), None, T=0.5, dt=1e-2)
    assert max(sup_norm(f) for f in traj.frames) == 0.0


def test_direct_solve_blocking_gate_raises():
    g = GridSpec(1, 32, TWO_PI)
    u0 = VectorField.from_arrays(g, [np.sin(15 * g.axis_coords())])
    with pytest.raises(ResolutionError):
        direct_solve(u0, None, T=0.01, dt=1e-3)


def test_residual_detects_wrong_solution(grid1d, random_field):
    # a frozen (time-constant) trajectory does not solve the equation
    from vburgers.fields import Trajectory

    frames = tuple(random_field for _ in range(11))
    traj = Trajectory(grid1d, 0.0, 1e-2, frames)
    r = residual(traj, None)
    assert r.max > 1e-2


def test_residual_refines_with_dt():
    g = GridSpec(1, 128, TWO_PI)
    u0 = make_trig_field(g, seed=6, kmax=3, amplitude=0.3)
    r1 = residual(direct_solve(u0, None, T=0.25, dt=2e-3), None).max
    r2 = residual(direct_solve(u0, None, T=0.25, dt=1e-3), None).max
    assert r2 < r1 / 3.0


def test_cole_hopf_positivity_guard_names_the_first_failing_lane(monkeypatch):
    # heat.integrate's guard contract: (i, error) for the first failing state i, at that state's time
    guards, real = [], oracle.integrate

    def spy(u0, spec, T, dt, rhs, guard, *args):
        guards.append(guard)
        return real(u0, spec, T, dt, rhs, guard, *args)

    monkeypatch.setattr(oracle, "integrate", spy)
    g = GridSpec(1, 32, TWO_PI)
    cole_hopf(_phi0(g), None, T=0.01, dt=1e-3)
    positive = guards[0]
    phi = np.ones((5, 1) + g.shape)
    assert positive([0.1, 0.2, 0.3, 0.4, 0.5], phi, None) is None
    phi[2, 0, 7] = -1e-3
    phi[4, 0, 1] = 0.0
    lane, err = positive([0.1, 0.2, 0.3, 0.4, 0.5], phi, None)
    assert lane == 2 and isinstance(err, OracleError) and str(err) == "phi lost positivity at t=0.3"
