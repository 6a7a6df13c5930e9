import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vburgers.cli import main
from vburgers.errors import OracleError, WindowError
from vburgers.fields import GridSpec, ScalarField, Trajectory, VectorField, make_trig_field
from vburgers.forcing import ConstantForcing, TrigForcing, ZeroForcing
from vburgers.heat import heat_apply_values
from vburgers.norms import KProfile, compute_k_constants
from vburgers.scheme import SchemeConfig, run_picard
from vburgers.transport import TransportProblem
from vburgers.verify import (
    C_STAR_TOL,
    ROUNDING_FLOOR,
    SCHAUDER_FORMS,
    BoundReport,
    ParabolicBall,
    check_gronwall,
    check_schauder_instance,
    check_short_time,
    check_uniform,
    fit_c_star,
    parabolic_rescale,
)

TWO_PI = 2 * np.pi


def heat_trajectory(grid, profile, rate, T=1.0, dt=1e-3):
    nt = int(round(T / dt)) + 1
    frames = tuple(VectorField.from_arrays(grid, [np.exp(-rate * k * dt) * profile]) for k in range(nt))
    return Trajectory(grid, 0.0, dt, frames)


@pytest.fixture(scope="module")
def picard_run():
    g = GridSpec(1, 64, TWO_PI)
    u0 = make_trig_field(g, seed=3, kmax=3, amplitude=0.3)
    cfg = SchemeConfig(grid=g, T=0.25, dt=1 / 256, m_max=8, tol_fp=1e-12, alpha=0.5)
    recs, fp, conv = run_picard(cfg, u0, record_holder=True)
    return g, u0, recs, fp, KProfile(u0, ZeroForcing(g), alpha=0.5)


def test_fit_c_star_behaviour():
    # rows need c >= ((lhs - tol) / rhs1)^{1/p}, tol relative to the largest LHS: the minimal c is the largest
    lhs = np.array([2.0, 3.0])
    tol = 3.0 * C_STAR_TOL
    assert fit_c_star(lhs, 0.0, 1.0) == pytest.approx(3.0 - tol, rel=1e-15)
    assert fit_c_star(lhs, np.log([1.0, 4.0]), [1.0, 2.0]) == pytest.approx(2.0 - tol, rel=1e-15)
    assert fit_c_star(1e-6 * lhs, np.log(1e-6), 1.0) == pytest.approx(3.0 - tol, rel=1e-15)  # units drop out
    assert fit_c_star(np.zeros(3), 0.0, 1.0) == 0.0  # a zero LHS imposes nothing
    assert fit_c_star(lhs, 0.0, 0.0) == math.inf  # a c-independent bound that fails
    assert fit_c_star(np.array([0.5]), 0.0, 0.0) == 0.0  # a c-independent bound that holds
    assert fit_c_star(np.array([1.0 + 1e-13]), 0.0, 0.0) == 0.0  # ... within the slack
    assert fit_c_star(np.array([1.0 + 1e-10]), 0.0, 0.0) == math.inf  # ... beyond it
    assert fit_c_star(lhs, -math.inf, 2.0) == math.inf  # a zero RHS under a nonzero LHS


@given(
    st.lists(
        st.tuples(
            st.just(0.0) | st.floats(1e-3, 1e3),
            st.floats(1e-6, 1e6),
            st.just(0.0) | st.floats(0.5, 30.0),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=300, deadline=None)
def test_fit_c_star_is_the_smallest_admissible_c(rows):
    lhs, rhs1, p = map(np.array, zip(*rows))
    tol = C_STAR_TOL * lhs.max()

    def holds(c):
        with np.errstate(over="ignore"):  # a large c on another row's high power
            return bool(np.all(lhs <= rhs1 * c**p + tol))

    c = fit_c_star(lhs, np.log(rhs1), p)
    if c == math.inf:
        assert np.any((p == 0) & (lhs > rhs1 + tol))
    elif c == 0:
        assert holds(0.0)
    else:
        assert holds(c * (1 + 1e-9)) and not holds(c * (1 - 1e-9))


def test_bound_report_serialization():
    rep = BoundReport(
        name="demo", params={"c": 1.0}, times=np.array([0.0, 1.0]),
        lhs=np.array([0.5, 0.7]), rhs=np.array([1.0, 1.0]),
        c_star=1.0, verdict="pass", worst_t=1.0, worst_ratio=0.7,
    )
    d = json.loads(rep.to_json())
    assert set(d) == {"name", "params", "lhs", "rhs", "c_star", "verdict", "worst_t", "worst_ratio"}
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "t,slack"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5)


def test_check_uniform_passes_on_picard_run(picard_run):
    g, u0, recs, fp, kfn = picard_run
    reports = check_uniform(recs, kfn, c=1.0, alpha=0.5)
    assert set(reports) == {"sup", "grad", "second", "holder"}
    for rep in reports.values():
        assert rep.passed
        assert math.isfinite(rep.c_star)


def test_check_uniform_zero_run(grid1d):
    cfg = SchemeConfig(grid=grid1d, T=0.25, dt=1 / 64, m_max=2, tol_fp=1e-12)
    recs, fp, conv = run_picard(cfg, VectorField.zero(grid1d), record_holder=True)

    def kfn(t):
        return compute_k_constants(VectorField.zero(grid1d), ZeroForcing(grid1d), t)

    for rep in check_uniform(recs, kfn).values():
        assert rep.passed
        assert rep.c_star == 1.0


def test_check_uniform_needs_recorded_seminorms(picard_run):
    # records made without record_holder carry no seminorms, and the Hoelder bound cannot pass on them
    g, u0, _, _, kfn = picard_run
    cfg = SchemeConfig(grid=g, T=0.25, dt=1 / 256, m_max=8, tol_fp=1e-12, alpha=0.5)
    recs, _, _ = run_picard(cfg, u0)
    assert {(r.holder_hess, r.holder_dt) for r in recs} == {(None, None)}
    with pytest.raises(ValueError, match="record_holder=True"):
        check_uniform(recs, kfn)


def test_heat_iterate_gradient_bound(picard_run):
    # the zeroth iterate obeys the gradient bound by K1 with near-zero slack
    g, u0, recs, fp, kfn = picard_run
    k1 = kfn(0.0).K1
    slack = k1 - recs[0].sup_grad_u
    assert slack.min() >= -1e-8


def test_check_short_time(picard_run):
    g, u0, recs, fp, kfn = picard_run
    reports = check_short_time(recs, kfn, c=1.0, beta=0.25)
    assert reports["sup"].passed and reports["grad"].passed
    assert reports["sup"].params["fitted_exponent"] >= 0.85
    assert reports["grad"].params["fitted_exponent"] >= 0.25 * 0.85


def test_short_time_exponents_ignore_rounding_floor(picard_run):
    # update norms at the rounding floor carry no rate: nudging them must not move the fits
    g, u0, recs, fp, kfn = picard_run
    floor_v = ROUNDING_FLOOR * max(r.sup_u.max() for r in recs)
    floor_g = ROUNDING_FLOOR * max(r.sup_grad_u.max() for r in recs)

    def nudge(a, floor):
        return np.where(a + 1e-16 <= floor, a + 1e-16, a)

    nudged = [dataclasses.replace(r, sup_v=nudge(r.sup_v, floor_v), sup_grad_v=nudge(r.sup_grad_v, floor_g)) for r in recs]
    assert sum(int((r.sup_v + 1e-16 <= floor_v).sum()) for r in recs[1:]) > 10
    before = check_short_time(recs, kfn, beta=0.25)
    after = check_short_time(nudged, kfn, beta=0.25)
    for key in ("sup", "grad"):
        assert after[key].params["fitted_exponent"] == before[key].params["fitted_exponent"]
        assert not np.array_equal(after[key].lhs, before[key].lhs)


def test_check_short_time_rejects_bad_beta(picard_run):
    g, u0, recs, fp, kfn = picard_run
    with pytest.raises(ValueError):
        check_short_time(recs, kfn, beta=0.5)


def test_check_gronwall_identical_problems(grid1d, random_field):
    p = TransportProblem(u0=random_field, b=random_field, C=None, f=None, T=0.25, dt=1 / 256)
    rep = check_gronwall(p, p)
    assert rep.passed
    assert rep.lhs.max() == 0.0


def test_check_gronwall_requires_same_data(grid1d, random_field):
    other = make_trig_field(grid1d, seed=99, kmax=3, amplitude=0.3)
    p = TransportProblem(u0=random_field, b=None, C=None, f=None, T=0.25, dt=1 / 256)
    q = TransportProblem(u0=other, b=None, C=None, f=None, T=0.25, dt=1 / 256)
    with pytest.raises(ValueError):
        check_gronwall(p, q)


def test_check_gronwall_small_perturbation_ratio(grid1d, sin_field):
    # constant drift difference on a solved profile: LHS/RHS -> 1 as eps -> 0
    ratios = []
    for eps in (0.2, 0.05):
        p = TransportProblem(u0=sin_field, b=VectorField.constant(grid1d, [0.0]), C=None, f=None, T=0.25, dt=1 / 512)
        pb = TransportProblem(u0=sin_field, b=VectorField.constant(grid1d, [eps]), C=None, f=None, T=0.25, dt=1 / 512)
        rep = check_gronwall(p, pb)
        assert rep.passed
        ratios.append(rep.worst_ratio)
    assert ratios[-1] > 0.5  # the bound is tight in this regime
    assert all(r <= 1.0 + 1e-6 for r in ratios)


def test_check_gronwall_exponential_amplification(grid1d):
    # c_bar = lam I, f_bar - f = const: RHS integral has closed form
    lam, fdiff, T = 0.8, 0.3, 0.5
    u0 = VectorField.zero(grid1d)
    p = TransportProblem(u0=u0, b=None, C=lam * np.eye(1), f=None, T=T, dt=1 / 512)
    pb = TransportProblem(
        u0=u0, b=None, C=lam * np.eye(1),
        f=ConstantForcing(VectorField.constant(grid1d, [fdiff])), T=T, dt=1 / 512,
    )
    rep = check_gronwall(p, pb)
    expect = fdiff / lam * (np.exp(lam * rep.times) - 1.0)
    assert np.allclose(rep.rhs, expect, atol=1e-6)
    assert rep.passed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_check_gronwall_matrix_field_against_none_or_constant(d):
    # a constant C_bar against C = None or the zero matrix: None counts as zero, the same report bit for bit
    g = GridSpec(d, 16, TWO_PI)
    T, dt = 0.125, 1 / 256
    u0 = make_trig_field(g, seed=1, kmax=2, amplitude=0.3)
    c_bar = 0.1 * np.eye(d) + np.triu(np.full((d, d), 0.05))
    p_bar = TransportProblem(u0=u0, b=u0, C=c_bar, T=T, dt=dt)
    none = check_gronwall(TransportProblem(u0=u0, b=None, T=T, dt=dt), p_bar)
    zeros = check_gronwall(TransportProblem(u0=u0, b=None, C=np.zeros((d, d)), T=T, dt=dt), p_bar)
    assert none.passed and none.rhs.tobytes() == zeros.rhs.tobytes() and none.lhs.tobytes() == zeros.lhs.tobytes()
    assert none.rhs[-1] > 0


def test_parabolic_ball_validation(grid1d, random_field):
    traj = heat_trajectory(grid1d, random_field.components[0].values, 1.0, T=0.5)
    with pytest.raises(WindowError):
        ParabolicBall(0.5, (0.0,), 0, 2.0).validate_against(traj)  # starts at -0.5
    with pytest.raises(WindowError):
        ParabolicBall(0.4, (0.0,), 6, 2.0).validate_against(traj)  # radius 8 > L/2
    with pytest.raises(ValueError):
        ParabolicBall(0.4, (0.0,), 0, 1.0)


def test_schauder_constant_solution(grid1d):
    traj = heat_trajectory(grid1d, np.ones(grid1d.n), 0.0, T=1.0, dt=1e-2)
    ball = ParabolicBall(1.0, (0.0,), -1, 2.0)
    rep = check_schauder_instance(traj, None, ball, 0.5, "grad_sup")
    assert rep.lhs[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.c_star == pytest.approx(0.0, abs=1e-8)


def test_schauder_rejects_non_solution(grid1d, random_field):
    frames = tuple(random_field for _ in range(101))
    traj = Trajectory(grid1d, 0.0, 1e-2, frames)  # frozen field, not a heat solution
    ball = ParabolicBall(1.0, (0.0,), -1, 2.0)
    with pytest.raises(OracleError):
        check_schauder_instance(traj, None, ball, 0.5, "grad_sup")


def test_schauder_scale_stability_heat():
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    traj = heat_trajectory(g, np.sin(x), 1.0)
    consts = []
    for j in range(0, -5, -1):
        rep = check_schauder_instance(traj, None, ParabolicBall(1.0, (0.0,), j, 2.0), 0.5, "grad_sup")
        consts.append(rep.c_star)
    assert max(consts) / min(consts) < 2.0


@pytest.mark.parametrize("which", SCHAUDER_FORMS)
def test_schauder_forms_scale_stable(which):
    # u = 1 - e^{-(t-1)} cos x is about (t - 1) + x^2/2 at the ball's centre: every form's implied constant
    # holds within x2 over j = 0..-4 (measured x1.128, x1.128 and x1.042)
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    dt = 1e-3
    traj = Trajectory(g, 0.0, dt, np.stack([[1.0 - np.exp(1.0 - k * dt) * np.cos(x)] for k in range(1001)]))
    consts = [check_schauder_instance(traj, None, ParabolicBall(1.0, (0.0,), j, 2.0), 0.5, which).c_star
              for j in range(0, -5, -1)]
    assert min(consts) > 0 and max(consts) / min(consts) < 2.0


def test_schauder_drift_penalty_monotone():
    # u = e^{-t} sin(x + b0 t) solves (d/dt - Lap) u = b0 du/dx;
    # with R_b in the bound, the implied constant must not grow with b0
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    dt = 2.5e-4
    nt = int(round(1.0 / dt)) + 1
    consts = []
    for b0 in (0.0, 2.0, 8.0, 32.0):
        frames = tuple(VectorField.from_arrays(g, [np.exp(-k * dt) * np.sin(x + b0 * k * dt)]) for k in range(nt))
        traj = Trajectory(g, 0.0, dt, frames)
        ball = ParabolicBall(1.0, (0.0,), -2, 2.0)
        rep = check_schauder_instance(traj, np.array([b0]), ball, 0.5, "grad_sup", residual_tol=2e-2 * (1 + b0**2))
        consts.append(rep.c_star)
    assert all(b <= a * 1.05 for a, b in zip(consts, consts[1:]))


def test_schauder_rescale_invariance():
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    traj = heat_trajectory(g, np.sin(x), 1.0)
    ball = ParabolicBall(1.0, (0.0,), -2, 2.0)
    for which in SCHAUDER_FORMS:
        r0 = check_schauder_instance(traj, None, ball, 0.5, which)
        u2, b2, ball2 = parabolic_rescale(traj, None, -2, 2.0, ball)
        r1 = check_schauder_instance(u2, b2, ball2, 0.5, which, residual_tol=1e-3)
        assert r1.c_star == pytest.approx(r0.c_star, rel=1e-10)


def test_parabolic_rescale_identity_at_j_zero(grid1d, random_field):
    traj = heat_trajectory(grid1d, random_field.components[0].values, 1.0, T=0.5, dt=1e-2)
    u2, b2, _ = parabolic_rescale(traj, np.array([1.5]), 0, 2.0)
    assert u2.grid == traj.grid
    assert u2.dt == traj.dt
    assert np.array_equal(u2.frame(0).values, traj.frame(0).values)
    assert np.array_equal(b2, np.array([1.5]))


def test_parabolic_rescale_residual_covariance():
    # residual of the rescaled bundle = M^j * original residual, node for node
    from vburgers.fields import laplacian_arrays, time_derivative_frames

    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    traj = heat_trajectory(g, np.sin(2 * x), 4.0, T=0.5, dt=1e-3)
    j, M = -2, 2.0
    u2, _, _ = parabolic_rescale(traj, None, j, M)

    def heat_residual(tr):
        dts = time_derivative_frames(tr)
        out = []
        for k in range(1, len(tr) - 1):
            f = tr.frame(k)
            lap = np.stack([laplacian_arrays(c.values, tr.grid) for c in f.components])
            out.append(dts[k] - lap)
        return np.stack(out)

    r_orig = heat_residual(traj)
    r_resc = heat_residual(u2)
    assert np.allclose(r_resc, M**j * r_orig, atol=1e-12)
    assert np.abs(r_resc).max() <= 1e-8 + M**j * np.abs(r_orig).max()


def test_parabolic_rescale_coefficient_amplitudes():
    g = GridSpec(1, 64, TWO_PI)
    traj = heat_trajectory(g, np.ones(64), 0.0, T=0.5, dt=1e-2)
    j, M = -3, 2.0
    _, b2, _ = parabolic_rescale(traj, np.array([2.0]), j, M)
    assert np.allclose(b2, M ** (j / 2.0) * 2.0)
    assert parabolic_rescale(traj, None, j, M)[1] is None


# ---------------------------------------------------------------------------
# field objects only at the API edges


@pytest.fixture
def constructions(monkeypatch):
    """``measure(fn)``: ``fn()`` and the ScalarFields and VectorFields constructed while it runs."""
    counts = {ScalarField: 0, VectorField: 0}
    for cls in counts:

        def counted(self, cls=cls, post_init=cls.__post_init__):
            counts[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    def measure(fn):
        before = dict(counts)
        result = fn()
        return result, {cls.__name__: counts[cls] - before[cls] for cls in counts}

    return measure


def _heat_flow(u0: VectorField, n_steps: int, dt: float) -> Trajectory:
    return Trajectory(u0.grid, 0.0, dt, np.stack([heat_apply_values(u0.values, u0.grid, k * dt) for k in range(n_steps + 1)]))


@pytest.mark.parametrize("n_steps", [32, 64])
def test_check_gronwall_builds_no_field_per_frame(constructions, n_steps):
    g = GridSpec(1, 32, TWO_PI)
    T = 0.125
    dt = T / n_steps
    u0 = make_trig_field(g, seed=2, kmax=2, amplitude=0.3)
    drift = _heat_flow(u0, n_steps, dt)
    drift_bar = Trajectory(g, 0.0, dt, 1.1 * drift.values)
    p = TransportProblem(u0=u0, b=drift, T=T, dt=dt)
    p_bar = TransportProblem(u0=u0, b=drift_bar, C=0.1 * np.eye(1), f=TrigForcing(g, 1, 2, 0.05), T=T, dt=dt)
    _, counted = constructions(lambda: check_gronwall(p, p_bar))
    assert counted == {"ScalarField": 0, "VectorField": 0}


@pytest.mark.parametrize("n_steps", [128, 256])
def test_check_schauder_instance_builds_no_field_per_sample(constructions, grid2d, n_steps):
    dt = 0.25 / n_steps
    u0 = make_trig_field(grid2d, seed=4, kmax=1, amplitude=0.3)
    traj = _heat_flow(u0, n_steps, dt)
    ball = ParabolicBall(0.25, (0.0, 0.0), -2, 2.0)
    for which in SCHAUDER_FORMS:
        _, counted = constructions(lambda: check_schauder_instance(traj, None, ball, 0.5, which))
        assert counted == {"ScalarField": 0, "VectorField": 0}


def _cli_counts(measure, tmp_path, check: str, dt: float) -> dict:
    cfg = {
        "name": "counting",
        "grid": {"d": 1, "n": 16, "L": TWO_PI},
        "scheme": {"T": 0.25, "dt": dt},
        "data": {"kind": "trig", "seed": 5, "kmax": 1, "amplitude": 0.3},
        "checks": [check],
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, counted = measure(lambda: main(["run", str(path)]))
    assert rc in (0, 1)
    return counted


@pytest.mark.parametrize("check", ["schauder", "interpolation"])
def test_cli_runners_build_no_field_per_frame(constructions, tmp_path, check):
    coarse = _cli_counts(constructions, tmp_path, check, 1 / 256)
    fine = _cli_counts(constructions, tmp_path, check, 1 / 512)
    assert fine == coarse
    if check == "interpolation":
        # one VectorField per random field of the battery, plus the datum and the (zero) forcing's base
        n_fields = json.loads((tmp_path / "out" / "interpolation.json").read_text())["n_fields"]
        assert coarse == {"ScalarField": 0, "VectorField": n_fields + 2}
