import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import forced_heat

from vburgers import fields, scheme, transport
from vburgers.errors import DivergenceError, ResolutionError
from vburgers.fields import (
    GridSpec,
    VectorField,
    frame_blocks,
    gradient_arrays,
    hessian_arrays,
    make_trig_field,
    time_derivative_arrays,
)
from vburgers.forcing import TrigForcing, ZeroForcing
from vburgers.norms import (
    KProfile,
    compute_k_constants,
    frame_sups,
    grad_sup,
    hessian_sup,
    parabolic_seminorm_array,
    sup_norm,
)
from vburgers.oracle import COLE_HOPF_LAMBDA, direct_solve, residual
from vburgers.scheme import (
    IterationRecord,
    SchemeConfig,
    compute_t_init,
    records_to_csv,
    reference_scales,
    rescale_viscosity,
    run_picard,
    run_summary_json,
    series_majorant,
    unrescale,
)
from vburgers.transport import TransportProblem, solve_transport

TWO_PI = 2 * np.pi


def small_cfg(grid, **kw):
    base = dict(grid=grid, T=0.25, dt=1 / 256, m_max=8, tol_fp=1e-10, alpha=0.5, beta=0.25)
    base.update(kw)
    return SchemeConfig(**base)


def test_config_validation(grid1d):
    with pytest.raises(ValueError):
        small_cfg(grid1d, beta=0.5)
    with pytest.raises(ValueError):
        small_cfg(grid1d, beta=0.0)
    with pytest.raises(ValueError):
        small_cfg(grid1d, c=0.5)
    with pytest.raises(ValueError):
        small_cfg(grid1d, dt=0.3)  # does not divide T
    with pytest.raises(ValueError):
        small_cfg(grid1d, m_max=0)


def test_zero_data_converges_immediately(grid1d):
    recs, fp, conv = run_picard(small_cfg(grid1d), VectorField.zero(grid1d))
    assert conv
    assert recs[-1].m == 1
    assert max(sup_norm(f) for f in fp.frames) == 0.0


def test_constant_data_is_fixed_point(grid1d):
    u0 = VectorField.constant(grid1d, [0.7])
    recs, fp, conv = run_picard(small_cfg(grid1d), u0)
    assert conv
    for rec in recs[1:]:
        assert rec.sup_v.max() < 1e-12
    assert np.allclose(fp.frame(len(fp) - 1).values, 0.7, atol=1e-12)


def test_picard_converges_and_solves(grid1d):
    u0 = make_trig_field(grid1d, seed=3, kmax=3, amplitude=0.3)
    recs, fp, conv = run_picard(small_cfg(grid1d, m_max=12, dt=1 / 512), u0)
    assert conv
    assert residual(fp, None).max < 5e-4  # scales as dt^2; endpoint diff dominates


def test_fixed_point_property(grid1d):
    # one extra transport solve with the fixed point as drift reproduces it
    u0 = make_trig_field(grid1d, seed=3, kmax=3, amplitude=0.3)
    cfg = small_cfg(grid1d, tol_fp=1e-11, m_max=14)
    recs, fp, conv = run_picard(cfg, u0)
    assert conv
    p = TransportProblem(u0=u0, b=fp, C=None, f=None, T=cfg.T, dt=cfg.dt)
    again = solve_transport(p)
    diff = max(sup_norm(a - b) for a, b in zip(again.frames, fp.frames))
    assert diff < 10 * cfg.tol_fp


def test_update_telescoping(grid1d):
    # sum of the update sups dominates the iterate sup (triangle inequality),
    # and the recorded v^(0) equals u^(0)
    u0 = make_trig_field(grid1d, seed=3, kmax=3, amplitude=0.3)
    recs, fp, conv = run_picard(small_cfg(grid1d), u0)
    assert np.array_equal(recs[0].sup_v, recs[0].sup_u)
    total = sum(r.sup_v for r in recs)
    assert np.all(total >= recs[-1].sup_u - 1e-12)


def test_nonconvergence_reported_not_raised(grid1d):
    u0 = make_trig_field(grid1d, seed=3, kmax=3, amplitude=0.3)
    recs, fp, conv = run_picard(small_cfg(grid1d, m_max=2, tol_fp=1e-16), u0)
    assert not conv
    assert recs[-1].m == 2


def test_contraction_ratios_eventually_decrease(grid1d):
    u0 = make_trig_field(grid1d, seed=3, kmax=3, amplitude=0.3)
    cfg = small_cfg(grid1d, m_max=8, tol_fp=0.0)
    recs, fp, conv = run_picard(cfg, u0)
    sups = [r.sup_v.max() for r in recs]
    ratios = [sups[m] / sups[m - 1] for m in range(2, 9)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_dissipation_without_forcing(grid1d):
    u0 = make_trig_field(grid1d, seed=5, kmax=4, amplitude=0.4)
    recs, fp, conv = run_picard(small_cfg(grid1d), u0)
    # mean-free data decays on the torus; sup series nonincreasing after frame 0
    sup_series = np.array([sup_norm(f) for f in fp.frames])
    assert np.all(np.diff(sup_series) <= 1e-10)


def test_t_init_zero_data_is_infinite(grid1d):
    assert compute_t_init(VectorField.zero(grid1d), None) == math.inf


def test_t_init_closed_form_without_forcing(grid1d, sin_field):
    kc = compute_k_constants(sin_field, ZeroForcing(grid1d), t=0.0, c=1.0, alpha=0.5)
    t = compute_t_init(sin_field, None, c=1.0)
    assert t == pytest.approx(1.0 / kc.K, rel=1e-12)


def test_t_init_root_property_with_forcing(grid1d, sin_field):
    g = TrigForcing(grid1d, seed=2, kmax=2, amplitude=0.3)
    c = 1.0
    t = compute_t_init(sin_field, g, c=c)
    kc = compute_k_constants(sin_field, g, t, c=c, alpha=0.5)
    assert abs(t * c * kc.K - 1.0) < 1e-6  # root of a monotone map, bisected


def test_t_init_at_c_two_with_forcing():
    # kfn gives K at c = 1 and compute_t_init applies c; the value predates KProfile
    g = GridSpec(1, 64, TWO_PI)
    u0 = make_trig_field(g, seed=3, kmax=3, amplitude=0.3)
    forcing = TrigForcing(g, seed=11, kmax=2, amplitude=0.2)
    assert compute_t_init(u0, forcing, c=2.0) == 0.017955326449737186
    assert compute_t_init(u0, forcing, c=2.0, kfn=KProfile(u0, forcing)) == 0.017955326449737186


def test_series_majorant_holds():
    for gamma, ckt in [(1.0, 3.7), (0.25, 10.0), (1.0, 0.0)]:
        m0 = math.floor(ckt)
        bound, emp = series_majorant(m0, gamma, ckt, 1.0)
        assert emp <= bound
        assert bound == pytest.approx(math.exp(gamma) / (math.exp(gamma) - 1.0))
    with pytest.raises(ValueError):
        series_majorant(2, 1.0, 3.7, 1.0)  # m0 below floor(cK t)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_series_majorant_property(gamma, ck, t):
    m0 = math.floor(ck * t)
    bound, emp = series_majorant(m0, gamma, ck, t)
    assert emp <= bound * (1 + 1e-12)


def test_viscosity_roundtrip(grid1d, random_field):
    nu = 0.5
    u0t, gt = rescale_viscosity(random_field, None, nu)
    assert np.allclose(u0t.values, random_field.values / nu, atol=1e-15)
    cfg = small_cfg(grid1d)
    recs, fp, conv = run_picard(cfg, u0t, gt)
    phys, weights = unrescale(fp, nu)
    assert phys.dt == pytest.approx(cfg.dt / nu)
    assert weights["grad"] == pytest.approx(1.0 / nu)
    assert weights["hess"] == pytest.approx(1.0 / nu**2)
    back = np.stack([f.values for f in phys.frames])
    orig = np.stack([f.values for f in fp.frames])
    assert np.allclose(back, nu * orig, atol=1e-14)


def test_viscosity_one_is_identity(grid1d, random_field):
    g = TrigForcing(grid1d, seed=2, kmax=2, amplitude=0.3)
    u0t, gt = rescale_viscosity(random_field, g, 1.0)
    assert np.array_equal(u0t.values, random_field.values)
    assert gt is g


@pytest.mark.parametrize("nu", [0.25, 4.0])
def test_rescale_viscosity_forcing(grid1d, random_field, nu):
    # the unit-frame forcing is g(t / nu) / nu^2, with its time derivative in closed form
    g = TrigForcing(grid1d, seed=2, kmax=2, amplitude=0.3, omega=1.5)
    _, gt = rescale_viscosity(random_field, g, nu)
    for t in (0.0, 0.3 * nu, 1.1 * nu, 2.5 * nu):
        expect = (g.base * g.env(t / nu)).values / nu**2
        assert np.allclose((gt.base * gt.env(t)).values, expect, rtol=1e-15, atol=0.0)
        eps = 1e-5 * nu
        central = (gt.env(t + eps) - gt.env(t - eps)) / (2 * eps)
        assert gt.env_dt(t) == pytest.approx(central, rel=1e-8)


def test_rescale_viscosity_keeps_zero_forcing_zero(grid1d, random_field):
    for zero in (None, ZeroForcing(grid1d)):
        _, gt = rescale_viscosity(random_field, zero, 0.25)
        assert gt.is_zero and not (gt.base * gt.env(0.7)).values.any()


def test_rescaled_solution_solves_physical_equation():
    # solve in the unit frame, undo the rescale, check the nu-residual
    nu = 0.5
    g = GridSpec(1, 128, TWO_PI)
    u0 = make_trig_field(g, seed=3, kmax=3, amplitude=0.2)
    u0t, gt = rescale_viscosity(u0, None, nu)
    cfg = SchemeConfig(grid=g, T=0.25, dt=1 / 1024, m_max=12, tol_fp=1e-11)
    recs, fp, conv = run_picard(cfg, u0t, gt)
    phys, _ = unrescale(fp, nu)
    # residual of d_t u - nu Lap u + u.grad u: compare against unit-frame residual
    from vburgers.fields import advect_hat, dealias_values, irfft, laplacian_arrays, rfft, time_derivative_arrays

    dts = time_derivative_arrays(phys.values, phys.dt)
    worst = 0.0
    for k in range(1, len(phys) - 1):
        f = phys.frame(k)
        lap = np.stack([laplacian_arrays(c.values, g) for c in f.components])
        adv = irfft(advect_hat(dealias_values(f.values, g), rfft(f.values, g), g), g)
        worst = max(worst, np.abs(dts[k] - nu * lap + adv).max())
    assert worst < 1e-4


def test_records_csv_shape(grid1d):
    u0 = make_trig_field(grid1d, seed=3, kmax=3, amplitude=0.3)
    recs, fp, conv = run_picard(small_cfg(grid1d, m_max=3, tol_fp=0.0), u0)
    text = records_to_csv(recs)
    lines = text.strip().splitlines()
    assert lines[0] == "m,t,sup_u,sup_grad_u,sup_hess_u,sup_dt_u,sup_v,sup_grad_v"
    assert len(lines) == 1 + len(recs) * len(recs[0].times)


def test_summary_json_fields(grid1d, sin_field):
    kc = compute_k_constants(sin_field, ZeroForcing(grid1d), t=0.25)
    scales = reference_scales(KProfile(sin_field, ZeroForcing(grid1d)), small_cfg(grid1d, T=0.25))
    s = json.loads(run_summary_json(math.inf, True, 1e-6, kc, scales))
    assert s["t_init"] == "inf"
    assert s["converged"] is True
    assert set(s["k_constants"]) == {"t", "c", "alpha", "nu", "K0", "K1", "K2", "K2alpha", "K"}
    assert s["reference_scales"] == scales


def test_reference_scales_on_criterion_01_datum(grid1d):
    # criterion 01's datum (1-D n=128, T=1, dt=1e-3, c=1): K = 8.81 at every t without forcing, so a reference
    # length K^{-1/2} spans 6.86 grid points and a step is 0.0088 reference times; a zero datum has K = 0
    u0 = _cole_hopf_datum()
    cfg = SchemeConfig(grid=u0.grid, T=1.0, dt=1e-3)
    scales = reference_scales(KProfile(u0, ZeroForcing(u0.grid)), cfg)
    assert list(scales) == ["points_per_length_0", "points_per_length_T", "dt_K_T"]
    assert scales["points_per_length_0"] == scales["points_per_length_T"] == pytest.approx(6.8636, abs=5e-5)
    assert scales["dt_K_T"] == pytest.approx(0.0088095, abs=5e-8)
    # c enters as K = c^2 base
    at_c2 = reference_scales(KProfile(u0, ZeroForcing(u0.grid)), dataclasses.replace(cfg, c=2.0))
    assert at_c2["dt_K_T"] == pytest.approx(4 * scales["dt_K_T"], rel=1e-14)
    zero = VectorField.zero(grid1d)
    flat = reference_scales(KProfile(zero, ZeroForcing(grid1d)), small_cfg(grid1d, T=0.25))
    kc = compute_k_constants(zero, ZeroForcing(grid1d), t=0.25)
    s = json.loads(run_summary_json(math.inf, True, 0.0, kc, flat))
    assert s["reference_scales"] == {"points_per_length_0": "inf", "points_per_length_T": "inf", "dt_K_T": 0.0}


@pytest.mark.parametrize("d, n, T", [(2, 32, 1 / 16), (3, 16, 1 / 32)])
def test_records_match_per_frame_reference(d, n, T):
    # blocked diagnostics against norms applied one frame at a time; n and T give several blocks
    g = GridSpec(d, n, TWO_PI)
    u0 = make_trig_field(g, seed=4, kmax=2, amplitude=0.4)
    forcing = TrigForcing(g, seed=9, kmax=1, amplitude=0.2)
    cfg = small_cfg(g, T=T, m_max=2, tol_fp=0.0)
    recs, fp, _ = run_picard(cfg, u0, forcing, record_holder=True)
    _, prev, _ = run_picard(small_cfg(g, T=T, m_max=1, tol_fp=0.0), u0, forcing)
    frames, prev_frames = fp.frames, prev.frames
    dts = time_derivative_arrays(fp.values, fp.dt)
    ref = {
        "sup_u": [sup_norm(f) for f in frames],
        "sup_grad_u": [grad_sup(f) for f in frames],
        "sup_hess_u": [hessian_sup(f) for f in frames],
        "sup_dt_u": [sup_norm(VectorField.from_arrays(g, a)) for a in dts],
        "sup_v": [sup_norm(f - p) for f, p in zip(frames, prev_frames)],
        "sup_grad_v": [grad_sup(f - p) for f, p in zip(frames, prev_frames)],
    }
    hess = np.stack([hessian_arrays(f.values, g).reshape((d**3,) + g.shape) for f in frames])
    ref["holder_hess"] = parabolic_seminorm_array(hess, g, cfg.dt, cfg.alpha, cfg.seed).value
    ref["holder_dt"] = parabolic_seminorm_array(dts, g, cfg.dt, cfg.alpha, cfg.seed).value
    for name, expect in ref.items():
        assert np.allclose(getattr(recs[-1], name), expect, rtol=1e-13, atol=0.0), name


# ---------------------------------------------------------------------------
# The sequential loop run_picard replaced: one transport solve per iterate,
# then the diagnostics of the whole trajectory.  The wavefront must give the
# same records, fixed point and verdict, bit for bit.


def _diagnose_reference(m, traj, prev, alpha, seed, record_holder):
    spec, u = traj.grid, traj.values
    dt_u = time_derivative_arrays(traj.values, traj.dt)
    hess_u = np.empty((len(u), spec.d**3) + spec.shape) if record_holder else None
    cols = []
    for sl in frame_blocks(len(u), spec):
        ub = u[sl]
        hess = hessian_arrays(ub, spec)
        if record_holder:
            hess_u[sl] = hess.reshape((-1, spec.d**3) + spec.shape)
        sups = [frame_sups(ub, 1), frame_sups(gradient_arrays(ub, spec), 2), frame_sups(hess, 3), frame_sups(dt_u[sl], 1)]
        if prev is not None:
            v = ub - prev.values[sl]
            sups += [frame_sups(v, 1), frame_sups(gradient_arrays(v, spec), 2)]
        cols.append(sups)
    sup_u, sup_grad, sup_hess, sup_dt, *update = map(np.concatenate, zip(*cols))
    sup_v, sup_grad_v = update or (sup_u, sup_grad)
    holder_hess = holder_dt = None
    if record_holder:
        holder_hess = parabolic_seminorm_array(hess_u, spec, traj.dt, alpha, seed).value
        holder_dt = parabolic_seminorm_array(dt_u, spec, traj.dt, alpha, seed).value
    return IterationRecord(m, traj.times, sup_u, sup_grad, sup_hess, sup_dt, sup_v, sup_grad_v, holder_hess, holder_dt)


def _picard_reference(cfg, u0, g=None, record_holder=False):
    if g is None:
        g = ZeroForcing(cfg.grid)
    traj = forced_heat(u0, g, cfg.T, cfg.dt)
    records = [_diagnose_reference(0, traj, None, cfg.alpha, cfg.seed, record_holder)]
    for m in range(1, cfg.m_max + 1):
        new = solve_transport(TransportProblem(u0=u0, b=traj, C=None, f=g, T=cfg.T, dt=cfg.dt))
        records.append(_diagnose_reference(m, new, traj, cfg.alpha, cfg.seed, record_holder))
        traj = new
        if float(records[-1].sup_v.max()) < cfg.tol_fp:
            return records, traj, True
    return records, traj, False


def _assert_same_run(got, want):
    (recs, fp, conv), (ref_recs, ref_fp, ref_conv) = got, want
    assert conv == ref_conv
    assert [r.m for r in recs] == [r.m for r in ref_recs]
    for rec, ref in zip(recs, ref_recs):
        for name in ("times",) + scheme.SUP_ROWS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), (rec.m, name)
        assert (rec.holder_hess, rec.holder_dt) == (ref.holder_hess, ref.holder_dt), rec.m
    assert (fp.t0, fp.dt) == (ref_fp.t0, ref_fp.dt)
    assert np.array_equal(fp.values, ref_fp.values)


def _cole_hopf_datum(n=128, eps=0.5):
    g = GridSpec(1, n, TWO_PI)
    x = g.axis_coords()
    return VectorField.from_arrays(g, [COLE_HOPF_LAMBDA * (-eps * np.sin(x)) / (1.0 + eps * np.cos(x))])


def _wavefront_case(name):
    """(cfg, u0, forcing, record_holder) of one named case."""
    if name == "criterion01":
        u0 = _cole_hopf_datum()
        return SchemeConfig(grid=u0.grid, T=0.25, dt=1e-3, m_max=14, tol_fp=1e-10), u0, None, False
    # 3-D n=16 holds fields.LANE_SAMPLES grid nodes: its groups have one lane
    d, n, T = {"1d": (1, 64, 0.25), "2d": (2, 16, 1 / 4), "3d": (3, 8, 1 / 4), "3d16": (3, 16, 1 / 32)}[name.split("-")[0]]
    g = GridSpec(d, n, TWO_PI)
    u0 = make_trig_field(g, seed=4, kmax=2, amplitude=0.4)
    forcing = TrigForcing(g, seed=9, kmax=1, amplitude=0.2) if "forced" in name else None
    cfg = dict(grid=g, T=T, dt=1 / 256, m_max=8, tol_fp=1e-10)
    if "tol-zero" in name:
        cfg["tol_fp"] = 0.0
    if "m-max-below" in name:
        cfg["m_max"] = 3  # 64 lanes fit 1-D n=64
    if "m-max-above" in name:
        cfg.update(grid=GridSpec(2, 32, TWO_PI), T=1 / 16, m_max=9, tol_fp=0.0)  # 4 lanes fit 2-D n=32 at 16 steps
        u0 = make_trig_field(cfg["grid"], seed=4, kmax=2, amplitude=0.4)
    return SchemeConfig(**cfg), u0, forcing, "holder" in name


_WAVEFRONT_CASES = [
    "criterion01",
    "2d",
    "2d-forced",
    "3d",
    "3d-forced",
    "1d-tol-zero",
    "1d-m-max-below",
    "2d-m-max-above",
    "2d-forced-holder",
    "1d-holder",
    "3d-forced-holder",
    "3d16",
]


@pytest.mark.parametrize("name", _WAVEFRONT_CASES)
def test_wavefront_matches_sequential_loop(name):
    cfg, u0, forcing, holder = _wavefront_case(name)
    trace = []
    got = run_picard(cfg, u0, forcing, record_holder=holder, trace=trace)
    _assert_same_run(got, _picard_reference(cfg, u0, forcing, holder))
    assert (trace[0]["first_iterate"], trace[0]["lanes"]) == (0, 1)  # iterate 0's group
    if name == "criterion01":
        assert trace[1]["cut"] is not None  # the memory rule fires on its own here
        exact = direct_solve(u0, None, cfg.T, cfg.dt)
        assert np.abs(got[1].values - exact.values).max() < 1e-6
    if holder or name == "3d16":
        assert all(group["lanes"] == 1 for group in trace)
    else:  # the first transport group marches at least three lanes to its end
        first = trace[1]["first_iterate"]
        assert (trace[1]["cut"] or first + trace[1]["lanes"] - 1) - first >= 2


def test_wavefront_memory_cut_matches_sequential_loop(monkeypatch):
    # room for the lanes' own arrays and half a trajectory more: a group is cut above its lowest lane that may
    # still be returned
    monkeypatch.setattr(scheme, "HELD_TRAJECTORIES", 1.5)
    cfg, u0, forcing, _ = _wavefront_case("2d-forced")
    trace = []
    got = run_picard(cfg, u0, forcing, trace=trace)
    assert any(group["cut"] is not None for group in trace)
    _assert_same_run(got, _picard_reference(cfg, u0, forcing))


@pytest.mark.parametrize("m_max, lanes", [(8, [1, 2, 2, 2, 2]), (7, [1, 2, 2, 2, 1])], ids=["pairs", "lone-last"])
def test_wavefront_groups_match_sequential_loop(monkeypatch, m_max, lanes):
    # iterate 0 alone, then two lanes per group: the last lane of each group drives the next
    monkeypatch.setattr(fields, "LANE_SAMPLES", 2 * 64)
    cfg, u0, _, _ = _wavefront_case("1d-tol-zero")
    cfg = dataclasses.replace(cfg, m_max=m_max)
    trace = []
    got = run_picard(cfg, u0, trace=trace)
    assert [group["lanes"] for group in trace] == lanes
    assert [group["first_iterate"] for group in trace] == [0, 1, 3, 5, 7]
    _assert_same_run(got, _picard_reference(cfg, u0))


def test_run_picard_trace():
    cfg, u0, forcing, _ = _wavefront_case("criterion01")
    trace = []
    traced = run_picard(cfg, u0, forcing, trace=trace)
    _assert_same_run(traced, run_picard(cfg, u0, forcing))
    assert [set(group) for group in trace] == [
        {"first_iterate", "lanes", "steps_per_tick", "ticks", "lane_steps", "cut", "peak_kept_frames", "wall_s"}
    ] * len(trace)
    steps = round(cfg.T / cfg.dt)
    ends = []
    for group in trace:
        first, lanes, block = group["first_iterate"], group["lanes"], group["steps_per_tick"]
        assert first == (ends[-1] + 1 if ends else 0)
        assert lanes <= cfg.m_max - first + 1
        assert block == fields.tick_steps(steps, lanes, cfg.grid)
        assert math.ceil(steps / block) <= group["ticks"] <= math.ceil(steps / block) + lanes - 1
        assert group["peak_kept_frames"] > 0 and group["wall_s"] > 0
        ends.append(group["cut"] if group["cut"] is not None else first + lanes - 1)
        returned = min(ends[-1], traced[0][-1].m) - first + 1  # the iterates this group hands back
        assert returned * steps <= group["lane_steps"] <= lanes * steps
    assert trace[-1]["first_iterate"] <= traced[0][-1].m <= ends[-1]


# A coarse grid and a large datum: the Picard iterates grow until iterate
# ``failing`` diverges at frame ``frame`` (1-D n=16, T=1/8, dt=1/256, kmax 3),
# while the iterates below it are still marching.  1-D n=16 keeps 64-frame
# chunks, so the test makes room for every lane.
_DIVERGING = [(60, 6, 4, 13), (100, 6, 2, 12), (40, 6, 4, 28), (150, 1, 3, 29)]


@pytest.mark.parametrize("amplitude, seed, failing, frame", _DIVERGING)
def test_wavefront_error_order(monkeypatch, amplitude, seed, failing, frame):
    monkeypatch.setattr(scheme, "HELD_TRAJECTORIES", 100)
    g = GridSpec(1, 16, TWO_PI)
    u0 = make_trig_field(g, seed=seed, kmax=3, amplitude=amplitude)

    def cfg(m_max, tol_fp):
        return SchemeConfig(grid=g, T=0.125, dt=1 / 256, m_max=m_max, tol_fp=tol_fp)

    _picard_reference(cfg(failing - 1, 0.0), u0)
    with pytest.raises(DivergenceError) as want:
        _picard_reference(cfg(failing, 0.0), u0)
    assert f"t={frame / 256:g}:" in str(want.value)
    # none converges: the same error, held until the iterates below it end; the failing group's trace entry names it
    trace = []
    with pytest.raises(DivergenceError) as got:
        run_picard(cfg(8, 1e-12), u0, trace=trace)
    assert str(got.value) == str(want.value)
    assert (trace[-1]["error"], trace[-1]["failed_iterate"]) == ("DivergenceError", failing), trace
    assert trace[-1]["first_iterate"] <= failing < trace[-1]["first_iterate"] + trace[-1]["lanes"]


# Failures inside a tick's block: 5 lanes of 1-D n=16 over 32 steps take 3 steps a tick, so lane j's frames
# 3k + 1 .. 3k + 3 form one block.  Real divergence from _DIVERGING's data, and blocking from a guard that fails
# a state above ``levels[f]`` at frame f only: the level sits above iterates 0 .. m - 1 there, so iterate m fails
# first, at frame f.  The last case fails lanes 1 and 2 in the same tick (frames 14 and 11).
_IN_BLOCK = {
    "diverge-first": ((60, 6), {}, 3, 13),
    "diverge-middle": ((150, 1), {}, 2, 29),
    "diverge-last": ((100, 6), {}, 1, 12),
    "block-first": ((60, 6), {13: 3}, 2, 13),
    "block-middle": ((60, 6), {14: 3}, 2, 14),
    "block-last": ((60, 6), {15: 3}, 2, 15),
    "block-two-lanes": ((60, 6), {14: 2, 11: 3}, 1, 14),
}


@pytest.mark.parametrize("name", list(_IN_BLOCK))
def test_wavefront_failure_inside_a_block(monkeypatch, name):
    (amplitude, seed), failing_at, lane, frame = _IN_BLOCK[name]
    g = GridSpec(1, 16, TWO_PI)
    u0 = make_trig_field(g, seed=seed, kmax=3, amplitude=amplitude)
    cfg = SchemeConfig(grid=g, T=0.125, dt=1 / 256, m_max=5, tol_fp=0.0)
    block = fields.tick_steps(32, cfg.m_max, g)
    assert block == 3
    refs, _, _ = _picard_reference(dataclasses.replace(cfg, m_max=max(failing_at.values(), default=2) - 1), u0)
    levels = {f: 1.01 * max(r.sup_u[f] for r in refs[:m]) for f, m in failing_at.items()}
    real, seen = transport._blocking_guard, []

    def blocking_above_levels(spec):
        guard = real(spec)

        def check(ts, u, u_hat):
            sups = frame_sups(u, 1)
            bad = [i for i, t in enumerate(ts) if sups[i] > levels.get(round(t / cfg.dt), math.inf)]
            if bad:
                seen.append({round(ts[i] / cfg.dt) for i in bad})
                return bad[0], ResolutionError(f"spectral blocking at t={ts[bad[0]]:g}: sup {sups[bad[0]]:.3g}")
            return guard(ts, u, u_hat)

        return check

    monkeypatch.setattr(transport, "_blocking_guard", blocking_above_levels)
    monkeypatch.setattr(scheme, "_blocking_guard", blocking_above_levels)
    monkeypatch.setattr(scheme, "HELD_TRAJECTORIES", 100)  # room for every lane: 1-D n=16 keeps 64-frame chunks
    failures = []
    take = scheme._Wavefront.take

    def take_recording(self, s, lo, u, failed):
        if failed is not None:
            failures.append((self.m0, s, failed[0]))
        return take(self, s, lo, u, failed)

    monkeypatch.setattr(scheme._Wavefront, "take", take_recording)
    error = ResolutionError if failing_at else DivergenceError
    with pytest.raises(error) as want:
        _picard_reference(cfg, u0)
    assert f"t={frame / 256:g}:" in str(want.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the lanes march past the failing state to the end of the tick
        with pytest.raises(error) as got:
            run_picard(cfg, u0)
    assert str(got.value) == str(want.value)
    # the error raised is the last a lane of the first group met: its lowest failing lane's, at the tick that
    # made the frame (a lane above it may have failed earlier)
    assert failures[-1] == (0, (frame - 1) // block + lane, lane)
    if len(failing_at) > 1:  # both frames failed in one tick's rows
        assert set(failing_at) in seen


def test_run_picard_needs_two_steps(monkeypatch):
    # one step leaves no three frames for the records' time derivatives: refused before any solve.  Two steps run
    # in ticks shorter than a lane's share of the block
    g = GridSpec(1, 16, TWO_PI)
    u0 = make_trig_field(g, seed=4, kmax=2, amplitude=0.4)
    solves = []
    monkeypatch.setattr(scheme, "integrate", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match="T >= 2 dt"):
        run_picard(SchemeConfig(grid=g, T=1 / 128, dt=1 / 128), u0)
    assert solves == []
    monkeypatch.undo()
    cfg = SchemeConfig(grid=g, T=2 / 128, dt=1 / 128, m_max=4, tol_fp=0.0)
    trace = []
    _assert_same_run(run_picard(cfg, u0, trace=trace), _picard_reference(cfg, u0))
    _assert_same_run(run_picard(cfg, u0, record_holder=True), _picard_reference(cfg, u0, record_holder=True))
    assert [group["steps_per_tick"] for group in trace] == [1] * len(trace)


def _case_1d_failing_lane_5(monkeypatch):
    """The 1d case at tol_fp = 1e-9, with a guard that fails lane 5 (iterate 6) of the first transport group at tick
    7, at its first frame (5): 8 lanes step 4 frames a tick.  Returns (cfg, u0, the ticks the failure fired at)."""
    cfg, u0, _, _ = _wavefront_case("1d")
    cfg = SchemeConfig(grid=cfg.grid, T=cfg.T, dt=cfg.dt, m_max=cfg.m_max, tol_fp=1e-9)
    block = fields.tick_steps(round(cfg.T / cfg.dt), cfg.m_max, cfg.grid)
    assert block == 4
    groups, fired = [], []

    def guard_failing_lane_5(spec):
        guard = transport._blocking_guard(spec)
        groups.append(spec)

        def check(ts, u, u_hat):
            # tick 7's rows are lane-major, a block per lane: lane 0's first frame is 7 * 4 + 1
            if len(groups) == 1 and len(ts) > 5 * block and round(ts[0] / cfg.dt) == 7 * block + 1:
                fired.append(7)
                return 5 * block, DivergenceError("lane 5 fails at tick 7")
            return guard(ts, u, u_hat)

        return check

    monkeypatch.setattr(scheme, "HELD_TRAJECTORIES", 100)  # room for every lane
    monkeypatch.setattr(scheme, "_blocking_guard", guard_failing_lane_5)
    return cfg, u0, fired


def test_wavefront_cut_discards_a_failed_lane(monkeypatch):
    # lane 3 (iterate 4) has made its frames up to 16 when lane 5 fails.  Room for every lane until then, none
    # after: the group is cut above lane 3, the lowest that may still be returned.  Iterate 4 ends above tol_fp,
    # the failure went with lane 5, and the next group finds iterate 5 converged.
    cfg, u0, fired = _case_1d_failing_lane_5(monkeypatch)
    want = _picard_reference(cfg, u0)
    assert want[2] and want[0][-1].m == 5
    take = scheme._Wavefront.take

    def take_without_room(self, s, lo, u, failed):
        if failed is not None:
            self.budget = 0
        return take(self, s, lo, u, failed)

    monkeypatch.setattr(scheme._Wavefront, "take", take_without_room)
    trace = []
    got = run_picard(cfg, u0, trace=trace)
    assert fired == [7]
    assert [(group["first_iterate"], group["cut"]) for group in trace] == [(0, None), (1, 4), (5, None)]
    _assert_same_run(got, want)


def test_wavefront_converged_lane_discards_a_failure_above_it(monkeypatch):
    # no cut: lane 5's failure is held while lane 4 (iterate 5) marches on, and goes when iterate 5 converges
    # inside the group of iterates 1-8
    cfg, u0, fired = _case_1d_failing_lane_5(monkeypatch)
    trace = []
    got = run_picard(cfg, u0, trace=trace)
    assert fired == [7]
    assert [(group["first_iterate"], group["lanes"], group["cut"]) for group in trace] == [(0, 1, None), (1, 8, None)]
    assert all("error" not in group for group in trace), trace
    _assert_same_run(got, _picard_reference(cfg, u0))


@pytest.mark.parametrize("name", ["criterion01", "2d-forced-holder"])
def test_wavefront_peak_memory_within_sequential(name):
    # criterion 01's run and a run that records the Hoelder seminorms: the wavefront holds no more than the
    # loop it replaced
    cfg, u0, forcing, holder = _wavefront_case(name)
    if name == "criterion01":
        cfg = dataclasses.replace(cfg, T=1.0)
    warm = dataclasses.replace(cfg, T=10 * cfg.dt, m_max=2)
    peaks = {}
    for kind, run in (("sequential", _picard_reference), ("wavefront", run_picard)):
        run(warm, u0, forcing, holder)
        tracemalloc.start()
        try:
            run(cfg, u0, forcing, holder)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["wavefront"] <= peaks["sequential"], peaks


@pytest.mark.parametrize("holder", [False, True], ids=["lanes", "holder"])
def test_picard_transforms_each_frame_block_once(monkeypatch, transform_calls, holder):
    # counts, not time (1-D: one inverse transform per derivative).  A transport tick makes four transforms per step
    # of its lanes (the product's inverse and forward transforms at both stages) and one inverse transform of its
    # states; an iterate 0 tick (heat flow, no forcing) makes only the latter.  A transport tick's ``take``
    # forward-transforms the updates for their gradient (iterate 0's update is the iterate itself), and every
    # ``take`` transforms the tick's frames once, with lane 0's next drift block, for their gradient, their Hessian
    # and, when the tick feeds a lane, the dealiased frames the lanes read next (one inverse transform)
    ticks, since = [], [0]
    take = scheme._Wavefront.take

    def counted_take(self, s, lo, u, failed):
        start, hi = len(transform_calls), lo + len(u) // self.block
        left = self.steps - (s - lo) * self.block
        marched = min(self.block, left) if hi == lo + 1 else self.block
        transport = self.drift is not None
        feeds = (transport and lo == 0 and left > self.block) or lo < self.lanes - 1
        out = take(self, s, lo, u, failed)
        ticks.append((s, marched, transport, feeds, transform_calls[since[0] : start], transform_calls[start:]))
        since[0] = len(transform_calls)
        return out

    monkeypatch.setattr(scheme._Wavefront, "take", counted_take)
    cfg, u0, _, _ = _wavefront_case("criterion01")
    trace = []
    run_picard(cfg, u0, record_holder=holder, trace=trace)
    assert len(ticks) == sum(group["ticks"] for group in trace) > len(trace)
    assert [tick[2] for tick in ticks].count(False) == trace[0]["ticks"] > 1  # iterate 0's group comes first
    for s, tick_steps, transport, feeds, march, filed in ticks:
        stages = 2 * tick_steps * transport
        if s > 0:
            assert march == ["irfft", "rfft"] * stages + ["irfft"], s
        else:  # a group's first tick also counts its setup: the data of its solve, and before iterate 0 the datum's
            # sups, once per run (forward, and inverse for the gradient and the Hessian), or a transport group's
            # first drift block dealiased (forward and inverse)
            assert march.count("rfft") == 2 + stages
            assert march.count("irfft") == (1 if transport else 2) + stages + 1
        assert filed == ["rfft", "irfft"] * transport + ["rfft", "irfft", "irfft"] + ["irfft"] * feeds, s
    assert since[0] == len(transform_calls)  # nothing else, the seminorms included


@pytest.mark.parametrize("config", ["2d-n16-short", "verify-2d-forced"])
def test_wavefront_starts_only_lanes_that_fit(monkeypatch, config):
    # a group starts the lanes whose own arrays fit, so none is cut at its first tick
    if config == "2d-n16-short":
        cfg, u0, forcing, _ = _wavefront_case("2d-forced")
        cfg = dataclasses.replace(cfg, T=1 / 16)
    else:  # bench/workloads.py's verify_2d_forced config, without the Hoelder seminorms
        g = GridSpec(2, 32, TWO_PI)
        u0 = make_trig_field(g, seed=5, kmax=3, amplitude=0.3)
        forcing = TrigForcing(g, seed=11, kmax=2, amplitude=0.2)
        cfg = SchemeConfig(grid=g, T=1 / 16, dt=1 / 128)
    first_ticks = []
    take = scheme._Wavefront.take

    def take_recording(self, s, lo, u, failed):
        lanes = self.lanes
        out = take(self, s, lo, u, failed)
        if s == 0:
            first_ticks.append((lanes, out))
        return out

    monkeypatch.setattr(scheme._Wavefront, "take", take_recording)
    trace = []
    got = run_picard(cfg, u0, forcing, trace=trace)
    assert len(first_ticks) == len(trace) > 1
    assert all(before == after for before, after in first_ticks), first_ticks
    _assert_same_run(got, _picard_reference(cfg, u0, forcing))
