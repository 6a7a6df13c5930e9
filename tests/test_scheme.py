import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vburgers.fields import GridSpec, VectorField, hessian_arrays, make_trig_field, time_derivative_frames
from vburgers.forcing import TrigForcing, ZeroForcing
from vburgers.norms import KProfile, compute_k_constants, grad_sup, hessian_sup, parabolic_seminorm_array, sup_norm
from vburgers.oracle import residual
from vburgers.scheme import (
    SchemeConfig,
    compute_t_init,
    records_to_csv,
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
        small_cfg(grid1d, nu=-1.0)
    with pytest.raises(ValueError):
        small_cfg(grid1d, dt=0.3)  # does not divide T
    with pytest.raises(ValueError):
        small_cfg(grid1d, m_max=0)


def test_run_picard_rejects_nu_other_than_one(grid1d, random_field):
    # the solve is in the unit-viscosity frame; other viscosities go through the exact rescaling
    with pytest.raises(ValueError, match="rescale_viscosity"):
        run_picard(small_cfg(grid1d, nu=0.25), random_field)


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
    recs, fp, conv = run_picard(cfg, u0, min_iters=8)
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
    t = compute_t_init(sin_field, None, c=1.0, alpha=0.5)
    assert t == pytest.approx(1.0 / kc.K, rel=1e-12)


def test_t_init_root_property_with_forcing(grid1d, sin_field):
    g = TrigForcing(grid1d, seed=2, kmax=2, amplitude=0.3)
    c = 1.0
    t = compute_t_init(sin_field, g, c=c, alpha=0.5)
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
        expect = g.at(t / nu).values / nu**2
        assert np.allclose(gt.at(t).values, expect, rtol=1e-15, atol=0.0)
        eps = 1e-5 * nu
        central = (gt.env(t + eps) - gt.env(t - eps)) / (2 * eps)
        assert gt.env_dt(t) == pytest.approx(central, rel=1e-8)


def test_rescale_viscosity_keeps_zero_forcing_zero(grid1d, random_field):
    for zero in (None, ZeroForcing(grid1d)):
        _, gt = rescale_viscosity(random_field, zero, 0.25)
        assert gt.is_zero and not gt.at(0.7).values.any()


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
    from vburgers.fields import advect, laplacian_arrays, time_derivative_frames

    dts = time_derivative_frames(phys)
    worst = 0.0
    for k in range(1, len(phys) - 1):
        f = phys.frame(k)
        lap = np.stack([laplacian_arrays(c.values, g) for c in f.components])
        adv = advect(f, f).values
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
    s = json.loads(run_summary_json(math.inf, True, 1e-6, kc))
    assert s["t_init"] == "inf"
    assert s["converged"] is True
    assert set(s["k_constants"]) == {"t", "c", "alpha", "nu", "K0", "K1", "K2", "K2alpha", "K"}


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
    dts = time_derivative_frames(fp)
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
