import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vburgers import norms
from vburgers.fields import GridSpec, Trajectory, VectorField, hessian_arrays, make_trig_field
from vburgers.forcing import ConstantForcing, Forcing, GradientForcing, TrigForcing, ZeroForcing
from vburgers.heat import heat_apply_values, lacunary_field
from vburgers.norms import (
    EXHAUSTIVE_PAIR_LIMIT,
    KConstants,
    KProfile,
    base_differences,
    channel_sup,
    compute_k_constants,
    frame_sups,
    grad_sup,
    hessian_sup,
    holder_seminorm,
    interpolation_gap,
    iso_seminorm_array,
    opnorm_sup,
    parabolic_seminorm_array,
    separable_seminorm,
    sup_norm,
    _iso_offsets,
    _offset_distance,
)
from vburgers.scheme import SUP_ROWS, SchemeConfig, compute_t_init, rescale_viscosity, run_picard, unrescale
from vburgers.verify import check_short_time, check_uniform

TWO_PI = 2 * np.pi


def test_sup_norm_euclidean(grid2d):
    v = VectorField.constant(grid2d, [3.0, 4.0])
    assert sup_norm(v) == pytest.approx(5.0)


def test_grad_sup_sin(sin_field):
    assert grad_sup(sin_field) == pytest.approx(1.0, abs=1e-12)


def _frame_sups_summing(arr, n_channel_axes):
    """``frame_sups`` summing over every channel axis, unit axes included."""
    sq = arr**2
    for _ in range(n_channel_axes):
        sq = sq.sum(axis=1)
    return np.sqrt(sq.reshape(len(arr), -1).max(axis=1))


@pytest.mark.parametrize("channels", [(1,), (1, 1), (1, 1, 1), (2, 1), (1, 3), (2, 2, 2)])
def test_frame_sups_skip_unit_channel_axes(channels):
    rng = np.random.default_rng(len(channels))
    for shape in ((32,), (8, 8)):
        arr = rng.standard_normal((5,) + channels + shape)
        arr[2] = 0.0
        arr[3, ..., 0] = -0.0
        got = frame_sups(arr, len(channels))
        assert got.tobytes() == _frame_sups_summing(arr, len(channels)).tobytes()


def test_opnorm_is_largest_singular_value():
    m = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert opnorm_sup(m) == pytest.approx(5.0)
    # one constant matrix only: a (d, d) + grid field, even at d = 1, or a non-square matrix is refused
    for bad in (np.stack([np.eye(2), 2 * np.eye(2)], axis=-1), np.ones((1, 1, 8)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="one square"):
            opnorm_sup(bad)


def test_holder_seminorm_constant_is_zero(grid1d):
    v = VectorField.constant(grid1d, [2.5])
    assert holder_seminorm(v, 0.5).value == 0.0


def test_holder_seminorm_sin_dense_pairs():
    # alpha = 1/2 seminorm of sin: max of 2 sin(delta/2)/sqrt(delta), ~1.2038
    g = GridSpec(1, 512, TWO_PI)
    x = g.axis_coords()
    v = VectorField.from_arrays(g, [np.sin(x)])
    est = holder_seminorm(v, 0.5)
    assert est.value == pytest.approx(1.2038, abs=5e-3)
    assert est.value <= 1.2039  # sampled value is a lower bound


def test_holder_alpha_one_approaches_gradient_sup():
    g = GridSpec(1, 512, TWO_PI)
    v = make_trig_field(g, seed=3, kmax=8, amplitude=1.0)
    est = holder_seminorm(v, 0.999)
    gs = grad_sup(v)
    assert est.value <= gs * 1.001
    assert est.value > 0.98 * gs


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_seminorm_scales_linearly(seed):
    g = GridSpec(1, 64, TWO_PI)
    v = make_trig_field(g, seed=seed, kmax=4, amplitude=1.0)
    a = holder_seminorm(v, 0.5).value
    b = holder_seminorm(v * 3.0, 0.5).value
    assert b == pytest.approx(3 * a, rel=1e-12)


def test_parabolic_equals_iso_for_static_trajectory(grid1d, random_field):
    frames = tuple(random_field for _ in range(4))
    traj = Trajectory(grid1d, 0.0, 0.1, frames)
    par = holder_seminorm(traj, 0.5).value
    vals = np.stack([c.values for c in random_field.components])
    iso = iso_seminorm_array(vals, grid1d, 0.5, seed=0).value
    assert par == pytest.approx(iso, rel=1e-12)
    # one frame has the time offset 0 alone: the same loop, pairs and float as the isotropic seminorm
    for kind, (d, n) in itertools.product(PRUNING_KINDS, [(1, 64), (2, 16), (3, 8), (1, 8192)]):
        spec = GridSpec(d, n, TWO_PI)
        v = _pruning_data(kind, spec)
        for alpha in (0.5, 0.999):
            if kind == "nan":
                with pytest.raises(ValueError, match="finite"):
                    iso_seminorm_array(v, spec, alpha)
                with pytest.raises(ValueError, match="finite"):
                    parabolic_seminorm_array(v[None], spec, 0.1, alpha)
                continue
            iso = iso_seminorm_array(v, spec, alpha, seed=2)
            par = parabolic_seminorm_array(v[None], spec, 0.1, alpha, seed=2)
            assert (par.value, par.pairs, par.exhaustive) == (iso.value, iso.pairs, iso.exhaustive), (kind, d, n)


def test_parabolic_rejects_frames_of_another_grid():
    spec = GridSpec(1, 32, TWO_PI)
    with pytest.raises(ValueError, match="sample shape mismatch"):
        parabolic_seminorm_array(np.ones((3, 1, 16)), spec, 0.1, 0.5)
    with pytest.raises(ValueError, match="sample shape mismatch"):
        iso_seminorm_array(np.ones((1, 16)), spec, 0.5)


# The unpruned loops: every offset's quotient, in the offset order of the
# sets, mixed (time and space) differences included.  The seminorms must
# give the same floats and pair counts.


def _iso_unpruned(v, spec, alpha, seed=0):
    spatial_axes = tuple(range(1, spec.d + 1))
    offsets, exhaustive = _iso_offsets(spec, seed)
    best = 0.0
    pair_count = 0
    for o in offsets:
        w = np.roll(v, shift=o, axis=spatial_axes)
        mag = float(np.sqrt(((v - w) ** 2).sum(axis=0).max()))
        best = max(best, mag / _offset_distance(spec, o) ** alpha)
        pair_count += spec.num_nodes
    return best, pair_count, exhaustive


def _parabolic_unpruned(u, spec, dt, alpha, seed=0, time_per_stratum=4):
    nt = u.shape[0]
    spatial_axes = tuple(range(2, spec.d + 2))
    exhaustive = (nt * spec.num_nodes) ** 2 / 2 <= EXHAUSTIVE_PAIR_LIMIT
    space_offsets, space_exh = _iso_offsets(spec, seed, force_sampled=not exhaustive)
    if exhaustive and space_exh:
        time_offsets = list(range(nt))
    else:
        exhaustive = False
        rng = np.random.default_rng(seed + 1)
        qs = {1, 2} if nt > 2 else {1}
        s = 2
        while s < nt:
            for _ in range(time_per_stratum):
                qs.add(int(rng.integers(s, min(2 * s, nt))))
            s *= 2
        time_offsets = [0] + sorted(q for q in qs if q < nt)
    best = 0.0
    pair_count = 0
    for q in time_offsets:
        tdenom = (q * dt) ** (alpha / 2.0)
        a = u[q:] - u[:-q] if q else u
        for o in ([(0,) * spec.d] if q else []) + list(space_offsets):
            diff = a - np.roll(a, shift=o, axis=spatial_axes) if any(o) else a
            mag = float(np.sqrt((diff**2).sum(axis=1).max()))
            best = max(best, mag / (_offset_distance(spec, o) ** alpha + tdenom if any(o) else tdenom))
            pair_count += (nt - q) * spec.num_nodes
    return best, pair_count, exhaustive


def _parabolic_true_pairs(u, spec, dt, alpha, seed=0):
    """max |u[k+q](x) - u[k](x - o)| / (|o|^alpha + (q dt)^{alpha/2}) over sampled q, o, -o (o = 0 if q > 0)."""
    nt, spatial_axes = u.shape[0], tuple(range(2, spec.d + 2))
    offsets, _, time_offsets, _, _ = norms._parabolic_pairs(spec, nt, alpha, seed)
    mirrors = [tuple(-x % spec.n for x in o) for o in offsets]
    best = 0.0
    for q in time_offsets:
        for o in ([(0,) * spec.d] if q else []) + list(offsets) + mirrors:
            diff = u[q:] - np.roll(u[: nt - q], shift=o, axis=spatial_axes)
            mag = float(np.sqrt((diff**2).sum(axis=1).max()))
            best = max(best, mag / (_offset_distance(spec, o) ** alpha + (q * dt) ** (alpha / 2.0)))
    return best


def _pruning_data(kind, spec):
    """A (2,) + shape array of the named kind."""
    rng = np.random.default_rng(3)
    if kind == "trig":
        return np.stack([make_trig_field(spec, seed=4 + k, kmax=3, amplitude=1.0).components[0].values for k in (0, 1)])
    if kind == "lacunary":
        return np.stack([lacunary_field(spec, 0.5, seed=k).values for k in (0, 1)])
    if kind == "constant":
        return np.full((2,) + spec.shape, 1.5)
    if kind == "zero":
        return np.zeros((2,) + spec.shape)
    if kind == "nan":
        v = rng.standard_normal((2,) + spec.shape)
        v.flat[5] = np.nan
        return v
    # max|a|^2 underflows to zero while the squared differences stay subnormal
    sign = (-1.0) ** np.indices(spec.shape).sum(axis=0)
    return np.stack([1e-162 * sign, np.zeros(spec.shape)])


PRUNING_KINDS = ["trig", "lacunary", "constant", "zero", "nan", "subnormal"]


def _pruning_frames(kind, spec, nt):
    """(nt, 2) + shape frames of the named kind: a time-varying amplitude plus a drift that is constant in space."""
    v = _pruning_data(kind, spec)
    t = np.arange(nt).reshape((nt,) + (1,) * v.ndim) / nt
    return v[None] * (1 + 0.5 * np.sin(3 * t)) + (0.0 if kind in ("zero", "subnormal") else t)


def test_iso_offsets_keep_one_of_each_mirror_pair():
    for (d, n), force_sampled in itertools.product([(1, 64), (2, 16), (3, 8), (2, 128)], (False, True)):
        offsets, exhaustive = _iso_offsets(GridSpec(d, n, TWO_PI), 2, force_sampled)
        kept, mirrors = set(offsets), [tuple(-x % n for x in o) for o in offsets]
        assert len(kept) == len(offsets)
        assert all(o == m or m not in kept for o, m in zip(offsets, mirrors))
        if exhaustive:
            assert kept | set(mirrors) == {o for o in np.ndindex(*(n,) * d) if any(o)}


@pytest.mark.parametrize("kind", PRUNING_KINDS)
@pytest.mark.parametrize(
    "d, n, exhaustive", [(1, 64, True), (2, 16, True), (3, 8, True), (1, 8192, False), (2, 128, False), (3, 32, False)]
)
def test_iso_pruning_matches_unpruned_loop(kind, d, n, exhaustive):
    spec = GridSpec(d, n, TWO_PI)
    v = _pruning_data(kind, spec)
    for alpha in (0.5, 0.999):
        if kind == "nan":
            with pytest.raises(ValueError, match="finite"):
                iso_seminorm_array(v, spec, alpha, seed=2)
            continue
        est = iso_seminorm_array(v, spec, alpha, seed=2)
        assert (est.value, est.pairs, est.exhaustive) == _iso_unpruned(v, spec, alpha, seed=2)
        assert est.exhaustive == exhaustive


@pytest.mark.parametrize("kind", PRUNING_KINDS)
@pytest.mark.parametrize(
    "d, n, nt, exhaustive",
    [(1, 64, 9, True), (2, 16, 5, True), (3, 8, 5, True), (1, 512, 17, False), (2, 32, 9, False), (3, 16, 5, False)],
)
def test_parabolic_pruning_matches_unpruned_loop(kind, d, n, nt, exhaustive):
    spec = GridSpec(d, n, TWO_PI)
    u = _pruning_frames(kind, spec, nt)
    for alpha in (0.5, 0.999):
        if kind == "nan":
            with pytest.raises(ValueError, match="finite"):
                parabolic_seminorm_array(u, spec, 1 / 64, alpha, seed=2)
            continue
        est = parabolic_seminorm_array(u, spec, 1 / 64, alpha, seed=2)
        assert (est.value, est.pairs, est.exhaustive) == _parabolic_unpruned(u, spec, 1 / 64, alpha, 2)
        assert est.exhaustive == exhaustive


@pytest.mark.parametrize("kind", [k for k in PRUNING_KINDS if k != "nan"])
@pytest.mark.parametrize("d, n, nt", [(1, 64, 9), (2, 16, 5)])
def test_parabolic_matches_true_pair_reference(kind, d, n, nt):
    # the value is the max over the sampled pairs, those at both a time and a space offset included
    spec = GridSpec(d, n, TWO_PI)
    u = _pruning_frames(kind, spec, nt)
    for alpha in (0.5, 0.999):
        est = parabolic_seminorm_array(u, spec, 1 / 64, alpha, seed=2)
        assert est.value == _parabolic_true_pairs(u, spec, 1 / 64, alpha, seed=2)


def test_pruning_subnormal_data_is_not_skipped():
    # the seminorm of the subnormal checkerboard is positive although max|a| squares to zero
    spec = GridSpec(1, 64, TWO_PI)
    assert iso_seminorm_array(_pruning_data("subnormal", spec), spec, 0.5).value > 0


def test_k_constants_sin_closed_form(grid1d, sin_field):
    kc = compute_k_constants(sin_field, ZeroForcing(grid1d), t=0.5, c=1.0, alpha=0.5)
    assert kc.K0 == pytest.approx(1.0, abs=1e-12)
    assert kc.K1 == pytest.approx(1.0, abs=1e-12)
    # K2 = ||hess u0|| + ||u0|| ||grad u0|| = 1 + 1 = 2 (g = 0)
    assert kc.K2 == pytest.approx(2.0, abs=1e-12)
    s = holder_seminorm(sin_field, 0.5).value
    assert kc.K2plusAlpha == pytest.approx(s, rel=1e-12)
    base = kc.K0**2 + kc.K1 + kc.K2 ** (2 / 3) + kc.K2plusAlpha ** (2 / 3.5)
    assert kc.K == pytest.approx(base, rel=1e-12)


def test_k_constants_time_independent_without_forcing(grid1d, random_field):
    a = compute_k_constants(random_field, ZeroForcing(grid1d), t=0.1)
    b = compute_k_constants(random_field, ZeroForcing(grid1d), t=2.0)
    assert a.K == b.K and a.K0 == b.K0 and a.K2 == b.K2


def test_k_constants_grow_with_forcing(grid1d, random_field):
    g = TrigForcing(grid1d, seed=9, kmax=2, amplitude=0.5)
    a = compute_k_constants(random_field, g, t=0.1)
    b = compute_k_constants(random_field, g, t=1.0)
    assert b.K0 > a.K0
    assert b.K >= a.K


def test_k_constants_json_keys(grid1d, sin_field):
    kc = compute_k_constants(sin_field, ZeroForcing(grid1d), t=0.5)
    d = json.loads(kc.to_json())
    assert set(d) == {"t", "c", "alpha", "nu", "K0", "K1", "K2", "K2alpha", "K"}


def test_k_constants_at_c_rescaling(grid1d, sin_field):
    kc = compute_k_constants(sin_field, ZeroForcing(grid1d), t=0.5, c=1.0)
    k2 = kc.at_c(2.0)
    assert k2.K == pytest.approx(4.0 * kc.base, rel=1e-12)


def test_k_constants_require_c_at_least_one():
    with pytest.raises(ValueError):
        KConstants(t=1.0, c=0.5, alpha=0.5, K0=0, K1=0, K2=0, K2plusAlpha=0)


def test_interpolation_gap_constant_field(grid1d):
    v = VectorField.constant(grid1d, [1.0])
    assert interpolation_gap(v, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_interpolation_gap_space_nonnegative():
    g = GridSpec(1, 64, TWO_PI)
    for seed in range(40):
        u = make_trig_field(g, seed=seed, kmax=8, amplitude=1.0)
        assert interpolation_gap(u, 0.5) >= -1e-10 * sup_norm(u)


def test_interpolation_gap_spacetime_nonnegative(grid1d):
    for seed in range(10):
        u = make_trig_field(grid1d, seed=seed, kmax=6, amplitude=1.0)
        frames = np.stack([heat_apply_values(u.values, grid1d, 0.02 * k) for k in range(5)])
        traj = Trajectory(grid1d, 0.0, 0.02, frames)
        assert interpolation_gap(traj, 0.5) >= -1e-10 * sup_norm(u)


def _scaled_data(d, n, lam):
    """(u0, g) on the torus of side 2 pi and their images under the scaling of the equation.

    u_lam(x) = lam u(lam x) on the torus of side 2 pi / lam, g_lam(t, x) = lam^3 g(lam^2 t, lam x):
    the same node samples times lam and lam^3, the envelope read at lam^2 t.
    """
    grid, small = GridSpec(d, n, TWO_PI), GridSpec(d, n, TWO_PI / lam)
    u0 = make_trig_field(grid, seed=7, kmax=2, amplitude=0.5)
    g = TrigForcing(grid, seed=9, kmax=2, amplitude=0.5)
    u_lam = VectorField(small, lam * u0.values)
    g_lam = Forcing(
        VectorField(small, lam**3 * g.values), lambda t: g.env(lam**2 * t), lambda t: lam**2 * g.env_dt(lam**2 * t)
    )
    return (u0, g), (u_lam, g_lam)


def test_k_scaling_covariance():
    # the paper's dimension count: u ~ 1/L and g ~ 1/(L T) make K0 ~ lam, K1 ~ lam^2, K2 ~ lam^3,
    # K_{2+alpha} ~ lam^{3+alpha} and K ~ lam^2, read at t / lam^2; the sampled pairs are the same
    alpha = 0.5
    powers = {"K0": 1, "K1": 2, "K2": 3, "K2plusAlpha": 3 + alpha, "K": 2}
    for (d, n), lam in itertools.product([(1, 64), (2, 32)], (0.5, 2.0, 3.0)):
        (u0, g), (u_lam, g_lam) = _scaled_data(d, n, lam)
        for t in (0.0, 0.3):
            a = compute_k_constants(u0, g, t, alpha=alpha)
            b = compute_k_constants(u_lam, g_lam, t / lam**2, alpha=alpha)
            for name, power in powers.items():
                assert getattr(b, name) == pytest.approx(lam**power * getattr(a, name), rel=1e-13), (d, lam, t, name)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32)])
def test_t_init_scaling_covariance(d, n):
    # t_init is a time: it scales by lam^-2, in closed form without forcing and to the bisection's tolerance with it
    for lam in (0.5, 2.0, 3.0):
        (u0, g), (u_lam, g_lam) = _scaled_data(d, n, lam)
        free, free_lam = compute_t_init(u0, None), compute_t_init(u_lam, None)
        assert free_lam == pytest.approx(free / lam**2, rel=1e-14), lam
        assert compute_t_init(u_lam, g_lam) == pytest.approx(compute_t_init(u0, g) / lam**2, rel=1e-9), lam


@pytest.mark.parametrize("holder", [False, True], ids=["lanes", "holder"])
@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)], ids=["d1", "d2", "d3"])
def test_picard_run_scaling_covariance(d, n, forced, holder):
    # the paper's dimension count end to end, at lam = 2 where every map is a power of two: on the torus of
    # side pi, with 2 u0, g_lam, T / 4, dt / 4 and 2 tol_fp, run_picard marches the same iterates, its six
    # sup rows come out times 2, 4, 8, 8, 2 and 4 and its fixed point times 2, bit for bit; the Hoelder
    # seminorms scale by 2^(3 + alpha) and the verify reports read the same ratios, exponents and c_min; the same run
    # comes back from physical data at nu = 2 through the viscosity rescaling
    lam, alpha, seed = 2.0, 0.5, 0
    (u0, g), (u_lam, g_lam) = _scaled_data(d, n, lam)
    if not forced:
        g, g_lam = ZeroForcing(u0.grid), ZeroForcing(u_lam.grid)
    cfg = SchemeConfig(grid=u0.grid, T=1 / 8, dt=1 / 128, m_max=12, tol_fp=1e-8, alpha=alpha, seed=seed)
    cfg_lam = dataclasses.replace(cfg, grid=u_lam.grid, T=cfg.T / lam**2, dt=cfg.dt / lam**2, tol_fp=cfg.tol_fp * lam)
    runs = [run_picard(c, u, f, record_holder=holder) for c, u, f in ((cfg, u0, g), (cfg_lam, u_lam, g_lam))]
    (recs, fp, conv), (recs_lam, fp_lam, conv_lam) = runs
    assert conv and conv_lam and [r.m for r in recs] == [r.m for r in recs_lam] and len(recs) > 3
    powers = {"sup_u": 1, "sup_grad_u": 2, "sup_hess_u": 3, "sup_dt_u": 3, "sup_v": 1, "sup_grad_v": 2}
    for rec, rec_lam in zip(recs, recs_lam):
        assert (rec_lam.times * lam**2).tobytes() == rec.times.tobytes()
        for name, power in powers.items():
            assert getattr(rec_lam, name).tobytes() == (lam**power * getattr(rec, name)).tobytes(), (rec.m, name)
        if holder:
            for name in ("holder_hess", "holder_dt"):
                assert getattr(rec_lam, name) == pytest.approx(lam ** (3 + alpha) * getattr(rec, name), rel=1e-13)
    assert fp_lam.values.tobytes() == (lam * fp.values).tobytes()

    # viscosity nu = 2 is a matter of scale too: the physical data 2 u0 and 4 base at env(2 t) map into the unit
    # frame as u0 and g themselves, march bit for bit as they do, and the fixed point maps back times 2 on times / 2
    nu = 2.0
    g_nu = ZeroForcing(u0.grid)
    if forced:
        g_nu = Forcing(VectorField(u0.grid, nu**2 * g.values), lambda t: g.env(nu * t), lambda t: nu * g.env_dt(nu * t))
    u_unit, g_unit = rescale_viscosity(VectorField(u0.grid, nu * u0.values), g_nu, nu)
    recs_unit, fp_unit, conv_unit = run_picard(cfg, u_unit, g_unit, record_holder=holder)
    assert conv_unit and [r.m for r in recs_unit] == [r.m for r in recs]
    for rec, rec_unit in zip(recs, recs_unit):
        for name in ("times",) + SUP_ROWS:
            assert getattr(rec_unit, name).tobytes() == getattr(rec, name).tobytes(), (rec.m, name)
        assert (rec_unit.holder_hess, rec_unit.holder_dt) == (rec.holder_hess, rec.holder_dt), rec.m
    phys, _ = unrescale(fp_unit, nu)
    assert (phys.t0, phys.dt) == (0.0, fp.dt / nu)
    assert phys.values.tobytes() == (nu * fp.values).tobytes()

    kfns = [KProfile(u, f, alpha, seed) for u, f in ((u0, g), (u_lam, g_lam))]
    checks = [check_short_time] + ([lambda r, k: check_uniform(r, k, alpha=alpha)] if holder else [])
    for check in checks:
        reports, reports_lam = check(recs, kfns[0]), check(recs_lam, kfns[1])
        for key, rep in reports.items():
            rep_lam = reports_lam[key]
            assert rep_lam.worst_ratio == pytest.approx(rep.worst_ratio, rel=1e-13), key
            # c is dimensionless: the scaling leaves its smallest admissible value where it was
            assert rep_lam.params["c_min"] == pytest.approx(rep.params["c_min"], rel=1e-9), key
            if "fitted_exponent" in rep.params:
                assert math.isfinite(rep.params["fitted_exponent"])
                assert rep_lam.params["fitted_exponent"] == pytest.approx(rep.params["fitted_exponent"], rel=1e-13), key


def test_sin_seminorm_feeds_k2alpha(grid1d, sin_field):
    kc = compute_k_constants(sin_field, ZeroForcing(grid1d), t=0.25, alpha=0.5)
    direct = holder_seminorm(sin_field, 0.5).value
    assert kc.K2plusAlpha == pytest.approx(direct, rel=1e-12)


def _reference_k(u0, g, t, c, alpha=0.5, seed=0):
    """K(t) one frame at a time: per-frame sups of g.base * env(s) and g.base * env_dt(s), a trapezoid on 64 steps."""
    spec = u0.grid
    hess = hessian_arrays(u0.values, spec)
    hess_seminorm = iso_seminorm_array(hess.reshape((spec.d**3,) + spec.shape), spec, alpha, seed).value
    sup_u0, grad_u0, hess_u0 = sup_norm(u0), grad_sup(u0), channel_sup(hess, 3)
    int_g = int_dg = int_hess_dt = g_seminorm = 0.0
    sup_g0 = sup_norm(g.base * g.env(0.0))
    if not g.is_zero and t > 0:
        times = np.linspace(0.0, t, 65)
        frames = [g.base * g.env(float(s)) for s in times]
        sup_g = np.array([sup_norm(f) for f in frames])
        sup_hg = np.array([hessian_sup(f) for f in frames])
        sup_tg = np.array([sup_norm(g.base * g.env_dt(float(s))) for s in times])
        int_g = float(np.trapezoid(sup_g, times))
        int_dg = float(np.trapezoid([grad_sup(f) for f in frames], times))
        int_hess_dt = float(np.trapezoid(sup_hg + sup_tg, times))
        sup_g0 = float(sup_g[0])
        samples = Trajectory(g.grid, 0.0, t / 16, [g.base * g.env(k * (t / 16)) for k in range(17)])
        g_seminorm = holder_seminorm(samples, alpha, seed).value
    K0, K1 = sup_u0 + int_g, grad_u0 + int_dg
    K2 = hess_u0 + sup_u0 * grad_u0 + sup_g0 + int_hess_dt
    K2a = hess_seminorm + g_seminorm
    kc = KConstants(t, c, alpha, K0, K1, K2, K2a)
    # K's defining combination, written out apart from KConstants.base
    assert kc.K == c**2 * (K0**2 + K1 + K2 ** (2.0 / 3.0) + K2a ** (2.0 / (3.0 + alpha)))
    return kc


def _forcing(kind, grid):
    if kind == "zero":
        return ZeroForcing(grid)
    if kind == "constant":
        return ConstantForcing(make_trig_field(grid, seed=4, kmax=2, amplitude=0.3))
    if kind == "trig":
        return TrigForcing(grid, seed=9, kmax=2, amplitude=0.5)
    if kind == "sign":
        # env = 1 + 1.5 sin(20 t) is negative on (0.19, 0.28) and every 0.31 after
        return TrigForcing(grid, seed=9, kmax=2, amplitude=0.5, omega=20.0, mod=1.5)
    return GradientForcing(make_trig_field(grid, seed=6, kmax=2, amplitude=0.4).components[0], omega=1.0, mod=0.5)


@pytest.mark.parametrize("kind", ["zero", "constant", "trig", "gradient", "sign"])
@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
def test_k_profile_matches_per_frame_reference(d, n, kind):
    # d = 2 and 3 split the 65 quadrature frames into several blocks
    grid = GridSpec(d, n, TWO_PI)
    u0 = make_trig_field(grid, seed=7, kmax=2, amplitude=0.5)
    g = _forcing(kind, grid)
    profile = KProfile(u0, g, alpha=0.5, seed=1)
    T = 0.25
    for t in (0.0, T / 3, T):
        for c in (1.0, 2.0):
            # |env| sup(base) is not bitwise sup(env base), nor the factored seminorm
            # that of the frames: they agree to rounding over the same samples
            got, ref = profile(t, c), _reference_k(u0, g, t, c, seed=1)
            assert (got.t, got.c, got.alpha) == (ref.t, ref.c, ref.alpha)
            for name in ("K0", "K1", "K2", "K"):
                assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=4e-15, abs=0.0)
            assert got.K2plusAlpha == pytest.approx(ref.K2plusAlpha, rel=4e-15, abs=0.0)


@pytest.mark.parametrize("kind", ["constant", "trig", "gradient", "sign"])
@pytest.mark.parametrize("d, n, exhaustive", [(1, 32, True), (2, 32, False), (3, 8, False)])
def test_separable_seminorm_matches_frame_stack(d, n, exhaustive, kind):
    # the reference rounds env[k] base - env[k'] base, the factored form (env[k] - env[k']) D(o):
    # a few roundings apart on each side, so a few ulps of the value
    grid = GridSpec(d, n, TWO_PI)
    g = _forcing(kind, grid)
    assert kind != "sign" or g.env(0.25) < 0 < g.env(0.0)
    for seed in (0, 3):
        diffs = base_differences(g.values, grid, 17, 0.5, seed)
        for t in (0.01, 0.25, 1.7):
            dt = t / 16
            times = np.arange(17) * dt
            got = separable_seminorm([g.env(float(s)) for s in times], diffs, grid, dt, 0.5, seed)
            ref = parabolic_seminorm_array(g.frames(times), grid, dt, 0.5, seed)
            assert got.value == pytest.approx(ref.value, rel=4e-15, abs=0.0), (seed, t)
            assert (got.pairs, got.exhaustive) == (ref.pairs, exhaustive)


def counting_forcing(grid):
    """A TrigForcing whose envelope counts its calls in the returned list."""
    g = TrigForcing(grid, seed=9, kmax=2, amplitude=0.5)
    calls = []

    def env(t):
        calls.append(t)
        return g.env(t)

    return Forcing(g.base, env, g.env_dt), calls


def test_k_profile_repeated_t_makes_no_forcing_calls(grid1d, random_field):
    g, env_calls = counting_forcing(grid1d)
    profile = KProfile(random_field, g)
    first = profile(1.0)
    calls = len(env_calls)
    assert calls > 0
    assert profile(1.0) == first
    assert profile(1.0, 2.0) == first.at_c(2.0)
    # an equal t of another type is the same entry, labelled with the caller's t
    assert profile(1).to_json() == compute_k_constants(random_field, g, 1).to_json()
    assert len(env_calls) > calls  # the fresh profile inside compute_k_constants
    calls = len(env_calls)
    profile(1)
    assert len(env_calls) == calls
    profile(0.5)
    assert len(env_calls) > calls


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16)])
def test_k_profile_new_t_makes_no_transforms(d, n, transform_calls):
    # the forcing's derivative sups come from its base, once per profile
    grid = GridSpec(d, n, TWO_PI)
    u0 = make_trig_field(grid, seed=7, kmax=2, amplitude=0.5)
    profile = KProfile(u0, TrigForcing(grid, seed=9, kmax=2, amplitude=0.5))
    profile(0.25)
    assert transform_calls  # the counter sees the first profile's transforms
    transform_calls.clear()
    profile(0.5)
    assert transform_calls == []


def test_k_profile_new_t_builds_no_frame_stack(grid2d, monkeypatch):
    # the forcing's seminorm comes from its base differences and 17 envelope values
    u0 = make_trig_field(grid2d, seed=7, kmax=2, amplitude=0.5)
    profile = KProfile(u0, TrigForcing(grid2d, seed=9, kmax=2, amplitude=0.5))
    profile(0.25)

    def refuse(*args, **kwargs):
        raise AssertionError("frame stack at a new t")

    monkeypatch.setattr(Forcing, "frames", refuse)
    monkeypatch.setattr(norms, "parabolic_seminorm_array", refuse)
    profile(0.5)


def test_k_profile_rejects_non_finite_envelope_at_a_seminorm_time(grid1d, random_field):
    # t / 16 * 3 is a seminorm frame (and the quadrature node 12)
    g = TrigForcing(grid1d, seed=9, kmax=2, amplitude=0.5)
    t = 0.25
    bad = Forcing(g.base, lambda s: math.nan if s == 3 * (t / 16) else g.env(s), g.env_dt)
    with pytest.raises(ValueError, match="non-integrable"):
        KProfile(random_field, bad)(t)
