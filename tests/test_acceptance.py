"""Acceptance battery: one test and one printed verdict line per criterion.

Each test states its tolerance inline and prints a single
"criterion NN PASS/FAIL: ..." line so the whole gate can be read off
a verbose run at a glance.
"""

import math
import re
import time

import numpy as np
import pytest

from vburgers.fields import GridSpec, ScalarField, Trajectory, VectorField, make_trig_field
from vburgers.forcing import ConstantForcing, TrigForcing, ZeroForcing
from vburgers.heat import heat_apply_values, holder_scaling_probe
from vburgers.norms import KProfile, compute_k_constants, interpolation_gap, sup_norm
from vburgers.oracle import COLE_HOPF_LAMBDA, cole_hopf, residual as burgers_residual
from vburgers.scheme import SchemeConfig, compute_t_init, run_picard, series_majorant
from vburgers.transport import TransportProblem, amplification_factors
from vburgers.verify import (
    ParabolicBall,
    check_gronwall,
    check_schauder_instance,
    check_short_time,
    check_uniform,
    parabolic_rescale,
)

TWO_PI = 2 * np.pi


# The detail of each criterion line as taken on numpy 2.4.6 (pocketfft), criterion 01's runtime masked.
# A change that moves a line re-pins it here and says why.
PINNED_DETAILS = {
    1: "fixed point vs exact solution sup diff 1.721e-07 <= 1e-5, runtime ...s < 30s",
    2: "sup of every iterate / sup of datum = 1.000000000 <= 1 + 1e-6 over 20 seeds, d in {1,2}",
    3: "zeroth-iterate gradient slack 0.000e+00 (over t > 0: 2.649e-02) >= -1e-8, forcing on and off",
    4: "ratios strictly decreasing m=3..8 (True), update bound holds at fitted c (c*=1, "
       "c_min=0.7301/0.3119), exponents 1.293 >= 0.85 and 1.273 >= 0.2125",
    5: "c* finite on all four uniform bounds, c_min drift under dt/2 and 2n <= x1.004 (<= x1.2); c* drift x1.000",
    6: "0 violations over 1000 fields x 2 variants (worst scaled gap 3.744e-02)",
    7: "lacunary probe slopes -0.2586 (target -0.25) and -0.7681 (target -0.75), +/- 0.05",
    8: "0 failures over 100 coefficient pairs (matrix zeroth-order terms included), "
       "exponential amplification error 1.33e-15 <= 1e-10",
    9: "partial tail sum never exceeds e^g/(e^g - 1); worst excess -1.577e-01 <= 0 over 50 draws",
    10: "implied-constant spread x1.359 < 2 over j=-4..0, drift sweep non-increasing (True), "
        "rescale residual covariance error 0.00e+00 <= 1e-8",
    11: "|t*cK(t) - 1| = 3.56e-11 <= 1e-10 with forcing, g=0 closed form error 0.00e+00",
    12: "residual 9.381e-06 <= 1e-4 at dt=1e-3, reduction x3.99 (~4x) under dt/2",
}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail
    assert re.sub(r"runtime \d+\.\ds", "runtime ...s", detail) == PINNED_DETAILS[num]


def _cole_hopf_datum(n: int, epsilon: float = 0.5):
    g = GridSpec(1, n, TWO_PI)
    x = g.axis_coords()
    phi0 = ScalarField(g, 1.0 + epsilon * np.cos(x))
    u0_vals = COLE_HOPF_LAMBDA * (-epsilon * np.sin(x)) / (1.0 + epsilon * np.cos(x))
    return g, phi0, VectorField.from_arrays(g, [u0_vals])


@pytest.fixture(scope="module")
def cole_hopf_run():
    g, phi0, u0 = _cole_hopf_datum(128)
    cfg = SchemeConfig(grid=g, T=1.0, dt=1e-3, m_max=14, tol_fp=1e-10)
    t0 = time.time()
    recs, fp, conv = run_picard(cfg, u0)
    elapsed = time.time() - t0
    assert conv
    return g, phi0, u0, fp, elapsed


@pytest.fixture(scope="module")
def battery_runs():
    # 20 seeded band-limited data across d in {1, 2}, zero forcing
    out = []
    for seed in range(20):
        d = 1 if seed % 2 == 0 else 2
        g = GridSpec(d, 64 if d == 1 else 32, TWO_PI)
        u0 = make_trig_field(g, seed=seed, kmax=3, amplitude=0.4)
        cfg = SchemeConfig(grid=g, T=0.25, dt=1 / 128, m_max=10, tol_fp=1e-10)
        recs, fp, conv = run_picard(cfg, u0)
        out.append((g, u0, recs, fp))
    return out


def test_criterion_01_oracle_equivalence(cole_hopf_run):
    g, phi0, u0, fp, elapsed = cole_hopf_run
    exact = cole_hopf(phi0, T=1.0, dt=1e-3)
    diff = max(
        sup_norm(VectorField.from_arrays(g, fp.frame(k).values - exact.frame(k).values))
        for k in range(len(fp))
    )
    ok = diff <= 1e-5 and elapsed < 30.0
    _verdict(1, ok, f"fixed point vs exact solution sup diff {diff:.3e} <= 1e-5, runtime {elapsed:.1f}s < 30s")


def test_criterion_02_maximum_principle(battery_runs):
    worst = 0.0
    for g, u0, recs, fp in battery_runs:
        s0 = sup_norm(u0)
        for rec in recs:
            worst = max(worst, rec.sup_u.max() / s0)
        worst = max(worst, max(sup_norm(fp.frame(k)) for k in range(len(fp))) / s0)
    ok = worst <= 1.0 + 1e-6
    _verdict(2, ok, f"sup of every iterate / sup of datum = {worst:.9f} <= 1 + 1e-6 over 20 seeds, d in {{1,2}}")


def test_criterion_03_heat_iterate_gradient_bound(battery_runs):
    # K1(0) = sup grad u0 by construction, so the slack over t > 0 is reported as well
    worst = worst_positive = math.inf
    for g, u0, recs, fp in battery_runs:
        for forcing in (None, TrigForcing(g, seed=101, kmax=2, amplitude=0.2)):
            if forcing is None:
                rec0 = recs[0]
            else:
                cfg = SchemeConfig(grid=g, T=0.25, dt=1 / 128, m_max=1, tol_fp=1e-10)
                rec0 = run_picard(cfg, u0, g=forcing)[0][0]
            kfn = KProfile(u0, forcing if forcing is not None else ZeroForcing(g))
            k1 = np.array([kfn(float(t)).K1 for t in rec0.times])
            slack = k1 - rec0.sup_grad_u
            worst = min(worst, float(slack.min()))
            worst_positive = min(worst_positive, float(slack[rec0.times > 0].min()))
    ok = worst >= -1e-8 and worst_positive >= -1e-8
    _verdict(3, ok, f"zeroth-iterate gradient slack {worst:.3e} (over t > 0: {worst_positive:.3e}) >= -1e-8, "
                    "forcing on and off")


def test_criterion_04_short_time_contraction():
    g = GridSpec(1, 64, TWO_PI)
    u0 = make_trig_field(g, seed=3, kmax=3, amplitude=0.3)
    kfn = lambda t: compute_k_constants(u0, ZeroForcing(g), t)
    t_init = compute_t_init(u0, None)
    dt = 1 / 512
    T = dt * math.floor(0.9 * t_init / dt)
    assert T < t_init
    cfg = SchemeConfig(grid=g, T=T, dt=dt, m_max=8, tol_fp=0.0)
    recs, fp, conv = run_picard(cfg, u0)
    peaks = [rec.sup_v.max() for rec in recs]
    ratios = [peaks[m] / peaks[m - 1] for m in range(1, len(peaks))]
    decreasing = all(ratios[m] < ratios[m - 1] for m in range(3, 8))
    reports = check_short_time(recs, kfn, beta=0.25)
    exp_sup = reports["sup"].params["fitted_exponent"]
    exp_grad = reports["grad"].params["fitted_exponent"]
    c_min = {key: rep.params["c_min"] for key, rep in reports.items()}
    ok = (
        decreasing
        and math.isfinite(reports["sup"].c_star)
        and math.isfinite(reports["grad"].c_star)
        and exp_sup >= 1.0 * 0.85
        and exp_grad >= 0.25 * 0.85
    )
    _verdict(
        4,
        ok,
        f"ratios strictly decreasing m=3..8 ({decreasing}), update bound holds at fitted c "
        f"(c*={reports['sup'].c_star:.3g}, c_min={c_min['sup']:.4g}/{c_min['grad']:.4g}), "
        f"exponents {exp_sup:.3f} >= 0.85 and {exp_grad:.3f} >= 0.2125",
    )


def test_criterion_05_minimal_constants_stable():
    def constants(n, dt, seed):
        g = GridSpec(1, n, TWO_PI)
        u0 = make_trig_field(g, seed=seed, kmax=3, amplitude=0.3)
        cfg = SchemeConfig(grid=g, T=0.25, dt=dt, m_max=8, tol_fp=1e-12)
        recs, fp, conv = run_picard(cfg, u0, record_holder=True)
        reports = check_uniform(recs, KProfile(u0, ZeroForcing(g)))
        return {k: (r.c_star, r.params["c_min"]) for k, r in reports.items()}

    def drift(a, b):  # equal values, zeros included, do not drift
        if a == b:
            return 1.0
        return max(a / b, b / a) if a > 0 and b > 0 else math.inf

    worst_drift = worst_min_drift = 1.0
    for seed in (3, 11, 27):
        base = constants(64, 1 / 256, seed)
        assert all(math.isfinite(c_star) for c_star, _ in base.values())
        for other in (constants(64, 1 / 512, seed), constants(128, 1 / 256, seed)):
            for key, (c_star, c_min) in base.items():
                worst_drift = max(worst_drift, drift(other[key][0], c_star))
                worst_min_drift = max(worst_min_drift, drift(other[key][1], c_min))
    ok = worst_min_drift <= 1.2
    _verdict(
        5,
        ok,
        f"c* finite on all four uniform bounds, c_min drift under dt/2 and 2n <= x{worst_min_drift:.3f} (<= x1.2); "
        f"c* drift x{worst_drift:.3f}",
    )


def test_criterion_06_interpolation_battery():
    g = GridSpec(1, 64, TWO_PI)
    g_t = GridSpec(1, 32, TWO_PI)
    violations = 0
    worst = math.inf
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.15, 0.85))
        u = make_trig_field(g, seed=seed, kmax=5, amplitude=float(rng.uniform(0.2, 2.0)))
        scale = 1.0 + sup_norm(u)
        gap = interpolation_gap(u, alpha, seed=seed)
        worst = min(worst, gap / scale)
        if gap < -1e-10 * scale:
            violations += 1
        v = make_trig_field(g_t, seed=seed + 5000, kmax=4, amplitude=1.0)
        frames = np.stack([heat_apply_values(v.values, g_t, 0.02 * k) for k in range(6)])
        traj = Trajectory(g_t, 0.0, 0.02, frames)
        gap = interpolation_gap(traj, alpha, seed=seed)
        if gap < -1e-10 * (1.0 + sup_norm(v)):
            violations += 1
        worst = min(worst, gap / (1.0 + sup_norm(v)))
    ok = violations == 0
    _verdict(6, ok, f"{violations} violations over 1000 fields x 2 variants (worst scaled gap {worst:.3e})")


def test_criterion_07_heat_scaling_slopes():
    g = GridSpec(1, 4096, TWO_PI)
    t_list = np.geomspace(1e-4, 1e-2, 9)
    r1 = holder_scaling_probe(0.5, 1, t_list, g, seed=0)
    r2 = holder_scaling_probe(0.5, 2, t_list, g, seed=0)
    ok = abs(r1.slope + 0.25) <= 0.05 and abs(r2.slope + 0.75) <= 0.05
    _verdict(7, ok, f"lacunary probe slopes {r1.slope:.4f} (target -0.25) and {r2.slope:.4f} (target -0.75), +/- 0.05")


def test_criterion_08_gronwall_battery():
    T, dt = 0.125, 1 / 256
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = 2 if seed % 3 == 0 else 1
        g = GridSpec(d, 16 if d == 2 else 32, TWO_PI)
        u0 = make_trig_field(g, seed=seed, kmax=2, amplitude=0.4)
        b = make_trig_field(g, seed=seed + 300, kmax=2, amplitude=0.4)
        C = np.abs(rng.standard_normal((d, d))) * 0.4  # matrix-valued zeroth-order term
        p = TransportProblem(u0=u0, b=b, C=C, f=None, T=T, dt=dt)
        b_bar = make_trig_field(g, seed=seed + 600, kmax=2, amplitude=0.5)
        C_bar = C + 0.1 * rng.standard_normal((d, d))
        f_bar = ConstantForcing(VectorField.constant(g, rng.uniform(-0.2, 0.2, size=d)))
        p_bar = TransportProblem(u0=u0, b=b_bar, C=C_bar, f=f_bar, T=T, dt=dt)
        if not check_gronwall(p, p_bar).passed:
            failures += 1

    # closed-form amplification: constant C = lam * I gives A(0,t) = e^{lam t}
    g1 = GridSpec(1, 32, TWO_PI)
    lam = 0.7
    p = TransportProblem(u0=VectorField.zero(g1), b=None, C=lam * np.eye(1), f=None, T=0.5, dt=1 / 256)
    times = np.arange(p.n_steps + 1) * p.dt
    amp = amplification_factors(p, times)
    amp_err = float(np.abs(amp - np.exp(lam * times)).max())
    ok = failures == 0 and amp_err <= 1e-10
    _verdict(8, ok, f"{failures} failures over 100 coefficient pairs (matrix zeroth-order terms included), "
                    f"exponential amplification error {amp_err:.2e} <= 1e-10")


def test_criterion_09_series_majorant():
    rng = np.random.default_rng(42)
    worst = -math.inf
    for _ in range(50):
        gamma = float(rng.uniform(0.1, 3.0))
        cK = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.05, 2.0))
        m0 = math.floor(cK * t)
        bound, empirical = series_majorant(m0, gamma, cK, t)
        worst = max(worst, empirical - bound)
    ok = worst <= 0.0
    _verdict(9, ok, f"partial tail sum never exceeds e^g/(e^g - 1); worst excess {worst:.3e} <= 0 over 50 draws")


def test_criterion_10_schauder_scale_invariance():
    g = GridSpec(1, 128, TWO_PI)
    x = g.axis_coords()
    dt = 1e-3
    nt = int(round(1.0 / dt)) + 1
    heat = Trajectory(g, 0.0, dt, tuple(
        VectorField.from_arrays(g, [np.exp(-k * dt) * np.sin(x)]) for k in range(nt)))

    consts = [
        check_schauder_instance(heat, None, ParabolicBall(1.0, (0.0,), j, 2.0), 0.5, "grad_sup").c_star
        for j in range(0, -5, -1)
    ]
    spread = max(consts) / min(consts)

    drift = []
    dts = 2.5e-4
    nts = int(round(1.0 / dts)) + 1
    for b0 in (0.0, 2.0, 8.0, 32.0):
        frames = tuple(VectorField.from_arrays(g, [np.exp(-k * dts) * np.sin(x + b0 * k * dts)]) for k in range(nts))
        traj = Trajectory(g, 0.0, dts, frames)
        rep = check_schauder_instance(
            traj, np.array([b0]), ParabolicBall(1.0, (0.0,), -2, 2.0),
            0.5, "grad_sup",
        )
        drift.append(rep.c_star)
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(drift, drift[1:]))

    j, M = -2, 2.0
    u2, _, _ = parabolic_rescale(heat, None, j, M)
    from vburgers.fields import laplacian_arrays, time_derivative_arrays

    def heat_resid(tr):
        dfr = time_derivative_arrays(tr.values, tr.dt)
        return np.stack([
            dfr[k] - np.stack([laplacian_arrays(c.values, tr.grid) for c in tr.frame(k).components])
            for k in range(1, len(tr) - 1)
        ])

    cov_err = float(np.abs(heat_resid(u2) - M**j * heat_resid(heat)).max())
    ok = spread < 2.0 and monotone and cov_err <= 1e-8
    _verdict(10, ok, f"implied-constant spread x{spread:.3f} < 2 over j=-4..0, drift sweep non-increasing "
                     f"({monotone}), rescale residual covariance error {cov_err:.2e} <= 1e-8")


def test_criterion_11_t_init_root():
    g = GridSpec(1, 64, TWO_PI)
    u0 = make_trig_field(g, seed=3, kmax=3, amplitude=0.3)
    forcing = TrigForcing(g, seed=11, kmax=2, amplitude=0.2)
    t_star = compute_t_init(u0, forcing)
    resid = abs(t_star * compute_k_constants(u0, forcing, t_star).K - 1.0)
    t_free = compute_t_init(u0, None)
    closed = 1.0 / compute_k_constants(u0, ZeroForcing(g), 0.0).K
    closed_err = abs(t_free - closed)
    ok = resid <= 1e-10 and closed_err <= 1e-14
    _verdict(11, ok, f"|t*cK(t) - 1| = {resid:.2e} <= 1e-10 with forcing, g=0 closed form error {closed_err:.2e}")


def test_criterion_12_fixed_point_residual(cole_hopf_run):
    g, phi0, u0, fp, elapsed = cole_hopf_run
    r_coarse = burgers_residual(fp).max
    cfg = SchemeConfig(grid=g, T=1.0, dt=5e-4, m_max=14, tol_fp=1e-10)
    recs, fp_fine, conv = run_picard(cfg, u0)
    assert conv
    r_fine = burgers_residual(fp_fine).max
    ratio = r_coarse / r_fine
    ok = r_coarse <= 1e-4 and 3.2 <= ratio <= 4.8
    _verdict(12, ok, f"residual {r_coarse:.3e} <= 1e-4 at dt=1e-3, reduction x{ratio:.2f} (~4x) under dt/2")
