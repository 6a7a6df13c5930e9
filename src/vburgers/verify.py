"""Numerical checks of the a priori estimates.

Every check produces a BoundReport comparing a measured left-hand side
against the claimed right-hand side, together with the minimal constant
that would make the bound hold on the sampled data.  Dimension-dependent
implied constants are never asserted; they are measured and reported so
tests can probe their stability across scales and parameters.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, WindowError
from .fields import (
    GridSpec,
    Trajectory,
    evaluate_arrays,
    frame_blocks,
    gradient_arrays,
    laplacian_arrays,
    rfft,
    time_derivative_frames,
)
from .norms import channel_sup, frame_sups, opnorm_sup
from .transport import TransportProblem, _amplified_integral, _log_amplification, solve_transport

SCHAUDER_FORMS = ("grad_sup", "grad_holder", "second_sup", "second_holder")
ROUNDING_FLOOR = 1e3 * np.finfo(float).eps  # relative to the largest iterate norm
CHECK_TOL = 1e-9  # slack tolerance of the uniform and short-time reports
SAMPLE_TIMES = 33  # frames sampled by the uniform checks
C_STAR_HI, C_STAR_REL_TOL, C_STAR_TOL = 1e8, 1e-3, 1e-12  # fit_c_star's range top, log-width and slack
BALL_SEED = 0  # directions of the 3-D ball samples
BALL_TIMES, BALL_RADII, BALL_DIRECTIONS = 7, 4, 8  # ball sample layout


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: LHS series, RHS series, fitted constant."""

    name: str
    params: dict
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    c_star: float
    verdict: str
    worst_t: float
    worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "params": self.params,
                "lhs": list(map(float, self.lhs)),
                "rhs": list(map(float, self.rhs)),
                "c_star": self.c_star,
                "verdict": self.verdict,
                "worst_t": self.worst_t,
                "worst_ratio": self.worst_ratio,
            }
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "slack"])
        for t, s in zip(self.times, self.slack):
            w.writerow([f"{t:.17g}", f"{s:.17g}"])
        return buf.getvalue()


def _make_report(name, params, times, lhs, rhs, c_star, tol=1e-12) -> BoundReport:
    times = np.asarray(times, dtype=float)
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    slack = rhs - lhs
    verdict = "pass" if (slack.size == 0 or slack.min() >= -tol) else "fail"
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 0.0))
    if times.size:
        k = int(np.argmax(ratio))
        worst_t, worst_ratio = float(times[k]), float(ratio[k])
    else:
        worst_t, worst_ratio = math.nan, 0.0
    return BoundReport(name, dict(params), times, lhs, rhs, float(c_star), verdict, worst_t, worst_ratio)


def _fitted_report(name, params, times, lhs, rhs_fn, c) -> BoundReport:
    """Report of lhs against rhs_fn(c), with c* fitted from c = 1 up and the check tolerance."""
    return _make_report(name, params, times, lhs, rhs_fn(c), fit_c_star(lhs, rhs_fn, lo=1.0), CHECK_TOL)


def fit_c_star(lhs, rhs_fn, lo: float = 1e-4) -> float:
    """Minimal c with lhs <= rhs_fn(c) everywhere, assuming rhs nondecreasing in c.

    Conventions: an all-zero LHS or a c-independent RHS that already holds
    reports 1.0; a bound that fails even at the top of the range reports inf.
    """
    lhs = np.asarray(lhs, dtype=float)

    def ok(c: float) -> bool:
        return bool(np.all(lhs <= np.asarray(rhs_fn(c), dtype=float) + C_STAR_TOL))

    if lhs.size == 0 or not np.any(lhs > 0):
        return 1.0
    if not ok(C_STAR_HI):
        return math.inf
    r_lo, r_hi = np.asarray(rhs_fn(lo), dtype=float), np.asarray(rhs_fn(C_STAR_HI), dtype=float)
    if np.allclose(r_lo, r_hi, rtol=1e-12, atol=0.0):
        return 1.0
    if ok(lo):
        return lo
    a, b = math.log(lo), math.log(C_STAR_HI)
    while b - a > C_STAR_REL_TOL:
        m = 0.5 * (a + b)
        if ok(math.exp(m)):
            b = m
        else:
            a = m
    return math.exp(b)


# ---------------------------------------------------------------------------
# uniform estimates


def _sample_indices(n: int) -> np.ndarray:
    if n <= SAMPLE_TIMES:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, SAMPLE_TIMES)).astype(int))


def check_uniform(records, kfn, c: float = 1.0, alpha: float = 0.5) -> dict:
    """Check the iterate-uniform bounds against the reference constants.

    Four sub-reports: sup of u against K0; sup of the gradient against K;
    sup of time-derivative and Hessian against (c K)^{3/2}; parabolic
    Hoelder seminorms of the second derivatives against (c K)^{(3+alpha)/2}.
    kfn maps a time to the KConstants computed at c = 1.  The records must
    carry the seminorms, as ``run_picard(..., record_holder=True)`` makes them.
    """
    if any(r.holder_hess is None or r.holder_dt is None for r in records):
        raise ValueError("records carry no Hoelder seminorms: run run_picard with record_holder=True")
    times = records[0].times
    idx = _sample_indices(len(times))
    ts = times[idx]
    kcs = [kfn(float(t)) for t in ts]

    rows = [[r.sup_u[idx], r.sup_grad_u[idx], np.maximum(r.sup_hess_u[idx], r.sup_dt_u[idx])] for r in records]
    lhs_u, lhs_g, lhs_2 = np.max(rows, axis=0)

    rhs_u = np.array([kc.K0 for kc in kcs])

    def rhs_g(cc):
        return np.array([kc.at_c(cc).K for kc in kcs])

    def rhs_2(cc):
        return np.array([kc.at_c(cc).Kbar ** 1.5 for kc in kcs])

    kc_T = kcs[-1]
    lhs_h = np.array([max(max(r.holder_hess, r.holder_dt) for r in records)])

    def rhs_h(cc):
        return np.array([kc_T.at_c(cc).Kbar ** ((3.0 + alpha) / 2.0)])

    params = {"c": c, "alpha": alpha}
    return {
        "sup": _fitted_report("uniform_sup", params, ts, lhs_u, lambda _: rhs_u, c),
        "grad": _fitted_report("uniform_grad", params, ts, lhs_g, rhs_g, c),
        "second": _fitted_report("uniform_second", params, ts, lhs_2, rhs_2, c),
        "holder": _fitted_report("uniform_holder", params, ts[-1:], lhs_h, rhs_h, c),
    }


# ---------------------------------------------------------------------------
# short-time estimates


def check_short_time(records, kfn, c: float = 1.0, beta: float = 0.25) -> dict:
    """Check the per-iterate contraction bounds inside the short-time window.

    For iterate m the window is t <= min(T, m / (c K(T))) with K evaluated
    at the supplied c.  Two sub-reports (update sup norm, update gradient)
    plus fitted decay exponents from regressing log of the update norm
    against m log(c K t / m); updates at or below ROUNDING_FLOOR times the
    largest iterate norm stay in the reports but not in the fits.
    """
    if not 0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    times = records[0].times
    T = float(times[-1])
    kT = kfn(T)
    kc = kT.at_c(c)
    K0, K = kc.K0, kc.K
    cK = c * K

    rows_t, rows_m = [], []
    lhs_v, lhs_gv = [], []
    for rec in records[1:]:
        m = rec.m
        t_max = min(T, m / cK) if cK > 0 else T
        mask = (times > 0) & (times <= t_max + 1e-12)
        for k in np.nonzero(mask)[0]:
            rows_t.append(times[k])
            rows_m.append(m)
            lhs_v.append(rec.sup_v[k])
            lhs_gv.append(rec.sup_grad_v[k])
    if not rows_t:
        raise WindowError("short-time window is empty at the supplied c")
    rows_t = np.asarray(rows_t)
    rows_m = np.asarray(rows_m)
    lhs_v = np.asarray(lhs_v)
    lhs_gv = np.asarray(lhs_gv)

    def rhs_v(cc):
        kcc = kT.at_c(cc)
        x = cc * kcc.K * rows_t / rows_m
        return cc * kcc.K0 * x**rows_m

    def rhs_gv(cc):
        kcc = kT.at_c(cc)
        x = cc * kcc.K * rows_t / rows_m
        return cc * kcc.K * x ** (beta * rows_m)

    x_reg = rows_m * np.log(np.maximum(cK * rows_t / rows_m, 1e-300))

    def fit_exponent(lhs, floor):
        sel = (lhs > floor) & (x_reg < 0)
        if sel.sum() >= 2 and np.ptp(x_reg[sel]) > 0:
            return float(np.polyfit(x_reg[sel], np.log(lhs[sel]), 1)[0])
        return math.nan

    # updates at the rounding floor of the iterates carry no rate: leave them out of the fits
    exp_v = fit_exponent(lhs_v, ROUNDING_FLOOR * max(float(r.sup_u.max()) for r in records))
    exp_gv = fit_exponent(lhs_gv, ROUNDING_FLOOR * max(float(r.sup_grad_u.max()) for r in records))

    params = {"c": c, "beta": beta, "T": T, "m_list": sorted(set(int(m) for m in rows_m))}
    return {
        "sup": _fitted_report("short_time_sup", {**params, "fitted_exponent": exp_v}, rows_t, lhs_v, rhs_v, c),
        "grad": _fitted_report("short_time_grad", {**params, "fitted_exponent": exp_gv}, rows_t, lhs_gv, rhs_gv, c),
    }


# ---------------------------------------------------------------------------
# stability of transport solutions under coefficient perturbations


def check_gronwall(p: TransportProblem, p_bar: TransportProblem, tol: float | None = None) -> BoundReport:
    """Difference of two transport solutions against the three-integral bound.

    Both problems must share the grid, the initial condition and the time
    stepping.  The amplification factor A(s, t) uses the operator norm of
    the barred zeroth-order coefficient.
    """
    if p.grid != p_bar.grid:
        raise ValueError("transport problems live on different grids")
    if not np.array_equal(p.u0.values, p_bar.u0.values):
        raise ValueError("the stability bound requires the same initial condition")
    if p.T != p_bar.T or p.dt != p_bar.dt:
        raise ValueError("time horizons must agree")

    phi = solve_transport(p)
    phi_bar = solve_transport(p_bar)
    times = phi.times
    nt = len(times)
    g, g_bar = p.f, p_bar.f

    def drift_arr(q, t):
        b = q.drift_at(t)
        return b if b is not None else 0.0

    u, u_bar = phi.values, phi_bar.values
    sups = [
        [frame_sups(u[sl], 1), frame_sups(gradient_arrays(u[sl], p.grid), 2), frame_sups(u_bar[sl] - u[sl], 1)]
        for sl in frame_blocks(nt, p.grid)
    ]
    sup_phi, grad_phi, lhs = map(np.concatenate, zip(*sups))

    def c_diff(t):
        cm, c0 = p_bar.matrix_at(t), p.matrix_at(t)
        if cm is None and c0 is None:
            return 0.0
        z = np.zeros((p.grid.d,) * 2)
        return opnorm_sup((cm if cm is not None else z) - (c0 if c0 is not None else z))

    sampled = max(p.matrix_times(times), p_bar.matrix_times(times), key=len)  # constant matrices differ by one norm
    c_diffs = np.broadcast_to([c_diff(t) for t in sampled], times.shape)
    integrand = np.empty(nt)
    for k, t in enumerate(times):
        db = np.asarray(drift_arr(p_bar, t) - drift_arr(p, t))
        b_diff = np.sqrt((db**2).sum(axis=0)).max() if db.ndim else float(abs(db))
        f_diff = channel_sup(g_bar.env(t) * g_bar.values - g.env(t) * g.values)
        integrand[k] = b_diff * grad_phi[k] + c_diffs[k] * sup_phi[k] + f_diff

    rhs = _amplified_integral(_log_amplification(p_bar, times), integrand, times)

    if tol is None:
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
        tol = 25.0 * scale * p.dt**2 + 1e-10
    return _make_report(
        "gronwall", {"T": p.T, "dt": p.dt, "tol": tol}, times, lhs, rhs,
        fit_c_star(lhs, lambda _: rhs), tol,
    )


# ---------------------------------------------------------------------------
# local gradient estimates on parabolic balls


@dataclass(frozen=True)
class ParabolicBall:
    """Backward space-time ball [t0 - M^j, t0] x closed_ball(x0, M^{j/2})."""

    t0: float
    x0: tuple
    j: int
    M: float = 2.0

    def __post_init__(self):
        if self.M <= 1:
            raise ValueError("M must exceed 1")
        object.__setattr__(self, "x0", tuple(float(x) for x in np.atleast_1d(self.x0)))

    @property
    def radius(self) -> float:
        return self.M ** (self.j / 2.0)

    @property
    def t_lo(self) -> float:
        return self.t0 - self.M**self.j

    def shrunk(self) -> "ParabolicBall":
        return ParabolicBall(self.t0, self.x0, self.j - 1, self.M)

    def validate_against(self, traj: Trajectory) -> None:
        if self.t_lo < traj.t0 - 1e-12:
            raise WindowError("parabolic ball starts before the trajectory")
        if self.t0 > traj.t_end + 1e-12:
            raise WindowError("parabolic ball ends after the trajectory")
        if self.radius > traj.grid.L / 2 + 1e-12:
            raise WindowError("parabolic ball does not fit inside the torus")


def _ball_fractions(d: int):
    """Sample layout in normalized ball coordinates (shared across scales)."""
    taus = np.linspace(0.0, 1.0, BALL_TIMES)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        ang = 2 * np.pi * np.arange(BALL_DIRECTIONS) / BALL_DIRECTIONS
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(BALL_SEED)
        raw = rng.standard_normal((BALL_DIRECTIONS, 3))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rhos = np.linspace(1.0 / BALL_RADII, 1.0, BALL_RADII)
    offs = [np.zeros(d)]
    for r in rhos:
        for u in dirs:
            offs.append(r * u)
    return taus, np.array(offs)


def _ball_points(ball: ParabolicBall, taus, offs):
    ts = ball.t0 - ball.M**ball.j * taus
    pts = np.asarray(ball.x0) + ball.radius * offs
    return ts, pts


def _interp_frames(arrs: np.ndarray, times: np.ndarray, t: float) -> np.ndarray:
    if t <= times[0]:
        return arrs[0]
    if t >= times[-1]:
        return arrs[-1]
    k = int(np.searchsorted(times, t) - 1)
    w = (t - times[k]) / (times[k + 1] - times[k])
    return (1 - w) * arrs[k] + w * arrs[k + 1]


def _coeff_at(coef, t: float, pts: np.ndarray, width: int) -> np.ndarray:
    """Evaluate a coefficient at space-time points; shape (npts, width)."""
    npts = len(pts)
    if coef is None:
        return np.zeros((npts, width))
    if callable(coef):
        out = np.asarray(coef(t, pts), dtype=float)
        return out.reshape(npts, width)
    arr = np.asarray(coef, dtype=float)
    if arr.ndim == 0:
        return np.full((npts, width), float(arr))
    return np.broadcast_to(arr.reshape(1, width), (npts, width)).copy()


def _pair_seminorm(vals: np.ndarray, pts: np.ndarray, ts: np.ndarray, alpha: float) -> float:
    """Sampled parabolic seminorm over explicit space-time sample points.

    vals: (nt, npts, ch); distances are direct (the ball is unwrapped).
    """
    nt, npts, ch = vals.shape
    V = vals.reshape(nt * npts, ch)
    X = np.broadcast_to(pts[None, :, :], (nt, npts, pts.shape[1])).reshape(nt * npts, -1)
    Tm = np.broadcast_to(ts[:, None], (nt, npts)).reshape(-1)
    dv = np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).sum(-1))
    dx = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    dtm = np.abs(Tm[:, None] - Tm[None, :])
    den = dx**alpha + dtm ** (alpha / 2.0)
    mask = den > 0
    if not mask.any():
        return 0.0
    return float((dv[mask] / den[mask]).max())


def check_schauder_instance(
    u: Trajectory,
    a,
    b,
    f,
    ball: ParabolicBall,
    alpha: float = 0.5,
    which: str = "grad_sup",
    residual_tol: float = 1e-5,
) -> BoundReport:
    """One local gradient estimate for (d/dt - Lap + a) u = b . grad u + f.

    `which` selects the estimated quantity on the shrunk ball: "grad_sup",
    "grad_holder", "second_sup" (time derivative and Hessian sups), or
    "second_holder".  The right-hand side is assembled exactly, including
    the drift penalty R_b = (1 + M^{j/2} |b(t0, x0)|)^{-1}; the reported
    c_star is the implied constant LHS / RHS.  The "second_holder" form
    uses alpha' = (alpha + 1) / 2.
    """
    if which not in SCHAUDER_FORMS:
        raise ValueError(f"which must be one of {SCHAUDER_FORMS}")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    alpha_prime = (alpha + 1.0) / 2.0
    ball.validate_against(u)
    grid = u.grid
    d, ncomp = grid.d, u.values.shape[1]
    M, j = ball.M, ball.j
    inner = ball.shrunk()

    taus, offs = _ball_fractions(d)
    ts_out, pts_out = _ball_points(ball, taus, offs)
    ts_in, pts_in = _ball_points(inner, taus, offs)

    times = u.times
    u_arr = u.values
    u_hat = rfft(u_arr, grid)
    grad_arr = gradient_arrays(u_arr, grid, u_hat).reshape((len(u), ncomp * d) + grid.shape)
    lap_arr = laplacian_arrays(u_arr, grid, u_hat)
    dt_arr = time_derivative_frames(u)

    def sample(arrs, ts, pts):
        return np.stack([evaluate_arrays(_interp_frames(arrs, times, t), grid, pts) for t in ts])

    # hypothesis checks: nonnegative zeroth-order coefficient, u solves the PDE
    a_out = np.stack([_coeff_at(a, t, pts_out, 1)[:, 0] for t in ts_out])
    if a_out.min() < -1e-12:
        raise ValueError("the zeroth-order coefficient must be nonnegative on the ball")
    u_out = sample(u_arr, ts_out, pts_out)
    du_out = sample(dt_arr, ts_out, pts_out)
    lap_out = sample(lap_arr, ts_out, pts_out)
    grad_out = sample(grad_arr, ts_out, pts_out)
    b_out = np.stack([_coeff_at(b, t, pts_out, d) for t in ts_out])
    f_out = np.stack([_coeff_at(f, t, pts_out, ncomp) for t in ts_out])
    adv = np.einsum("tpk,tpck->tpc", b_out, grad_out.reshape(len(ts_out), -1, ncomp, d))
    res = du_out + a_out[:, :, None] * u_out - lap_out - adv - f_out
    res_max = float(np.abs(res).max())
    if res_max > residual_tol:
        raise OracleError(f"field does not solve the equation on the ball (residual {res_max:.3e})")

    sup_u = float(np.sqrt((u_out**2).sum(-1)).max())
    norm_f = _pair_seminorm(f_out, pts_out, ts_out, alpha)
    norm_a = _pair_seminorm(a_out[:, :, None], pts_out, ts_out, alpha)
    norm_b = _pair_seminorm(b_out, pts_out, ts_out, alpha)
    b_center = _coeff_at(b, ball.t0, np.asarray([ball.x0]), d)[0]
    R_b = 1.0 / (1.0 + M ** (j / 2.0) * float(np.linalg.norm(b_center)))

    # the estimated quantities on the shrunk ball: the gradient, or the time derivative and the Hessian
    if which.startswith("grad"):
        inner_arrs = [grad_arr]
    else:
        inner_arrs = [dt_arr, gradient_arrays(grad_arr, grid).reshape((len(u), ncomp * d * d) + grid.shape)]
    samples = [sample(arr, ts_in, pts_in) for arr in inner_arrs]
    if which.endswith("sup"):
        lhs = max(float(np.sqrt((vals**2).sum(-1)).max()) for vals in samples)
    else:
        lhs = max(_pair_seminorm(vals, pts_in, ts_in, alpha) for vals in samples)

    if which == "grad_sup":
        rhs = M ** (j / 2.0) / R_b * (
            M ** (j * alpha / 2.0) * norm_f
            + (M ** (j * alpha) / R_b * norm_b**2 + M ** (j * alpha / 2.0) * norm_a + M ** (-j)) * sup_u
        )
    elif which == "grad_holder":
        rhs = M ** (-j * alpha / 2.0) * R_b ** (-(1.0 + alpha) / 2.0) * (
            M ** (j * (1 + alpha) / 2.0) * norm_f
            + (
                M ** (j * (1 + alpha + alpha**2) / (2 * alpha)) * R_b ** (-0.5 * (1 + alpha) / alpha) * norm_b ** ((1 + alpha) / alpha)
                + M ** (j * (1 + alpha) / 2.0) * norm_a
                + M ** (-j / 2.0)
            )
            * sup_u
        )
    elif which == "second_sup":
        rhs = (1.0 / R_b) * (
            M ** (j * alpha / 2.0) * norm_f
            + (M ** (j * alpha) / R_b * norm_b**2 + M ** (j * alpha / 2.0) * norm_a + M ** (-j)) * sup_u
        )
    else:
        rhs = M ** (-j * alpha / 2.0) * R_b ** (-(1.0 + alpha_prime / 2.0)) * (
            M ** (j * alpha / 2.0) * norm_f
            + (
                M ** (j * alpha / 2.0) * R_b ** (-0.5 * (2 + alpha_prime) / (1 + alpha)) * norm_b ** ((2 + alpha) / (1 + alpha))
                + M ** (j * alpha / 2.0) * norm_a
                + M ** (-j)
            )
            * sup_u
        )

    implied = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    params = {
        "which": which, "alpha": alpha, "alpha_prime": alpha_prime, "M": M, "j": j,
        "R_b": R_b, "sup_u": sup_u, "residual": res_max, "seed": BALL_SEED,
    }
    return _make_report(f"schauder_{which}", params, np.array([ball.t0]), np.array([lhs]), np.array([rhs]), implied)


def parabolic_rescale(u: Trajectory, coefficients: dict, j: int, M: float, ball: ParabolicBall | None = None):
    """Zoom to unit scale: t -> M^{-j} t, x -> M^{-j/2} x, nodes preserved.

    Field values are untouched; the grid period, the frame spacing and the
    coefficient amplitudes absorb the scaling (drift by M^{j/2}, zeroth
    order and forcing by M^j).  Returns (trajectory, coefficients, ball);
    the rescaled residual equals M^j times the original at the same nodes.
    """
    if M <= 1:
        raise ValueError("M must exceed 1")
    sj = float(M) ** j
    sx = float(M) ** (j / 2.0)
    g2 = GridSpec(u.grid.d, u.grid.n, u.grid.L / sx)
    u2 = Trajectory(g2, u.t0 / sj, u.dt / sj, u.values)

    def scale_coef(coef, amp, t_fac, x_fac):
        if coef is None:
            return None
        if callable(coef):
            return lambda t, pts: amp * np.asarray(coef(t * t_fac, np.asarray(pts) * x_fac))
        return amp * np.asarray(coef, dtype=float)

    out = {
        "a": scale_coef(coefficients.get("a"), sj, sj, sx),
        "b": scale_coef(coefficients.get("b"), sx, sj, sx),
        "f": scale_coef(coefficients.get("f"), sj, sj, sx),
    }
    ball2 = None
    if ball is not None:
        ball2 = ParabolicBall(ball.t0 / sj, tuple(x / sx for x in ball.x0), ball.j - j, ball.M)
    return u2, out, ball2
