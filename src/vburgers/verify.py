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
    locate,
    rfft,
    time_derivative_frames,
)
from .norms import channel_sup, frame_sups, opnorm_sup
from .transport import TransportProblem, _amplified_integral, _log_amplification, solve_transport

SCHAUDER_FORMS = ("grad_sup", "grad_holder", "second_sup")
ROUNDING_FLOOR = 1e3 * np.finfo(float).eps  # relative to the largest iterate norm
CHECK_TOL = 1e-9  # slack tolerance of the uniform and short-time reports
SAMPLE_TIMES = 33  # frames sampled by the uniform checks
C_STAR_TOL = 1e-12  # fit_c_star's slack, relative to the largest LHS
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


def _fitted_report(name, params, times, lhs, rhs1, p, c, log_rhs1=None, tol=CHECK_TOL) -> BoundReport:
    """Report of lhs against rhs1 c^p at the run's c, with c* = max(1, c_min) and c_min in the params.

    rhs1 is the right-hand side at c = 1 and p its power of c; log_rhs1, the
    log of rhs1, is passed where rhs1 itself can underflow.  A right-hand
    side that is not a finite float at c is a WindowError.
    """
    if log_rhs1 is None:
        with np.errstate(divide="ignore"):
            log_rhs1 = np.log(rhs1)
    c_min = fit_c_star(lhs, log_rhs1, p)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.asarray(rhs1, dtype=float) * float(c) ** np.asarray(p, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise WindowError(f"the right-hand side of {name}, rhs1 c^p, does not fit in floats at c={c:g}")
    return _make_report(name, {**params, "c_min": c_min}, times, lhs, rhs, max(1.0, c_min), tol)


def fit_c_star(lhs, log_rhs1, p) -> float:
    """Smallest c >= 0 with lhs <= rhs1 c^p + tol on every row, in closed form.

    log_rhs1 is the log of each row's right-hand side at c = 1 (-inf for 0)
    and p >= 0 its power of c, so a row needs c >= ((lhs - tol) / rhs1)^{1/p}.
    The slack tol is C_STAR_TOL times the largest LHS, so c_min does not
    depend on the units of the LHS.  A row with lhs <= tol imposes nothing,
    so an all-zero LHS gives 0; a failing row with p = 0, or with rhs1 = 0,
    gives inf.
    """
    lhs, log_rhs1, p = np.broadcast_arrays(np.asarray(lhs, dtype=float), log_rhs1, p)
    tol = C_STAR_TOL * np.max(lhs, initial=0.0)
    on = lhs > tol
    log_need = np.log(lhs[on] - tol) - log_rhs1[on]  # log of the c^p each row needs
    p = p[on]
    if np.any(log_need[p == 0] > 0):
        return math.inf
    return float(np.exp(np.max(log_need[p > 0] / p[p > 0], initial=-np.inf)))


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

    lhs_h = np.array([max(max(r.holder_hess, r.holder_dt) for r in records)])

    # the right-hand sides at c = 1 and their powers of c: K0, K = c^2 base and (c K)^q = c^{3q} base^q
    q_h = (3.0 + alpha) / 2.0
    params = {"c": c, "alpha": alpha}
    return {
        "sup": _fitted_report("uniform_sup", params, ts, lhs_u, [kc.K0 for kc in kcs], 0.0, c),
        "grad": _fitted_report("uniform_grad", params, ts, lhs_g, [kc.base for kc in kcs], 2.0, c),
        "second": _fitted_report("uniform_second", params, ts, lhs_2, [kc.base**1.5 for kc in kcs], 4.5, c),
        "holder": _fitted_report("uniform_holder", params, ts[-1:], lhs_h, [kcs[-1].base**q_h], 3.0 * q_h, c),
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
    cK = c * kT.at_c(c).K

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

    # the right-hand sides at c = 1, with their logs, and their powers of c:
    # c K0 x^m and c K x^{beta m} with x = c K t / m and K = c^2 base
    B = kT.base
    x = B * rows_t / rows_m
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
        log_v, log_gv = np.log(kT.K0) + rows_m * log_x, np.log(B) + beta * rows_m * log_x
    rhs_v, p_v = kT.K0 * x**rows_m, 1.0 + 3.0 * rows_m
    rhs_gv, p_gv = B * x ** (beta * rows_m), 3.0 + 3.0 * beta * rows_m

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
        "sup": _fitted_report(
            "short_time_sup", {**params, "fitted_exponent": exp_v}, rows_t, lhs_v, rhs_v, p_v, c, log_v
        ),
        "grad": _fitted_report(
            "short_time_grad", {**params, "fitted_exponent": exp_gv}, rows_t, lhs_gv, rhs_gv, p_gv, c, log_gv
        ),
    }


# ---------------------------------------------------------------------------
# stability of transport solutions under coefficient perturbations


def check_gronwall(p: TransportProblem, p_bar: TransportProblem) -> BoundReport:
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

    u, u_bar = phi.values, phi_bar.values
    sups = [
        [frame_sups(u[sl], 1), frame_sups(gradient_arrays(u[sl], p.grid), 2), frame_sups(u_bar[sl] - u[sl], 1)]
        for sl in frame_blocks(nt, p.grid)
    ]
    sup_phi, grad_phi, lhs = map(np.concatenate, zip(*sups))

    zero = np.zeros((p.grid.d,) * 2)
    c_diff = opnorm_sup((zero if p_bar.C is None else p_bar.C) - (zero if p.C is None else p.C))
    integrand = np.empty(nt)
    for k, t in enumerate(times):
        b_bar, b = (0.0 if q.b is None else q.drift_at(t) for q in (p_bar, p))
        db = np.asarray(b_bar - b)
        b_diff = np.sqrt((db**2).sum(axis=0)).max() if db.ndim else float(abs(db))
        f_diff = channel_sup(g_bar.env(t) * g_bar.values - g.env(t) * g.values)
        integrand[k] = b_diff * grad_phi[k] + c_diff * sup_phi[k] + f_diff

    rhs = _amplified_integral(_log_amplification(p_bar, times), integrand, times)

    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
    tol = 25.0 * scale * p.dt**2 + 1e-10
    return _fitted_report("gronwall", {"T": p.T, "dt": p.dt, "tol": tol}, times, lhs, rhs, 0.0, 1.0, tol=tol)


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
    b,
    ball: ParabolicBall,
    alpha: float = 0.5,
    which: str = "grad_sup",
    residual_tol: float = 1e-5,
) -> BoundReport:
    """One local gradient estimate for d/dt u - Lap u = b . grad u, with b None (zero) or one constant d-vector.

    `which` selects the estimated quantity on the shrunk ball: "grad_sup",
    "grad_holder" or "second_sup" (time derivative and Hessian sups).  The
    right-hand side includes the drift penalty R_b = (1 + M^{j/2} |b|)^{-1};
    the reported c_star is the implied constant LHS / RHS.
    """
    if which not in SCHAUDER_FORMS:
        raise ValueError(f"which must be one of {SCHAUDER_FORMS}")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    ball.validate_against(u)
    grid = u.grid
    d, ncomp = grid.d, u.values.shape[1]
    M, j = ball.M, ball.j
    b = np.zeros(d) if b is None else np.asarray(b, dtype=float).reshape(d)

    taus, offs = _ball_fractions(d)
    ts_out, pts_out = _ball_points(ball, taus, offs)
    ts_in, pts_in = _ball_points(ball.shrunk(), taus, offs)

    u_arr = u.values
    u_hat = rfft(u_arr, grid)
    grad_arr = gradient_arrays(u_arr, grid, u_hat).reshape((len(u), ncomp * d) + grid.shape)
    lap_arr = laplacian_arrays(u_arr, grid, u_hat)
    dt_arr = time_derivative_frames(u)

    def sample(arrs, ts, pts):  # linear in time between frames, as Trajectory.values_at
        locs = [locate(t, u.t0, u.dt, len(u)) for t in ts]
        frames = [arrs[k] if w == 0.0 else (1 - w) * arrs[k] + w * arrs[k + 1] for k, w in locs]
        return np.stack([evaluate_arrays(frame, grid, pts) for frame in frames])

    # the hypothesis: u solves the equation on the ball
    u_out = sample(u_arr, ts_out, pts_out)
    grad_out = sample(grad_arr, ts_out, pts_out).reshape(len(ts_out), -1, ncomp, d)
    res = sample(dt_arr, ts_out, pts_out) - sample(lap_arr, ts_out, pts_out) - grad_out @ b
    res_max = float(np.abs(res).max())
    if res_max > residual_tol:
        raise OracleError(f"field does not solve the equation on the ball (residual {res_max:.3e})")

    sup_u = float(np.sqrt((u_out**2).sum(-1)).max())
    R_b = 1.0 / (1.0 + M ** (j / 2.0) * float(np.linalg.norm(b)))

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
        rhs = M ** (j / 2.0) / R_b * (M ** (-j) * sup_u)
    elif which == "grad_holder":
        rhs = M ** (-j * alpha / 2.0) * R_b ** (-(1.0 + alpha) / 2.0) * (M ** (-j / 2.0) * sup_u)
    else:
        rhs = (1.0 / R_b) * (M ** (-j) * sup_u)

    implied = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    params = {
        "which": which, "alpha": alpha, "M": M, "j": j,
        "R_b": R_b, "sup_u": sup_u, "residual": res_max, "seed": BALL_SEED,
    }
    return _make_report(f"schauder_{which}", params, np.array([ball.t0]), np.array([lhs]), np.array([rhs]), implied)


def parabolic_rescale(u: Trajectory, b, j: int, M: float, ball: ParabolicBall | None = None):
    """Zoom to unit scale: t -> M^{-j} t, x -> M^{-j/2} x, nodes preserved.

    Field values are untouched; the grid period, the frame spacing and the
    drift b (None or a constant d-vector, scaled by M^{j/2}) absorb the
    scaling.  Returns (trajectory, b, ball); the rescaled residual equals
    M^j times the original at the same nodes.
    """
    if M <= 1:
        raise ValueError("M must exceed 1")
    sj = float(M) ** j
    sx = float(M) ** (j / 2.0)
    g2 = GridSpec(u.grid.d, u.grid.n, u.grid.L / sx)
    u2 = Trajectory(g2, u.t0 / sj, u.dt / sj, u.values)
    b2 = None if b is None else sx * np.asarray(b, dtype=float)
    ball2 = None
    if ball is not None:
        ball2 = ParabolicBall(ball.t0 / sj, tuple(x / sx for x in ball.x0), ball.j - j, ball.M)
    return u2, b2, ball2
