"""Batch experiment runner.

Reads a strict JSON configuration, runs the requested checks, and writes
deterministic CSV/JSON artifacts (plus optional field snapshots) to the
output directory.  No interactive steering; exit status reports the
overall verdict.

Exit codes: 0 all checks pass, 1 at least one check fails (reports are
still written), 2 configuration error (including requests outside a
check's resolvable window), 3 numerical divergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, DivergenceError, OracleError, ResolutionError, WindowError
from .fields import GridSpec, ScalarField, Trajectory, VectorField, gradient, make_trig_field, write_snapshot
from .forcing import Forcing, GradientForcing, TrigForcing, ZeroForcing
from .heat import heat_apply_values, holder_scaling_probe, lacunary_field, n_steps
from .norms import KProfile, frame_sups, interpolation_gap
from .oracle import COLE_HOPF_LAMBDA, cole_hopf, residual
from .scheme import SchemeConfig, compute_t_init, records_to_csv, run_picard, run_summary_json
from .transport import TransportProblem
from .verify import ParabolicBall, check_gronwall, check_schauder_instance, check_short_time, check_uniform

_GRID_KEYS = {"d", "n", "L"}
_SCHEME_KEYS = {"nu", "c", "alpha", "beta", "T", "dt", "m_max", "tol_fp", "seed"}
_DATA_KINDS = {
    "zero": set(),
    "constant": {"value"},
    "trig": {"seed", "kmax", "amplitude"},
    "cole_hopf": {"epsilon"},
    "lacunary": {"alpha", "seed"},
}
_FORCING_KINDS = {
    "zero": set(),
    "trig": {"seed", "kmax", "amplitude", "omega", "mod"},
    "gradient": {"seed", "kmax", "amplitude", "omega", "mod"},
}
_TOP_KEYS = {"name", "grid", "scheme", "data", "forcing", "checks", "out_dir", "snapshots"}
_TOP_TYPES = {"name": str, "out_dir": str, "snapshots": bool}
_INT_KEYS = {"d", "n", "m_max", "seed", "kmax"}
MAX_GRID_NODES = 2**20


def _require_keys(section: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _require_numbers(section: dict, where: str) -> None:
    for key, v in section.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
        if not abs(v) <= sys.float_info.max:
            raise ConfigError(f"{where}.{key} must be a finite number, got {v!r}")
        if key in _INT_KEYS and not (float(v).is_integer() and v >= 0):
            raise ConfigError(f"{where}.{key} must be a nonnegative integer, got {v!r}")


def _kind_params(raw: dict, name: str, kinds: dict, optional: set) -> dict:
    """Validated parameters of the ``name`` section (default zero kind), without "kind"."""
    section = raw.setdefault(name, {"kind": "zero"})
    kind = section.get("kind") if isinstance(section, dict) else None
    if kind not in sorted(kinds):
        raise ConfigError(f"{name} must be an object with kind one of {sorted(kinds)}")
    params = {k: v for k, v in section.items() if k != "kind"}
    _require_keys(params, kinds[kind], kinds[kind] - optional, f"{name}({kind})")
    return params


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, {"name", "grid", "scheme", "checks"}, "config")
    for key, kind in _TOP_TYPES.items():
        if key in raw and not isinstance(raw[key], kind):
            raise ConfigError(f"config.{key} must be of type {kind.__name__}, got {raw[key]!r}")
    for name, allowed, required in (("grid", _GRID_KEYS, _GRID_KEYS), ("scheme", _SCHEME_KEYS, {"T", "dt"})):
        _require_keys(raw[name], allowed, required, name)
        _require_numbers(raw[name], name)
    data = _kind_params(raw, "data", _DATA_KINDS, set())
    value = data.pop("value", None)
    _require_numbers(data, "data")
    if value is not None:
        value = value if isinstance(value, list) else [value]
        _require_numbers(dict(enumerate(value)), "data.value")
        if len(value) != raw["grid"]["d"]:
            raise ConfigError(f"data.value has {len(value)} entries, the grid has d={raw['grid']['d']}")
    _require_numbers(_kind_params(raw, "forcing", _FORCING_KINDS, {"omega", "mod"}), "forcing")
    checks = raw["checks"]
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("checks must be a list of check names")
    for chk in checks:
        if chk not in REGISTRY:
            raise ConfigError(f"unknown check {chk!r}; see the registry ('list' verb)")
        if "cole_hopf" in REGISTRY[chk][2] and raw["data"]["kind"] != "cole_hopf":
            raise ConfigError(f"{chk} requires the cole_hopf data scenario")
    return raw


def _build(cfg: dict):
    """(scheme, u0, phi0, forcing) of a loaded config; a config they cannot be built from is a ConfigError."""
    try:
        grid = _build_grid(cfg["grid"])
        u0, phi0 = _build_data(cfg["data"], grid)
        scheme = _build_scheme(cfg["scheme"], grid)
        picard = [chk for chk in cfg["checks"] if "records" in REGISTRY[chk][2]]
        if picard and n_steps(scheme.T, scheme.dt) < 2:
            raise ConfigError(f"{picard[0]} needs T >= 2 dt: the Picard records' time derivatives take three frames")
        return scheme, u0, phi0, _build_forcing(cfg["forcing"], grid)
    except (ValueError, OverflowError) as e:  # the constructors' own checks; ResolutionError is a ValueError
        raise ConfigError(str(e)) from e


def _build_grid(section: dict) -> GridSpec:
    grid = GridSpec(int(section["d"]), int(section["n"]), float(section["L"]))
    if grid.num_nodes > MAX_GRID_NODES:
        raise ConfigError(f"grid has {grid.num_nodes} nodes, above the limit of {MAX_GRID_NODES}")
    return grid


def _build_scheme(section: dict, grid: GridSpec) -> SchemeConfig:
    # runs solve in the unit-viscosity frame; other nu go through scheme.rescale_viscosity
    if section.get("nu", 1.0) != 1.0:
        raise ConfigError(f"nu={section['nu']} is not supported by the runner: only nu = 1")
    return SchemeConfig(grid=grid, **{k: int(v) if k in _INT_KEYS else v for k, v in section.items() if k != "nu"})


def _cole_hopf_potential(grid: GridSpec, epsilon: float) -> ScalarField:
    if not 0 < epsilon < 1:
        raise ConfigError("epsilon must be in (0, 1) to keep the potential positive")
    mesh = grid.mesh()
    vals = 1.0 + epsilon * np.cos(2 * np.pi / grid.L * mesh[0])
    for ax in range(1, grid.d):
        vals = vals + epsilon / (ax + 1) * np.cos(2 * np.pi / grid.L * mesh[ax])
    return ScalarField(grid, vals)


def _build_data(section: dict, grid: GridSpec):
    """Returns (u0, exact_phi0 or None)."""
    kind = section["kind"]
    if kind == "zero":
        return VectorField.zero(grid), None
    if kind == "constant":
        return VectorField.constant(grid, section["value"]), None
    if kind == "trig":
        return make_trig_field(grid, int(section["seed"]), int(section["kmax"]), float(section["amplitude"])), None
    if kind == "cole_hopf":
        phi0 = _cole_hopf_potential(grid, float(section["epsilon"]))
        return gradient(ScalarField(grid, np.log(phi0.values))) * COLE_HOPF_LAMBDA, phi0
    # lacunary: rough scalar profile placed in the first component
    f = lacunary_field(grid, float(section["alpha"]), int(section["seed"]))
    comps = [f.values] + [np.zeros(grid.shape) for _ in range(grid.d - 1)]
    return VectorField.from_arrays(grid, comps), None


def _build_forcing(section: dict, grid: GridSpec):
    kind = section["kind"]
    if kind == "zero":
        return ZeroForcing(grid)
    kw = dict(omega=float(section.get("omega", 1.0)), mod=float(section.get("mod", 0.5)))
    if kind == "trig":
        return TrigForcing(grid, int(section["seed"]), int(section["kmax"]), float(section["amplitude"]), **kw)
    pot_vec = make_trig_field(grid, int(section["seed"]), int(section["kmax"]), float(section["amplitude"]))
    return GradientForcing(pot_vec.components[0], **kw)


# ---------------------------------------------------------------------------
# artifact emission


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(out_dir: str, stem: str, report) -> bool:
    _atomic_write(os.path.join(out_dir, stem + ".json"), report.to_json())
    _atomic_write(os.path.join(out_dir, stem + ".csv"), report.to_csv())
    return report.passed


def _emit_verdict(out_dir: str, stem: str, passed: bool, **fields) -> bool:
    """Write ``stem.json``: the fields in order, then the verdict."""
    _atomic_write(os.path.join(out_dir, stem + ".json"), json.dumps({**fields, "verdict": "pass" if passed else "fail"}))
    return passed


# ---------------------------------------------------------------------------
# experiment execution


@dataclass(frozen=True)
class _Run:
    """What the check runners share: the built config and, when a check needs them, the Picard run and K(t)."""

    scheme: SchemeConfig
    u0: VectorField
    phi0: ScalarField | None
    g: Forcing
    records: list | None
    fixed_point: Trajectory | None
    kfn: KProfile | None


def _uniform_estimates(run: _Run, out_dir: str) -> bool:
    reports = check_uniform(run.records, run.kfn, c=run.scheme.c, alpha=run.scheme.alpha)
    return all([_emit_report(out_dir, f"uniform_{key}", rep) for key, rep in reports.items()])


def _short_time(run: _Run, out_dir: str) -> bool:
    reports = check_short_time(run.records, run.kfn, c=run.scheme.c, beta=run.scheme.beta)
    return all([_emit_report(out_dir, f"short_time_{key}", rep) for key, rep in reports.items()])


def _gronwall(run: _Run, out_dir: str) -> bool:
    """Deterministic perturbed coefficient pair derived from the config seed."""
    cfg, u0 = run.scheme, run.u0
    grid = cfg.grid
    rng = np.random.default_rng(cfg.seed)
    eps = 0.05 * (1.0 + rng.random())
    b_bar = u0 + VectorField.constant(grid, [eps] * grid.d)
    f_bar = TrigForcing(grid, cfg.seed + 1, 2, eps)
    p = TransportProblem(u0=u0, b=u0, C=None, f=run.g, T=cfg.T, dt=cfg.dt)
    p_bar = TransportProblem(u0=u0, b=b_bar, C=eps * np.eye(grid.d), f=f_bar, T=cfg.T, dt=cfg.dt)
    return _emit_report(out_dir, "gronwall", check_gronwall(p, p_bar))


def _schauder(run: _Run, out_dir: str) -> bool:
    """Implied constant of the gradient bound across ball scales on pure heat flow."""
    cfg = run.scheme
    grid, T, dt = cfg.grid, cfg.T, cfg.dt
    u0 = run.u0.values
    traj = Trajectory(grid, 0.0, dt, np.stack([heat_apply_values(u0, grid, k * dt) for k in range(n_steps(T, dt) + 1)]))
    M = 2.0
    js = [j for j in range(0, -5, -1) if M**j <= T and M ** (j / 2.0) <= grid.L / 2]
    if not js:
        raise ConfigError("no parabolic ball fits the configured horizon and torus")
    center = tuple(0.0 for _ in range(grid.d))
    constants = []
    for j in js:
        rep = check_schauder_instance(traj, None, None, None, ParabolicBall(T, center, j, M), cfg.alpha, "grad_sup")
        _emit_report(out_dir, f"schauder_j{abs(j)}", rep)
        constants.append(rep.c_star)
    pos = [c for c in constants if c > 0]
    passed = bool(pos) and max(pos) / min(pos) < 2.0
    return _emit_verdict(out_dir, "schauder_sweep", passed, j=js, implied_constants=constants)


def _interpolation(run: _Run, out_dir: str) -> bool:
    cfg = run.scheme
    grid, n_fields = cfg.grid, 50
    gaps_space, gaps_time = [], []
    for i in range(n_fields):
        u = make_trig_field(grid, cfg.seed + i, max(2, grid.n // 8), 1.0)
        gaps_space.append(interpolation_gap(u, cfg.alpha, seed=cfg.seed))
        traj = Trajectory(grid, 0.0, 0.01, np.stack([heat_apply_values(u.values, grid, 0.01 * k) for k in range(5)]))
        gaps_time.append(interpolation_gap(traj, cfg.alpha, seed=cfg.seed))
    worst_space, worst_time = min(gaps_space), min(gaps_time)
    return _emit_verdict(
        out_dir, "interpolation", min(worst_space, worst_time) >= -1e-10,
        n_fields=n_fields, worst_gap_space=worst_space, worst_gap_spacetime=worst_time,
    )


def _heat_scaling(run: _Run, out_dir: str) -> bool:
    t_list = np.geomspace(1e-4, 1e-2, 9)
    ok = True
    for kappa in (1, 2):
        rep = holder_scaling_probe(run.scheme.alpha, kappa, t_list, run.scheme.grid, run.scheme.seed)
        _atomic_write(os.path.join(out_dir, f"heat_scaling_k{kappa}.json"), rep.to_json())
        ok &= abs(rep.slope - rep.predicted_slope) <= 0.05
    return ok


def _oracle_compare(run: _Run, out_dir: str) -> bool:
    exact = cole_hopf(run.phi0, None, run.scheme.T, run.scheme.dt)
    diff = float(frame_sups(run.fixed_point.values - exact.values, 1).max())
    return _emit_verdict(out_dir, "oracle_compare", diff <= 1e-5, sup_difference=diff, tolerance=1e-5)


# check name -> (one-line description, runner(run, out_dir) -> passed, needs), where the needs are
# "records" (the Picard run and K(t)), "holder" (records carrying the Hoelder seminorms) and
# "cole_hopf" (the cole_hopf data scenario, checked at load)
REGISTRY = {
    "uniform_estimates": (
        "iterate-uniform sup bounds on u, its gradient and its second derivatives against the reference constants",
        _uniform_estimates,
        {"records", "holder"},
    ),
    "short_time": (
        "per-iterate contraction of the updates inside the short-time window, with fitted decay exponents",
        _short_time,
        {"records"},
    ),
    "gronwall": (
        "stability of transport solutions under coefficient perturbations via the exponential amplification bound",
        _gronwall,
        set(),
    ),
    "schauder": (
        "local gradient estimates on parabolic balls; implied constants probed across scales",
        _schauder,
        set(),
    ),
    "interpolation": (
        "sup-gradient interpolation control of Hoelder seminorms on randomized fields",
        _interpolation,
        set(),
    ),
    "heat_scaling": (
        "smoothing rate of the heat semigroup on a rough lacunary datum (log-log slope fit)",
        _heat_scaling,
        set(),
    ),
    "oracle_compare": (
        "fixed point of the iteration against the exact logarithmic-gradient solution",
        _oracle_compare,
        {"records", "cole_hopf"},
    ),
}


def _run_checks(cfg: dict, out_dir: str) -> bool:
    scheme_cfg, u0, phi0, g = _build(cfg)
    checks = cfg["checks"]

    needs = set().union(*(REGISTRY[chk][2] for chk in checks))
    records = fixed_point = kfn = None
    if "records" in needs:
        records, fixed_point, converged = run_picard(scheme_cfg, u0, g, record_holder="holder" in needs)
        _atomic_write(os.path.join(out_dir, "records.csv"), records_to_csv(records))
        kfn = KProfile(u0, g, scheme_cfg.alpha, scheme_cfg.seed)
        t_init = compute_t_init(u0, g, c=scheme_cfg.c, kfn=kfn)
        kc = kfn(scheme_cfg.T, scheme_cfg.c)
        res = residual(fixed_point, g).max
        _atomic_write(os.path.join(out_dir, "summary.json"), run_summary_json(t_init, converged, res, kc))
        _atomic_write(os.path.join(out_dir, "kconstants.json"), kc.to_json())
        if cfg.get("snapshots"):
            write_snapshot(u0, os.path.join(out_dir, "u0.bfld"))
            write_snapshot(fixed_point.frame(len(fixed_point) - 1), os.path.join(out_dir, "u_final.bfld"))

    run = _Run(scheme_cfg, u0, phi0, g, records, fixed_point, kfn)
    all_pass = True
    for chk in checks:
        all_pass &= REGISTRY[chk][1](run, out_dir)
    return all_pass


# ---------------------------------------------------------------------------
# entry points


def cmd_run(path: str) -> int:
    try:
        cfg = load_config(path)
        out_dir = os.environ.get("BURGERS_OUT_DIR") or cfg.get("out_dir") or "."
        os.makedirs(out_dir, exist_ok=True)
        ok = _run_checks(cfg, out_dir)
    except (ConfigError, WindowError, OracleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DivergenceError, ResolutionError) as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_list() -> int:
    for name in sorted(REGISTRY):
        desc, runner, _ = REGISTRY[name]
        print(f"{name}: {desc} [{runner.__module__}.{runner.__name__}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vburgers", description="verification experiment runner")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run the experiments in a JSON config")
    p_run.add_argument("config", help="path to the configuration file")
    sub.add_parser("list", help="print the experiment registry")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)
    if args.verb == "run":
        return cmd_run(args.config)
    if args.verb == "list":
        return cmd_list()
    print(__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
