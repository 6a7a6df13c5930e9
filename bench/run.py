"""vburgers benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout (the directory holding ``src/vburgers``):

    python3 bench/run.py --workload oracle_1d --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seconds 50     # every workload, both modes

Passes run back to back for ``--seconds``; no pass starts that would end past
the deadline, judged by the slowest pass so far.  Each pass is timed alone;
its correctness gate runs after the clock stops.  BLAS/OpenMP thread counts
are pinned to 1 before numpy loads.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate (see ``tracer.py``);
the last line carries the per-layer metrics, medians over the traced passes,
and ``trace.overhead_s``, the median over pairs of traced minus untraced pass
time.  The line before the last holds details (tail percentile, pass count,
failed fraction, oracle error) and provenance.  Spans are written to
``.bench_work/spans-<workload>.npz``.  Exit code 2 means the checkout or the
arguments are unusable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("oracle_1d", "verify_2d_forced", "picard_3d")
WORK_DIR = ".bench_work"
SETUP_REPEATS = 7
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "peak_rss_mb": "MB",
    "residual_max": "1",
}

LAYER_UNITS = {
    "fields.scalar_fields": "count",
    "fields.fft_calls": "count",
    "fields.fft_per_step": "1/step",
    "fields.fft_s": "s",
    "fields.fft_bytes": "B",
    "fields.fft_ops": "op",
    "fields.advect_calls": "count",
    "fields.advect_s": "s",
    "fields.self_s": "s",
    "transport.solve_calls": "count",
    "transport.steps": "count",
    "transport.solve_s": "s",
    "transport.step_us": "us",
    "transport.self_s": "s",
    "scheme.picard_s": "s",
    "scheme.iters": "count",
    "scheme.self_s": "s",
    "scheme.t_init_s": "s",
    "norms.k_calls": "count",
    "norms.k_s": "s",
    "norms.iso_s": "s",
    "norms.parabolic_s": "s",
    "norms.seminorm_pairs": "count",
    "norms.self_s": "s",
    "forcing.at_calls": "count",
    "forcing.dt_at_calls": "count",
    "forcing.at_s": "s",
    "verify.uniform_s": "s",
    "verify.short_time_s": "s",
    "verify.fit_calls": "count",
    "heat.duhamel_s": "s",
    "heat.apply_calls": "count",
    "heat.apply_s": "s",
    "oracle.cole_hopf_s": "s",
    "oracle.residual_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "attr.transport_fields_share": "1",
    "attr.norms_forcing_share": "1",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> bool:
    """Import vburgers from ./src of the current directory, never from elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "vburgers", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import vburgers

    return os.path.dirname(os.path.abspath(vburgers.__file__)) == os.path.join(src, "vburgers")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny configs, for the smoke check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import inspect

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": inspect.unwrap(np.fft.rfftn).__module__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(args, t0: float) -> None:
    """Child process: time the package import plus the first pass's input construction."""
    import workloads

    workloads.build(args.workload, args.seed, os.path.join(WORK_DIR, "setup-probe"), args.tiny).inputs(0)
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> float:
    """Median over fresh interpreters, so the import is paid every time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    shutil.rmtree(os.path.join(WORK_DIR, "setup-probe"), ignore_errors=True)
    return statistics.median(times)


@dataclass
class Pass:
    wall: float
    ok: bool
    out: dict
    spans: tuple | None = None  # (first span id, end id) in traced runs
    counters: dict | None = None


def run_pass(wl, k: int, tracer=None) -> Pass:
    """Pass ``k``: inputs, the timed run, then the gate outside the clock."""
    from tracer import PASS_SPAN

    inputs = wl.inputs(k)
    before = dict(tracer.counters) if tracer else None
    sid = tracer.begin(PASS_SPAN) if tracer else None
    out = None
    t0 = time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.finish(sid)
    spans = counters = None
    if tracer:
        spans = (sid, len(tracer.start))
        counters = {key: v - before.get(key, 0.0) for key, v in tracer.counters.items()}
    ok = out is not None and wl.gate(inputs, out)
    return Pass(wall, ok, _summary(out), spans, counters)


def run_loop(wl, until: float) -> list:
    """Closed loop: passes back to back until the next one would end after ``until``."""
    passes = []
    while True:
        passes.append(run_pass(wl, len(passes)))
        if time.perf_counter() + max(p.wall for p in passes) > until:
            return passes


def run_traced(wl, tracer, until: float) -> tuple:
    """Untraced and traced passes in turn, so both see the same machine state."""
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(wl, 2 * len(traced)))
        with tracer.installed():
            traced.append(run_pass(wl, 2 * len(traced) + 1, tracer))
        if time.perf_counter() + untraced[-1].wall + traced[-1].wall > until:
            return untraced, traced


def _summary(out) -> dict:
    """What the metrics need from a pass result; drops fields and artifacts."""
    if out is None:
        return {}
    return {k: out[k] for k in ("residual", "oracle_err", "artifact_bytes") if k in out}


def tail(walls: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND passes beyond it: (value, percentile).

    With fewer than 2 * TAIL_BEYOND passes that percentile would not lie
    above the median, or not exist; the slowest pass is reported instead,
    as the 100th percentile.
    """
    s = sorted(walls)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def e2e_metrics(passes: list, setup_s: float) -> tuple:
    walls = [p.wall for p in passes]
    tail_s, tail_pct = tail(walls)
    residuals = [p.out["residual"] for p in passes if p.ok and math.isfinite(p.out.get("residual", math.nan))]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_max": statistics.median(residuals) if residuals else 0.0,
    }
    errs = [p.out["oracle_err"] for p in passes if "oracle_err" in p.out]
    detail = {"wall_tail_percentile": tail_pct, "passes": len(walls)}
    if errs:
        detail["oracle_err"] = {"value": max(errs), "unit": "1", "over": "max over passes"}
    return values, detail


def layer_metrics(spans, counters: dict, out: dict) -> dict:
    steps = counters.get("steps", 0.0)
    fft = spans.count("fields.rfftn", "fields.irfftn")
    solve_s = spans.inclusive("transport.solve_transport")
    return {
        "fields.scalar_fields": spans.count("fields.ScalarField"),
        "fields.fft_calls": fft,
        "fields.fft_per_step": fft / steps if steps else 0.0,
        "fields.fft_s": spans.inclusive("fields.rfftn", "fields.irfftn"),
        "fields.fft_bytes": counters.get("fft_bytes", 0.0),
        "fields.fft_ops": counters.get("fft_ops", 0.0),
        "fields.advect_calls": spans.count("fields.advect"),
        "fields.advect_s": spans.inclusive("fields.advect"),
        "fields.self_s": spans.layer_self("fields"),
        "transport.solve_calls": spans.count("transport.solve_transport"),
        "transport.steps": steps,
        "transport.solve_s": solve_s,
        "transport.step_us": 1e6 * solve_s / steps if steps else 0.0,
        "transport.self_s": spans.layer_self("transport"),
        "scheme.picard_s": spans.inclusive("scheme.run_picard"),
        "scheme.iters": counters.get("iters", 0.0),
        "scheme.self_s": spans.layer_self("scheme"),
        "scheme.t_init_s": spans.inclusive("scheme.compute_t_init"),
        "norms.k_calls": spans.count("norms.compute_k_constants"),
        "norms.k_s": spans.inclusive("norms.compute_k_constants"),
        "norms.iso_s": spans.inclusive("norms.iso_seminorm_array"),
        "norms.parabolic_s": spans.inclusive("norms.parabolic_seminorm_array"),
        "norms.seminorm_pairs": counters.get("seminorm_pairs", 0.0),
        "norms.self_s": spans.layer_self("norms"),
        "forcing.at_calls": spans.count("forcing.at"),
        "forcing.dt_at_calls": spans.count("forcing.dt_at"),
        "forcing.at_s": spans.inclusive("forcing.at"),
        "verify.uniform_s": spans.inclusive("verify.check_uniform"),
        "verify.short_time_s": spans.inclusive("verify.check_short_time"),
        "verify.fit_calls": spans.count("verify.fit_c_star"),
        "heat.duhamel_s": spans.inclusive("heat.duhamel_forced_heat"),
        "heat.apply_calls": spans.count("heat.heat_apply"),
        "heat.apply_s": spans.inclusive("heat.heat_apply"),
        "oracle.cole_hopf_s": spans.inclusive("oracle.cole_hopf"),
        "oracle.residual_s": spans.inclusive("oracle.residual"),
        "cli.run_s": spans.inclusive("cli.main"),
        "cli.self_s": spans.layer_self("cli"),
        "cli.artifact_bytes": out.get("artifact_bytes", 0),
        "attr.transport_fields_share": spans.layer_inclusive("transport", "fields") / spans.wall,
        "attr.norms_forcing_share": spans.layer_inclusive("norms", "forcing") / spans.wall,
        "trace.spans": len(spans.dur),
    }


def traced_metrics(tracer, untraced: list, traced: list) -> dict:
    from tracer import SpanSet

    arrays = tracer.arrays()
    per_pass = [layer_metrics(SpanSet(tracer, arrays, *p.spans), p.counters, p.out) for p in traced]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # each traced pass ran right after an untraced one, so pair them against drift
    values["trace.overhead_s"] = statistics.median(t.wall - u.wall for u, t in zip(untraced, traced))
    return values


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    rc = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            print(f"# {name} trace={trace}", flush=True)
            rc = max(rc, subprocess.run(cmd).returncode)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    t0 = time.perf_counter()
    if not use_checkout_source():
        print("bench/run.py: run from the root of a vburgers checkout (no ./src/vburgers here)", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args, t0)
        return 0
    if args.workload == "all":
        return run_all(args)

    import workloads
    from tracer import Tracer

    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = os.path.join(WORK_DIR, args.workload)
    wl = workloads.build(args.workload, args.seed, scratch, args.tiny)
    start = time.perf_counter()
    traced = []
    try:
        if args.trace:
            tracer = Tracer()
            untraced, traced = run_traced(wl, tracer, start + args.seconds)
            metrics = traced_metrics(tracer, untraced, traced)
            tracer.save(os.path.join(WORK_DIR, f"spans-{args.workload}.npz"))
            units = LAYER_UNITS
            detail = {"passes_untraced": len(untraced), "passes_traced": len(traced)}
        else:
            untraced = run_loop(wl, start + args.seconds)
            metrics, detail = e2e_metrics(untraced, measure_setup(args))
            units = E2E_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    passes = untraced + traced
    failed = sum(not p.ok for p in passes)
    detail["failed_frac"] = {"value": failed / len(passes), "unit": "1"}
    print(json.dumps({"detail": detail, "provenance": provenance(args)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
