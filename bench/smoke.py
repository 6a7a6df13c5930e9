"""Fast smoke check of the benchmark, on tiny configs (about a minute).

Run from the root of a checkout:

    python3 bench/smoke.py

It checks two things and exits 1 if either fails:
  1. every workload, untraced and traced, emits exactly the metrics that
     BENCHMARK.json names, each with its unit, and no pass fails;
  2. each workload's gate, handed a perturbed result of a real pass, makes the
     pass count as failed.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def check_emitted(bench: dict) -> list:
    problems = []
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            where = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{where}: passes failed on the unperturbed program: {result}")
    return problems


class Perturbed:
    """A workload whose pass results are altered after the real pass ran."""

    def __init__(self, wl, mutate):
        self.wl, self.mutate = wl, mutate
        self.gate = wl.gate
        self.inputs = wl.inputs

    def run(self, inputs):
        return self.mutate(self.wl.run(inputs))


def _scaled_records(out):
    return {**out, "records": [SimpleNamespace(sup_u=r.sup_u * 1.01) for r in out["records"]]}


def _failed_verdict(out):
    rep = json.loads(out["artifacts"]["short_time_sup.json"])
    rep["verdict"] = "fail"
    return {**out, "artifacts": {**out["artifacts"], "short_time_sup.json": json.dumps(rep).encode()}}


def _changed_byte(out):
    csv = bytearray(out["artifacts"]["records.csv"])
    csv[-2] = ord("0") if csv[-2] != ord("0") else ord("1")
    return {**out, "artifacts": {**out["artifacts"], "records.csv": bytes(csv)}}


PERTURBATIONS = {
    "oracle_1d": {
        "not converged": lambda out: {**out, "converged": False},
        "oracle error above 1e-5": lambda out: {**out, "oracle_err": 2e-5},
    },
    "picard_3d": {
        "not converged": lambda out: {**out, "converged": False},
        "iterate above the datum's sup": _scaled_records,
    },
    "verify_2d_forced": {
        "nonzero exit": lambda out: {**out, "rc": 1},
        "a report fails": _failed_verdict,
        "artifacts differ between passes": _changed_byte,
    },
}


def check_gates() -> list:
    import workloads

    problems = []
    scratch = os.path.join(run.WORK_DIR, "smoke")
    for name, cases in PERTURBATIONS.items():
        wl = workloads.build(name, 3, scratch, tiny=True)
        if not run.run_pass(wl, 0).ok:
            problems.append(f"{name}: the unperturbed pass failed its gate")
        for label, mutate in cases.items():
            if run.run_pass(Perturbed(wl, mutate), 1).ok:
                problems.append(f"{name}: gate did not count a failure for '{label}'")
    shutil.rmtree(scratch, ignore_errors=True)
    return problems


def main() -> int:
    run.pin_threads()
    if not run.use_checkout_source():
        print("bench/smoke.py: run from the root of a vburgers checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    t0 = time.perf_counter()
    problems = check_gates() + check_emitted(bench)
    for p in problems:
        print("FAIL", p)
    print(f"smoke: {'FAIL' if problems else 'ok'} in {time.perf_counter() - t0:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
