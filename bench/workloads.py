"""The benchmark's workloads: inputs from a seed, one timed pass, one gate.

Each workload object has
  ``inputs(k)``     the inputs of pass ``k``, built outside the timed region;
  ``run(inputs)``   one pass as a user waits for it, through public calls only;
                    returns a dict holding at least ``residual``, the Burgers
                    residual (``oracle.residual``) of the fixed point;
  ``gate(inputs, out)``  the pass's correctness check, run outside the timed
                    region; False counts the pass as failed.

Why these three (later changes refer to them by name):
  oracle_1d         small 1-D arrays and many transport steps, so per-call
                    overhead in ``transport``/``fields`` dominates.
  verify_2d_forced  ``vburgers run`` with forcing: the K(t) constants and the
                    forcing sup series dominate, transport is a few percent.
  picard_3d         large 3-D arrays and few steps: FFT volume and the Hessian
                    stacks of the per-iterate diagnostics dominate.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

from vburgers import cli, fields, norms, oracle, scheme

TWO_PI = 2.0 * np.pi
ORACLE_TOL = 1e-5  # criterion 01
MAX_PRINCIPLE_SLACK = 1e-6  # criterion 02


class Oracle1D:
    """Criterion 01's run: Picard on the Cole-Hopf datum, checked against the exact solution.

    The seed picks the phase of the potential 1 + eps cos(x + phase) for each
    pass; seed 0 starts with phase 0, criterion 01's datum.  The horizon is
    criterion 01's full T = 1: a pass of several seconds averages over the
    second-scale speed swings of a shared host, where sub-second passes made
    the run median jump between a fast and a slow mode.
    """

    eps = 0.5

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.grid = fields.GridSpec(1, 32 if tiny else 128, TWO_PI)
        self.cfg = scheme.SchemeConfig(grid=self.grid, T=0.016 if tiny else 1.0, dt=1e-3, m_max=14, tol_fp=1e-10)

    def inputs(self, k: int):
        phase = 0.0 if self.seed == k == 0 else np.random.default_rng([self.seed, k]).uniform(0.0, TWO_PI)
        x = self.grid.axis_coords() + phase
        phi0 = fields.ScalarField(self.grid, 1.0 + self.eps * np.cos(x))
        u0 = oracle.COLE_HOPF_LAMBDA * (-self.eps * np.sin(x)) / (1.0 + self.eps * np.cos(x))
        return phi0, fields.VectorField.from_arrays(self.grid, [u0])

    def run(self, inputs) -> dict:
        phi0, u0 = inputs
        _, fixed_point, converged = scheme.run_picard(self.cfg, u0)
        exact = oracle.cole_hopf(phi0, T=self.cfg.T, dt=self.cfg.dt)
        err = max(norms.sup_norm(a - b) for a, b in zip(fixed_point.frames, exact.frames))
        return {"converged": converged, "oracle_err": err, "residual": oracle.residual(fixed_point).max}

    @staticmethod
    def gate(inputs, out: dict) -> bool:
        return bool(out["converged"]) and out["oracle_err"] <= ORACLE_TOL


class Picard3D:
    """Picard in 3-D on seeded trig data, zero forcing; checked by the maximum principle.

    Pass ``k`` uses trig-data seed 7 + 1000 * seed + k, so seed 0 starts with
    the data seed 7.  Every datum tried so converged in 6 iterates, so the
    work per pass does not depend on the seed.
    """

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.grid = fields.GridSpec(3, 16 if tiny else 32, TWO_PI)
        self.cfg = scheme.SchemeConfig(grid=self.grid, T=1 / 128, dt=1 / 256, m_max=14, tol_fp=1e-10)

    def inputs(self, k: int):
        u0 = fields.make_trig_field(self.grid, 7 + 1000 * self.seed + k, kmax=3, amplitude=0.4)
        return u0, norms.sup_norm(u0)

    def run(self, inputs) -> dict:
        records, fixed_point, converged = scheme.run_picard(self.cfg, inputs[0])
        return {"converged": converged, "records": records, "residual": oracle.residual(fixed_point).max}

    @staticmethod
    def gate(inputs, out: dict) -> bool:
        worst = max(float(r.sup_u.max()) for r in out["records"])
        return bool(out["converged"]) and worst <= inputs[1] * (1.0 + MAX_PRINCIPLE_SLACK)


class Verify2DForced:
    """``vburgers run`` in-process on a forced 2-D config with the two estimate checks.

    The data and forcing seeds stay at 5 and 11 for every run seed: the
    residual of a random trig datum spreads by about a quarter of its median
    across data seeds, and a run holds too few passes to average that out.
    The seed picks the scheme's sampling seed for the Hoelder seminorms.
    All passes of a run use one config, so their artifacts must match byte
    for byte.
    """

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.workdir = workdir
        self.config = {
            "name": "verify_2d_forced",
            "grid": {"d": 2, "n": 8 if tiny else 32, "L": TWO_PI},
            "scheme": {"T": 1 / 16, "dt": 1 / 128, "seed": seed},
            "data": {"kind": "trig", "seed": 5, "kmax": 2 if tiny else 3, "amplitude": 0.3},
            "forcing": {"kind": "trig", "seed": 11, "kmax": 1 if tiny else 2, "amplitude": 0.2},
            "checks": ["uniform_estimates", "short_time"],
        }
        self.reference = None

    def inputs(self, k: int):
        path = os.path.join(self.workdir, "config.json")
        out_dir = os.path.join(self.workdir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        with open(path, "w") as fh:
            json.dump(self.config, fh)
        return path, out_dir

    def run(self, inputs) -> dict:
        path, out_dir = inputs
        os.environ["BURGERS_OUT_DIR"] = out_dir
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", path])
        artifacts = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                artifacts[name] = fh.read()
        summary = json.loads(artifacts["summary.json"]) if "summary.json" in artifacts else {}
        return {
            "rc": rc,
            "artifacts": artifacts,
            "artifact_bytes": sum(len(b) for b in artifacts.values()),
            "residual": summary.get("residual", float("nan")),
        }

    def gate(self, inputs, out: dict) -> bool:
        reports = [b for name, b in out["artifacts"].items() if name.endswith(".json") and name.startswith(("uniform_", "short_time_"))]
        verdicts_pass = len(reports) == 6 and all(json.loads(b)["verdict"] == "pass" for b in reports)
        if self.reference is None:
            self.reference = out["artifacts"]
        return out["rc"] == 0 and verdicts_pass and out["artifacts"] == self.reference


def build(name: str, seed: int, workdir: str, tiny: bool = False):
    """The workload ``name``; ``workdir`` is scratch space the workload may fill."""
    if name == "oracle_1d":
        return Oracle1D(seed, tiny)
    if name == "picard_3d":
        return Picard3D(seed, tiny)
    if name == "verify_2d_forced":
        return Verify2DForced(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
