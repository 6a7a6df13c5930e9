import inspect
import types

import vburgers

# the package's public surface: a name added to or removed from vburgers/__init__.py shows up here
PUBLIC_NAMES = [
    "BoundReport", "ConfigError", "ConstantForcing", "DivergenceError", "Forcing", "GradientForcing", "GridSpec",
    "HolderEstimate", "IterationRecord", "KConstants", "KProfile", "OracleError", "ParabolicBall", "ResidualSeries",
    "ResolutionError", "ScalarField", "ScalingProbeReport", "SchemeConfig", "Trajectory", "TransportProblem",
    "TrigForcing", "VectorField", "WindowError", "ZeroForcing", "amplification_factors", "check_gronwall",
    "check_schauder_instance", "check_short_time", "check_uniform", "cole_hopf", "compute_k_constants",
    "compute_t_init", "direct_solve", "fit_c_star", "grad_sup", "gradient", "hessian_sup", "holder_scaling_probe",
    "holder_seminorm", "interpolation_gap", "lacunary_field", "make_trig_field", "max_principle_slack",
    "mp_tolerance", "opnorm_sup", "parabolic_rescale", "read_snapshot", "records_to_csv", "rescale_viscosity",
    "residual", "run_picard", "run_summary_json", "series_majorant", "snapshot_bytes", "solve_transport", "sup_norm",
    "unrescale",
]

# the parameter names of every public function and class constructor (the error classes take a message):
# a parameter added to or removed from the public surface shows up here
PUBLIC_PARAMETERS = {
    "BoundReport": "name params times lhs rhs c_star verdict worst_t worst_ratio",
    "ConstantForcing": "field",
    "Forcing": "base env env_dt",
    "GradientForcing": "potential omega mod",
    "GridSpec": "d n L",
    "HolderEstimate": "value pairs exhaustive",
    "IterationRecord": "m times sup_u sup_grad_u sup_hess_u sup_dt_u sup_v sup_grad_v holder_hess holder_dt",
    "KConstants": "t c alpha K0 K1 K2 K2plusAlpha",
    "KProfile": "u0 g alpha seed",
    "ParabolicBall": "t0 x0 j M",
    "ResidualSeries": "times values",
    "ScalarField": "grid values",
    "ScalingProbeReport": "alpha kappa times norms slope predicted_slope",
    "SchemeConfig": "grid c alpha beta T dt m_max tol_fp seed",
    "Trajectory": "grid t0 dt values",
    "TransportProblem": "u0 b C f T dt",
    "TrigForcing": "grid seed kmax amplitude omega mod",
    "VectorField": "grid values",
    "ZeroForcing": "grid",
    "amplification_factors": "p times",
    "check_gronwall": "p p_bar",
    "check_schauder_instance": "u b ball alpha which",
    "check_short_time": "records kfn c beta",
    "check_uniform": "records kfn c alpha",
    "cole_hopf": "phi0 f T dt",
    "compute_k_constants": "u0 g t c alpha seed",
    "compute_t_init": "u0 g c kfn",
    "direct_solve": "u0 g T dt",
    "fit_c_star": "lhs log_rhs1 p",
    "grad_sup": "v",
    "gradient": "f",
    "hessian_sup": "v",
    "holder_scaling_probe": "alpha kappa t_list spec seed",
    "holder_seminorm": "samples alpha seed",
    "interpolation_gap": "u alpha seed",
    "lacunary_field": "spec alpha seed",
    "make_trig_field": "spec seed kmax amplitude",
    "max_principle_slack": "traj p",
    "mp_tolerance": "p scale",
    "opnorm_sup": "m",
    "parabolic_rescale": "u b j M ball",
    "read_snapshot": "path",
    "records_to_csv": "records",
    "rescale_viscosity": "u0 g nu",
    "residual": "u g",
    "run_picard": "cfg u0 g record_holder trace",
    "run_summary_json": "t_init converged residual kc scales",
    "series_majorant": "m0 gamma cK t",
    "snapshot_bytes": "v",
    "solve_transport": "p",
    "sup_norm": "f",
    "unrescale": "fixed_point nu",
}


def _public():
    return {
        name: obj for name, obj in vars(vburgers).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }


def test_public_names_are_pinned():
    assert sorted(_public()) == PUBLIC_NAMES


def test_public_parameters_are_pinned():
    params = {
        name: " ".join(inspect.signature(obj).parameters) for name, obj in _public().items()
        if not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert params == PUBLIC_PARAMETERS
