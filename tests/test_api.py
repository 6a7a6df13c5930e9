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


def test_public_names_are_pinned():
    public = sorted(
        name for name, obj in vars(vburgers).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
