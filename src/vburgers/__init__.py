"""Periodic pseudo-spectral viscous Burgers solver with a verification harness.

The solver constructs the solution by successive linear transport solves
(the drift frozen at the previous iterate) and the harness checks the
quantitative sup-norm, Hoelder and local-regularity estimates that make
that construction work, reporting fitted constants instead of asserting
unspecified absolute ones.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DivergenceError, OracleError, ResolutionError, WindowError
from .fields import (
    GridSpec,
    ScalarField,
    Trajectory,
    VectorField,
    gradient,
    make_trig_field,
    read_snapshot,
    snapshot_bytes,
)
from .forcing import ConstantForcing, Forcing, GradientForcing, TrigForcing, ZeroForcing
from .heat import ScalingProbeReport, heat_apply, holder_scaling_probe, lacunary_field
from .norms import (
    HolderEstimate,
    KConstants,
    KProfile,
    compute_k_constants,
    grad_sup,
    hessian_sup,
    holder_seminorm,
    interpolation_gap,
    opnorm_sup,
    sup_norm,
)
from .oracle import ResidualSeries, cole_hopf, direct_solve, residual
from .scheme import (
    IterationRecord,
    SchemeConfig,
    compute_t_init,
    records_to_csv,
    rescale_viscosity,
    run_picard,
    run_summary_json,
    series_majorant,
    unrescale,
)
from .transport import TransportProblem, amplification_factors, max_principle_slack, mp_tolerance, solve_transport
from .verify import (
    BoundReport,
    ParabolicBall,
    check_gronwall,
    check_schauder_instance,
    check_short_time,
    check_uniform,
    fit_c_star,
    parabolic_rescale,
)
