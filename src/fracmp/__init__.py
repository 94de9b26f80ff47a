"""Finite-difference quadrature discretization of a nonlocal p-Laplacian
model problem on an interval, with eigenvalue, torsion and critical-point
solvers plus a parameter-sweep pipeline."""

from .errors import (
    ConfigurationError,
    ExponentWindowError,
    ExportError,
    FracmpError,
    GateError,
    HypothesisError,
    OperatorRegimeError,
    PotentialGateError,
    PreconditionError,
    SolverError,
    UsageError,
)
from .grid import Grid, as_grid_function, build_grid, norms, read_gridfn, write_gridfn
from .kernel import (
    Kernel,
    adjacent_cell_weight,
    apply_flap,
    assemble_kernel,
    norm_W,
    phi_p,
    quadratic_form_matrix,
    seminorm_p,
)
from .model import (
    F_eval,
    NonlinearitySpec,
    Potential,
    Problem,
    critical_exponent,
    default_theta,
    energy,
    exponent_window,
    f_eval,
    gradient,
    make_nonlinearity,
    make_potential,
    make_problem,
    primitive_envelope,
    residual_norm,
    validate_AR,
    validate_H1,
)
from .eigen import (
    EigenResult,
    TorsionResult,
    first_eigenpair,
    inverse_power_lambda1,
    rayleigh,
    torsion_solve,
)
from .solve import (
    ComparisonReport,
    CriticalPoint,
    ScalingConstants,
    certify_constants,
    classify,
    comparison_check,
    construct_endpoints,
    descend,
    distinct,
    find_second_solution,
    mountain_pass,
    positivity_check,
    ring_samples,
    sobolev_constant,
)
from .config import (
    Config,
    config_gate_violations,
    lambdas,
    load_potential,
    parse_config,
    validate_config,
    with_overrides,
)
from .sweep import (
    CSV_HEADER,
    FitSummary,
    SweepRecord,
    SweepResult,
    derive_seed,
    export,
    fit_powerlaw,
    sweep,
)

__version__ = "0.1.0"
