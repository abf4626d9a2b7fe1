"""Correlation-function hierarchies on a truncated free Fock space.

Builds the generator algebra over a finite index set, the explicit
right/left inverse operators of the hierarchy's building blocks, the
expansion and closure solvers for (K + N + G)|V> = 0, and a seeded
Monte-Carlo trajectory oracle validating every identity and truncated
solution.
"""

__version__ = "0.1.0"

from .model import (
    IndexSpace,
    KernelSet,
    OscillatorModel,
    WaveModel,
    build_index_space,
    build_oscillator_model,
    build_wave_model,
    validate_kernels,
)
from .fock import (
    FockVector,
    from_json,
    symmetrize,
    to_json,
    vacuum,
)
from .cuntz import (
    GradingReport,
    Monomial,
    OperatorExpr,
    adjoint,
    apply_operator,
    classify_triangularity,
    compose,
    eta,
    eta_star,
    format_operator,
    hierarchy_operator,
    identity_operator,
    interaction_operator,
    linear_operator,
    materialize,
    number_operator,
    source_operator,
    to_dense_matrix,
    vacuum_projector,
)
from .inverse import (
    InverseBundle,
    generalized_inverse_report,
    identity_catalog,
    left_inverse_G,
    neumann_inverse,
    right_inverse_K,
    right_inverse_K_plus_G,
    right_inverse_N0,
    right_inverse_Nq,
)
from .solver import (
    SolveReport,
    closed_equation_solve,
    free_solution,
    lambda_degree_check,
    lower_triangular_expansion,
    perturbation_series,
    rational_solve,
    residual_by_level,
)
from .oracle import (
    CorrelationTable,
    EnsembleSpec,
    TrajectorySet,
    dalembert_average,
    dalembert_field,
    estimate_mtcf,
    gaussian_free_moments,
    hydro_moments,
    marginals,
    pinned_ensemble,
    simulate,
)
