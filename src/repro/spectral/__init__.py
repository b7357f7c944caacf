"""Spectral algebra: resistances, Krylov surrogates, condition numbers, solvers."""

from repro.spectral.condition import (
    ConditionEstimate,
    SpectralContext,
    SpectralSolveError,
    condition_estimate,
    dominant_generalized_eigenvector,
    relative_condition_number,
)
from repro.spectral.effective_resistance import (
    ApproxResistanceCalculator,
    ExactResistanceCalculator,
    JLResistanceCalculator,
    effective_resistance,
    make_resistance_calculator,
    tree_path_resistances,
)
from repro.spectral.eigen import (
    dense_laplacian_spectrum,
    smallest_nonzero_eigenvalues,
)
from repro.spectral.krylov import (
    KrylovBasis,
    build_krylov_basis,
    default_krylov_order,
    krylov_resistance_matrix,
)
from repro.spectral.quadratic import (
    SimilaritySample,
    sample_similarity,
)
from repro.spectral.solvers import (
    GroundedSolver,
    PCGSolver,
    SolveReport,
    conjugate_gradient,
    jacobi_preconditioner,
    project_out_constant,
)

__all__ = [
    "ConditionEstimate",
    "SpectralContext",
    "SpectralSolveError",
    "condition_estimate",
    "relative_condition_number",
    "dominant_generalized_eigenvector",
    "ExactResistanceCalculator",
    "ApproxResistanceCalculator",
    "JLResistanceCalculator",
    "make_resistance_calculator",
    "effective_resistance",
    "tree_path_resistances",
    "KrylovBasis",
    "build_krylov_basis",
    "default_krylov_order",
    "krylov_resistance_matrix",
    "dense_laplacian_spectrum",
    "smallest_nonzero_eigenvalues",
    "sample_similarity",
    "SimilaritySample",
    "GroundedSolver",
    "PCGSolver",
    "SolveReport",
    "conjugate_gradient",
    "jacobi_preconditioner",
    "project_out_constant",
]
