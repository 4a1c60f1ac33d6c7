"""Multiplicative monotone convolution of probability measures on the circle.

Measures are carried by their K-transforms (holomorphic self-maps of the
disk fixing 0); convolution is composition, continuous convolution
semigroups are composition flows driven by Herglotz generators, and a
finite-dimensional operator model verifies the algebraic identities
independently.
"""

from .branching import (
    BranchingGenerator,
    GWSimulation,
    OffspringLaw,
    law_k_transform,
    simulate_gw,
    yule_flow,
)
from .cfree import (
    CFreeEvaluator,
    MomentFunctional,
    Word,
    cfree_eval,
    canonical_words,
    monotone_eval,
    monotone_specialization_defect,
)
from .convolution import affine_mixture_convolve, monotone_convolve
from .embedding import (
    DiracEmbedding,
    EmbeddingVerdict,
    dirac_embedding,
    embedding_test,
)
from .errors import DomainError, StepSizeUnderflowError, SupercriticalOverflowError
from .generator import HerglotzGenerator
from .measure import (
    CircleMeasure,
    KTransform,
    KValidationReport,
    k_transform,
    moments_from_k,
    poisson_density,
    validate_k,
)
from .opmodel import (
    MatrixModel,
    SandwichReport,
    check_monotone_independence,
    diagonal_unitary_model,
    k_composition_defect,
    k_operator,
    matrix_sqrt_hermitian,
    monotone_product,
    operator_moments,
    random_composition_suite,
    random_unitary,
    sandwich_counterexample,
    spectral_norm,
)
from .semigroup import (
    evolve,
    evolve_pointwise,
    first_moment_law,
    flow_coefficients,
    semigroup_defect,
)
from .series import DEFAULT_ORDER, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "BranchingGenerator",
    "CFreeEvaluator",
    "CircleMeasure",
    "DEFAULT_ORDER",
    "DiracEmbedding",
    "DomainError",
    "EmbeddingVerdict",
    "GWSimulation",
    "HerglotzGenerator",
    "KTransform",
    "KValidationReport",
    "MatrixModel",
    "MomentFunctional",
    "OffspringLaw",
    "SandwichReport",
    "StepSizeUnderflowError",
    "SupercriticalOverflowError",
    "TruncatedSeries",
    "Word",
    "affine_mixture_convolve",
    "canonical_words",
    "cfree_eval",
    "check_monotone_independence",
    "diagonal_unitary_model",
    "dirac_embedding",
    "embedding_test",
    "evolve",
    "evolve_pointwise",
    "first_moment_law",
    "flow_coefficients",
    "k_composition_defect",
    "k_operator",
    "k_transform",
    "law_k_transform",
    "matrix_sqrt_hermitian",
    "moments_from_k",
    "monotone_convolve",
    "monotone_eval",
    "monotone_product",
    "monotone_specialization_defect",
    "operator_moments",
    "poisson_density",
    "random_composition_suite",
    "random_unitary",
    "sandwich_counterexample",
    "semigroup_defect",
    "simulate_gw",
    "spectral_norm",
    "validate_k",
    "yule_flow",
]
