"""Entanglement monotones from negative partial-transpose eigenvalues.

The library evaluates the p-norm family of negative-spectrum monotones
(negativity at ``p = 1``, lower bounds on the I-concurrence and I-tangle at
``p = 2``), validates them against a convex-roof ensemble-search oracle,
and ships two case studies: the isotropic states, where the bounds have
closed forms at any dimension, and the two-atom Tavis-Cummings model, whose
rank-two atom-field states trace out collapse and revival dynamics.
"""

from .convex_roof import (
    Ensemble,
    NotIsometryError,
    RankMismatchError,
    RoofConfig,
    RoofResult,
    average_objective,
    ensemble_from_unitary,
    minimize_roof,
)
from .io import StateFormatError, load_state, save_state
from .linalg import (
    ConvergenceError,
    DensityMatrix,
    DimensionMismatchError,
    NonHermitianError,
    PureState,
    fidelity_max_entangled,
    hermitian_eigenvalues,
    partial_transpose,
    pt_spectrum,
    schmidt_coefficients,
)
from .majorization import (
    is_doubly_stochastic,
    majorizes,
    positive_part,
    pth_power,
    weakly_submajorizes,
)
from .monotones import (
    MonotoneReport,
    concurrence_lower_bound,
    monotone_report,
    neg_pnorm,
    negative_eigenvalues,
    negativity,
    pure_concurrence,
    pure_tangle,
    tangle_lower_bound,
)
from .states import (
    isotropic_concurrence_bound,
    isotropic_state,
    isotropic_tangle_bound,
    max_entangled,
    mixing_parameter,
)
from .tcm import (
    TcmConfig,
    TcmTrace,
    TruncationError,
    coherent_state,
    evolve,
    reduce_atom_field,
    run_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DensityMatrix",
    "DimensionMismatchError",
    "Ensemble",
    "MonotoneReport",
    "NonHermitianError",
    "NotIsometryError",
    "PureState",
    "RankMismatchError",
    "RoofConfig",
    "RoofResult",
    "StateFormatError",
    "TcmConfig",
    "TcmTrace",
    "TruncationError",
    "average_objective",
    "coherent_state",
    "concurrence_lower_bound",
    "ensemble_from_unitary",
    "evolve",
    "fidelity_max_entangled",
    "hermitian_eigenvalues",
    "is_doubly_stochastic",
    "isotropic_concurrence_bound",
    "isotropic_state",
    "isotropic_tangle_bound",
    "load_state",
    "majorizes",
    "max_entangled",
    "minimize_roof",
    "mixing_parameter",
    "monotone_report",
    "neg_pnorm",
    "negative_eigenvalues",
    "negativity",
    "partial_transpose",
    "positive_part",
    "pt_spectrum",
    "pth_power",
    "pure_concurrence",
    "pure_tangle",
    "reduce_atom_field",
    "run_trace",
    "save_state",
    "schmidt_coefficients",
    "tangle_lower_bound",
    "weakly_submajorizes",
]
