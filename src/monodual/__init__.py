"""Stochastic monotonicity and duality for one-dimensional Markov processes.

The package has four layers:

* ``qmatrix``: rate matrices on integer windows, monotonicity criteria,
  Siegmund-type dual chains, uniformized transition matrices, and direct
  verification of the duality identity.
* ``generator``: jump-diffusion models with state-dependent jump kernels,
  their monotonicity and growth checks, lattice discretization, and
  boundary-point classification.
* ``dualgen``: closed-form dual generators for monotone jump models with
  smooth kernels, evaluated on grids.
* ``simulate``: reproducible Monte Carlo for path laws, the duality
  identity, and moment growth bounds.

The command-line entry point lives in ``cli``.
"""

from .errors import (
    DualRateNegative,
    GrowthViolated,
    InputFormatError,
    MomentUnbounded,
    MonodualError,
    NegativeDualDensity,
    NegativeRate,
    NotMonotone,
    QuadratureFailure,
    TailMassUnresolved,
    UnsupportedKernelCase,
    WindowEscape,
)
from .qmatrix import (
    BOUNDARY_POLICIES,
    DominanceReport,
    DualityReport,
    MonotonicityReport,
    RateMatrix,
    TransitionMatrix,
    Violation,
    check_monotone,
    check_stochastic_dominance,
    dual_qmatrix,
    effective_generator,
    from_dense,
    ratematrix_from_dict,
    ratematrix_to_dict,
    ratematrix_to_json,
    transition_matrix,
    validate_qmatrix,
    verify_duality,
)
from .generator import (
    BaseMeasure,
    BoundaryClass,
    CutoffKernel,
    DecomposableKernel,
    DensityKernel,
    Lattice,
    LevyKernel,
    LevyModel,
    TabulatedKernel,
    TailMonotonicityReport,
    ValidationReport,
    check_levy_monotone,
    classify_boundary,
    cutoff_model,
    discretize,
    jump_intensity,
    kernel_from_dict,
    model_from_dict,
    validate_model,
)
from .dualgen import (
    COMPENSATOR_CONVENTIONS,
    DualGeneratorCoeffs,
    dual_generator_apply,
    dual_levy,
    tabulate_dual,
)
from .simulate import (
    DualityMCReport,
    GrowthMCReport,
    MCEstimate,
    PathSample,
    mc_duality_check,
    mc_growth_bound,
    mc_survival,
    sample_path,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_POLICIES",
    "BaseMeasure",
    "BoundaryClass",
    "COMPENSATOR_CONVENTIONS",
    "CutoffKernel",
    "DecomposableKernel",
    "DensityKernel",
    "DominanceReport",
    "DualGeneratorCoeffs",
    "DualRateNegative",
    "DualityMCReport",
    "DualityReport",
    "GrowthMCReport",
    "GrowthViolated",
    "InputFormatError",
    "Lattice",
    "LevyKernel",
    "LevyModel",
    "MCEstimate",
    "MomentUnbounded",
    "MonodualError",
    "MonotonicityReport",
    "NegativeDualDensity",
    "NegativeRate",
    "NotMonotone",
    "PathSample",
    "QuadratureFailure",
    "RateMatrix",
    "TabulatedKernel",
    "TailMassUnresolved",
    "TailMonotonicityReport",
    "TransitionMatrix",
    "UnsupportedKernelCase",
    "ValidationReport",
    "Violation",
    "WindowEscape",
    "check_levy_monotone",
    "check_monotone",
    "check_stochastic_dominance",
    "classify_boundary",
    "cutoff_model",
    "discretize",
    "dual_generator_apply",
    "dual_levy",
    "dual_qmatrix",
    "effective_generator",
    "from_dense",
    "jump_intensity",
    "kernel_from_dict",
    "mc_duality_check",
    "mc_growth_bound",
    "mc_survival",
    "model_from_dict",
    "ratematrix_from_dict",
    "ratematrix_to_dict",
    "ratematrix_to_json",
    "sample_path",
    "tabulate_dual",
    "transition_matrix",
    "validate_model",
    "validate_qmatrix",
    "verify_duality",
    "__version__",
]
