"""Relative-entropy upper bound on distillable entanglement over the PPT cone.

The package computes min over PPT sigma of S(rho || sigma) by spectral
projected gradient, certifies candidate optimizers through first-order
conditions, and cross-checks everything against the families whose bound
is known in closed form.
"""

from .entropy import relative_entropy, shannon_entropy
from .formulas import (
    ClosedFormResult,
    NonadditivityReport,
    bell_z2_bound,
    isotropic_bound,
    maxcorr_bound,
    nonadditivity_experiment,
    pure_state_bound,
)
from .linalg import (
    BipartiteDims,
    HermiticityError,
    SupportError,
    dd_gradient,
    partial_trace,
    partial_transpose,
)
from .pptopt import (
    KktReport,
    OptimizerConfig,
    OptimizerResult,
    PptCheck,
    ProjectedState,
    additivity_check,
    is_ppt,
    kkt_check,
    kkt_check_maxcorr,
    minimize_rel_entropy,
    project_ppt,
)
from .statespec import StateSpecError, load_state, save_state, spec_to_state, state_to_spec
from .states import (
    DensityMatrix,
    bell_diagonal,
    bell_twirl,
    counterexample_pair,
    density_matrix,
    isotropic,
    max_correlated,
    pure_state,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteDims",
    "ClosedFormResult",
    "DensityMatrix",
    "HermiticityError",
    "KktReport",
    "NonadditivityReport",
    "OptimizerConfig",
    "OptimizerResult",
    "PptCheck",
    "ProjectedState",
    "StateSpecError",
    "SupportError",
    "additivity_check",
    "bell_diagonal",
    "bell_twirl",
    "bell_z2_bound",
    "counterexample_pair",
    "dd_gradient",
    "density_matrix",
    "is_ppt",
    "isotropic",
    "isotropic_bound",
    "kkt_check",
    "kkt_check_maxcorr",
    "load_state",
    "max_correlated",
    "maxcorr_bound",
    "minimize_rel_entropy",
    "nonadditivity_experiment",
    "partial_trace",
    "partial_transpose",
    "project_ppt",
    "pure_state",
    "pure_state_bound",
    "relative_entropy",
    "save_state",
    "shannon_entropy",
    "spec_to_state",
    "state_to_spec",
    "tensor",
]
