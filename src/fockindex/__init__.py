"""Numerical laboratory for the kernel calculus of time-ordered Fock
product systems over the algebra of continuous functions on [0, inf) with
a limit at infinity: unit kernels and their semigroups, the bimodule
algebra of continuous units, membership in the subsystem generated by the
unit (1, 0), and its index."""

import types as _types

from .algebra import (
    AlgebraElement,
    DomainError,
    GridMismatchError,
    GridSpec,
    UnresolvedTailWarning,
    constant,
)
from .fock import (
    FockUnit,
    GramReport,
    KernelOperator,
    NParticleVector,
    UnsupportedParameterError,
    WeightedShift,
    blas_core,
    generator_unit,
    gram_matrices,
    gram_psd_check,
    kernel,
    kernel_stack,
    left_action,
    matrix_exponential,
    module_inner,
    multiplication_operator,
    semigroup,
    semigroup_law_residual,
    semigroups,
    unit_component,
    vacuum_unit,
)
from .subsystem import (
    MembershipReport,
    NotAMemberError,
    Step1Witness,
    WitnessKind,
    approximate,
    centrality_check,
    convergence_report,
    convexify,
    index_representative,
    membership,
    theta_check,
    witness_step1,
)
from .unit_algebra import (
    ReferencedUnit,
    boxplus_left,
    boxplus_right,
    default_probe_units,
    dual_path_residual,
    index_norm,
    left_mul,
    power_beta,
    right_mul,
    semi_inner,
    wrap,
)

__version__ = "0.1.0"

# Every name imported above, and the version.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
__all__.append("__version__")
