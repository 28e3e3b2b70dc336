"""Two-weight bounds for generalized maximal operators on finite trees.

The library models a filtered measure space as a finite rooted forest with
atomic leaf measures, evaluates the generalized maximal operator and its
truncations, computes testing constants and operator-norm bounds, runs the
stopping-cube / Carleson machinery behind the sufficiency direction, and
verifies every inequality numerically.
"""

from .lattice import (
    MU,
    NU,
    DyadicModel,
    ModelError,
    RandomModelParams,
    as_leaf_function,
    average,
    build_model,
    indicator,
    integrate,
    lp_norm,
    random_model,
    read_model,
    write_model,
)
from .maximal import (
    CoefficientFamily,
    apply_depth_truncated,
    apply_maximal,
    apply_truncated,
    classical_coefficients,
    node_integrals,
    read_coefficients,
    write_coefficients,
)
from .constants import (
    ConstantsReport,
    NormSearch,
    VerificationError,
    holder_conjugate,
    operator_norm_bruteforce,
    operator_norm_lower,
    testing_constant,
    theorem_constant,
    theorem_constant_hp,
    verify_theorem,
)
from .stopping import (
    CarlesonReport,
    CarlesonSequence,
    PackingReport,
    ProofTrace,
    StoppingDecomposition,
    build_decomposition,
    carleson_embedding_check,
    default_r,
    proof_trace,
    stopping_children,
    stopping_weights,
    verify_packing,
)
from .sawyer import (
    ReducedSystem,
    ReductionError,
    ReductionReport,
    SawyerInstance,
    reduce_three_to_two,
    truncation_restriction_gap,
    verify_reduction,
)

__version__ = "0.1.0"
