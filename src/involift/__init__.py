"""Lift pipelines of non-invertible Boolean functions to involutions on a
shared register space, enumerate the group those involutions generate,
test it against its claimed Coxeter matrix by coset enumeration, and apply the
induced unitaries to sparse qubit-register states."""

__version__ = "0.1.0"

from .boolfn import (
    BoolFunc,
    MAX_FN_ARITY,
    random_fn,
)
from .lifting import (
    ClassicalTrace,
    DEFAULT_WIDTH_CAP,
    LiftingCheckFailed,
    PipelineSpec,
    RegisterLayout,
    apply_word,
    generator_defects,
    layout,
    nondegeneracy_defects,
    product_orders,
    random_pipeline,
    run_classical,
)
from .permgroup import (
    ClosureCapExceeded,
    DEFAULT_ELEMENT_CAP,
    GroupClosure,
    Tableau,
    closure,
    element_order_histogram,
    polycyclic_layers,
)
from .coxeter import (
    BOUND_EXCEEDED,
    CONFIRMED,
    CoxeterMatrix,
    DEFAULT_COSET_CAP,
    DEGENERATE,
    PROPER_QUOTIENT,
    RelationCheck,
    VerificationReport,
    check_relations,
    claimed_coxeter_matrix,
    todd_coxeter,
    verify_pipeline,
)
from .quantum import (
    AMPLITUDE_TOLERANCE,
    MeasurementResult,
    QState,
    apply_steps,
    basis_state,
    marginal_distribution,
    measure,
    uniform_superposition,
)
