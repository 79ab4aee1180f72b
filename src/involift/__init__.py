"""Lift pipelines of non-invertible Boolean functions to involutions on a
shared register space, enumerate the group those involutions generate as
tableaux, test it against its claimed Coxeter matrix, and apply the
induced unitaries to sparse qubit-register states.  The test reads the
concrete order from modules spun from the step tables and checks every
claimed relator as a tableau; the abstract order is read from the claimed
matrix in closed form."""

__version__ = "0.1.0"

from .boolfn import (
    BoolFunc,
    MAX_FN_ARITY,
    random_fn,
)
from .lifting import (
    DEFAULT_WIDTH_CAP,
    LiftingCheckFailed,
    PipelineSpec,
    product_orders,
    random_pipeline,
    run_classical,
    word_action,
)
from .permgroup import (
    ClosureCapExceeded,
    DEFAULT_ELEMENT_CAP,
    GroupClosure,
    closure,
    element_order_histogram,
    layer_dimensions,
)
from .coxeter import (
    CONFIRMED,
    CoxeterMatrix,
    DEGENERATE,
    PROPER_QUOTIENT,
    VerificationReport,
    check_relations,
    claimed_coxeter_matrix,
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
