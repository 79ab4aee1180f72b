"""Lift pipelines of non-invertible Boolean functions to involutions on a
shared register space, enumerate the group those involutions generate,
each element held as its layer coordinates over modules spun once from
the step tables, test it against its claimed Coxeter matrix, and apply
the induced unitaries, which permute basis states, to qubit-register
states held as their support, so a measured register's marginal is an
exact count over 2^w.  The test reads the concrete order from the spun
modules and checks that every claimed relator maps the identity's
coordinates, 0, back to 0; the abstract order is read from the claimed
matrix in closed form."""

__version__ = "0.1.0"

from .boolfn import (
    BoolFunc,
    MAX_FN_ARITY,
    random_fn,
)
from .lifting import (
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
    spin,
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
    MeasurementResult,
    QState,
    apply_steps,
    basis_state,
    marginal_distribution,
    measure,
    uniform_superposition,
)
