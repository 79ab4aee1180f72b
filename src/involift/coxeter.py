"""The claimed Coxeter matrix and the verifier for the groups generated by
lifted pipeline steps.

An n-step lifting is expected to satisfy the relations of the Coxeter
system whose matrix has 1 on the diagonal, 4 between neighbouring steps,
and 2 everywhere else; that matrix is the whole claim, and its relators
are read from it.  Whether the concrete group IS that Coxeter group
(rather than a proper quotient of it) is checked, never assumed: the
concrete order comes from the modules spun once from the step tables
(:func:`involift.permgroup.spin`), every relator is walked on the layer
coordinates that spin gives each element, where it is the identity
exactly when it ends at 0, and the abstract order is a theorem
about the claimed matrix, which depends on n alone: 2 for one step, 8 for
two, infinite from three steps on (the matrix contains affine C~2).  No
permutation is built.  The verifier returns only when every relator
holds, so its report carries only what can vary: the verdict, the layer
dimensions and the abstract order."""

from __future__ import annotations

from itertools import combinations

from .boolfn import Frozen
from .lifting import LiftingCheckFailed, PipelineSpec
from .permgroup import DEFAULT_ELEMENT_CAP, spin

CONFIRMED = "CONFIRMED"
PROPER_QUOTIENT = "PROPER_QUOTIENT"
DEGENERATE = "DEGENERATE"


class CoxeterMatrix(Frozen):
    """Symmetric matrix of pairwise product orders with 1 on the diagonal."""

    __slots__ = ("orders",)

    def __init__(self, orders: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "orders", tuple(tuple(row) for row in orders))
        n = len(self.orders)
        for i, row in enumerate(self.orders):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j, entry in enumerate(row):
                if i == j:
                    if entry != 1:
                        raise ValueError(f"diagonal entry ({i},{j}) must be 1, got {entry}")
                else:
                    if entry < 2:
                        raise ValueError(f"off-diagonal entry ({i},{j}) must be >= 2, got {entry}")
                    if entry != self.orders[j][i]:
                        raise ValueError(f"matrix must be symmetric, differs at ({i},{j})")

    @property
    def n(self) -> int:
        return len(self.orders)

    @property
    def relators(self) -> tuple[tuple[int, ...], ...]:
        """Each relation (s_i s_j)^m_ij = 1 as a word of generator indices:
        the squares, then the pairs that do not commute, then those that do,
        each list in index order."""
        pairs = list(combinations(range(self.n), 2))
        return (
            tuple((i, i) for i in range(self.n))
            + tuple((i, j) * self.orders[i][j] for i, j in pairs if self.orders[i][j] != 2)
            + tuple((i, j) * 2 for i, j in pairs if self.orders[i][j] == 2)
        )


def claimed_coxeter_matrix(n: int) -> CoxeterMatrix:
    """The matrix the n-step lifting is expected to realize: adjacent entries
    4, distant entries 2."""
    if n < 1:
        raise ValueError("need at least one generator")
    return CoxeterMatrix(
        tuple(
            tuple(1 if i == j else (4 if abs(i - j) == 1 else 2) for j in range(n))
            for i in range(n)
        )
    )


def check_relations(spun: tuple, relators) -> tuple[bool, ...]:
    """Whether each relator holds on the lifted steps, in the order given:
    its word, leftmost symbol outermost, walked right to left from the
    identity's layer coordinates, 0, one affine map per symbol of
    ``spun``, the pipeline's :func:`involift.permgroup.spin`, ends at 0.
    No 2^W permutation is built."""
    _, steps = spun
    holds = []
    for word in relators:
        c = 0
        for i in reversed(word):
            base, images, unit = steps[i]
            high, c = c >> base, c & ((1 << base) - 1) ^ unit
            while high:
                bit = high & -high
                c ^= images[bit.bit_length() - 1]
                high ^= bit
        holds.append(c == 0)
    return tuple(holds)


class VerificationReport(Frozen):
    """Outcome of comparing a concrete lifted group with the Coxeter group
    of its claimed matrix.

    A report exists only when every claimed relation holds on the lifted
    steps (:func:`verify_pipeline` raises otherwise), and holding relations
    give a surjection from the abstract group onto the concrete one.
    CONFIRMED means the abstract group is finite of exactly the concrete
    order, so that surjection is an isomorphism.  PROPER_QUOTIENT means the
    abstract group is strictly larger: of a larger finite order, or
    infinite, as every claim of three or more steps is.  DEGENERATE means a
    step's truth table is all zero, so the lifted generators are not
    pairwise-distinct involutions and no Coxeter claim applies (the
    computed orders are still reported).  ``layer_dimensions`` holds the
    dimension of each factor of the concrete group's normal series, one
    per register 1..n, and the concrete order is 2 to the power of their
    sum.  ``abstract_order`` is the order of the claimed Coxeter group,
    None when it is infinite.
    """

    __slots__ = ("verdict", "layer_dimensions", "abstract_order")

    def __init__(self, verdict: str, layer_dimensions: tuple[int, ...], abstract_order: int | None) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "layer_dimensions", layer_dimensions)
        object.__setattr__(self, "abstract_order", abstract_order)
        if self.verdict == CONFIRMED and self.abstract_order != self.concrete_order:
            raise ValueError("CONFIRMED requires matching orders")
        if self.verdict == PROPER_QUOTIENT and not (
            self.abstract_order is None or self.abstract_order > self.concrete_order
        ):
            raise ValueError("PROPER_QUOTIENT requires a strictly larger abstract group")

    @property
    def concrete_order(self) -> int:
        """|G| = 2^(sum of the layer dimensions)."""
        return 1 << sum(self.layer_dimensions)

    @property
    def isomorphism_established(self) -> bool:
        """True when the checks pin down an isomorphism: the relations give a
        surjective homomorphism from the abstract group onto the concrete
        one, and a surjection between finite sets of equal size is a
        bijection."""
        return self.verdict == CONFIRMED


def verify_pipeline(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> VerificationReport:
    """Lift the pipeline and test the claim that its group is the Coxeter
    group of ``claimed_coxeter_matrix(n)``.

    Spins the step tables once (:func:`involift.permgroup.spin`), reads
    the concrete order from the layer dimensions, walks every claimed
    relator on the layer coordinates (a failing one raises
    :class:`involift.lifting.LiftingCheckFailed`), takes the order of
    the claimed group from its closed form (2, 8, or infinite from three
    steps on), and classifies the outcome (see :class:`VerificationReport`).
    No element is listed and no 2^W permutation is built.  A group of more
    than ``element_cap`` elements, or a spin past the byte budget,
    propagates as :class:`involift.permgroup.ClosureCapExceeded`.
    """
    n = pipeline.n_steps
    spun = spin(pipeline, element_cap)
    layers = spun[0]
    if not all(check_relations(spun, claimed_coxeter_matrix(n).relators)):
        raise LiftingCheckFailed("a claimed relation failed on lifted involutions; lifting is broken")
    # The claimed Coxeter graph is a path with every edge labelled 4: n = 1 is
    # A1, of order 2, and n = 2 is B2 = I2(4), the dihedral group of order 8
    # (|I2(m)| = 2m); n = 3 is affine C~2, which is infinite, and for n > 3
    # the first three generators span C~2 as a parabolic subgroup (Humphreys
    # 1990, sections 2.13 and 5.5), so the group is infinite (None).
    abstract = {1: 2, 2: 8}.get(n)
    if any(f.is_constant_zero for f in pipeline.steps):
        verdict = DEGENERATE
    elif abstract == 1 << sum(layers):
        verdict = CONFIRMED
    else:
        verdict = PROPER_QUOTIENT
    return VerificationReport(verdict=verdict, layer_dimensions=layers, abstract_order=abstract)
