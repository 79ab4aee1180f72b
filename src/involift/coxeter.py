"""The claimed Coxeter matrix, coset enumeration, and the verifier for the
groups generated by lifted pipeline steps.

An n-step lifting is expected to satisfy the relations of the Coxeter
system whose matrix has 1 on the diagonal, 4 between neighbouring steps,
and 2 everywhere else; that matrix is the whole claim, and its relators
are read from it.  Whether the concrete group IS that Coxeter group
(rather than a proper quotient of it) is checked, never assumed: the
concrete order comes from the modules spun from the step tables
(:func:`involift.permgroup.layer_dimensions`), every relator is evaluated
as a tableau (:func:`involift.permgroup.word_tableau`), which in its normal
form is the identity exactly when every table is ``None``, and the
abstract group is decided independently: infinite from three steps on (the
matrix contains affine C~2), otherwise of the order found by coset
enumeration.  A step whose truth table is all zero lifts to the identity,
which makes the generators degenerate; the empirical matrix is read from
the truth tables (:func:`involift.lifting.product_orders`) by the command
line, and no permutation is built.  The verifier returns only when every
relator holds, so its report carries only what can vary: the verdict, the
layer dimensions and the abstract order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .lifting import LiftingCheckFailed, PipelineSpec
from .permgroup import DEFAULT_ELEMENT_CAP, layer_dimensions, word_tableau

DEFAULT_COSET_CAP = 100_000

CONFIRMED = "CONFIRMED"
PROPER_QUOTIENT = "PROPER_QUOTIENT"
BOUND_EXCEEDED = "BOUND_EXCEEDED"
DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of pairwise product orders with 1 on the diagonal."""

    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(tuple(row) for row in self.orders))
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


def check_relations(pipeline: PipelineSpec, relators) -> tuple[bool, ...]:
    """Whether each relator holds on the lifted steps, in the order given,
    evaluated in tableau form, leftmost symbol outermost
    (:func:`involift.permgroup.word_tableau`).  In the normal form the
    identity has no table, so a relator holds when every table is ``None``;
    no 2^W permutation is built."""
    return tuple(all(t is None for t in word_tableau(pipeline, word)) for word in relators)


class _CosetBoundExceeded(Exception):
    pass


def todd_coxeter(generator_count: int, relators, coset_cap: int = DEFAULT_COSET_CAP) -> int | None:
    """Order of the group on generators 0..generator_count-1 subject to the
    relator words (words of generator indices, no inverse symbols), by
    HLT-style coset enumeration over the trivial subgroup, or None when more
    than ``coset_cap`` cosets would be needed.

    Deterministic by construction: cosets are scanned in creation order,
    relators in the given order, and the remaining row entries are then
    filled column by column (generator columns before inverse columns).
    Coincidences are resolved through a union-find table: the smaller coset
    index survives, the dead row's entries are replayed onto the survivor,
    and induced coincidences are processed from a stack until none remain;
    stale table entries are chased through the union-find on every read.
    The cap counts every coset ever defined; rows abandoned by coincidence
    are not reused, so a group of order <= coset_cap whose enumeration
    passes through more than coset_cap intermediate cosets also reports the
    bound as exceeded.
    """
    if coset_cap < 1:
        raise ValueError("coset_cap must be >= 1")
    n = generator_count
    ncols = 2 * n  # column g follows generator g, column n + g its inverse

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]
    live = 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, col: int) -> int:
        nonlocal live
        if len(table) >= coset_cap:
            raise _CosetBoundExceeded
        d = len(table)
        table.append([None] * ncols)
        parent.append(d)
        table[c][col] = d
        table[d][col + n if col < n else col - n] = c
        live += 1
        return d

    def merge(c1: int, c2: int) -> None:
        nonlocal live
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            live -= 1
            row_a = table[a]
            for col, d in enumerate(table[b]):
                if d is None:
                    continue
                e = row_a[col]
                if e is None:
                    row_a[col] = d
                else:
                    stack.append((d, e))

    def scan_and_fill(alpha: int, word: tuple[int, ...]) -> None:
        f = alpha
        i = 0
        b = alpha
        r = len(word) - 1
        while True:
            while i <= r:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = find(nxt)
                i += 1
            if i > r:
                if f != b:
                    merge(f, b)
                return
            while r >= i:
                nxt = table[b][word[r] + n]
                if nxt is None:
                    break
                b = find(nxt)
                r -= 1
            if r < i:
                merge(f, b)
                return
            if r == i:
                # one gap left: deduce the entry instead of defining a coset
                table[f][word[i]] = b
                table[b][word[i] + n] = f
                return
            define(f, word[i])

    try:
        alpha = 0
        while alpha < len(table):
            if find(alpha) == alpha:
                for word in relators:
                    scan_and_fill(alpha, word)
                    if find(alpha) != alpha:
                        break
                if find(alpha) == alpha:
                    row = table[alpha]
                    for col in range(ncols):
                        if row[col] is None:
                            define(alpha, col)
            alpha += 1
    except _CosetBoundExceeded:
        return None
    return live


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of comparing a concrete lifted group with the Coxeter group
    of its claimed matrix.

    A report exists only when every claimed relation holds on the lifted
    steps (:func:`verify_pipeline` raises otherwise), and holding relations
    give a surjection from the abstract group onto the concrete one.
    CONFIRMED means coset enumeration closed with exactly the concrete
    order, so that surjection is an isomorphism.  PROPER_QUOTIENT means the
    abstract group is strictly larger.  BOUND_EXCEEDED means enumeration
    hit the coset cap before closing, or the claim has three or more steps,
    so the abstract group is infinite, no cap suffices and enumeration is
    skipped (``abstract_order`` is None either way).  DEGENERATE means a
    step's truth table is all zero, so the lifted generators are not
    pairwise-distinct involutions and no Coxeter claim applies (the
    computed orders are still reported).  ``layer_dimensions`` holds the
    dimension of each factor of the concrete group's normal series, one
    per register 1..n, and the concrete order is 2 to the power of their
    sum.
    """

    verdict: str
    layer_dimensions: tuple[int, ...]
    abstract_order: int | None

    def __post_init__(self) -> None:
        if self.verdict == CONFIRMED and self.abstract_order != self.concrete_order:
            raise ValueError("CONFIRMED requires matching orders")
        if self.verdict == PROPER_QUOTIENT and not (
            self.abstract_order is not None and self.abstract_order > self.concrete_order
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


def verify_pipeline(
    pipeline: PipelineSpec,
    coset_cap: int = DEFAULT_COSET_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> VerificationReport:
    """Lift the pipeline and test the claim that its group is the Coxeter
    group of ``claimed_coxeter_matrix(n)``.

    Reads the concrete order from the layer dimensions spun from the step
    tables, walks every claimed relator on the step tables (a failing one
    raises :class:`involift.lifting.LiftingCheckFailed`), runs coset
    enumeration on the relators when the claimed group is finite (one or two
    steps; otherwise no cap would be reached), and classifies the outcome
    (see :class:`VerificationReport`).  No element is listed and no 2^W
    permutation is built.  A group of more than ``element_cap`` elements
    propagates as :class:`involift.permgroup.ClosureCapExceeded`, raised as
    soon as the spun layers prove the order too large.
    """
    if coset_cap < 1:
        raise ValueError("coset_cap must be >= 1")
    n = pipeline.n_steps
    layers = layer_dimensions(pipeline, element_cap)
    relators = claimed_coxeter_matrix(n).relators
    if not all(check_relations(pipeline, relators)):
        raise LiftingCheckFailed("a claimed relation failed on lifted involutions; lifting is broken")
    # Enumeration over the trivial subgroup closes only on a finite group.
    # The claimed Coxeter graph is a path with every edge labelled 4: n = 1 is
    # A1 and n = 2 is B2 (order 8), both finite; n = 3 is affine C~2, which is
    # infinite; for n > 3 the first three generators span C~2 as a parabolic
    # subgroup (Humphreys 1990, section 5.5), so the group is infinite.
    abstract = todd_coxeter(n, relators, coset_cap) if n <= 2 else None
    if any(f.is_constant_zero for f in pipeline.steps):
        verdict = DEGENERATE
    elif abstract is None:
        verdict = BOUND_EXCEEDED
    elif abstract == 1 << sum(layers):
        verdict = CONFIRMED
    else:
        verdict = PROPER_QUOTIENT
    return VerificationReport(verdict=verdict, layer_dimensions=layers, abstract_order=abstract)
