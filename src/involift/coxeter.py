"""Coxeter matrices, presentations, and coset enumeration for the groups
generated by lifted pipeline steps.

An n-step lifting is expected to satisfy the relations of the Coxeter
system whose matrix has 1 on the diagonal, 4 between neighbouring steps,
and 2 everywhere else.  Whether the concrete group IS that Coxeter group
(rather than a proper quotient of it) is checked, never assumed: the
relations are evaluated on the actual permutations, and the abstract group
is decided independently: infinite when the claimed matrix is of infinite
type (n >= 3), otherwise of the order found by coset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .lifting import LiftingCheckFailed, PipelineSpec, step_involution
from .permgroup import (
    DEFAULT_ELEMENT_CAP,
    _product_orders,
    closure,
    evaluate_word,
    generator_defects,
)

DEFAULT_COSET_CAP = 100_000

CONFIRMED = "CONFIRMED"
PROPER_QUOTIENT = "PROPER_QUOTIENT"
BOUND_EXCEEDED = "BOUND_EXCEEDED"
DEGENERATE = "DEGENERATE"


class DegenerateGenerators(ValueError):
    """Generator set unfit for a Coxeter matrix; the offenders are listed in
    ``defects``."""

    def __init__(self, defects: Sequence[str]):
        super().__init__("degenerate generator set: " + "; ".join(defects))
        self.defects = tuple(defects)


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of pairwise product orders with 1 on the diagonal.

    ``None`` marks an infinite product order; it cannot arise from finite
    permutations but is legal in hand-built matrices.
    """

    orders: tuple[tuple[int | None, ...], ...]

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
                    if entry is not None and entry < 2:
                        raise ValueError(f"off-diagonal entry ({i},{j}) must be >= 2, got {entry}")
                    if entry != self.orders[j][i]:
                        raise ValueError(f"matrix must be symmetric, differs at ({i},{j})")

    @property
    def n(self) -> int:
        return len(self.orders)

    @property
    def is_finite(self) -> bool:
        """Whether the Coxeter group of this matrix is finite, decided exactly
        by Coxeter's classification of the connected components of the
        Coxeter graph (vertices are generators, edges join pairs with label
        other than 2): the group is finite iff every component is of type
        A, B, D, E6-E8, F4, H3, H4 or I2(m) (Humphreys 1990, §2.4-2.7)."""
        unseen = set(range(self.n))
        while unseen:
            component = [unseen.pop()]
            for i in component:
                for j in list(unseen):
                    if self.orders[i][j] != 2:
                        unseen.remove(j)
                        component.append(j)
            if not _component_is_finite(self.orders, component):
                return False
        return True


def _component_is_finite(orders, component: list[int]) -> bool:
    """Classification test for one connected component of a Coxeter graph."""
    neighbours = {i: [j for j in component if j != i and orders[i][j] != 2] for i in component}
    labels = [orders[i][j] for i in component for j in neighbours[i] if i < j]
    if None in labels or len(labels) != len(component) - 1:
        return False  # an infinite label, or a cycle
    if len(component) <= 2:
        return True  # A1 or I2(m)
    branches = [i for i in component if len(neighbours[i]) >= 3]
    if branches:
        # a star with one branch vertex and three arms, every label 3: D_k, E6-E8
        if len(branches) > 1 or len(neighbours[branches[0]]) > 3 or set(labels) != {3}:
            return False
        p, q, r = (len(_walk(neighbours, branches[0], j)) for j in neighbours[branches[0]])
        # 1/(p+1) + 1/(q+1) + 1/(r+1) > 1, cleared of denominators
        return (q + 1) * (r + 1) + (p + 1) * (r + 1) + (p + 1) * (q + 1) > (p + 1) * (q + 1) * (r + 1)
    end = next(i for i in component if len(neighbours[i]) == 1)
    path = [end] + _walk(neighbours, end, neighbours[end][0])
    labels = [orders[a][b] for a, b in zip(path, path[1:])]
    special = [(e, m) for e, m in enumerate(labels) if m != 3]
    if not special:
        return True  # A_k
    if len(special) > 1:
        return False
    ((e, m),) = special
    at_end = e in (0, len(labels) - 1)
    if m == 4:
        return at_end or (len(path) == 4 and e == 1)  # B_k, F4
    return m == 5 and at_end and len(path) <= 4  # H3, H4


def _walk(neighbours: dict[int, list[int]], previous: int, current: int) -> list[int]:
    """The vertices of an arm of a tree, from ``current`` away from
    ``previous`` until a vertex of degree 1."""
    arm = [current]
    while len(neighbours[current]) == 2:
        previous, current = current, next(j for j in neighbours[current] if j != previous)
        arm.append(current)
    return arm


def coxeter_matrix(generators) -> CoxeterMatrix:
    """Empirical Coxeter matrix: entry (i, j) is the order of the product of
    generators i and j.  Raises :class:`DegenerateGenerators` when the set
    is not made of pairwise-distinct involutions."""
    generators = tuple(generators)
    defects = generator_defects(generators)
    if defects:
        raise DegenerateGenerators(defects)
    return CoxeterMatrix(_product_orders(generators))


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


@dataclass(frozen=True)
class Presentation:
    """Finitely presented group: generator count plus power relations.

    ``relations`` holds (base word, exponent) pairs; the expanded relator
    words are stored on construction as ``relators``.  Words are tuples of
    generator indices; there is no inverse-symbol syntax because every
    presentation used here makes its generators involutions.
    """

    generator_count: int
    relations: tuple[tuple[tuple[int, ...], int], ...]
    relators: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.generator_count < 1:
            raise ValueError("generator_count must be >= 1")
        normalized = []
        expanded = []
        for base, exponent in self.relations:
            base = tuple(base)
            if not base or exponent < 1:
                raise ValueError("each relation needs a nonempty base word and exponent >= 1")
            for symbol in base:
                if not 0 <= symbol < self.generator_count:
                    raise ValueError(f"relator symbol {symbol} out of range")
            normalized.append((base, exponent))
            expanded.append(base * exponent)
        if not expanded:
            raise ValueError("the relator set must be nonempty")
        object.__setattr__(self, "relations", tuple(normalized))
        object.__setattr__(self, "relators", tuple(expanded))


def pipeline_presentation(n: int) -> Presentation:
    """The claimed presentation for n lifted steps: every generator an
    involution, adjacent products of order 4, distant products commuting."""
    if n < 2:
        raise ValueError("the claimed presentation needs at least 2 steps")
    relations = [((i,), 2) for i in range(n)]
    relations += [((k, k + 1), 4) for k in range(n - 1)]
    relations += [((p, q), 2) for p in range(n) for q in range(p + 2, n)]
    return Presentation(n, tuple(relations))


@dataclass(frozen=True)
class RelationCheck:
    relator: tuple[int, ...]
    holds: bool


def check_relations(generators, presentation: Presentation) -> tuple[RelationCheck, ...]:
    """Evaluate every relator as a permutation product; a relator holds when
    the product is the identity."""
    generators = tuple(generators)
    if len(generators) != presentation.generator_count:
        raise ValueError(
            f"presentation names {presentation.generator_count} generators, got {len(generators)}"
        )
    return tuple(
        RelationCheck(word, evaluate_word(generators, word).is_identity)
        for word in presentation.relators
    )


class _CosetBoundExceeded(Exception):
    pass


def todd_coxeter(presentation: Presentation, coset_cap: int = DEFAULT_COSET_CAP) -> int | None:
    """Order of the presented group by HLT-style coset enumeration over the
    trivial subgroup, or None when more than ``coset_cap`` cosets would be
    needed.

    Deterministic by construction: cosets are scanned in creation order,
    relators in presentation order, and the remaining row entries are then
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
    n = presentation.generator_count
    ncols = 2 * n  # column g follows generator g, column n + g its inverse
    relators = presentation.relators

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
    """Outcome of comparing a concrete lifted group with its claimed
    presentation.

    CONFIRMED means the relations hold and coset enumeration closed with
    exactly the concrete order; holding relations give a surjection from
    the abstract group onto the concrete one, so equal finite orders make
    that surjection an isomorphism.  PROPER_QUOTIENT means the relations
    hold but the abstract group is strictly larger.  BOUND_EXCEEDED means
    enumeration hit the coset cap before closing, or the claimed matrix is
    of infinite type, so no cap suffices and enumeration is skipped
    (``abstract_order`` is None either way).  DEGENERATE means the
    lifted generators are not pairwise-distinct involutions, so no Coxeter
    claim applies (the computed orders are still reported).
    """

    verdict: str
    relations_hold: bool
    concrete_order: int
    abstract_order: int | None
    coset_cap: int
    relation_checks: tuple[RelationCheck, ...]
    product_orders: tuple[tuple[int, ...], ...]
    defects: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.verdict == CONFIRMED and not (
            self.relations_hold and self.abstract_order == self.concrete_order
        ):
            raise ValueError("CONFIRMED requires holding relations and matching orders")
        if self.verdict == PROPER_QUOTIENT and not (
            self.relations_hold
            and self.abstract_order is not None
            and self.abstract_order > self.concrete_order
        ):
            raise ValueError("PROPER_QUOTIENT requires a strictly larger abstract group")

    @property
    def isomorphism_established(self) -> bool:
        """True when the checks pin down an isomorphism: the relations give a
        surjective homomorphism from the abstract group onto the concrete
        one, and a surjection between finite sets of equal size is a
        bijection."""
        return self.verdict == CONFIRMED


def _presentation_for_steps(n: int) -> Presentation:
    # single-step pipelines get the involution-only presentation
    if n == 1:
        return Presentation(1, (((0,), 2),))
    return pipeline_presentation(n)


def verify_pipeline(
    pipeline: PipelineSpec,
    coset_cap: int = DEFAULT_COSET_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> VerificationReport:
    """Lift the pipeline and test the claim that its group is the Coxeter
    group of the claimed presentation.

    Computes the concrete closure order, evaluates every claimed relation on
    the lifted involutions, runs coset enumeration on the presentation when
    the claimed Coxeter matrix is of finite type (otherwise the abstract
    group is infinite and no cap would be reached), and classifies the
    outcome (see :class:`VerificationReport`).  A closure
    exceeding ``element_cap`` propagates as
    :class:`involift.permgroup.ClosureCapExceeded`.
    """
    n = pipeline.n_steps
    gens = tuple(step_involution(pipeline, i) for i in range(1, n + 1))
    defects = generator_defects(gens)
    group = closure(gens, element_cap=element_cap)
    presentation = _presentation_for_steps(n)
    checks = check_relations(gens, presentation)
    relations_hold = all(c.holds for c in checks)
    if not relations_hold:
        raise LiftingCheckFailed("a claimed relation failed on lifted involutions; lifting is broken")
    if coset_cap < 1:
        raise ValueError("coset_cap must be >= 1")
    # enumeration over the trivial subgroup closes only on a finite group
    abstract = todd_coxeter(presentation, coset_cap) if claimed_coxeter_matrix(n).is_finite else None
    product_orders = _product_orders(gens)
    if defects:
        verdict = DEGENERATE
    elif abstract is None:
        verdict = BOUND_EXCEEDED
    elif abstract == len(group):
        verdict = CONFIRMED
    else:
        verdict = PROPER_QUOTIENT
    return VerificationReport(
        verdict=verdict,
        relations_hold=relations_hold,
        concrete_order=len(group),
        abstract_order=abstract,
        coset_cap=coset_cap,
        relation_checks=checks,
        product_orders=product_orders,
        defects=defects,
    )
