"""The group generated by lifted steps: closure, orders, words, and the
dihedral-of-order-8 classification for two-step pipelines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .lifting import Perm

DEFAULT_ELEMENT_CAP = 1_000_000


class ClosureCapExceeded(RuntimeError):
    """Closure enumeration would exceed the element cap."""

    def __init__(self, element_cap: int):
        super().__init__(f"group closure exceeds the cap of {element_cap} elements")
        self.element_cap = element_cap


def perm_compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p composed with q)(s) = p(q(s))."""
    if p.total_width != q.total_width:
        raise ValueError(f"width mismatch: {p.total_width} vs {q.total_width}")
    pm = p.mapping
    return Perm(p.total_width, tuple(pm[v] for v in q.mapping))


def perm_order(p: Perm) -> int:
    """Smallest k >= 1 with p^k = identity, as the lcm of cycle lengths."""
    mapping = p.mapping
    seen = bytearray(len(mapping))
    order = 1
    for start in range(len(mapping)):
        if seen[start]:
            continue
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = 1
            cursor = mapping[cursor]
            length += 1
        order = math.lcm(order, length)
    return order


@dataclass(frozen=True)
class GroupClosure:
    """A fully enumerated finite permutation group.

    elements[0] is the identity; words[e] is a minimal-length generator word
    evaluating to elements[e] (ties broken toward the lexicographically
    smallest word); left[g][e] is the index of generators[g] composed with
    elements[e]; parents[e] is the index of the element whose word is
    words[e] without its first symbol (parents[0] is 0).
    """

    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    words: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]

    @property
    def generator_count(self) -> int:
        return len(self.generators)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        """cayley[i][j] is the index of elements[i] composed with elements[j],
        built on first use by lookup only: elements[k] is generators[g] after
        elements[parents[k]], g = words[k][0], so row k is that row through left[g]."""
        rows = [tuple(range(len(self)))]
        for k in range(1, len(self)):
            step = self.left[self.words[k][0]]
            rows.append(tuple([step[x] for x in rows[self.parents[k]]]))
        return tuple(rows)


def closure(generators: Sequence[Perm], element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupClosure:
    """Enumerate the generated group by breadth-first left multiplication.

    Starting from the identity, each frontier element is multiplied on the
    left by every generator (generators in given order, frontier in
    discovery order), which makes the discovery order deterministic and
    yields shortest, lexicographically smallest words.  No other code
    composes elements: the Cayley table is read from ``left`` on demand.
    Raises :class:`ClosureCapExceeded` when the group has more than
    ``element_cap`` elements.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    width = gens[0].total_width
    for g in gens[1:]:
        if g.total_width != width:
            raise ValueError("generators must all act on the same width")
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")

    identity = Perm.identity(width)
    elements = [identity]
    words: list[tuple[int, ...]] = [()]
    parents = [0]
    left: list[list[int]] = [[] for _ in gens]
    index = {identity.mapping: 0}
    # frontiers are contiguous index ranges, so each left[g] fills in index order
    frontier = range(1)
    while frontier:
        for gi, gen in enumerate(gens):
            gm = gen.mapping
            row = left[gi]
            for ei in frontier:
                product = tuple(gm[v] for v in elements[ei].mapping)
                k = index.get(product)
                if k is None:
                    if len(elements) >= element_cap:
                        raise ClosureCapExceeded(element_cap)
                    k = index[product] = len(elements)
                    words.append((gi,) + words[ei])
                    parents.append(ei)
                    # a product of checked bijections is one: skip the O(2^W) check
                    elements.append(Perm._trusted(width, product))
                row.append(k)
        frontier = range(frontier.stop, len(elements))
    return GroupClosure(gens, tuple(elements), tuple(words), tuple(map(tuple, left)), tuple(parents))


def element_order_histogram(group: GroupClosure) -> dict[int, int]:
    """Multiset of element orders, as an order -> count map."""
    histogram: dict[int, int] = {}
    for p in group.elements:
        k = perm_order(p)
        histogram[k] = histogram.get(k, 0) + 1
    return dict(sorted(histogram.items()))


def _span(cayley: Sequence[Sequence[int]], seeds: Iterable[int]) -> int:
    """Size of the subgroup generated by the seed element indices."""
    seeds = tuple(seeds)
    members = {0}
    frontier = [0]
    while frontier:
        next_frontier = []
        for m in frontier:
            for s in seeds:
                t = cayley[s][m]
                if t not in members:
                    members.add(t)
                    next_frontier.append(t)
        frontier = next_frontier
    return len(members)


@dataclass(frozen=True)
class Dihedral8Witness:
    """Indices of a rotation A (order 4) and reflection B (order 2) with
    B A B = A^-1 and <A, B> the whole group."""

    rotation: int
    reflection: int
    from_generators: bool  # True when A = gen1 composed with gen2, B = gen2


def is_dihedral_8(group: GroupClosure) -> Dihedral8Witness | None:
    """Dihedral-of-order-8 test with an explicit witness pair.

    For a group built from exactly two generators (p, q), the pair
    A = p composed with q, B = q is tried first and reported when it works;
    otherwise all element pairs are searched in index order.
    """
    if len(group) != 8:
        return None
    orders = [perm_order(p) for p in group.elements]

    def qualifies(a: int, b: int) -> bool:
        if orders[a] != 4 or orders[b] != 2:
            return False
        if group.cayley[b][group.cayley[a][b]] != group.cayley[a].index(0):
            return False
        return _span(group.cayley, (a, b)) == len(group)

    if group.generator_count == 2:
        b = group.left[1][0]
        a = group.left[0][b]
        if qualifies(a, b):
            return Dihedral8Witness(a, b, from_generators=True)
    for a in range(len(group)):
        for b in range(len(group)):
            if qualifies(a, b):
                return Dihedral8Witness(a, b, from_generators=False)
    return None


def generator_defects(generators: Sequence[Perm]) -> tuple[str, ...]:
    """Violations of the Coxeter generator precondition: every generator an
    involution (order exactly 2) and all pairwise distinct."""
    generators = tuple(generators)
    defects = []
    for i, g in enumerate(generators, start=1):
        k = perm_order(g)
        if k == 1:
            defects.append(f"generator {i} is the identity")
        elif k != 2:
            defects.append(f"generator {i} has order {k}, not an involution")
    for i in range(len(generators)):
        for j in range(i + 1, len(generators)):
            if generators[i].mapping == generators[j].mapping:
                defects.append(f"generators {i + 1} and {j + 1} are equal")
    return tuple(defects)


def _product_orders(generators: Sequence[Perm]) -> tuple[tuple[int, ...], ...]:
    """Orders of the pairwise products of involutions, 1 on the diagonal.

    Each unordered pair is composed once: ab and ba are conjugate, so they
    have the same order.
    """
    orders = [[1] * len(generators) for _ in generators]
    for i, j in combinations(range(len(generators)), 2):
        orders[i][j] = orders[j][i] = perm_order(perm_compose(generators[i], generators[j]))
    return tuple(map(tuple, orders))


def nondegeneracy_defects(generators: Sequence[Perm]) -> tuple[str, ...]:
    """Violations of the generic-case conditions: the generators must be
    pairwise-distinct involutions (see :func:`generator_defects`) and every
    adjacent product must have order 4.  Empty result means nondegenerate."""
    generators = tuple(generators)
    defects = list(generator_defects(generators))
    orders = _product_orders(generators)
    for i in range(len(generators) - 1):
        if (k := orders[i][i + 1]) != 4:
            defects.append(f"product of adjacent generators {i + 1} and {i + 2} has order {k}, expected 4")
    return tuple(defects)
