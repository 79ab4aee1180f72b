"""The group generated by lifted steps: closure, orders, words, and the
dihedral-of-order-8 classification for two-step pipelines.

The closure is the only place where permutations are composed.  Element
orders, the Cayley table and the relator checks of :mod:`involift.coxeter`
walk generator words through the closure's action table ``left`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .lifting import Perm

DEFAULT_ELEMENT_CAP = 1_000_000


class ClosureCapExceeded(RuntimeError):
    """Closure enumeration would exceed the element cap."""

    def __init__(self, element_cap: int):
        super().__init__(f"group closure exceeds the cap of {element_cap} elements")
        self.element_cap = element_cap


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


def _walk(group: GroupClosure, word: Sequence[int], start: int = 0) -> int:
    """Index of the word's product composed with elements[start]: each
    symbol, rightmost first, is one lookup in the generator action table."""
    e = start
    for symbol in reversed(word):
        e = group.left[symbol][e]
    return e


def _element_orders(group: GroupClosure) -> list[int]:
    """Order of every element: walk its word from the identity until the
    walk returns there, |word| lookups per power."""
    orders = []
    for word in group.words:
        k = 1
        e = _walk(group, word)
        while e != 0:
            e = _walk(group, word, e)
            k += 1
        orders.append(k)
    return orders


def element_order_histogram(group: GroupClosure) -> dict[int, int]:
    """Multiset of element orders, as an order -> count map."""
    histogram: dict[int, int] = {}
    for k in _element_orders(group):
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
    orders = _element_orders(group)

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
