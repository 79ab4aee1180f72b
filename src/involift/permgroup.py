"""The group generated by lifted steps: closure, orders, words, and the
order of the group from modules spun out of the step tables.

Every element is held in Kaloujnine's tableau form: every lifted step maps
register j to x_j ^ h(x_0..x_{j-1}), and products of such maps keep that
form, so an element is the tuple of its tables T_1..T_n.  ``tables[j - 1]``
is T_j, indexed by the packed registers 0..j-1 (x < 2^offset_j), and the
element maps register j to x_j ^ T_j[x]; no 2^W permutation is built.  The
normal form is the contract: a table that is all zero is held as ``None``,
never as zeros, so two elements are equal exactly when their tuples are,
and an element is the identity exactly when every table is ``None``.  The
one operation that writes a table, a left multiplication by a step
(:func:`_times_step`, behind :func:`closure` and :func:`word_tableau`),
keeps that form.  The closure (behind ``group``) lists the elements by
left multiplication with the lifted steps; element orders and the Cayley
table walk generator words through its action table ``left``.  ``verify``
lists no element: it reads the order from the dimensions of the modules
spun from the step tables (:func:`layer_dimensions`), and
:mod:`involift.coxeter` evaluates relators with :func:`word_tableau`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, xor
from typing import Sequence

from .lifting import PipelineSpec

DEFAULT_ELEMENT_CAP = 1_000_000


class ClosureCapExceeded(RuntimeError):
    """Closure enumeration would exceed the element cap."""

    def __init__(self, element_cap: int):
        super().__init__(f"group closure exceeds the cap of {element_cap} elements")
        self.element_cap = element_cap


@dataclass(frozen=True)
class GroupClosure:
    """The fully enumerated group of the lifted steps.

    elements[0] is the identity, and every element is its tuple of tables
    in normal form (``None`` for each all-zero table); words[e] is a
    minimal-length generator word evaluating to elements[e] (ties broken
    toward the lexicographically smallest word); left[g][e] is
    the index of step g composed with elements[e]; parents[e] is the
    index of the element whose word is words[e] without its first symbol
    (parents[0] is 0).
    """

    elements: tuple[tuple, ...]
    words: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        """cayley[i][j] is the index of elements[i] composed with elements[j],
        built on first use by lookup only: elements[k] is step g after
        elements[parents[k]], g = words[k][0], so row k is that row through left[g]."""
        rows = [tuple(range(len(self)))]
        for k in range(1, len(self)):
            # itemgetter with one index returns a scalar, not a tuple; a row
            # past the identity exists only when |G| >= 2, so it has two or more
            rows.append(itemgetter(*rows[self.parents[k]])(self.left[self.words[k][0]]))
        return tuple(rows)


def _step(pipeline: PipelineSpec, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lifted step i as (f, T): its truth table, and the table of the
    register it writes, T_{i+1}[x] = f[x >> offset_i] over x < 2^offset_{i+1}."""
    f = pipeline.steps[i].table
    return f, tuple(chain.from_iterable(repeat(v, 1 << pipeline.offsets[i]) for v in f))


def _times_step(tables: tuple, i: int, step: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple:
    """The tables of step i, ``step`` as :func:`_step` gives it, after
    the element with these tables (``tables[j - 1]`` is T_j, None when all
    zero).  Only T_{i+1} changes:

        T_{i+1}[x] ^= f[(x >> offset_i) ^ T_i[x mod 2^offset_i]]   (T_0 = 0)

    where f reads register i of the element's image of x; with T_i = None
    the term is the step's own table.  That costs 2^offset_{i+1} lookups;
    no action array is built, the other tables are shared with the element,
    and the new table is None when it is all zero."""
    f, t = step
    if i and (lower := tables[i - 1]) is not None:
        t = [f[y ^ u] for y in range(len(f)) for u in lower]
    if tables[i] is not None:
        t = map(xor, tables[i], t)
    t = tuple(t)
    return (*tables[:i], t if any(t) else None, *tables[i + 1 :])


def closure(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupClosure:
    """Enumerate the group of the lifted steps by breadth-first left
    multiplication.

    Starting from the identity, each frontier element is multiplied on the
    left by every step (steps in order, frontier in discovery order), which
    makes the discovery order deterministic and yields shortest,
    lexicographically smallest words.  Elements are indexed by their
    tables, which the normal form makes unique, and each product rewrites
    one table (:func:`_times_step`); the Cayley table is read from ``left``
    on demand.  Raises :class:`ClosureCapExceeded` when the group has more
    than ``element_cap`` elements.
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    steps = [_step(pipeline, i) for i in range(pipeline.n_steps)]
    identity = (None,) * len(steps)
    elements = [identity]
    words: list[tuple[int, ...]] = [()]
    parents = [0]
    left: list[list[int]] = [[] for _ in steps]
    index = {identity: 0}
    # frontiers are contiguous index ranges, so each left[g] fills in index order
    frontier = range(1)
    while frontier:
        for gi, step in enumerate(steps):
            row = left[gi]
            for ei in frontier:
                product = _times_step(elements[ei], gi, step)
                k = index.get(product)
                if k is None:
                    if len(elements) >= element_cap:
                        raise ClosureCapExceeded(element_cap)
                    k = index[product] = len(elements)
                    words.append((gi,) + words[ei])
                    parents.append(ei)
                    elements.append(product)
                row.append(k)
        frontier = range(frontier.stop, len(elements))
    return GroupClosure(tuple(elements), tuple(words), tuple(map(tuple, left)), tuple(parents))


def word_tableau(pipeline: PipelineSpec, word: Sequence[int]) -> tuple:
    """The tables of a word of step indices, leftmost symbol
    outermost (the rightmost acts first): the word is walked right to left
    from the identity, each symbol one left multiplication by its step
    (:func:`_times_step`)."""
    steps = {symbol: _step(pipeline, symbol) for symbol in set(word)}
    tables = (None,) * pipeline.n_steps
    for symbol in reversed(word):
        tables = _times_step(tables, symbol, steps[symbol])
    return tables


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


# ---------------------------------------------------------------------------
# The order of the group without listing it


def _vector(table: Sequence[int], width: int) -> int:
    """A layer table as a vector over F2, so that XOR of tables is XOR of
    vectors: byte plane s holds bits 8s..8s+7 of every entry."""
    if width <= 8:
        return int.from_bytes(bytes(table), "little")
    planes = [bytes([(v >> s) & 255 for v in table]) for s in range(0, width, 8)]
    return int.from_bytes(b"".join(planes), "little")


def layer_dimensions(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> tuple[int, ...]:
    """Dimensions of the layers of the group generated by the lifted steps,
    one per register 1..n; |G| is 2 to the power of their sum.

    G_j, generated by steps 0..j-1, acts on registers 0..j and fixes
    register j + 1, and its conjugates of step j commute and square to 1.
    They form an F2-space V_j, and G_{j+1} is V_j ⋊ G_j.  V_j is the cyclic
    F2[G_j]-module spun from phi_j = T_{j+1} (the MeatAxe spin: Parker 1984;
    Holt, Eick & O'Brien 2005): each basis table b is moved by every
    step i < j whose table is not all zero, as the gather
    b[x ^ (T_{i+1}[x mod 2^offset_{i+1}] << offset_{i+1})], and an image is
    kept only when its vector stays nonzero after Gaussian elimination on
    the highest set bit.  No group element is formed.  Raises
    :class:`ClosureCapExceeded` as soon as 2^(dimensions so far) exceeds
    ``element_cap``, which bounds the basis held.
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    dimensions: list[int] = []
    moves: list[tuple[int, tuple[int, ...]]] = []  # (offset_{i+1}, T_{i+1}) of each nonzero step i < j
    for j, f in enumerate(pipeline.steps):
        width, phi = pipeline.widths[j + 1], _step(pipeline, j)[1]
        basis: list[Sequence[int]] = []
        pivots: dict[int, int] = {}

        def keep(table: Sequence[int]) -> None:
            v = _vector(table, width)
            while v and (p := v.bit_length() - 1) in pivots:
                v ^= pivots[p]
            if v:
                pivots[p] = v
                basis.append(table)
                if 1 << (sum(dimensions) + len(basis)) > element_cap:
                    raise ClosureCapExceeded(element_cap)

        keep(phi)
        for b in basis:  # the basis grows while it is walked
            for offset, t in moves:
                mask = len(t) - 1
                keep([b[x ^ (t[x & mask] << offset)] for x in range(len(b))])
        dimensions.append(len(basis))
        if not f.is_constant_zero:
            moves.append((pipeline.offsets[j + 1], phi))
    return tuple(dimensions)
