"""The group generated by lifted steps: closure, orders, words, the
dihedral-of-order-8 classification for two-step pipelines, and the order
of the group from a polycyclic sequence of tableaux.

Every element is held in Kaloujnine's tableau form, one table per register,
and no 2^W permutation is built.  The closure (behind ``group``) lists the
elements by left multiplication with the lifted steps, one rewritten table
per product (:func:`_times_step`); element orders and the Cayley table walk
generator words through its action table ``left``.  ``verify`` lists no
element: it reads the order from the layers of a polycyclic sequence of
:class:`Tableau` products (:func:`polycyclic_layers`), and
:mod:`involift.coxeter` walks relators with the same rule as the closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, xor
from typing import Sequence

from .lifting import PipelineSpec, layout

DEFAULT_ELEMENT_CAP = 1_000_000

Tables = tuple[tuple[int, ...], ...]


class ClosureCapExceeded(RuntimeError):
    """Closure enumeration would exceed the element cap."""

    def __init__(self, element_cap: int):
        super().__init__(f"group closure exceeds the cap of {element_cap} elements")
        self.element_cap = element_cap


@dataclass(frozen=True)
class GroupClosure:
    """The fully enumerated group of the lifted steps.

    elements[0] is the identity, and every element is a :class:`Tableau`;
    words[e] is a minimal-length generator word evaluating to elements[e]
    (ties broken toward the lexicographically smallest word); left[g][e] is
    the index of step g + 1 composed with elements[e]; parents[e] is the
    index of the element whose word is words[e] without its first symbol
    (parents[0] is 0).
    """

    elements: tuple[Tableau, ...]
    words: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]

    @property
    def generator_count(self) -> int:
        return len(self.left)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def cayley(self) -> tuple[tuple[int, ...], ...]:
        """cayley[i][j] is the index of elements[i] composed with elements[j],
        built on first use by lookup only: elements[k] is step g + 1 after
        elements[parents[k]], g = words[k][0], so row k is that row through left[g]."""
        rows = [tuple(range(len(self)))]
        for k in range(1, len(self)):
            # itemgetter with one index returns a scalar, not a tuple; a row
            # past the identity exists only when |G| >= 2, so it has two or more
            rows.append(itemgetter(*rows[self.parents[k]])(self.left[self.words[k][0]]))
        return tuple(rows)


def _identity_tables(pipeline: PipelineSpec) -> Tables:
    """The tables T_1..T_n of the identity: all zero, T_j of 2^offset_j entries."""
    return tuple((0,) * (1 << offset) for offset in layout(pipeline).offsets[1:])


def _times_step(tables: Tables, i: int, f: tuple[int, ...]) -> Tables:
    """The tables of step i + 1, truth table f, after the element with these
    tables (``tables[j - 1]`` is T_j).  Only T_{i+1} changes:

        T_{i+1}[x] ^= f[(x >> offset_i) ^ T_i[x mod 2^offset_i]]   (T_0 = 0)

    where f reads register i of the element's image of x.  That costs
    2^offset_{i+1} lookups; no action array is built, and the other tables
    are shared with the element."""
    if i:
        lower = tables[i - 1]
        f = [f[y ^ t] for y in range(len(f)) for t in lower]
    return (*tables[:i], tuple(map(xor, tables[i], f)), *tables[i + 1 :])


def closure(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupClosure:
    """Enumerate the group of the lifted steps by breadth-first left
    multiplication.

    Starting from the identity, each frontier element is multiplied on the
    left by every step (steps in order, frontier in discovery order), which
    makes the discovery order deterministic and yields shortest,
    lexicographically smallest words.  Elements are indexed by their
    tables, and each product rewrites one table (:func:`_times_step`); the
    Cayley table is read from ``left`` on demand.  Raises :class:`ClosureCapExceeded` when the group has more than
    ``element_cap`` elements.
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    steps = [f.table for f in pipeline.steps]
    identity = _identity_tables(pipeline)
    elements = [identity]
    words: list[tuple[int, ...]] = [()]
    parents = [0]
    left: list[list[int]] = [[] for _ in steps]
    index = {identity: 0}
    # frontiers are contiguous index ranges, so each left[g] fills in index order
    frontier = range(1)
    while frontier:
        for gi, f in enumerate(steps):
            row = left[gi]
            for ei in frontier:
                product = _times_step(elements[ei], gi, f)
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
    offsets = layout(pipeline).offsets[1:]
    return GroupClosure(
        tuple(Tableau(offsets, tables) for tables in elements),
        tuple(words),
        tuple(map(tuple, left)),
        tuple(parents),
    )


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
        # such a pair generates the whole group of order 8: b in <a> would
        # force b = a^2 (the only involution of <a>), and then b a b = a,
        # which is not a^-1; so <a, b> strictly contains <a> of order 4
        return (
            orders[a] == 4
            and orders[b] == 2
            and group.cayley[b][group.cayley[a][b]] == group.cayley[a].index(0)
        )

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


# ---------------------------------------------------------------------------
# Tableau products: the order of the group without listing it


class Tableau:
    """An element of a lifted group in Kaloujnine's tableau form.

    Every lifted step maps register j to x_j ^ h(x_0..x_{j-1}), and products
    of such maps keep that form, so an element is its tables T_1..T_n:
    ``tables[j - 1]`` is T_j, indexed by the packed registers 0..j-1
    (x < 2^offset_j), and the element maps register j to x_j ^ T_j[x].
    ``None`` stands for an all-zero table.  ``offsets`` holds offset_1 ..
    offset_n of the register layout.  The tables are the whole element: no
    2^W mapping is built, and a product costs sum_j 2^offset_j lookups.
    """

    __slots__ = ("offsets", "tables", "_action_cache")

    def __init__(self, offsets: tuple[int, ...], tables: Sequence[Sequence[int] | None]):
        self.offsets = offsets
        self.tables = tuple(t if t is not None and any(t) else None for t in tables)
        self._action_cache: list[Sequence[int] | None] | None = None

    def _actions(self) -> list[Sequence[int] | None]:
        """A_1..A_n: A_j is the element's action on the packed registers
        0..j-1, indexed by x < 2^offset_j (None for the identity).  Built on
        first use and kept, since only right factors need it."""
        if self._action_cache is None:
            actions: list[Sequence[int] | None] = [None]
            for j in range(1, len(self.tables)):
                actions.append(_next_action(actions[-1], self.tables[j - 1], self.offsets[j - 1], self.offsets[j]))
            self._action_cache = actions
        return self._action_cache

    def __mul__(self, other: "Tableau") -> "Tableau":
        """self after other: register j picks up T^other_j[x], then
        T^self_j at other's image of the lower registers."""
        tables = []
        for t, u, action in zip(self.tables, other.tables, other._actions()):
            if t is not None:
                if action is not None:
                    t = [t[a] for a in action]
                if u is not None:
                    t = [a ^ b for a, b in zip(t, u)]
            else:
                t = u
            tables.append(t)
        return Tableau(self.offsets, tables)

    def inverse(self) -> "Tableau":
        """The inverse element: register j of the preimage is
        y_j ^ T_j[x], x the preimage of the lower registers, so the inverse
        table is T_j read through the inverse's own lower action, built
        layer by layer."""
        tables: list[Sequence[int] | None] = []
        actions: list[Sequence[int] | None] = [None]
        for j, t in enumerate(self.tables):
            action = actions[j]
            if t is not None and action is not None:
                t = [t[a] for a in action]
            tables.append(t)
            if j + 1 < len(self.tables):
                actions.append(_next_action(action, t, self.offsets[j], self.offsets[j + 1]))
        inverse = Tableau(self.offsets, tables)
        inverse._action_cache = actions
        return inverse


def _next_action(action: Sequence[int] | None, table: Sequence[int] | None, offset: int, next_offset: int) -> Sequence[int] | None:
    """A_{j+1} from A_j and T_j: the point x | (y << offset_j) goes to
    A_j[x] | ((y ^ T_j[x]) << offset_j).  Kept as a C int array: its values
    reach 2^19, and in a list each would be an int object of its own, about
    nine times the memory of the array."""
    from array import array  # only verify needs it: no import at start-up

    if action is None and table is None:
        return None
    lower = 1 << offset
    if table is None:
        base = action
    elif action is None:
        base = [x ^ (v << offset) for x, v in enumerate(table)]
    else:
        base = [a ^ (v << offset) for a, v in zip(action, table)]
    out = array("i")
    for high in range(0, 1 << next_offset, lower):
        out.extend([b ^ high for b in base])
    return out


def lifted_tableaux(pipeline: PipelineSpec) -> tuple[Tableau, ...]:
    """The lifted steps as tableaux, each the identity multiplied on the left
    by its step (:func:`_times_step`): step i has the single table
    T_i[x] = f_i(x_{i-1}), and register i-1 is the top of x < 2^offset_i."""
    offsets = layout(pipeline).offsets[1:]
    identity = _identity_tables(pipeline)
    return tuple(Tableau(offsets, _times_step(identity, i, f.table)) for i, f in enumerate(pipeline.steps))


def _vector(table: Sequence[int], width: int) -> int:
    """A layer table as a vector over F2, so that XOR of tables is XOR of
    vectors: byte plane s holds bits 8s..8s+7 of every entry."""
    if width <= 8:
        return int.from_bytes(bytes(table), "little")
    planes = [bytes([(v >> s) & 255 for v in table]) for s in range(0, width, 8)]
    return int.from_bytes(b"".join(planes), "little")


def polycyclic_layers(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> tuple[int, ...]:
    """Dimensions of the layers of the group generated by the lifted steps,
    one per register 1..n; |G| is 2 to the power of their sum.

    N_j, the elements that fix registers 0..j-1, form a normal series, and
    on N_j the map to T_j is a homomorphism onto an F2-space with kernel
    N_{j+1}.  An induced polycyclic sequence is built by sifting (Sims 1994,
    ch. 9): at each layer the table's vector is reduced by Gaussian
    elimination, pivoting on its highest set bit and multiplying by the
    pivot's element; a vector left nonzero makes the current element a new
    pivot.  The steps are sifted first, then the square of every new
    element and its commutator with every earlier one, until all sift to
    the identity: then the pivots of each layer span its factor, and the
    layer dimensions are the pivot counts.  Raises
    :class:`ClosureCapExceeded` as soon as 2^(pivots) exceeds
    ``element_cap``, so at most floor(log2 element_cap) + 1 elements are
    ever held.
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    widths = pipeline.widths[1:]
    pivots: list[dict[int, tuple[Tableau, int]]] = [{} for _ in widths]
    sequence: list[Tableau] = []
    inverses: list[Tableau] = []
    work: list[tuple[int, ...]] = []  # (i,): square of sequence[i]; (i, k): their commutator
    generators = iter(lifted_tableaux(pipeline))
    while True:
        if not work:
            g = next(generators, None)
            if g is None:
                return tuple(map(len, pivots))
        elif len(item := work.pop()) == 1:
            g = sequence[item[0]] * sequence[item[0]]
        else:
            i, k = item
            g = inverses[i] * inverses[k] * sequence[i] * sequence[k]
        for j, layer in enumerate(pivots):
            if g.tables[j] is None:
                continue
            v = _vector(g.tables[j], widths[j])
            while v and (p := v.bit_length() - 1) in layer:
                h, u = layer[p]
                # h fixes registers 0..j-1, so layer j of g after h is the XOR
                g = g * h
                v ^= u
            if v:
                layer[p] = (g, v)
                sequence.append(g)
                if 1 << len(sequence) > element_cap:
                    raise ClosureCapExceeded(element_cap)
                inverses.append(g.inverse())
                i = len(sequence) - 1
                work.append((i,))
                work.extend((i, k) for k in range(i))
                break
