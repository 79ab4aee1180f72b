"""The group generated by lifted steps: closure, orders, words, the
Cayley table, and the order of the group from modules spun out of the step
tables.

Every element is of Kaloujnine's tableau form: every lifted step maps
register j to x_j ^ h(x_0..x_{j-1}), and products of such maps keep that
form, so an element is given by its tables T_1..T_n.  T_j is indexed by the
packed registers 0..j-1 (x < 2^offset_j), and the element maps register j
to x_j ^ T_j[x]; no 2^W permutation is built.  An element is held as one
int, its tables packed side by side as F2 vectors (:func:`_fields`), so
two elements are equal exactly when their ints are, and the identity is 0.
There is one composition rule, the term a step XORs into the one table it
writes (:func:`_term`), and one left multiplication built on it, cached
per pipeline (:class:`_Steps`): the closure (behind ``group``) and the
evaluation of words (:func:`word_elements`, behind
:mod:`involift.coxeter`'s relators) both go through it.  Element orders
walk generator words through the closure's action table ``left``, and the
Cayley table is gathered through it.  ``verify`` lists no element: it
reads the order from the dimensions of the modules spun from the step
tables (:func:`layer_dimensions`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import itemgetter

from .boolfn import Frozen
from .lifting import LiftingCheckFailed, PipelineSpec

DEFAULT_ELEMENT_CAP = 1_000_000
BYTE_BUDGET = 1 << 28  # bytes the closure, the spin or the Cayley table may hold


class ClosureCapExceeded(RuntimeError):
    """A group computation would pass the element cap or the byte budget."""


def _charge(held: int, what: str) -> None:
    """Stop ``what`` when it would hold more than ``BYTE_BUDGET`` bytes."""
    if held > BYTE_BUDGET:
        raise ClosureCapExceeded(f"{what} exceeds the budget of {BYTE_BUDGET} bytes")


def _charge_tables(pipeline: PipelineSpec, what: str) -> int:
    """Charge ``what`` the step tables T_1..T_n, 8 bytes an entry; return that."""
    held = 8 * sum(1 << offset for offset in pipeline.offsets[1:])
    _charge(held, what)
    return held


class GroupClosure(Frozen):
    """The fully enumerated group of the lifted steps.

    elements[0] is the identity, and every element is its tables packed
    into one int (:func:`closure`; the identity is 0); words[e] is a
    minimal-length generator word evaluating to elements[e] (ties broken
    toward the lexicographically smallest word); left[g][e] is
    the index of step g composed with elements[e]; parents[e] is the
    index of the element whose word is words[e] without its first symbol
    (parents[0] is 0).
    """

    __slots__ = ("elements", "words", "left", "parents")

    def __init__(
        self,
        elements: tuple[int, ...],
        words: tuple[tuple[int, ...], ...],
        left: tuple[tuple[int, ...], ...],
        parents: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "parents", parents)

    def __len__(self) -> int:
        return len(self.elements)

    def cayley_rows(self, images: Iterable) -> Iterator[tuple]:
        """The rows of the Cayley table in index order, each entry mapped
        through ``images``: row i holds images[k] for elements[k] =
        elements[i] composed with elements[j], j = 0, 1, ...  Row 0 is
        ``images`` itself.  For i > 0, elements[i] is elements[r] composed
        with step g, g the last symbol of words[i] and r the index of the
        word without it, so row i is row r gathered at left[g]: one
        ``itemgetter`` per generator, applied to the mapped row, so the
        images are never looked up by index.  r has a shorter word, so its
        row came earlier; a row is kept only until the last row that reads
        it.  Its |G|^2 entries are charged to the byte budget on this call,
        before any row is made."""
        _charge(8 * len(self) ** 2, "Cayley table")
        return self._rows(tuple(images))

    def _rows(self, images: tuple) -> Iterator[tuple]:
        yield images
        n, words, left = len(self), self.words, self.left
        gathers = [itemgetter(*row) for row in left]
        # words[k] is its first symbol before words[parents[k]], so the
        # word without its last symbol is that symbol before the parent's
        right = [0] * n
        for k in range(1, n):
            if len(words[k]) > 1:
                right[k] = left[words[k][0]][right[self.parents[k]]]
        last_reader = {r: k for k, r in enumerate(right)}
        kept = {0: images}
        for k in range(1, n):
            r = right[k]
            row = gathers[words[k][-1]](kept[r])
            if last_reader[r] == k:
                del kept[r]
            if k in last_reader:
                kept[k] = row
            yield row


def _step(pipeline: PipelineSpec, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lifted step i as (f, T): its truth table, and the table of the
    register it writes, T_{i+1}[x] = f[x >> offset_i] over x < 2^offset_{i+1}."""
    f = pipeline.steps[i].table
    return f, tuple(chain.from_iterable(repeat(v, 1 << pipeline.offsets[i]) for v in f))


def _term(step: tuple[tuple[int, ...], tuple[int, ...]], lower: tuple[int, ...] | None) -> Sequence[int]:
    """What step i, ``step`` as :func:`_step` gives it, XORs into T_{i+1}
    of an element whose T_i is ``lower`` (None when all zero, and for step
    0, which reads no table):

        T_{i+1}[x] ^= f[(x >> offset_i) ^ T_i[x mod 2^offset_i]]

    where f reads register i of the element's image of x; with T_i zero the
    term is the step's own table.  That costs 2^offset_{i+1} lookups, and
    no action array is built."""
    f, t = step
    if lower is None:
        return t
    return [f[y ^ u] for y in range(len(f)) for u in lower]


def _vector(table: Sequence[int], width: int) -> int:
    """A table as a vector over F2, so that XOR of tables is XOR of
    vectors: byte plane s holds bits 8s..8s+7 of every entry."""
    if width <= 8:
        return int.from_bytes(bytes(table), "little")
    planes = [bytes([(v >> s) & 255 for v in table]) for s in range(0, width, 8)]
    return int.from_bytes(b"".join(planes), "little")


def _table(bits: int, width: int, entries: int) -> tuple[int, ...]:
    """The table of ``entries`` entries of ``width`` bits whose
    :func:`_vector` is ``bits``."""
    planes = (width + 7) // 8
    data = bits.to_bytes(planes * entries, "little")
    if planes == 1:
        return tuple(data)
    return tuple(sum(data[s * entries + x] << 8 * s for s in range(planes)) for x in range(entries))


def _fields(pipeline: PipelineSpec) -> list[tuple[int, int, int]]:
    """(bit position, entry width, entries) of each table T_1..T_n in a
    packed element: T_j is its :func:`_vector` shifted to its position,
    and the tables follow one another from bit 0."""
    fields, position = [], 0
    for width, offset in zip(pipeline.widths[1:], pipeline.offsets[1:]):
        fields.append((position, width, 1 << offset))
        position += 8 * ((width + 7) // 8) << offset
    return fields


class _Steps:
    """Left multiplication of packed elements by the lifted steps of one
    pipeline.  Step i rewrites only T_{i+1}, by an XOR that depends on T_i
    alone, so step i times e is ``e ^ delta(i, e & masks[i])``, with
    masks[i] the bits of T_i (none for step 0).  ``deltas[i]`` caches
    delta(i, .) by key: a miss unpacks the key's T_i and packs the term
    :func:`_term` gives for it, and no element is unpacked."""

    def __init__(self, pipeline: PipelineSpec):
        self.steps = [_step(pipeline, i) for i in range(pipeline.n_steps)]
        self.fields = _fields(pipeline)
        # mask_i spans T_i: from its position up to that of T_{i+1}
        self.masks = [0] + [(1 << high[0]) - (1 << low[0]) for low, high in zip(self.fields, self.fields[1:])]
        self.deltas: list[dict[int, int]] = [{} for _ in self.steps]

    def delta(self, i: int, key: int) -> int:
        """The XOR that step i makes into an element whose T_i bits are key."""
        d = self.deltas[i].get(key)
        if d is None:
            lower = None
            if key:
                position, width, entries = self.fields[i - 1]
                lower = _table(key >> position, width, entries)
            position, width, _ = self.fields[i]
            d = self.deltas[i][key] = _vector(_term(self.steps[i], lower), width) << position
        return d


def closure(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupClosure:
    """Enumerate the group of the lifted steps by breadth-first left
    multiplication.

    Starting from the identity, each frontier element is multiplied on the
    left by every step (steps in order, frontier in discovery order), which
    makes the discovery order deterministic and yields shortest,
    lexicographically smallest words.  Elements are packed ints, indexed
    by their value, and each product is one cached delta lookup
    (:class:`_Steps`).  Raises :class:`ClosureCapExceeded` when the group
    has more than ``element_cap`` elements or its step tables and elements
    would take more than ``BYTE_BUDGET`` bytes, and
    :class:`involift.lifting.LiftingCheckFailed` when its order is not a
    power of two: every lifted group is a 2-group, an iterated semidirect
    product of F2-spaces (:func:`layer_dimensions`).
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    n = pipeline.n_steps
    position, width, entries = _fields(pipeline)[-1]
    # an element: its packed tables, n action-table slots, and its word, index entry
    # and parent, which take 430-530 bytes at |G| >= 2^15 (CPython 3.11, 64-bit)
    size = position // 8 + (width + 7) // 8 * entries + 8 * n + 512
    held = _charge_tables(pipeline, "group closure")
    limit = min(element_cap, (BYTE_BUDGET - held) // size)
    steps = _Steps(pipeline)
    elements = [0]
    words: list[tuple[int, ...]] = [()]
    parents = [0]
    left: list[list[int]] = [[] for _ in range(n)]
    index = {0: 0}
    # frontiers are contiguous index ranges, so each left[g] fills in index order
    frontier = range(1)
    while frontier:
        for gi in range(n):
            row, cache, mask = left[gi], steps.deltas[gi], steps.masks[gi]
            for ei in frontier:
                e = elements[ei]
                key = e & mask
                d = cache.get(key)
                if d is None:
                    d = steps.delta(gi, key)
                product = e ^ d
                k = index.get(product)
                if k is None:
                    if len(elements) >= limit:
                        if limit == element_cap:
                            raise ClosureCapExceeded(f"group closure exceeds the cap of {element_cap} elements")
                        _charge(held + (limit + 1) * size, "group closure")  # raises: the budget set the limit
                    k = index[product] = len(elements)
                    words.append((gi,) + words[ei])
                    parents.append(ei)
                    elements.append(product)
                row.append(k)
        frontier = range(frontier.stop, len(elements))
    if len(elements) & (len(elements) - 1):
        raise LiftingCheckFailed(f"the lifted group has order {len(elements)}, not a power of two")
    return GroupClosure(tuple(elements), tuple(words), tuple(map(tuple, left)), tuple(parents))


def word_elements(pipeline: PipelineSpec, words: Iterable[Sequence[int]]) -> list[int]:
    """The packed element of each word of step indices, leftmost symbol
    outermost (the rightmost acts first): each word is walked right to left
    from the identity 0, one left multiplication by a step per symbol, and
    the words share one delta cache (:class:`_Steps`)."""
    steps = _Steps(pipeline)
    elements = []
    for word in words:
        e = 0
        for i in reversed(word):
            e ^= steps.delta(i, e & steps.masks[i])
        elements.append(e)
    return elements


def _walk(group: GroupClosure, word: Sequence[int], start: int = 0) -> int:
    """Index of the word's product composed with elements[start]: each
    symbol, rightmost first, is one lookup in the generator action table."""
    e = start
    for symbol in reversed(word):
        e = group.left[symbol][e]
    return e


def _element_orders(group: GroupClosure) -> list[int]:
    """Order of every element of a 2-group, as :func:`closure` checks
    every lifted group is: by Lagrange every order divides |G|, so it is a
    power of two, and ord(e) = 2 ord(e^2) for e other than the identity.
    e^2 is e's word walked once from e; the squares of an element are
    followed until one of known order, and each gets its order on the way
    back."""
    orders = [1] + [0] * (len(group) - 1)
    for k in range(1, len(group)):
        squares = []
        e = k
        while not orders[e]:
            squares.append(e)
            e = _walk(group, group.words[e], e)
        order = orders[e]
        for e in reversed(squares):
            order *= 2
            orders[e] = order
    return orders


def element_order_histogram(group: GroupClosure) -> dict[int, int]:
    """Multiset of element orders, as an order -> count map."""
    histogram: dict[int, int] = {}
    for k in _element_orders(group):
        histogram[k] = histogram.get(k, 0) + 1
    return dict(sorted(histogram.items()))


# ---------------------------------------------------------------------------
# The order of the group without listing it


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
    ``element_cap``, or the step tables (``verify`` walks its relators on
    them too) and a layer's basis would take more than ``BYTE_BUDGET``.
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    held = _charge_tables(pipeline, "module spin")
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
                    raise ClosureCapExceeded(f"group closure exceeds the cap of {element_cap} elements")
                _charge(held + 8 * len(table) * (len(basis) - 1), "module spin")

        keep(phi)
        for b in basis:  # the basis grows while it is walked
            for offset, t in moves:
                mask = len(t) - 1
                keep([b[x ^ (t[x & mask] << offset)] for x in range(len(b))])
        dimensions.append(len(basis))
        if not f.is_constant_zero:
            moves.append((pipeline.offsets[j + 1], phi))
    return tuple(dimensions)
