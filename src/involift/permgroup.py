"""The group generated by lifted steps: its order and layer coordinates
from modules spun out of the step tables, and from them the closure,
orders, words and the Cayley table.

G_j, generated by steps 0..j-1, acts on registers 0..j and fixes register
j + 1; its conjugates of step j form an F2-space V_j, and G is
V_{n-1} ⋊ ... ⋊ V_0, so |G| = 2^D with D the sum of the dimensions.
:func:`spin` spins every V_j once from the step tables and keeps each
step as the affine map it makes on an element's D-bit layer coordinates.
That is the package's one element form: an element is its coordinates,
the identity 0, and no table of an element or 2^W permutation is built.
The closure (behind ``group``) is a breadth-first search over
coordinates, and ``verify`` reads the order from the dimensions and walks
the claimed relators on coordinates
(:func:`involift.coxeter.check_relations`).  Element orders walk
generator words through the closure's action table ``left``, and the
Cayley table is gathered through it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, repeat
from operator import itemgetter, lshift, xor

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

    elements[0] is the identity, and every element is its layer
    coordinates, a D-bit int (:func:`spin`; the identity is 0); words[e] is a
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


def _step(pipeline: PipelineSpec, i: int) -> tuple[int, ...]:
    """T_{i+1} of lifted step i, the table of the register it writes:
    T_{i+1}[x] = f_i[x >> offset_i] over x < 2^offset_{i+1}."""
    return tuple(chain.from_iterable(map(repeat, pipeline.steps[i].table, repeat(1 << pipeline.offsets[i]))))


def _vector(table: Sequence[int], width: int) -> int:
    """A table as a vector over F2, so that XOR of tables is XOR of
    vectors: byte plane s holds bits 8s..8s+7 of every entry."""
    if width <= 8:
        return int.from_bytes(bytes(table), "little")
    planes = [bytes([(v >> s) & 255 for v in table]) for s in range(0, width, 8)]
    return int.from_bytes(b"".join(planes), "little")


def spin(
    pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP, what: str = "module spin"
) -> tuple[tuple[int, ...], list[tuple]]:
    """The layer dimensions, and every step as the affine map it makes on
    the layer coordinates of the group's elements.

    G_j, generated by steps 0..j-1, acts on registers 0..j and fixes
    register j + 1, and its conjugates of step j commute and square to 1.
    They form an F2-space V_j, and G_{j+1} is V_j ⋊ G_j.  V_j is the cyclic
    F2[G_j]-module spun from phi_j = T_{j+1} (the MeatAxe spin: Parker 1984;
    Holt, Eick & O'Brien 2005): each basis table b is moved by every
    step i < j whose table is not all zero, as the gather
    b[x ^ (T_{i+1}[x mod 2^offset_{i+1}] << offset_{i+1})] (one
    ``itemgetter`` per layer and step, held when it fits the budget), and
    an image is kept only when its vector stays nonzero after Gaussian
    elimination on the highest set bit.
    Each pivot keeps the basis vectors it sums, so every image b∘s_i comes
    out with its coordinates: column k of step i's matrix on V_j.

    An element of G is v_{n-1}...v_0 with v_j in V_j, one way only, and is
    held as a D-bit int, D the sum of the dimensions: layer j's
    coordinates at bits D_j.., D_j the dimensions below it, phi_j the
    lowest.  Step i times it is (s_i v_{n-1} s_i)...(s_i v_{i+1} s_i)
    (s_i v_i) v_{i-1}...v_0: each layer k > i goes through the matrix of
    b -> b∘s_i (conjugation by s_i), layer i gets phi_i's unit vector
    XORed in (V_i is abelian), and the lower layers stay.  Step i's map
    is (base, images, unit): base = D_{i+1}, images[b] the image of bit
    base + b, and unit phi_i's bit (0 for a zero step, the identity).

    Raises ValueError when ``element_cap`` < 1, and
    :class:`ClosureCapExceeded` as soon as 2^(dimensions so far) exceeds
    ``element_cap``, or the step tables and a layer's basis would take more
    than ``BYTE_BUDGET``, which ``what`` names (a layer holds its gathers
    only when they fit beside the most basis tables it may keep).  No
    group element is formed.
    """
    if element_cap < 1:
        raise ValueError("element_cap must be >= 1")
    held = _charge_tables(pipeline, what)
    dimensions: list[int] = []
    layers = []  # layers[j][i]: the columns of step i's matrix on V_j
    moves: list[tuple[int, int, tuple[int, ...]]] = []  # (i, offset_{i+1}, T_{i+1}) of each nonzero step i < j
    for j in range(pipeline.n_steps):
        width, phi = pipeline.widths[j + 1], _step(pipeline, j)
        basis: list[Sequence[int]] = []
        pivots: dict[int, tuple[int, int]] = {}  # highest bit -> (vector, the basis vectors it sums)

        def keep(table: Sequence[int]) -> int:
            """The coordinates of ``table``, which joins the basis when independent."""
            v, c = _vector(table, width), 0
            while v and (p := v.bit_length() - 1) in pivots:
                u, d = pivots[p]
                v, c = v ^ u, c ^ d
            if not v:
                return c
            unit = 1 << len(basis)
            pivots[p] = v, c ^ unit
            basis.append(table)
            if 1 << (sum(dimensions) + len(basis)) > element_cap:
                raise ClosureCapExceeded(f"group closure exceeds the cap of {element_cap} elements")
            _charge(held + 8 * len(table) * (len(basis) - 1), what)
            return unit

        keep(phi)
        columns: dict[int, list[int]] = {}
        if basis and moves:
            # the gathers (an int below len(phi) and a slot an entry each) are
            # held for the layer only when they fit the budget beside as many
            # basis tables as the element cap and |G_j| leave room for, so
            # they never take the spin past it; otherwise each image is
            # gathered by a comprehension
            size = len(phi)
            room = min(element_cap.bit_length() - 1 - sum(dimensions), 1 << sum(dimensions))
            hold = held + len(moves) * (8 + sys.getsizeof(size - 1)) * size + 8 * size * (room - 1) <= BYTE_BUDGET
            moved = []
            for i, offset, t in moves:
                if hold:  # T_{i+1} read at x mod 2^offset_{i+1} is T_{i+1} repeated
                    shifted = map(lshift, chain.from_iterable(repeat(t, size >> offset)), repeat(offset))
                    gather = itemgetter(*map(xor, range(size), shifted))
                else:

                    def gather(b: Sequence[int], t: Sequence[int] = t, mask: int = len(t) - 1, offset: int = offset):
                        return [b[x ^ t[x & mask] << offset] for x in range(size)]

                moved.append((columns.setdefault(i, []), gather))
            for b in basis:  # the basis grows while it is walked
                for column, gather in moved:
                    column.append(keep(gather(b)))
        if basis:  # phi is not all zero
            moves.append((j, pipeline.offsets[j + 1], phi))
        units = [1 << k for k in range(len(basis))]  # a zero step moves nothing
        layers.append([columns.get(i, units) for i in range(j)])
        dimensions.append(len(basis))
    starts = list(accumulate(dimensions, initial=0))
    steps = [
        (
            starts[i + 1],
            [c << starts[k] for k in range(i + 1, len(layers)) for c in layers[k][i]],
            1 << starts[i] if dimensions[i] else 0,
        )
        for i in range(len(layers))
    ]
    return tuple(dimensions), steps


def closure(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> GroupClosure:
    """Enumerate the group of the lifted steps by breadth-first left
    multiplication on layer coordinates.

    The spin (:func:`spin`) gives |G| = 2^D and each step's affine map
    first.  Starting from the identity 0, each frontier element is then
    multiplied on the left by every step (steps in order, frontier in
    discovery order), which makes the discovery order deterministic and
    yields shortest, lexicographically smallest words.  A product is one
    lookup: step i's table, built by doubling over its images, maps the
    coordinates above its base, and those below pass through.  Elements
    are indexed by a list over the coordinates.  Raises
    :class:`ClosureCapExceeded` when the group has more than
    ``element_cap`` elements, or its spin would take more than
    ``BYTE_BUDGET`` bytes, before any element is listed; or when what the
    closure holds would: before the search, its step tables and what every
    element holds but its word's symbols, and before each frontier is
    multiplied, 8 bytes a symbol of the words found and to be found, none
    shorter than the next frontier's.  Raises
    :class:`involift.lifting.LiftingCheckFailed` when the search does not
    list exactly the 2^D elements the spin counts.
    """
    dimensions, steps = spin(pipeline, element_cap, "group closure")
    order = 1 << sum(dimensions)
    n = len(steps)
    number = sys.getsizeof(order - 1)  # an int below 2^D
    # an element holds three such ints (its coordinate, its index, which the
    # rows of left share, and its parent's index), its word's tuple and a
    # slot in each of elements, words, parents, the index and the n rows of
    # left, and in the tuples the result copies all but the index into;
    # step i's table holds 2^(D - D_{i+1}) ints, a slot apiece
    held = (3 * number + sys.getsizeof(()) + 8 * (2 * n + 7)) * order
    held += (number + 8) * sum(1 << len(images) for _, images, _ in steps)
    _charge(held, "group closure")
    tables = []
    for base, images, unit in steps:
        table = [unit]
        for image in images:
            table += [x ^ image for x in table]
        tables.append((base, table))
    elements = [0]
    words: list[tuple[int, ...]] = [()]
    parents = [0]
    left: list[list[int]] = [[] for _ in range(n)]
    # the maps act on the coordinates below the last step's base: 2^D of them
    # when they agree with the spin's dimensions
    index = [0] + [-1] * ((1 << steps[-1][0]) - 1)
    # frontiers are contiguous index ranges, so each left[g] fills in index order
    frontier, depth = range(1), 0
    while frontier:
        depth += 1  # the symbols of a word the frontier finds
        _charge(held + 8 * depth * (order - len(elements)), "group closure")
        for gi, (base, table) in enumerate(tables):
            row, low = left[gi], (1 << base) - 1
            for ei in frontier:
                c = elements[ei]
                product = table[c >> base] ^ c & low
                k = index[product]
                if k < 0:
                    k = index[product] = len(elements)
                    words.append((gi,) + words[ei])
                    parents.append(ei)
                    elements.append(product)
                row.append(k)
        held += 8 * depth * (len(elements) - frontier.stop)
        frontier = range(frontier.stop, len(elements))
    if len(elements) != order:
        raise LiftingCheckFailed(f"the closure lists {len(elements)} elements where the spin counts {order}")
    return GroupClosure(tuple(elements), tuple(words), tuple(map(tuple, left)), tuple(parents))


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
