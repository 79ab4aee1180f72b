"""Shared fixtures: canonical small pipelines, the seeded random corpus, an
oracle that builds permutations straight from register-tuple rules,
reference permutation algebra (identity, lifted steps, composition, order,
word evaluation, identity test, the closure of arbitrary permutations, its
Cayley table by composition, element orders by walking words, and the
tables of a permutation), a second element form (the step tables read
off the truth tables and packed side by side into one int, with one
cached left multiplication by a step, the walk of a word and the tables
of a word, sharing no code with the package's spin), HLT coset
enumeration (the oracle for the orders of finite Coxeter groups), the
layer dimensions of a spin, the
nondegeneracy test of a pipeline read from its tables, the identity test
of a truth table, seeded random states, the per-shot integer measurement
oracle, identity and constant-zero steps and pipeline documents.

The package builds no permutation and no table of an element: its group
elements are layer coordinates over the spun modules.  The permutations
and packed tables here are the independent references they are checked
against, the permutations kept to small state spaces (W <= 12)."""

import json
import math
from bisect import bisect_right

import pytest

from involift.boolfn import BoolFunc
from involift.cli import FORMAT_VERSION
from involift.lifting import Perm, PipelineSpec, product_orders, random_pipeline
from involift.permgroup import DEFAULT_ELEMENT_CAP, GroupClosure, spin
from involift.quantum import QState
from involift.rng import SplitMix64


def identity_fn(width: int) -> BoolFunc:
    """The identity function on ``width`` bits."""
    return BoolFunc(width, width, tuple(range(1 << width)))


def zero_fn(arity_in: int, arity_out: int) -> BoolFunc:
    """The constant-zero function (its lifted involution is the identity)."""
    return BoolFunc(arity_in, arity_out, (0,) * (1 << arity_in))


def emit_pipeline(pipeline: PipelineSpec, name: str | None = None) -> str:
    """Serialize a pipeline to document JSON; parsing it back is lossless."""
    document: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "registers": list(pipeline.widths),
        "functions": [{"table": [format(v, "x") for v in f.table]} for f in pipeline.steps],
    }
    if name is not None:
        document["name"] = name
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def is_nondegenerate(pipeline: PipelineSpec) -> bool:
    """Whether the lifted steps are pairwise-distinct involutions (no table
    is all zero) whose neighbours have products of order 4."""
    orders = product_orders(pipeline)
    return not any(f.is_constant_zero for f in pipeline.steps) and all(
        orders[i][i + 1] == 4 for i in range(pipeline.n_steps - 1)
    )


def fn_is_identity(f: BoolFunc) -> bool:
    """Whether the truth table is the identity on its bits."""
    return f.arity_in == f.arity_out and all(v == x for x, v in enumerate(f.table))


def perm_identity(width: int) -> Perm:
    return Perm(width, tuple(range(1 << width)))


def step_perm(pipeline: PipelineSpec, step: int) -> Perm:
    """The lifted step i as a permutation of the packed states: register
    i + 1 picks up f_i(register i) by XOR."""
    f = pipeline.steps[step]
    src, dst, mask = pipeline.offsets[step], pipeline.offsets[step + 1], (1 << f.arity_in) - 1
    width = pipeline.total_width
    return Perm(width, tuple(s ^ (f.table[(s >> src) & mask] << dst) for s in range(1 << width)))


def step_perms(pipeline: PipelineSpec) -> tuple[Perm, ...]:
    return tuple(step_perm(pipeline, i) for i in range(pipeline.n_steps))


def perm_is_identity(p: Perm) -> bool:
    return all(v == i for i, v in enumerate(p.mapping))


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


def evaluate_word(generators, word) -> Perm:
    """Reference evaluation of a generator word as a permutation product.

    The word reads left to right in composition order, so the rightmost
    symbol acts on a state first.
    """
    generators = tuple(generators)
    acc = perm_identity(generators[0].total_width)
    for symbol in word:
        acc = perm_compose(acc, generators[symbol])
    return acc


def reference_closure(generators) -> GroupClosure:
    """Reference closure of arbitrary permutations, with Perm elements: the
    same breadth-first left multiplication as ``permgroup.closure`` (each
    frontier, generators in given order, frontier in discovery order) over
    2^W-point mapping arrays.  Its words, ``left``, ``parents`` and Cayley
    table are what the closure of the same steps must give."""
    gens = tuple(generators)
    identity = perm_identity(gens[0].total_width)
    elements, words, parents = [identity], [()], [0]
    left = [[] for _ in gens]
    index = {identity.mapping: 0}
    frontier = range(1)
    while frontier:
        for gi, gen in enumerate(gens):
            for ei in frontier:
                product = perm_compose(gen, elements[ei])
                k = index.get(product.mapping)
                if k is None:
                    k = index[product.mapping] = len(elements)
                    elements.append(product)
                    words.append((gi,) + words[ei])
                    parents.append(ei)
                left[gi].append(k)
        frontier = range(frontier.stop, len(elements))
    return GroupClosure(tuple(elements), tuple(words), tuple(map(tuple, left)), tuple(parents))


def cayley_table(group: GroupClosure) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of a closure as indices: its rows mapped through
    the indices themselves."""
    return tuple(group.cayley_rows(range(len(group))))


def reference_cayley(reference: GroupClosure) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of a closure of permutations, entry (i, j) the
    index of elements[i] composed with elements[j], found by composing."""
    index = {e.mapping: k for k, e in enumerate(reference.elements)}
    return tuple(
        tuple(index[perm_compose(a, b).mapping] for b in reference.elements) for a in reference.elements
    )


def walked_orders(group: GroupClosure) -> list[int]:
    """Order of every element of any closure: its word walked from the
    identity through ``left`` until the walk returns there."""

    def walk(word, e):
        for symbol in reversed(word):
            e = group.left[symbol][e]
        return e

    orders = []
    for word in group.words:
        k, e = 1, walk(word, 0)
        while e != 0:
            k, e = k + 1, walk(word, e)
        orders.append(k)
    return orders


def perm_tables(perm: Perm, pipeline: PipelineSpec) -> tuple:
    """T_1..T_n of a permutation of the lifted group, read from its images of
    the states whose registers j..n are zero (None for an all-zero table),
    as the closure holds an element."""
    offsets = pipeline.offsets
    tables = []
    for j in range(1, pipeline.n_steps + 1):
        mask = (1 << pipeline.widths[j]) - 1
        table = tuple((perm(x) >> offsets[j]) & mask for x in range(1 << offsets[j]))
        tables.append(table if any(table) else None)
    return tuple(tables)


def _term(step, lower):
    """What step i, ``step`` = (f_i, T_{i+1}), XORs into T_{i+1} of an
    element whose T_i is ``lower`` (None when all zero, and for step 0,
    which reads no table):

        T_{i+1}[x] ^= f[(x >> offset_i) ^ T_i[x mod 2^offset_i]]

    where f reads register i of the element's image of x; with T_i zero the
    term is the step's own table."""
    f, t = step
    if lower is None:
        return t
    return [f[y ^ u] for y in range(len(f)) for u in lower]


def step_table(pipeline: PipelineSpec, i: int) -> tuple[int, ...]:
    """T_{i+1} of lifted step i, read off its truth table:
    T_{i+1}[x] = f_i[register i of x] over x < 2^offset_{i+1}."""
    f, low = pipeline.steps[i], pipeline.offsets[i]
    return tuple(f.table[(x >> low) & ((1 << f.arity_in) - 1)] for x in range(1 << pipeline.offsets[i + 1]))


def _vector(table, width: int) -> int:
    """A table packed into one int, the inverse of :func:`_table`: byte
    plane s holds bits 8s..8s+7 of every entry, so that XOR of tables is
    XOR of their packings."""
    planes = (width + 7) // 8
    return int.from_bytes(bytes((v >> 8 * s) & 255 for s in range(planes) for v in table), "little")


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
    packed element: T_j is its vector shifted to its position, and the
    tables follow one another from bit 0."""
    fields, position = [], 0
    for width, offset in zip(pipeline.widths[1:], pipeline.offsets[1:]):
        fields.append((position, width, 1 << offset))
        position += 8 * ((width + 7) // 8) << offset
    return fields


class _Steps:
    """Left multiplication of packed elements by the lifted steps of one
    pipeline, an element form independent of the package's coordinates:
    an element is its tables T_1..T_n packed side by side into one int
    (:func:`_fields`), the identity 0.  Step i rewrites only T_{i+1}, by an
    XOR that depends on T_i alone, so step i times e is
    ``e ^ delta(i, e & masks[i])``, with masks[i] the bits of T_i (none for
    step 0); ``deltas[i]`` caches delta(i, .) by key."""

    def __init__(self, pipeline: PipelineSpec):
        self.steps = [(f.table, step_table(pipeline, i)) for i, f in enumerate(pipeline.steps)]
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


def word_elements(pipeline: PipelineSpec, words) -> list[int]:
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


def element_tables(pipeline: PipelineSpec, element: int) -> tuple:
    """T_1..T_n of a packed element, unpacked from its fields, in the form
    of :func:`perm_tables` (None for an all-zero table)."""
    tables = []
    for position, width, entries in _fields(pipeline):
        bits = (element >> position) & ((1 << 8 * ((width + 7) // 8) * entries) - 1)
        table = _table(bits, width, entries)
        tables.append(table if any(table) else None)
    return tuple(tables)


def word_tables(pipeline: PipelineSpec, word) -> tuple:
    """T_1..T_n of a word of step indices, evaluated as a packed element
    (:func:`word_elements`) and unpacked."""
    return element_tables(pipeline, word_elements(pipeline, [word])[0])


def layer_dimensions(pipeline: PipelineSpec, element_cap: int = DEFAULT_ELEMENT_CAP) -> tuple[int, ...]:
    """The layer dimensions of the pipeline's spin, one per register 1..n."""
    return spin(pipeline, element_cap)[0]


class _CosetBoundExceeded(Exception):
    pass


def todd_coxeter(generator_count: int, relators, coset_cap: int) -> int | None:
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


SUITE_BASE_SEED = 1000
SUITE_SIZE = 100

ID1 = identity_fn(1)
NOT1 = BoolFunc(1, 1, (1, 0))


@pytest.fixture
def two_step_id() -> PipelineSpec:
    return PipelineSpec((1, 1, 1), (ID1, ID1))


@pytest.fixture
def three_step_id() -> PipelineSpec:
    return PipelineSpec((1, 1, 1, 1), (ID1, ID1, ID1))


@pytest.fixture
def two_step_zero_first() -> PipelineSpec:
    return PipelineSpec((1, 1, 1), (zero_fn(1, 1), ID1))


@pytest.fixture(scope="session")
def pipeline_suite() -> list[PipelineSpec]:
    """100 seeded random 2-step pipelines with register widths up to 3."""
    return [random_pipeline(SUITE_BASE_SEED + k, steps=2, max_width=3) for k in range(SUITE_SIZE)]


@pytest.fixture(scope="session")
def rule_perm():
    """Build the permutation acting on register tuples by an explicit rule.

    The rule receives the register values and the step functions and returns
    the new register values; packing goes through the pipeline's register
    contract, so the result is independent of how the lifting module acts
    on states.
    """

    def build(pipeline: PipelineSpec, rule) -> Perm:
        mapping = []
        for state in range(1 << pipeline.total_width):
            registers = pipeline.unpack_registers(state)
            mapping.append(pipeline.pack_registers(rule(registers, pipeline.steps)))
        return Perm(pipeline.total_width, tuple(mapping))

    return build


def random_state(width: int, seed: int, size: int = 8) -> QState:
    """Seeded random state on ``size`` basis indices of ``width`` bits (size
    a power of two, at most 2^width): indices are masked SplitMix64 words,
    repeats rejected."""
    if size > 1 << width:
        raise ValueError(f"{size} indices do not fit in width {width}")
    rng = SplitMix64(seed)
    support: set[int] = set()
    while len(support) < size:
        support.add(rng.next_bits(width))
    return QState(width, support)


def reference_measure(state: QState, pipeline: PipelineSpec, register: int, seed: int, shots: int) -> dict[int, int]:
    """Reference counts of ``quantum.measure``, in integers and one shot at a
    time: the register values are counted over the N indices of the support,
    and a shot whose SplitMix64 word has top 53 bits m counts for the first
    value k (ascending) whose running count C_{k+1} has m * N < C_{k+1} * 2^53.
    The last running count is N, so every shot finds its value."""
    offset, mask = pipeline.offsets[register], (1 << pipeline.widths[register]) - 1
    held: dict[int, int] = {}
    for index in state.support:
        value = (index >> offset) & mask
        held[value] = held.get(value, 0) + 1
    values = sorted(held)
    bounds, total = [], 0  # C_{k+1} * 2^53 for each value k
    for v in values:
        total += held[v]
        bounds.append(total << 53)
    n = len(state.support)
    rng = SplitMix64(seed)
    counts: dict[int, int] = {}
    for _ in range(shots):
        # the first bound above m * N is the first with m * N < C_{k+1} * 2^53
        k = bisect_right(bounds, (rng.next_u64() >> 11) * n)
        counts[values[k]] = counts.get(values[k], 0) + 1
    return counts
