"""Shared fixtures: canonical small pipelines, the seeded random corpus, an
oracle that builds permutations straight from register-tuple rules,
reference permutation algebra (identity, lifted steps, composition, order,
word evaluation, identity test, the closure of arbitrary permutations and
the tableau of a permutation), the nondegeneracy test of a pipeline read
from its tables, the identity test of a truth table, the norm
of a state, seeded random states, the per-shot measurement loop,
identity and constant-zero steps and pipeline documents.

The package builds no permutation: its group elements are tableaux.  The
permutations here are the reference they are checked against, kept to
small state spaces (W <= 12)."""

import json
import math
from bisect import bisect_right

import pytest

from involift.boolfn import BoolFunc
from involift.cli import FORMAT_VERSION
from involift.lifting import Perm, PipelineSpec, product_orders, random_pipeline
from involift.permgroup import GroupClosure
from involift.quantum import PRUNE_THRESHOLD, QState, marginal_distribution
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


def state_norm(state: QState) -> float:
    return math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in state.amplitudes.values()))


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


def _signed_unit(rng: SplitMix64) -> float:
    """Uniform double in [-1, 1) from the top 53 bits of the next word."""
    return (rng.next_u64() >> 11) * 2.0**-52 - 1.0


def random_state(width: int, seed: int, support: int = 8) -> QState:
    """Seeded random state on at most ``support`` basis indices.

    Indices come from masked SplitMix64 words (repeats rejected); real and
    imaginary parts are uniform on [-1, 1); the vector is then normalized
    and pruned.
    """
    if support < 1:
        raise ValueError("support must be >= 1")
    size = 1 << width
    k = min(support, size)
    rng = SplitMix64(seed)
    indices: list[int] = []
    seen: set[int] = set()
    while len(indices) < k:
        index = rng.next_bits(width)
        if index not in seen:
            seen.add(index)
            indices.append(index)
    raw = {i: complex(_signed_unit(rng), _signed_unit(rng)) for i in indices}
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in raw.values()))
    if norm < 1e-9:  # vanishing draw; keep the state well-defined
        raw = {indices[0]: 1.0 + 0j}
        norm = 1.0
    amplitudes = {i: a / norm for i, a in raw.items() if abs(a / norm) >= PRUNE_THRESHOLD}
    return QState(width, amplitudes)


def reference_measure(state: QState, pipeline: PipelineSpec, register: int, seed: int, shots: int) -> dict[int, int]:
    """Reference counts of ``quantum.measure``: one SplitMix64 word per shot,
    u = (m * 2^-53) * total from its top 53 bits m, inverted by
    ``bisect_right`` on the cumulative distribution (values ascending), a k
    past the last value clamped to it."""
    probabilities = marginal_distribution(state, pipeline, register)
    values = sorted(probabilities)
    cumulative = []
    total = 0.0
    for v in values:
        total += probabilities[v]
        cumulative.append(total)
    rng = SplitMix64(seed)
    counts: dict[int, int] = {}
    for _ in range(shots):
        u = (rng.next_u64() >> 11) * 2.0**-53 * total
        k = bisect_right(cumulative, u)
        if k == len(values):
            k -= 1
        counts[values[k]] = counts.get(values[k], 0) + 1
    return counts
