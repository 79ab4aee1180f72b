"""Shared fixtures: canonical small pipelines, the seeded random corpus, an
oracle that builds permutations straight from register-tuple rules,
reference permutation algebra (composition, order, word evaluation,
identity test), the identity test of a truth table, the norm of a state,
seeded random states, constant-zero steps and pipeline documents."""

import json
import math

import pytest

from involift.boolfn import BoolFunc, identity_fn
from involift.cli import FORMAT_VERSION
from involift.lifting import Perm, PipelineSpec, layout, random_pipeline
from involift.quantum import PRUNE_THRESHOLD, QState
from involift.rng import SplitMix64


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


def fn_is_identity(f: BoolFunc) -> bool:
    """Whether the truth table is the identity on its bits."""
    return f.arity_in == f.arity_out and all(v == x for x, v in enumerate(f.table))


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
    acc = Perm.identity(generators[0].total_width)
    for symbol in word:
        acc = perm_compose(acc, generators[symbol])
    return acc


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
    the new register values; packing goes through the layout contract, so
    the result is independent of how the lifting module builds its
    permutations.
    """

    def build(pipeline: PipelineSpec, rule) -> Perm:
        lay = layout(pipeline)
        mapping = []
        for state in range(1 << lay.total_width):
            registers = lay.unpack_registers(state)
            mapping.append(lay.pack_registers(rule(registers, pipeline.steps)))
        return Perm(lay.total_width, tuple(mapping))

    return build


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
    raw = {i: complex(2.0 * rng.next_float() - 1.0, 2.0 * rng.next_float() - 1.0) for i in indices}
    norm = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in raw.values()))
    if norm < 1e-9:  # vanishing draw; keep the state well-defined
        raw = {indices[0]: 1.0 + 0j}
        norm = 1.0
    amplitudes = {i: a / norm for i, a in raw.items() if abs(a / norm) >= PRUNE_THRESHOLD}
    return QState(width, amplitudes)
