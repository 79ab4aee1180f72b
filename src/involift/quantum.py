"""Qubit-register states and the unitaries of lifted-step words.

A lifted step permutes basis indices, so it extends linearly to a unitary
on the 2^W-dimensional state space that permutes basis states.  Every state
this module builds is uniform over its support: one basis index, or the
2^w indices of one superposed w-bit register, each with amplitude
2^(-w/2).  A word only permutes indices, so a state is held as its support
alone (:class:`QState`), :func:`apply_steps` routes the support through
the word, and a register's marginal is exactly count/2^w.  Measurement
samples that marginal with a seeded generator, a block of words at a time
and against exact integer thresholds (:func:`measure`), and never
collapses the state.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import accumulate, compress, repeat

from .boolfn import Frozen
from .lifting import PipelineSpec, word_action
from .rng import SplitMix64


class QState(Frozen):
    """The state uniform over ``support``, distinct basis indices of
    2^total_width whose number N is a power of two, each with amplitude
    N^(-1/2).  The support is held ascending, so states with the same
    indices are equal."""

    __slots__ = ("total_width", "support")

    def __init__(self, total_width: int, support: Iterable[int]) -> None:
        support = tuple(sorted(support))
        object.__setattr__(self, "total_width", total_width)
        object.__setattr__(self, "support", support)
        n = len(support)
        if not n or n & (n - 1):
            raise ValueError(f"support of {n} indices is not a power of two")
        if support[0] < 0 or support[-1] >= 1 << total_width:
            bad = support[0] if support[0] < 0 else support[-1]
            raise ValueError(f"basis index {bad} out of range for width {total_width}")
        if len(set(support)) != n:
            raise ValueError("support indices must be distinct")


def basis_state(pipeline: PipelineSpec, values: Sequence[int]) -> QState:
    """The computational basis state with the given per-register values."""
    return QState(pipeline.total_width, (pipeline.pack_registers(values),))


def uniform_superposition(pipeline: PipelineSpec, register: int, base: QState) -> QState:
    """Spread one register of a basis state uniformly over all its values.

    ``base`` must be a basis state whose chosen register is zero (the usual
    all-zeros preparation before evaluating a pipeline on every input at
    once); the other registers are untouched, and the support is the 2^w
    indices that differ from ``base`` only in that register.
    """
    if base.total_width != pipeline.total_width:
        raise ValueError("pipeline and state widths differ")
    if not 0 <= register < len(pipeline.widths):
        raise ValueError(f"register {register} out of range 0..{len(pipeline.widths) - 1}")
    if len(base.support) != 1:
        raise ValueError("base must be a basis state")
    (index,) = base.support
    width = pipeline.widths[register]
    offset = pipeline.offsets[register]
    if (index >> offset) & ((1 << width) - 1):
        raise ValueError(f"register {register} of the base state must be 0")
    # the register is zero in index, so index | (v << offset) = index + (v << offset)
    return QState(base.total_width, range(index, index + (1 << width << offset), 1 << offset))


def apply_steps(pipeline: PipelineSpec, word: Sequence[int], state: QState) -> QState:
    """Apply the unitary of a word of lifted steps (step indices, rightmost
    first) by routing every index of the support through the word's action
    on basis states at once (:func:`involift.lifting.word_action`):
    |support| * |word| table lookups, no 2^W permutation."""
    if pipeline.total_width != state.total_width:
        raise ValueError(
            f"width mismatch: pipeline acts on {pipeline.total_width}, state on {state.total_width}"
        )
    return QState(state.total_width, word_action(pipeline, word)(state.support))


def marginal_distribution(state: QState, pipeline: PipelineSpec, register: int) -> dict[int, float]:
    """Exact Born probabilities of one register, values ascending: value v
    has probability count_v/N, where count_v indices of the support hold v
    and N = |support| is a power of two, so no float rounds."""
    if state.total_width != pipeline.total_width:
        raise ValueError("pipeline and state widths differ")
    if not 0 <= register < len(pipeline.widths):
        raise ValueError(f"register {register} out of range 0..{len(pipeline.widths) - 1}")
    offset = pipeline.offsets[register]
    mask = (1 << pipeline.widths[register]) - 1
    counts = Counter([(index >> offset) & mask for index in state.support])
    n = len(state.support)
    return {v: counts[v] / n for v in sorted(counts)}


class MeasurementResult(Frozen):
    """Counts of ``shots`` draws of one register, and the exact marginal
    (register value -> Born probability) they were drawn from."""

    __slots__ = ("counts", "shots", "distribution")

    def __init__(self, counts: dict[int, int], shots: int, distribution: dict[int, float]) -> None:
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "distribution", distribution)


# Up to this many register values a block is counted by the top byte of its
# words; above it, by one bisection per word, which is then the cheaper route.
_CLASSIFY_MAX_VALUES = 64
_TOP_BYTE = slice(7, None, 8) if sys.byteorder == "little" else slice(0, None, 8)
_STRADDLING = bytes(255) + b"\x01"  # translates the class 255 to 1, every other class to 0


def measure(
    state: QState, pipeline: PipelineSpec, register: int, seed: int, shots: int
) -> MeasurementResult:
    """Sample one register ``shots`` times from its exact marginal.

    Shots are independent preparations; no collapse is modelled.  Shot i
    takes word i of the SplitMix64 stream over ``seed`` and its top 53 bits
    m, and counts for the first value (ascending) whose running count C
    over the N = 2^w indices of the support has m * N < C * 2^53, so equal
    seeds give identical counts on any platform.  A marginal with one value
    gets every shot without a word drawn.

    No float is formed per shot: the value index of a word is the number of
    word thresholds C << (64 - w), for the running counts C before the last
    value, at or below it (exact while w <= 53, and a support that fits in
    memory has far fewer than 2^53 indices).  Words are counted a block at
    a time from :meth:`SplitMix64.blocks`, so memory is bounded by the
    block size, not by ``shots``.  Up to :data:`_CLASSIFY_MAX_VALUES`
    values, the top byte of a word fixes its value unless a threshold falls
    inside that byte's range of words, which needs w > 8: a 256-entry table
    maps each top byte to its value index, or to 255 for such a straddling
    byte, so a block is counted by one ``bytes.translate`` and one
    ``bytes.count`` per value, and only the straddling words are bisected.
    With more values every word is bisected against the thresholds.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    distribution = marginal_distribution(state, pipeline, register)
    rng = SplitMix64(seed)
    values = list(distribution)
    if len(values) == 1:
        return MeasurementResult({values[0]: shots}, shots, distribution)
    n = len(state.support)
    # each p is count/N with N = 2^w, so p * N is the count exactly
    running = accumulate(round(distribution[v] * n) for v in values[:-1])
    thresholds = [c << (65 - n.bit_length()) for c in running]  # C << (64 - w)
    hits: Counter[int] = Counter()
    if len(values) > _CLASSIFY_MAX_VALUES:
        for words in rng.blocks(shots):
            hits.update(map(bisect_right, repeat(thresholds), words))
    else:
        table = _top_byte_table(thresholds)
        whole = set(table) - {255}  # value indices that own at least one whole byte
        for words in rng.blocks(shots):
            classes = words.tobytes()[_TOP_BYTE].translate(table)
            for k in whole:
                hits[k] += classes.count(k)
            if 255 in classes:
                straddling = compress(words, classes.translate(_STRADDLING))
                hits.update(map(bisect_right, repeat(thresholds), straddling))
    return MeasurementResult({values[k]: c for k, c in sorted(hits.items()) if c}, shots, distribution)


def _top_byte_table(thresholds: list[int]) -> bytes:
    """Top byte c of a 64-bit word -> the value index of every word in
    [c * 2^56, (c + 1) * 2^56), the number of thresholds at or below them,
    or 255 when a threshold falls strictly inside that range.  The
    thresholds ascend and there are fewer than 255 of them."""
    table = bytearray(256)
    for k, t in enumerate(thresholds, 1):
        first = t >> 56  # the top byte of the threshold word
        table[first:] = bytes([k]) * (256 - first)
    for t in thresholds:
        if t & ((1 << 56) - 1):
            table[t >> 56] = 255
    return bytes(table)
