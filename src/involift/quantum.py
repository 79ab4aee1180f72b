"""Sparse qubit-register states and the unitaries of lifted-step words.

A lifted step permutes basis indices, so it extends linearly to a unitary
on the 2^W-dimensional state space, and applying a word of steps just
reroutes amplitudes: states are kept as sparse index -> amplitude maps,
:func:`apply_steps` routes each amplitude through the word, and norms are
preserved exactly.  Measurement samples a register's exact Born
distribution with a seeded generator and never collapses the state (every
shot is an independent preparation); :func:`measure` draws its shots a
block of SplitMix64 words at a time and returns the distribution with the
counts.  It forms no float per shot: each running sum of the distribution
becomes the least word whose scaled draw reaches it, which is exact
because the scaled draw never decreases as the word grows, and with up
to 64 values the top byte of a word alone gives its value except in the
few byte ranges a threshold falls inside.  States that
:func:`apply_steps` and :func:`uniform_superposition` build are
normalized by construction and skip the checks of :class:`QState`.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from typing import Sequence

from .lifting import PipelineSpec, word_action
from .rng import SplitMix64

AMPLITUDE_TOLERANCE = 1e-12  # slack for normalization arithmetic only
PRUNE_THRESHOLD = 1e-15  # amplitudes below this magnitude must be dropped


@dataclass(frozen=True)
class QState:
    """Normalized state over 2^total_width basis indices, stored sparsely.

    The amplitude dict is owned by the instance and must not be mutated;
    every operation returns a fresh state.
    """

    total_width: int
    amplitudes: dict[int, complex]

    def __post_init__(self) -> None:
        size = 1 << self.total_width
        amplitudes = self.amplitudes
        magnitudes = [a.real * a.real + a.imag * a.imag for a in amplitudes.values()]
        if amplitudes and (
            min(amplitudes) < 0
            or max(amplitudes) >= size
            or min(magnitudes) < PRUNE_THRESHOLD * PRUNE_THRESHOLD
        ):
            # word the first failing entry
            for index, mag2 in zip(amplitudes, magnitudes):
                if not 0 <= index < size:
                    raise ValueError(f"basis index {index} out of range for width {self.total_width}")
                if mag2 < PRUNE_THRESHOLD * PRUNE_THRESHOLD:
                    raise ValueError("amplitudes below the pruning threshold must be dropped")
        squared = sum(magnitudes, 0.0)
        if abs(squared - 1.0) > AMPLITUDE_TOLERANCE:
            raise ValueError(f"squared norm {squared} is not 1 within {AMPLITUDE_TOLERANCE}")


def _built(total_width: int, amplitudes: dict[int, complex]) -> QState:
    """A state whose invariants hold by construction, made without running
    the checks of :class:`QState` again."""
    state = object.__new__(QState)
    object.__setattr__(state, "total_width", total_width)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


def basis_state(pipeline: PipelineSpec, values: Sequence[int]) -> QState:
    """The computational basis state with the given per-register values."""
    return QState(pipeline.total_width, {pipeline.pack_registers(values): 1.0 + 0j})


def uniform_superposition(pipeline: PipelineSpec, register: int, base: QState) -> QState:
    """Spread one register of a basis state uniformly over all its values.

    ``base`` must be a basis state whose chosen register is zero (the usual
    all-zeros preparation before evaluating a pipeline on every input at
    once); the other registers are untouched.  Each of the 2^w indices
    gets amp * 2^(-w/2), so the norm stays that of ``base`` and the result
    skips the checks of :class:`QState`.
    """
    if base.total_width != pipeline.total_width:
        raise ValueError("pipeline and state widths differ")
    if not 0 <= register < len(pipeline.widths):
        raise ValueError(f"register {register} out of range 0..{len(pipeline.widths) - 1}")
    if len(base.amplitudes) != 1:
        raise ValueError("base must be a basis state")
    ((index, amp),) = base.amplitudes.items()
    width = pipeline.widths[register]
    offset = pipeline.offsets[register]
    if (index >> offset) & ((1 << width) - 1):
        raise ValueError(f"register {register} of the base state must be 0")
    scale = amp * 2.0 ** (-width / 2)
    # the register is zero in index, so index | (v << offset) = index + (v << offset)
    spread = range(index, index + (1 << width << offset), 1 << offset)
    return _built(base.total_width, dict.fromkeys(spread, scale))


def apply_steps(pipeline: PipelineSpec, word: Sequence[int], state: QState) -> QState:
    """Apply the unitary of a word of lifted steps (step indices, rightmost
    first) by routing every index of the support through the word's action
    on basis states at once (:func:`involift.lifting.word_action`):
    |support| * |word| table lookups, no 2^W permutation.  The action is a
    bijection and every amplitude is kept, so the result is normalized by
    construction and skips the checks of :class:`QState`."""
    if pipeline.total_width != state.total_width:
        raise ValueError(
            f"width mismatch: pipeline acts on {pipeline.total_width}, state on {state.total_width}"
        )
    amplitudes = state.amplitudes
    return _built(state.total_width, dict(zip(word_action(pipeline, word)(amplitudes), amplitudes.values())))


def marginal_distribution(state: QState, pipeline: PipelineSpec, register: int) -> dict[int, float]:
    """Exact Born probabilities of one register, from squared amplitudes."""
    if state.total_width != pipeline.total_width:
        raise ValueError("pipeline and state widths differ")
    if not 0 <= register < len(pipeline.widths):
        raise ValueError(f"register {register} out of range 0..{len(pipeline.widths) - 1}")
    offset = pipeline.offsets[register]
    mask = (1 << pipeline.widths[register]) - 1
    probabilities: dict[int, float] = {}
    for index, amp in state.amplitudes.items():
        value = (index >> offset) & mask
        probabilities[value] = probabilities.get(value, 0.0) + (
            amp.real * amp.real + amp.imag * amp.imag
        )
    return probabilities


@dataclass(frozen=True)
class MeasurementResult:
    """Counts of ``shots`` draws of one register, and the exact marginal
    (register value -> Born probability) they were drawn from."""

    counts: dict[int, int]
    shots: int
    distribution: dict[int, float]


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
    takes word i of the SplitMix64 stream over ``seed``, scales its top 53
    bits to u = m * 2^-53 * total and counts the register value at
    ``bisect_right`` of u in the running sums of the distribution (values
    ascending; u at or past the last bound counts for the last value), so
    equal seeds give identical counts on any platform.  A marginal with one
    value gets every shot without a word drawn.

    No float is formed per shot.  fl(m * scale) never decreases as m grows,
    so u reaches a bound b exactly when m reaches the least m <= 2^53 with
    fl(m * scale) >= b (:func:`_thresholds`), that is when the word reaches
    that m shifted left by 11: the value index of a word is the number of
    these word thresholds at or below it.  Words are counted a block at a
    time from :meth:`SplitMix64.blocks`, so memory is bounded by the block
    size, not by ``shots``.  Up to :data:`_CLASSIFY_MAX_VALUES` values, the
    top byte of a word fixes its value unless a threshold falls inside that
    byte's range of words: a 256-entry table maps each top byte to its value
    index, or to 255 for such a straddling byte, so a block is counted by
    one ``bytes.translate`` and one ``bytes.count`` per value, and only the
    straddling words are bisected.  With more values every word is bisected
    against the thresholds.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probabilities = marginal_distribution(state, pipeline, register)
    rng = SplitMix64(seed)
    values = sorted(probabilities)
    if len(values) == 1:
        return MeasurementResult({values[0]: shots}, shots, probabilities)
    *bounds, total = accumulate(probabilities[v] for v in values)
    # m * (2^-53 * total) rounds the exact m * total * 2^-53 once, as
    # (m * 2^-53) * total does: scaling by a power of two is exact
    scale = 2.0**-53 * total
    thresholds = _thresholds(bounds, scale)
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
    counts = {values[k]: c for k, c in sorted(hits.items()) if c}
    return MeasurementResult(counts, shots, probabilities)


def _thresholds(bounds: list[float], scale: float) -> list[int]:
    """For each bound b, the least m <= 2^53 with fl(m * scale) >= b (2^53
    if no 53-bit m reaches it), shifted left by 11 to compare with words.
    Each m starts from ceil(b / scale) and is stepped only where that
    misses, which is exact because fl(m * scale) never decreases as m
    grows; the bounds ascend, and so do the m."""
    top = 1 << 53
    ms = [math.ceil(b / scale) for b in bounds]
    if ms[-1] > top or not all([(m - 1) * scale < b <= m * scale for m, b in zip(ms, bounds)]):
        for j, (m, b) in enumerate(zip(ms, bounds)):
            m = min(m, top)
            while m > 0 and (m - 1) * scale >= b:
                m -= 1
            while m < top and m * scale < b:
                m += 1
            ms[j] = m
    return [m << 11 for m in ms]


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
