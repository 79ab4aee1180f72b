"""Sparse qubit-register states and the unitaries of lifted-step words.

A lifted step permutes basis indices, so it extends linearly to a unitary
on the 2^W-dimensional state space, and applying a word of steps just
reroutes amplitudes: states are kept as sparse index -> amplitude maps,
:func:`apply_steps` routes each amplitude through the word, and norms are
preserved exactly.  Measurement samples a register's exact Born
distribution with a seeded generator and never collapses the state (every
shot is an independent preparation); :func:`measure` draws its shots a
block of SplitMix64 words at a time and counts them in C, and returns the
distribution with the counts.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul, rshift
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
        squared = 0.0
        for index, amp in self.amplitudes.items():
            if not 0 <= index < size:
                raise ValueError(f"basis index {index} out of range for width {self.total_width}")
            mag2 = amp.real * amp.real + amp.imag * amp.imag
            if mag2 < PRUNE_THRESHOLD * PRUNE_THRESHOLD:
                raise ValueError("amplitudes below the pruning threshold must be dropped")
            squared += mag2
        if abs(squared - 1.0) > AMPLITUDE_TOLERANCE:
            raise ValueError(f"squared norm {squared} is not 1 within {AMPLITUDE_TOLERANCE}")


def basis_state(pipeline: PipelineSpec, values: Sequence[int]) -> QState:
    """The computational basis state with the given per-register values."""
    return QState(pipeline.total_width, {pipeline.pack_registers(values): 1.0 + 0j})


def uniform_superposition(pipeline: PipelineSpec, register: int, base: QState) -> QState:
    """Spread one register of a basis state uniformly over all its values.

    ``base`` must be a basis state whose chosen register is zero (the usual
    all-zeros preparation before evaluating a pipeline on every input at
    once); the other registers are untouched and the norm stays 1.
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
    return QState(base.total_width, {index | (v << offset): scale for v in range(1 << width)})


def apply_steps(pipeline: PipelineSpec, word: Sequence[int], state: QState) -> QState:
    """Apply the unitary of a word of lifted steps (step indices, rightmost
    first) by routing each amplitude through the word's action on basis
    states (:func:`involift.lifting.word_action`, resolved once per word):
    |support| * |word| table lookups, no 2^W permutation."""
    if pipeline.total_width != state.total_width:
        raise ValueError(
            f"width mismatch: pipeline acts on {pipeline.total_width}, state on {state.total_width}"
        )
    act = word_action(pipeline, word)
    return QState(state.total_width, {act(i): a for i, a in state.amplitudes.items()})


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

    register: int
    counts: dict[int, int]
    seed: int
    shots: int
    distribution: dict[int, float]


def measure(
    state: QState, pipeline: PipelineSpec, register: int, seed: int, shots: int
) -> MeasurementResult:
    """Sample one register ``shots`` times from its exact marginal.

    Shots are independent preparations; no collapse is modelled.  Shot i
    takes word i of the SplitMix64 stream over ``seed``, scales its top 53
    bits to u = m * 2^-53 * total and counts the register value at
    ``bisect_right`` of u in the running sums of the distribution (values
    ascending; u at or past the last bound counts for the last value), so
    equal seeds give identical counts on any platform.  The words come a
    block at a time from :meth:`SplitMix64.blocks` and are counted in C, so
    memory is bounded by the block size, not by ``shots``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probabilities = marginal_distribution(state, pipeline, register)
    values = sorted(probabilities)
    *bounds, total = accumulate(probabilities[v] for v in values)
    # m * (2^-53 * total) rounds the exact m * total * 2^-53 once, as
    # (m * 2^-53) * total does: scaling by a power of two is exact
    scale = 2.0**-53 * total
    hits: Counter[int] = Counter()
    for words in SplitMix64(seed).blocks(shots):
        draws = map(mul, map(rshift, words, repeat(11)), repeat(scale))
        hits.update(map(bisect_right, repeat(bounds), draws))
    counts = {values[k]: c for k, c in sorted(hits.items())}
    return MeasurementResult(register, counts, seed, shots, probabilities)
