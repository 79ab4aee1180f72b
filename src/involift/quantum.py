"""Permutation unitaries acting on sparse qubit-register states.

A permutation of basis indices extends linearly to a unitary on the
2^W-dimensional state space; applying it just reroutes amplitudes, so
states are kept as sparse index -> amplitude maps and norms are preserved
exactly.  Measurement samples a register's exact Born distribution with a
seeded generator and never collapses the state (every shot is an
independent preparation).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .lifting import Perm, PipelineSpec, RegisterLayout, apply_word
from .permgroup import GroupClosure, perm_inverse
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

    def amplitude(self, index: int) -> complex:
        return self.amplitudes.get(index, 0j)

    def norm(self) -> float:
        return math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in self.amplitudes.values()))


@dataclass(frozen=True)
class PermUnitary:
    """The unitary permuting basis states by ``perm``."""

    perm: Perm

    @property
    def total_width(self) -> int:
        return self.perm.total_width

    def adjoint(self) -> "PermUnitary":
        return PermUnitary(perm_inverse(self.perm))


def basis_state(layout: RegisterLayout, values: Sequence[int]) -> QState:
    """The computational basis state with the given per-register values."""
    return QState(layout.total_width, {layout.pack_registers(values): 1.0 + 0j})


def uniform_superposition(layout: RegisterLayout, register: int, base: QState) -> QState:
    """Spread one register of a basis state uniformly over all its values.

    ``base`` must be a basis state whose chosen register is zero (the usual
    all-zeros preparation before evaluating a pipeline on every input at
    once); the other registers are untouched and the norm stays 1.
    """
    if base.total_width != layout.total_width:
        raise ValueError("layout and state widths differ")
    if not 0 <= register < len(layout.widths):
        raise ValueError(f"register {register} out of range 0..{len(layout.widths) - 1}")
    if len(base.amplitudes) != 1:
        raise ValueError("base must be a basis state")
    ((index, amp),) = base.amplitudes.items()
    width = layout.widths[register]
    offset = layout.offsets[register]
    if (index >> offset) & ((1 << width) - 1):
        raise ValueError(f"register {register} of the base state must be 0")
    scale = amp * 2.0 ** (-width / 2)
    return QState(base.total_width, {index | (v << offset): scale for v in range(1 << width)})


def apply(unitary: PermUnitary, state: QState) -> QState:
    """Route the amplitude at index i to perm(i); the norm is untouched."""
    if unitary.total_width != state.total_width:
        raise ValueError(
            f"width mismatch: unitary acts on {unitary.total_width}, state on {state.total_width}"
        )
    mapping = unitary.perm.mapping
    return QState(state.total_width, {mapping[i]: a for i, a in state.amplitudes.items()})


def apply_steps(pipeline: PipelineSpec, word: Sequence[int], state: QState) -> QState:
    """Apply the unitary of a word of lifted steps (1-based, rightmost
    first) by routing each amplitude through
    :func:`involift.lifting.apply_word`: |support| * |word| table lookups,
    no 2^W permutation."""
    if pipeline.total_width != state.total_width:
        raise ValueError(
            f"width mismatch: pipeline acts on {pipeline.total_width}, state on {state.total_width}"
        )
    return QState(state.total_width, {apply_word(pipeline, word, i): a for i, a in state.amplitudes.items()})


def marginal_distribution(state: QState, layout: RegisterLayout, register: int) -> dict[int, float]:
    """Exact Born probabilities of one register, from squared amplitudes."""
    if state.total_width != layout.total_width:
        raise ValueError("layout and state widths differ")
    if not 0 <= register < len(layout.widths):
        raise ValueError(f"register {register} out of range 0..{len(layout.widths) - 1}")
    offset = layout.offsets[register]
    mask = (1 << layout.widths[register]) - 1
    probabilities: dict[int, float] = {}
    for index, amp in state.amplitudes.items():
        value = (index >> offset) & mask
        probabilities[value] = probabilities.get(value, 0.0) + (
            amp.real * amp.real + amp.imag * amp.imag
        )
    return probabilities


@dataclass(frozen=True)
class MeasurementResult:
    register: int
    counts: dict[int, int]
    seed: int
    shots: int


def measure(
    state: QState, layout: RegisterLayout, register: int, seed: int, shots: int
) -> MeasurementResult:
    """Sample one register ``shots`` times from its exact marginal.

    Shots are independent preparations; no collapse is modelled.  Each shot
    inverts the cumulative distribution (register values in ascending
    order) at a SplitMix64 double, so equal seeds give identical counts on
    any platform.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probabilities = marginal_distribution(state, layout, register)
    values = sorted(probabilities)
    cumulative = []
    total = 0.0
    for v in values:
        total += probabilities[v]
        cumulative.append(total)
    rng = SplitMix64(seed)
    counts: dict[int, int] = {}
    for _ in range(shots):
        u = rng.next_float() * total
        k = bisect_right(cumulative, u)
        if k == len(values):
            k -= 1
        counts[values[k]] = counts.get(values[k], 0) + 1
    return MeasurementResult(register, counts, seed, shots)


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


def states_close(a: QState, b: QState, tolerance: float = AMPLITUDE_TOLERANCE) -> bool:
    """Amplitude-wise comparison over the union of supports."""
    if a.total_width != b.total_width:
        return False
    keys = a.amplitudes.keys() | b.amplitudes.keys()
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= tolerance for k in keys)


@dataclass(frozen=True)
class RepresentationReport:
    group_order: int
    pairs_checked: int
    states_per_pair: int
    product_failures: tuple[tuple[int, int], ...]
    injectivity_ok: bool
    unitarity_ok: bool

    @property
    def passed(self) -> bool:
        return not self.product_failures and self.injectivity_ok and self.unitarity_ok


def representation_check(group: GroupClosure, trials: int = 5, seed: int = 0) -> RepresentationReport:
    """Check that index-permuting unitaries represent the group.

    For element pairs (a, b) - all of them when the group has at most 64
    elements, a seeded sample of 4096 pairs otherwise - verifies on
    ``trials`` random states each that applying U_b then U_a matches
    U_{a composed with b} within the amplitude tolerance.  Injectivity is
    checked through pairwise-distinct permutations, unitarity through norm
    preservation on one random state per element.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    width = group.elements[0].total_width
    rng = SplitMix64(seed)
    size = len(group)
    if size <= 64:
        pairs = [(i, j) for i in range(size) for j in range(size)]
    else:
        pairs = [(rng.next_u64() % size, rng.next_u64() % size) for _ in range(4096)]
    failures = []
    unitaries = [PermUnitary(p) for p in group.elements]
    for i, j in pairs:
        product = unitaries[group.cayley[i][j]]
        for _ in range(trials):
            state = random_state(width, rng.next_u64())
            if not states_close(apply(product, state), apply(unitaries[i], apply(unitaries[j], state))):
                failures.append((i, j))
                break
    injective = len({p.mapping for p in group.elements}) == size
    unitary_ok = True
    for u in unitaries:
        state = random_state(width, rng.next_u64())
        out = apply(u, state)
        squared = sum(a.real * a.real + a.imag * a.imag for a in out.amplitudes.values())
        if abs(squared - 1.0) > AMPLITUDE_TOLERANCE:
            unitary_ok = False
    return RepresentationReport(
        group_order=size,
        pairs_checked=len(pairs),
        states_per_pair=trials,
        product_failures=tuple(failures),
        injectivity_ok=injective,
        unitarity_ok=unitary_ok,
    )
