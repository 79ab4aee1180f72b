"""Lifting pipeline steps to involutions on the full register space.

A pipeline of non-invertible steps f1..fn becomes reversible once every
step gets its own output register and is replaced by the XOR update

    register[i] ^= f_i(register[i-1])

Each lifted step is an involution of the packed state space (repeating the
XOR cancels it), and composing the steps in order computes the whole
pipeline while keeping every intermediate value around.  The facts the
Coxeter claim is made of (which steps are the identity, which coincide, and
the order of each pairwise product) follow from the truth tables alone, so
they are read from the tables here and never from permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

from .boolfn import BoolFunc, random_fn
from .rng import SplitMix64

# The summed register width W is capped: it bounds the size of a group
# element, a tableau of sum_j 2^offset_j < 2^W entries.
DEFAULT_WIDTH_CAP = 20


@dataclass(frozen=True)
class Perm:
    """A bijection of {0, ..., 2^total_width - 1}, stored as a mapping array
    and checked on construction.  The package builds none: group elements
    are tableaux.  The class stays as the reference form the tableaux are
    tested against, and as the construction hook the benchmark's tracer
    counts."""

    total_width: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        size = 1 << self.total_width
        if len(self.mapping) != size:
            raise ValueError(f"mapping has {len(self.mapping)} entries, expected {size}")
        seen = bytearray(size)
        for v in self.mapping:
            if not 0 <= v < size or seen[v]:
                raise ValueError(f"mapping is not a bijection of 0..{size - 1}")
            seen[v] = 1

    def __call__(self, state: int) -> int:
        return self.mapping[state]


@dataclass(frozen=True)
class RegisterLayout:
    """Bit positions of each register inside the packed state index."""

    widths: tuple[int, ...]
    offsets: tuple[int, ...]
    total_width: int

    @classmethod
    def from_widths(cls, widths: Sequence[int]) -> "RegisterLayout":
        widths = tuple(widths)
        offsets = []
        position = 0
        for w in widths:
            offsets.append(position)
            position += w
        return cls(widths, tuple(offsets), position)

    def unpack_registers(self, state: int) -> tuple[int, ...]:
        if not 0 <= state < 1 << self.total_width:
            raise ValueError(f"state {state} out of range for width {self.total_width}")
        return tuple(
            (state >> off) & ((1 << w) - 1) for off, w in zip(self.offsets, self.widths)
        )

    def pack_registers(self, values: Sequence[int]) -> int:
        if len(values) != len(self.widths):
            raise ValueError(f"expected {len(self.widths)} register values, got {len(values)}")
        state = 0
        for i, (v, off, w) in enumerate(zip(values, self.offsets, self.widths)):
            if not 0 <= v < 1 << w:
                raise ValueError(f"register {i} value {v} out of range for width {w}")
            state |= v << off
        return state


@dataclass(frozen=True)
class PipelineSpec:
    """Register widths w0..wn and step functions f1..fn.

    Step i reads register i-1 and writes register i, so f_i must map
    w_{i-1} bits to w_i bits.  The summed width W is capped at
    ``DEFAULT_WIDTH_CAP``, which bounds the size of a group element: a
    tableau of fewer than 2^W entries.
    """

    widths: tuple[int, ...]
    steps: tuple[BoolFunc, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(self.widths))
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(self.steps) < 1:
            raise ValueError("a pipeline needs at least one step")
        if len(self.widths) != len(self.steps) + 1:
            raise ValueError(
                f"{len(self.steps)} steps need {len(self.steps) + 1} register widths, "
                f"got {len(self.widths)}"
            )
        for i, f in enumerate(self.steps, start=1):
            if f.arity_in != self.widths[i - 1] or f.arity_out != self.widths[i]:
                raise ValueError(
                    f"step {i} maps {f.arity_in}->{f.arity_out} bits, "
                    f"expected {self.widths[i - 1]}->{self.widths[i]}"
                )
        total = sum(self.widths)
        if total > DEFAULT_WIDTH_CAP:
            raise ValueError(f"total width {total} exceeds the cap of {DEFAULT_WIDTH_CAP}")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def total_width(self) -> int:
        return sum(self.widths)


def layout(pipeline: PipelineSpec) -> RegisterLayout:
    """Register layout of the pipeline, earliest register least significant."""
    return RegisterLayout.from_widths(pipeline.widths)


def _step_params(pipeline: PipelineSpec, lay: RegisterLayout, step: int) -> tuple[tuple[int, ...], int, int, int]:
    """Table, source offset, source mask and destination offset of step i
    (1-based): the lifted step maps s to s ^ (table[(s >> src) & mask] << dst)."""
    if not 1 <= step <= pipeline.n_steps:
        raise ValueError(f"step {step} out of range 1..{pipeline.n_steps}")
    f = pipeline.steps[step - 1]
    return f.table, lay.offsets[step - 1], (1 << f.arity_in) - 1, lay.offsets[step]


def generator_defects(pipeline: PipelineSpec) -> tuple[str, ...]:
    """Violations of the Coxeter generator precondition: every lifted step an
    involution (order exactly 2) and all pairwise distinct.

    A step XORs into a register it does not read, so it is an involution
    unless its table is all zero, which makes it the identity.  Two steps
    write different registers, so they are equal only when both are the
    identity.
    """
    zero = [f.is_constant_zero for f in pipeline.steps]
    defects = [f"generator {i} is the identity" for i, z in enumerate(zero, start=1) if z]
    for i, j in combinations(range(len(zero)), 2):
        if zero[i] and zero[j]:
            defects.append(f"generators {i + 1} and {j + 1} are equal")
    return tuple(defects)


def product_orders(pipeline: PipelineSpec) -> tuple[tuple[int, ...], ...]:
    """Orders of the pairwise products of the lifted steps, 1 on the diagonal.

    A product of two involutions is the identity exactly when they are
    equal, i.e. both zero.  Steps two or more apart act on disjoint
    registers, so they commute and their product otherwise has order 2.
    For neighbours a: y ^= F(x) and b: z ^= G(y), (ab)^2 XORs
    G(y) ^ G(y ^ F(x)) into z, so ab has order 2 when G(y) = G(y ^ v) for
    every y and every v in the image of F, and order 4 otherwise; that takes
    at most 2^(w_{i-1} + w_i) table lookups.
    """
    steps = pipeline.steps
    zero = [f.is_constant_zero for f in steps]
    orders = [[1] * len(steps) for _ in steps]
    for i, j in combinations(range(len(steps)), 2):
        if zero[i] and zero[j]:
            continue
        k = 2
        if j == i + 1:
            g = steps[j].table
            if any(g[y] != g[y ^ v] for v in set(steps[i].table) for y in range(len(g))):
                k = 4
        orders[i][j] = orders[j][i] = k
    return tuple(map(tuple, orders))


def nondegeneracy_defects(pipeline: PipelineSpec) -> tuple[str, ...]:
    """Violations of the generic-case conditions: the lifted steps must be
    pairwise-distinct involutions (see :func:`generator_defects`) and every
    adjacent product must have order 4.  Empty result means nondegenerate."""
    defects = list(generator_defects(pipeline))
    orders = product_orders(pipeline)
    for i in range(pipeline.n_steps - 1):
        if (k := orders[i][i + 1]) != 4:
            defects.append(f"product of adjacent generators {i + 1} and {i + 2} has order {k}, expected 4")
    return tuple(defects)


def apply_word(pipeline: PipelineSpec, word: Sequence[int], state: int) -> int:
    """Apply the lifted steps of a word (1-based step indices) to one packed
    state, rightmost step first, without building any permutation."""
    return _word_action(pipeline, word)(state)


def _word_action(pipeline: PipelineSpec, word: Sequence[int]) -> Callable[[int], int]:
    """The action of a word on packed states, with every step's parameters
    resolved once, so that applying it to many states costs only
    |word| table lookups per state."""
    lay = layout(pipeline)
    params = [_step_params(pipeline, lay, i) for i in reversed(word)]
    size = 1 << lay.total_width

    def act(state: int) -> int:
        if not 0 <= state < size:
            raise ValueError(f"state {state} out of range for width {lay.total_width}")
        for table, src, mask, dst in params:
            state ^= table[(state >> src) & mask] << dst
        return state

    return act


class LiftingCheckFailed(RuntimeError):
    """A lifted computation disagreed with its direct counterpart, which is
    impossible unless the lifting is broken."""


class ClassicalTrace(NamedTuple):
    registers: tuple[int, ...]  # computed through the lifted involutions
    direct: tuple[int, ...]  # computed by plain truth-table chaining


def run_classical(pipeline: PipelineSpec, x: int) -> ClassicalTrace:
    """Evaluate the pipeline on input x by both routes and cross-check.

    The invertible route applies the lifted steps 1..n to the state with
    register 0 = x and all other registers zero, then unpacks the registers;
    the direct route chains the truth tables.  A mismatch raises
    LiftingCheckFailed.
    """
    if not 0 <= x < 1 << pipeline.widths[0]:
        raise ValueError(f"input {x} out of range for register width {pipeline.widths[0]}")
    lay = layout(pipeline)
    # register 0 sits in the low bits, so the packed initial state equals x
    registers = lay.unpack_registers(apply_word(pipeline, range(pipeline.n_steps, 0, -1), x))
    value = x
    direct = [x]
    for f in pipeline.steps:
        value = f(value)
        direct.append(value)
    if registers != tuple(direct):
        raise LiftingCheckFailed(
            f"invertible trace {registers} disagrees with direct evaluation {tuple(direct)}"
        )
    return ClassicalTrace(registers, tuple(direct))


def random_pipeline(seed: int, steps: int = 2, max_width: int = 3) -> PipelineSpec:
    """Seeded random pipeline for test corpora.

    One SplitMix64 stream over ``seed`` drives everything: register widths
    first (each 1 + word mod max_width), then one sub-seed per step fed to
    :func:`involift.boolfn.random_fn`.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    rng = SplitMix64(seed)
    widths = tuple(1 + rng.next_u64() % max_width for _ in range(steps + 1))
    fns = tuple(random_fn(widths[i], widths[i + 1], rng.next_u64()) for i in range(steps))
    return PipelineSpec(widths, fns)
