"""Lifting pipeline steps to involutions on the full register space.

A pipeline of non-invertible steps becomes reversible once every step gets
its own output register and is replaced by the XOR update

    register[i + 1] ^= f_i(register[i])

Steps are numbered from 0 throughout the package, so step i reads register
i and writes register i + 1, and a word is a sequence of step indices
whose rightmost symbol acts first; only the command line names the steps
f1..fn.  :class:`PipelineSpec` is the one description of the registers:
their widths, their bit offsets in a packed state, and packing.

Each lifted step is an involution of the packed state space (repeating the
XOR cancels it), and composing the steps in order computes the whole
pipeline while keeping every intermediate value around.  The facts the
Coxeter claim is made of follow from the truth tables alone: a step is the
identity exactly when its table is all zero (``BoolFunc.is_constant_zero``),
two steps coincide only when both are, and :func:`product_orders` reads the
order of each pairwise product; none is read from a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Callable, Iterable, Sequence

from .boolfn import BoolFunc, random_fn
from .rng import SplitMix64

# The summed register width W is capped: it bounds the size of a group
# element, whose tables have sum_j 2^offset_j < 2^W entries.
DEFAULT_WIDTH_CAP = 20


@dataclass(frozen=True)
class Perm:
    """A bijection of {0, ..., 2^total_width - 1}, stored as a mapping array
    and checked on construction.  The package builds none: a group element
    is the tuple of its tables (:mod:`involift.permgroup`).  The class stays
    as the reference form those tables are tested against, and as the
    construction hook the benchmark's tracer counts."""

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
class PipelineSpec:
    """Register widths w_0..w_n and step functions, and the one description
    of the register space.

    Step i reads register i and writes register i + 1, so ``steps[i]`` must
    map w_i bits to w_{i+1} bits.  Register i sits at bit ``offsets[i]`` of
    a packed state, the earliest register least significant; the offsets
    are derived once, on construction, and take no part in equality.  The
    summed width W is capped at ``DEFAULT_WIDTH_CAP``, which bounds the
    size of a group element: tables of fewer than 2^W entries in all.
    """

    widths: tuple[int, ...]
    steps: tuple[BoolFunc, ...]
    offsets: tuple[int, ...] = field(init=False, compare=False)

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
        for i, f in enumerate(self.steps):
            if f.arity_in != self.widths[i] or f.arity_out != self.widths[i + 1]:
                raise ValueError(
                    f"step {i} maps {f.arity_in}->{f.arity_out} bits, "
                    f"expected {self.widths[i]}->{self.widths[i + 1]}"
                )
        total = sum(self.widths)
        if total > DEFAULT_WIDTH_CAP:
            raise ValueError(f"total width {total} exceeds the cap of {DEFAULT_WIDTH_CAP}")
        object.__setattr__(self, "offsets", tuple(accumulate(self.widths[:-1], initial=0)))

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    def unpack_registers(self, state: int) -> tuple[int, ...]:
        if not 0 <= state < 1 << self.total_width:
            raise ValueError(f"state {state} out of range for width {self.total_width}")
        return tuple((state >> off) & ((1 << w) - 1) for off, w in zip(self.offsets, self.widths))

    def pack_registers(self, values: Sequence[int]) -> int:
        if len(values) != len(self.widths):
            raise ValueError(f"expected {len(self.widths)} register values, got {len(values)}")
        state = 0
        for i, (v, off, w) in enumerate(zip(values, self.offsets, self.widths)):
            if not 0 <= v < 1 << w:
                raise ValueError(f"register {i} value {v} out of range for width {w}")
            state |= v << off
        return state


def _step_params(pipeline: PipelineSpec, step: int) -> tuple[tuple[int, ...], int, int, int]:
    """Table, source offset, source mask and destination offset of step i:
    the lifted step maps s to s ^ (table[(s >> src) & mask] << dst)."""
    if not 0 <= step < pipeline.n_steps:
        raise ValueError(f"step {step} out of range 0..{pipeline.n_steps - 1}")
    f = pipeline.steps[step]
    return f.table, pipeline.offsets[step], (1 << f.arity_in) - 1, pipeline.offsets[step + 1]


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


def word_action(pipeline: PipelineSpec, word: Sequence[int]) -> Callable[[Iterable[int]], list[int]]:
    """The action of a word of step indices on packed states, rightmost step
    first, without building any permutation.  Every step's parameters are
    resolved once; the returned function routes a whole list of states one
    step at a time, one comprehension per step, so a list of n states costs
    n * |word| table lookups and no per-state call.  It returns the images
    in the order of the states and checks their range with one min and one
    max."""
    params = [_step_params(pipeline, i) for i in reversed(word)]
    width = pipeline.total_width
    size = 1 << width

    def act(states: Iterable[int]) -> list[int]:
        states = list(states)
        if states and (min(states) < 0 or max(states) >= size):
            bad = next(s for s in states if not 0 <= s < size)
            raise ValueError(f"state {bad} out of range for width {width}")
        for table, src, mask, dst in params:
            states = [s ^ (table[(s >> src) & mask] << dst) for s in states]
        return states

    return act


class LiftingCheckFailed(RuntimeError):
    """A lifted computation disagreed with its direct counterpart, which is
    impossible unless the lifting is broken."""


def run_classical(pipeline: PipelineSpec, x: int) -> tuple[int, ...]:
    """The registers after running the pipeline on input x, evaluated by
    both routes and cross-checked.

    The invertible route applies the lifted steps 0..n-1 in order to the
    state with register 0 = x and all other registers zero, then unpacks
    the registers; the direct route chains the truth tables.  A mismatch
    raises LiftingCheckFailed, so the result is both routes' registers.
    """
    if not 0 <= x < 1 << pipeline.widths[0]:
        raise ValueError(f"input {x} out of range for register width {pipeline.widths[0]}")
    # register 0 sits in the low bits, so the packed initial state equals x
    (state,) = word_action(pipeline, range(pipeline.n_steps)[::-1])([x])
    registers = pipeline.unpack_registers(state)
    value = x
    direct = [x]
    for f in pipeline.steps:
        value = f(value)
        direct.append(value)
    if registers != tuple(direct):
        raise LiftingCheckFailed(
            f"invertible trace {registers} disagrees with direct evaluation {tuple(direct)}"
        )
    return registers


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
