"""Lifting pipeline steps to involutions on the full register space.

A pipeline of non-invertible steps becomes reversible once every step gets
its own output register and is replaced by the XOR update

    register[i + 1] ^= f_i(register[i])

Steps are numbered from 0 throughout the package, so step i reads register
i and writes register i + 1, and a word is a sequence of step indices
whose rightmost symbol acts first; only the command line names the steps
f1..fn.  :class:`PipelineSpec` is the one description of the registers:
their widths, their bit offsets in a packed state, and packing.  A
register has at most 16 bits, as its truth tables do; the summed width W
is not bounded, as nothing here builds a table indexed by several of them.

Each lifted step is an involution of the packed state space, and composing
the steps in order computes the whole pipeline while keeping every
intermediate value.  The generator facts of the Coxeter claim are read from
the truth tables (``BoolFunc.is_constant_zero``, :func:`product_orders`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate, combinations

from .boolfn import BoolFunc, Frozen, random_fn
from .rng import SplitMix64


class Perm(Frozen):
    """A bijection of {0, ..., 2^total_width - 1}, stored as a mapping array
    and checked on construction.  The package builds none: a group element
    is its tables packed into one int (:mod:`involift.permgroup`).  The
    class stays as the reference form those tables are tested against, and
    as the construction hook (:meth:`__post_init__`) the benchmark's tracer
    counts."""

    __slots__ = ("total_width", "mapping")

    def __init__(self, total_width: int, mapping: tuple[int, ...]) -> None:
        object.__setattr__(self, "total_width", total_width)
        object.__setattr__(self, "mapping", mapping)
        self.__post_init__()

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


class PipelineSpec(Frozen):
    """Register widths w_0..w_n and step functions, and the one description
    of the register space.

    Step i reads register i and writes register i + 1, so ``steps[i]`` must
    map w_i bits to w_{i+1} bits.  Register i sits at bit ``offsets[i]`` of
    a packed state, the earliest register least significant; the offsets
    are derived once, on construction, and take no part in equality.  The
    truth tables cap each width at 16 bits; the summed width W is not
    capped.
    """

    __slots__ = ("widths", "steps", "offsets")

    def __init__(self, widths: tuple[int, ...], steps: tuple[BoolFunc, ...]) -> None:
        object.__setattr__(self, "widths", tuple(widths))
        object.__setattr__(self, "steps", tuple(steps))
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
        object.__setattr__(self, "offsets", tuple(accumulate(self.widths[:-1], initial=0)))

    def _key(self) -> tuple:
        return self.widths, self.steps

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
    every y and every v in the image of F, and order 4 otherwise; it suffices
    that v runs over a basis of their span, so for y of w bits that takes at
    most w * 2^w lookups.
    """
    steps = pipeline.steps
    zero = [f.is_constant_zero for f in steps]
    orders = [[1] * len(steps) for _ in steps]
    for i, j in combinations(range(len(steps)), 2):
        if zero[i] and zero[j]:
            continue
        k = 2
        if j == i + 1:
            g, pivots = steps[j].table, {}
            for v in set(steps[i].table):  # a basis of the span of im F, highest bit as pivot
                while v and (p := v.bit_length() - 1) in pivots:
                    v ^= pivots[p]
                if v:
                    pivots[p] = v
            if any(g[y] != g[y ^ b] for b in pivots.values() for y in range(len(g))):
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
