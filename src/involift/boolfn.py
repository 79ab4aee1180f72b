"""Total Boolean functions stored as explicit truth tables.

Everything downstream shares one bit-packing convention: the first
component of a bit tuple is the least significant bit of the packed
integer, and register tuples concatenate with the earliest register in
the least significant bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import SplitMix64

# Truth tables are materialized in full, so input arity is capped to keep
# them desk-scale (at most 2^16 entries).
MAX_FN_ARITY = 16


@dataclass(frozen=True)
class BoolFunc:
    """Truth table of a total function from ``arity_in`` to ``arity_out`` bits.

    ``table[x]`` is the packed output word for packed input ``x``.  Instances
    are validated on construction and immutable afterwards, so they are safe
    to share and to use as dict keys.
    """

    arity_in: int
    arity_out: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.arity_in < 1 or self.arity_out < 1:
            raise ValueError("zero-width functions are rejected: arities must be >= 1")
        if self.arity_in > MAX_FN_ARITY:
            raise ValueError(f"arity_in {self.arity_in} exceeds the cap of {MAX_FN_ARITY}")
        object.__setattr__(self, "table", tuple(self.table))
        expected = 1 << self.arity_in
        if len(self.table) != expected:
            raise ValueError(f"table has {len(self.table)} entries, expected {expected}")
        bound = 1 << self.arity_out
        if min(self.table) < 0 or max(self.table) >= bound:
            # word the first entry out of range
            for x, out in enumerate(self.table):
                if not 0 <= out < bound:
                    raise ValueError(f"table entry {x} is {out}, not below 2^{self.arity_out}")

    def __call__(self, x: int) -> int:
        if not 0 <= x < len(self.table):
            raise ValueError(f"input {x} out of range for arity {self.arity_in}")
        return self.table[x]

    @property
    def is_constant_zero(self) -> bool:
        return all(v == 0 for v in self.table)


def random_fn(arity_in: int, arity_out: int, seed: int) -> BoolFunc:
    """Seeded pseudo-random function, reproducible bit for bit.

    Table entry x is ``SplitMix64(seed).next_bits(arity_out)`` drawn at the
    x-th call, i.e. the low ``arity_out`` bits of consecutive stream words.
    """
    rng = SplitMix64(seed)
    return BoolFunc(arity_in, arity_out, tuple(rng.next_bits(arity_out) for _ in range(1 << arity_in)))
