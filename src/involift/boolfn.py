"""Total Boolean functions stored as explicit truth tables.

Everything downstream shares one bit-packing convention: the first
component of a bit tuple is the least significant bit of the packed
integer, and register tuples concatenate with the earliest register in
the least significant bits.  The package's value types share one base,
:class:`Frozen`.
"""

from __future__ import annotations

from .rng import SplitMix64

# Truth tables are materialized in full, so both arities are capped: a table
# has at most 2^16 entries, and a register, some table's input or output, 16 bits.
MAX_FN_ARITY = 16


class Frozen:
    """Base of the package's value types, immutable after construction.

    A subclass names its fields in ``__slots__``, and its ``__init__``
    stores them with ``object.__setattr__`` and validates them; assigning
    or deleting an attribute afterwards raises AttributeError.  Two
    instances are equal when they are of the same class and their
    :meth:`_key` tuples are equal, and an instance hashes as its key, so
    one holding a dict is unhashable.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        """The fields that take part in ``==`` and ``hash``: all of them."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BoolFunc(Frozen):
    """Truth table of a total function from ``arity_in`` to ``arity_out`` bits.

    ``table[x]`` is the packed output word for packed input ``x``.  Instances
    are validated on construction (:meth:`__post_init__`, the hook the
    benchmark's tracer wraps) and immutable afterwards, so they are safe to
    share and to use as dict keys.
    """

    __slots__ = ("arity_in", "arity_out", "table")

    def __init__(self, arity_in: int, arity_out: int, table: tuple[int, ...]) -> None:
        object.__setattr__(self, "arity_in", arity_in)
        object.__setattr__(self, "arity_out", arity_out)
        object.__setattr__(self, "table", table)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.arity_in < 1 or self.arity_out < 1:
            raise ValueError("zero-width functions are rejected: arities must be >= 1")
        for name, arity in (("arity_in", self.arity_in), ("arity_out", self.arity_out)):
            if arity > MAX_FN_ARITY:
                raise ValueError(f"{name} {arity} exceeds the cap of {MAX_FN_ARITY}")
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
