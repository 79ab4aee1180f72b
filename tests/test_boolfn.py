from itertools import product

import pytest
from hypothesis import given, strategies as st

from involift.boolfn import BoolFunc, MAX_FN_ARITY, random_fn
from involift.coxeter import DEGENERATE, PROPER_QUOTIENT, CoxeterMatrix, VerificationReport
from involift.lifting import Perm, PipelineSpec
from involift.permgroup import GroupClosure
from involift.quantum import MeasurementResult, QState

from conftest import ID1, NOT1, fn_is_identity, identity_fn, zero_fn

seeds = st.integers(0, 2**64 - 1)


def _bits(width):
    # a bit tuple packs as the registers of a pipeline of 1-bit registers
    # (a pipeline has at least two)
    return PipelineSpec((1,) * width, (ID1,) * (width - 1))


# Each value type with its attributes (the constructor's parameters first,
# then what is derived), the arguments of one instance, and variants of
# them that each differ in one field where validation allows it.
VALUE_TYPES = [
    (BoolFunc, ("arity_in", "arity_out", "table"), (1, 1, (0, 1)), [(1, 1, (1, 0)), (1, 2, (0, 1))]),
    (Perm, ("total_width", "mapping"), (1, (0, 1)), [(1, (1, 0))]),
    (PipelineSpec, ("widths", "steps", "offsets"), ((1, 1), (ID1,)), [((1, 1), (NOT1,))]),
    (
        GroupClosure,
        ("elements", "words", "left", "parents"),
        ((0, 1), ((), (0,)), ((1, 0),), (0, 0)),
        [
            ((0, 2), ((), (0,)), ((1, 0),), (0, 0)),
            ((0, 1), ((), (1,)), ((1, 0),), (0, 0)),
            ((0, 1), ((), (0,)), ((0, 1),), (0, 0)),
            ((0, 1), ((), (0,)), ((1, 0),), (0, 1)),
        ],
    ),
    (CoxeterMatrix, ("orders",), (((1, 4), (4, 1)),), [(((1, 2), (2, 1)),)]),
    (
        VerificationReport,
        ("verdict", "layer_dimensions", "abstract_order"),
        (PROPER_QUOTIENT, (1, 2), None),
        [(DEGENERATE, (1, 2), None), (PROPER_QUOTIENT, (1, 3), None), (PROPER_QUOTIENT, (1, 2), 16)],
    ),
    (QState, ("total_width", "support"), (1, (0,)), [(2, (0,)), (1, (1,))]),
    (
        MeasurementResult,
        ("counts", "shots", "distribution"),
        ({0: 3}, 3, {0: 1.0}),
        [({0: 2, 1: 1}, 3, {0: 1.0}), ({0: 3}, 4, {0: 1.0}), ({0: 3}, 3, {0: 0.5, 1: 0.5})],
    ),
]


@pytest.mark.parametrize("cls, attributes, args, variants", VALUE_TYPES, ids=[row[0].__name__ for row in VALUE_TYPES])
def test_value_types_compare_by_field_and_are_immutable(cls, attributes, args, variants):
    value = cls(*args)
    same = cls(**dict(zip(attributes, args)))
    assert value == same and not value != same
    if any(isinstance(arg, dict) for arg in args):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    for variant in variants:
        assert cls(*variant) != value
    assert value != args
    for name in attributes + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same


def test_pack_bits_examples():
    assert _bits(3).pack_registers((1, 0, 0)) == 1
    assert _bits(3).pack_registers((0, 0, 0)) == 0
    # 1*1 + 1*2 + 0*4, first component least significant
    assert _bits(3).pack_registers((1, 1, 0)) == 3


def test_pack_bits_length_mismatch():
    with pytest.raises(ValueError, match="expected 3 register values"):
        _bits(3).pack_registers((1, 0))


def test_pack_bits_rejects_non_bits():
    with pytest.raises(ValueError, match="register 1 value 2 out of range for width 1"):
        _bits(3).pack_registers((0, 2, 0))


def test_unpack_bits_range():
    with pytest.raises(ValueError, match="out of range"):
        _bits(3).unpack_registers(8)


def test_pack_unpack_roundtrip_exhaustive():
    for width in range(2, 9):
        bits = _bits(width)
        for value in range(1 << width):
            assert bits.pack_registers(bits.unpack_registers(value)) == value
        for t in product((0, 1), repeat=width):
            assert bits.unpack_registers(bits.pack_registers(t)) == t


@given(width=st.integers(9, 16), data=st.data())
def test_pack_unpack_roundtrip_wide(width, data):
    value = data.draw(st.integers(0, (1 << width) - 1))
    assert _bits(width).pack_registers(_bits(width).unpack_registers(value)) == value


def test_identity_and_constant_tables():
    assert identity_fn(1) == BoolFunc(1, 1, (0, 1))
    assert fn_is_identity(identity_fn(1))
    zero = BoolFunc(1, 1, (0, 0))
    assert zero.is_constant_zero and not fn_is_identity(zero)
    assert zero == zero_fn(1, 1)


def test_validation_names_offending_entry():
    with pytest.raises(ValueError, match="entry 3 is 2"):
        BoolFunc(2, 1, (0, 0, 0, 2))


def test_validation_table_length():
    with pytest.raises(ValueError, match="expected 4"):
        BoolFunc(2, 1, (0, 0, 0))


def test_zero_width_rejected():
    with pytest.raises(ValueError, match="zero-width"):
        BoolFunc(0, 1, ())
    with pytest.raises(ValueError, match="zero-width"):
        BoolFunc(1, 0, (0, 0))


def test_arity_cap():
    with pytest.raises(ValueError, match="cap"):
        BoolFunc(MAX_FN_ARITY + 1, 1, (0,) * (1 << (MAX_FN_ARITY + 1)))


def test_eval_examples():
    assert identity_fn(1)(1) == 1
    assert zero_fn(1, 1)(1) == 0
    # AND of two bits: only input (1,1), packed 3, gives 1
    and_fn = BoolFunc(2, 1, (0, 0, 0, 1))
    assert [and_fn(x) for x in range(4)] == [0, 0, 0, 1]


def test_eval_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        identity_fn(1)(2)


def test_random_fn_deterministic():
    assert random_fn(2, 2, 1) == random_fn(2, 2, 1)
    assert random_fn(2, 2, 2) == random_fn(2, 2, 2)


def test_random_fn_range_over_many_seeds():
    for seed in range(1000):
        f = random_fn(2, 2, seed)
        assert all(0 <= v < 4 for v in f.table)
