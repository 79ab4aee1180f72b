from itertools import product

import pytest
from hypothesis import given, strategies as st

from involift.boolfn import BoolFunc, MAX_FN_ARITY, random_fn
from involift.lifting import PipelineSpec

from conftest import ID1, fn_is_identity, identity_fn, zero_fn

seeds = st.integers(0, 2**64 - 1)


def _bits(width):
    # a bit tuple packs as the registers of a pipeline of 1-bit registers
    # (a pipeline has at least two)
    return PipelineSpec((1,) * width, (ID1,) * (width - 1))


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
