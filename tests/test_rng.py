"""SplitMix64: the published stream, and its block form against one
``next_u64`` call per word."""

from array import array

import pytest

from involift.rng import BLOCK, SplitMix64


def test_seed_zero_known_answer():
    # the first words of the reference splitmix64.c seeded with 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 1000, BLOCK - 1, BLOCK, BLOCK + 1, 10_000])
def test_blocks_equal_next_u64_calls(seed, n):
    blocked, stepped = SplitMix64(seed), SplitMix64(seed)
    blocks = list(blocked.blocks(n))
    assert all(isinstance(block, array) and block.typecode == "Q" for block in blocks)
    full, rest = divmod(n, BLOCK)
    assert [len(block) for block in blocks] == [BLOCK] * full + [rest] * (rest > 0)
    assert [word for block in blocks for word in block] == [stepped.next_u64() for _ in range(n)]
    # the stream continues where n calls would leave it
    assert [blocked.next_u64() for _ in range(3)] == [stepped.next_u64() for _ in range(3)]
