import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from involift.lifting import PipelineSpec, random_pipeline
from involift.permgroup import closure
from involift.quantum import (
    QState,
    apply_steps,
    basis_state,
    marginal_distribution,
    measure,
    uniform_superposition,
)
from involift.rng import SplitMix64

from conftest import (
    ID1,
    cayley_table,
    evaluate_word,
    perm_compose,
    random_state,
    reference_measure,
    step_perm,
    step_perms,
    zero_fn,
)

seeds = st.integers(0, 2**64 - 1)


def _two_step(pipeline):
    return step_perm(pipeline, 0), step_perm(pipeline, 1)


def test_basis_state_examples(two_step_id):
    assert basis_state(two_step_id, (1, 0, 0)).support == (1,)
    assert basis_state(two_step_id, (0, 0, 0)).support == (0,)
    assert basis_state(two_step_id, (1, 1, 1)).support == (7,)


def test_basis_state_rejects_out_of_range(two_step_id):
    with pytest.raises(ValueError, match="register 1 value 2"):
        basis_state(two_step_id, (0, 2, 0))


def test_qstate_validation():
    for support in ((), (0, 1, 2)):
        with pytest.raises(ValueError, match=f"support of {len(support)} indices is not a power of two"):
            QState(2, support)
    with pytest.raises(ValueError, match="basis index 2 out of range for width 1"):
        QState(1, (2,))
    with pytest.raises(ValueError, match="basis index -1 out of range for width 1"):
        QState(1, (0, -1))
    with pytest.raises(ValueError, match="distinct"):
        QState(1, (1, 1))
    # the support is held ascending, from any iterable
    assert QState(2, iter([3, 0])).support == (0, 3)
    assert QState(2, (3, 0)) == QState(2, (0, 3))


def test_uniform_superposition_one_bit(two_step_id):
    state = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    assert state.support == (0, 1)


def test_uniform_superposition_wide_register():
    pipeline = PipelineSpec((2, 1), (zero_fn(2, 1),))
    state = uniform_superposition(pipeline, 0, basis_state(pipeline, (0, 1)))
    assert state.support == (4, 5, 6, 7)
    assert marginal_distribution(state, pipeline, 0) == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
    assert marginal_distribution(state, pipeline, 1) == {1: 1.0}


@pytest.mark.parametrize("width", range(1, 17))
def test_superposed_register_marginal_is_exact(width):
    # every value of a superposed w-bit register has probability 2^-w exactly,
    # and the values sum to exactly 1; amplitudes of 2^(-w/2) squared gave
    # 2^-w (1 + 2^-52) for every odd w
    pipeline = PipelineSpec((width, 1), (zero_fn(width, 1),))
    state = uniform_superposition(pipeline, 0, basis_state(pipeline, (0, 0)))
    distribution = measure(state, pipeline, 0, seed=width, shots=1).distribution
    assert distribution == marginal_distribution(state, pipeline, 0)
    assert list(distribution) == list(range(1 << width))
    assert all((p * 2**width).is_integer() for p in distribution.values())
    assert set(distribution.values()) == {2.0**-width}
    assert sum(distribution.values()) == 1.0


def test_uniform_superposition_preconditions(two_step_id):
    with pytest.raises(ValueError, match="must be 0"):
        uniform_superposition(two_step_id, 0, basis_state(two_step_id, (1, 0, 0)))
    spread = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    with pytest.raises(ValueError, match="basis state"):
        uniform_superposition(two_step_id, 1, spread)


@given(seed=seeds)
@settings(max_examples=40)
def test_apply_evaluates_pipeline(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    f, g = pipeline.steps
    for x in range(1 << pipeline.widths[0]):
        out = apply_steps(pipeline, (1, 0), basis_state(pipeline, (x, 0, 0)))
        assert out == basis_state(pipeline, (x, f(x), g(f(x))))


def test_apply_identity(two_step_id):
    state = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    assert apply_steps(two_step_id, (), state) == state


def test_apply_linear_extension(two_step_id):
    state = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    out = apply_steps(two_step_id, (1, 0), state)
    assert out.support == (0, 7)


def test_apply_width_mismatch(two_step_id):
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(PipelineSpec((1, 1), (ID1,)), (), basis_state(two_step_id, (0, 0, 0)))


@given(seed=seeds, data=st.data())
@settings(max_examples=40)
def test_apply_steps_matches_permutation_unitary(seed, data):
    # the support routed through the composed permutation is the reference
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    word = data.draw(st.lists(st.integers(0, 2), max_size=6))
    gens = step_perms(pipeline)
    mapping = evaluate_word(gens, word).mapping
    state = random_state(pipeline.total_width, data.draw(seeds))
    assert apply_steps(pipeline, word, state).support == tuple(sorted(mapping[i] for i in state.support))
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(pipeline, word, random_state(pipeline.total_width + 1, 0))


def test_norm_preserved_on_random_states(two_step_id):
    # a state has norm 1 when its support holds N distinct indices of
    # amplitude N^(-1/2); a word keeps N because it permutes the indices
    for seed in range(20):
        state = random_state(3, seed, 4)
        out = apply_steps(two_step_id, (1, 0), state)
        assert len(out.support) == len(set(out.support)) == 4


def test_inverse_consistency(two_step_id):
    # the steps are involutions, so the reversed word undoes the word
    for seed in range(10):
        state = random_state(3, seed, 4)
        assert apply_steps(two_step_id, (0, 1), apply_steps(two_step_id, (1, 0), state)) == state


def test_measure_deterministic_outcome(two_step_id, monkeypatch):
    def draw(*args):
        raise AssertionError("a word was drawn for a one-value marginal")

    monkeypatch.setattr(SplitMix64, "blocks", draw)
    state = basis_state(two_step_id, (1, 1, 1))
    result = measure(state, two_step_id, 2, seed=42, shots=100)
    assert result.counts == {1: 100}
    assert result.shots == 100
    # the seed is still checked when no word is drawn
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            measure(state, two_step_id, 2, seed=seed, shots=100)


def test_measure_same_seed_identical(two_step_id):
    out = apply_steps(two_step_id, (1, 0), uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0))))
    a = measure(out, two_step_id, 2, seed=9, shots=500)
    b = measure(out, two_step_id, 2, seed=9, shots=500)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 500


def test_measure_marginal_exact_and_converges(two_step_id):
    out = apply_steps(two_step_id, (1, 0), uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0))))
    assert marginal_distribution(out, two_step_id, 2) == {0: 0.5, 1: 0.5}
    result = measure(out, two_step_id, 2, seed=20250810, shots=10_000)
    for value in (0, 1):
        assert abs(result.counts.get(value, 0) / 10_000 - 0.5) <= 0.03


def test_measure_requires_shots(two_step_id):
    with pytest.raises(ValueError, match="shots"):
        measure(basis_state(two_step_id, (0, 0, 0)), two_step_id, 0, seed=1, shots=0)


# register 0 (8 bits) of a seeded state on 512-point support has every value
MEASURED = PipelineSpec((8, 1), (zero_fn(8, 1),))
BLOCK_EDGE_SHOTS = (1, 2, 4095, 4096, 4097, 3 * 4096 + 1)


@pytest.mark.parametrize("support, n_values", [(1, 1), (2, 2), (512, 256)])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_measure_matches_per_shot_reference(support, n_values, seed):
    state = random_state(MEASURED.total_width, 300, support)
    distribution = marginal_distribution(state, MEASURED, 0)
    assert len(distribution) == n_values
    for shots in BLOCK_EDGE_SHOTS:
        result = measure(state, MEASURED, 0, seed=seed, shots=shots)
        assert result.counts == reference_measure(state, MEASURED, 0, seed, shots)
        assert result.distribution == distribution


# register 0 (8 bits) beside a 16-bit register: up to 2^16 indices hold each value
COUNTED = PipelineSpec((8, 16), (zero_fn(8, 16),))


def _state_with_counts(counts: dict[int, int]) -> QState:
    """A state of COUNTED whose register 0 reads v on counts[v] indices of
    its support (the counts sum to a power of two)."""
    return QState(COUNTED.total_width, [v | j << 8 for v, c in counts.items() for j in range(c)])


def _straddles(w: int, running: int) -> bool:
    """Whether the word threshold of running count C over 2^w indices,
    C * 2^(64 - w), falls strictly inside the words of one top byte."""
    return (running << 64 - w) % 2**56 != 0


# w = 9..16, where thresholds fall inside a top byte; 64 and 65 values sit on
# either side of the change from counting by top byte to bisecting every word
@pytest.mark.parametrize(
    "w, n_values", [(3, 5), (9, 64), (10, 65), (11, 5), (12, 64), (13, 200), (14, 2), (15, 65), (16, 64)]
)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_measure_matches_per_shot_reference_on_random_counts(w, n_values, seed):
    rng = random.Random(w * 1000 + n_values)
    values = sorted(rng.sample(range(256), n_values))
    cuts = [0, *sorted(rng.sample(range(1, 1 << w), n_values - 1)), 1 << w]
    counts = {v: b - a for v, a, b in zip(values, cuts, cuts[1:])}
    state = _state_with_counts(counts)
    assert marginal_distribution(state, COUNTED, 0) == {v: c / 2**w for v, c in counts.items()}
    assert any(_straddles(w, c) for c in cuts[1:-1]) == (w > 8)
    for shots in BLOCK_EDGE_SHOTS:
        expected = reference_measure(state, COUNTED, 0, seed, shots)
        assert measure(state, COUNTED, 0, seed=seed, shots=shots).counts == expected


def _replay(monkeypatch, words: list[int]) -> None:
    """Make every SplitMix64 stream yield ``words``: as one block to
    ``measure`` and one word per call to the per-shot reference."""
    monkeypatch.setattr(SplitMix64, "blocks", lambda self, n: iter([array("Q", words[:n])]))
    stream = iter(words)
    monkeypatch.setattr(SplitMix64, "next_u64", lambda self: next(stream))


def test_measure_draw_on_a_bound_counts_for_the_next_value(monkeypatch):
    # a word whose top 53 bits m reach a bound, m * 2^-53 = C / 2^w, counts for
    # the next value whatever its low 11 bits; one step of m below, for this
    # one.  Top-byte counting (two values) and bisection (66 values) agree.
    for w, c in ((1, 1), (4, 3), (8, 255), (12, 1000), (16, 32769)):
        bound = c << 64 - w
        words = [bound - 1, bound, bound | 0x7FF, bound - 0x800, bound + 0x800]
        rest = (1 << w) - c
        variants = [{0: c, 1: rest}]
        if rest > 64:
            variants.append({0: c, 1: rest - 64, **dict.fromkeys(range(2, 66), 1)})
        for counts in variants:
            state = _state_with_counts(counts)
            with monkeypatch.context() as patch:
                _replay(patch, words)
                assert measure(state, COUNTED, 0, seed=1, shots=len(words)).counts == {0: 2, 1: 3}
            with monkeypatch.context() as patch:
                _replay(patch, words)
                assert reference_measure(state, COUNTED, 0, 1, len(words)) == {0: 2, 1: 3}


@pytest.mark.parametrize(
    "w, c, inside",
    [(8, 1, False), (2, 1, False), (8, 225, False), (10, 369, True), (16, 2**15 + 1, True)],
    ids=["on_byte_1", "on_byte_64", "on_byte_225", "inside_a_byte", "just_past_byte_128"],
)
def test_measure_threshold_on_and_inside_a_top_byte_range(w, c, inside):
    # the threshold word of running count c over 2^w indices is c * 2^(64 - w):
    # c / 2^w = k / 256 puts it exactly at k * 2^56, the first word of top byte
    # k, so no byte straddles; any other c puts it inside a byte whose words
    # are bisected
    state = _state_with_counts({0: c, 1: (1 << w) - c})
    assert _straddles(w, c) == inside
    assert sum(marginal_distribution(state, COUNTED, 0).values()) == 1.0
    for seed in (0, 3, 2**64 - 1):
        for shots in BLOCK_EDGE_SHOTS:
            expected = reference_measure(state, COUNTED, 0, seed, shots)
            assert measure(state, COUNTED, 0, seed, shots).counts == expected


def test_measure_memory_is_bounded_by_the_block():
    # one list of 64 * 4096 draws alone would take over 8 MB
    state = random_state(MEASURED.total_width, 300, 512)
    tracemalloc.start()
    try:
        result = measure(state, MEASURED, 0, seed=5, shots=64 * 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(result.counts.values()) == 64 * 4096
    assert peak < 2 * 1024 * 1024


def test_representation_check_two_step(two_step_id):
    # U(words[a]) U(words[b]) = U(words[a b]) = U(words[a] + words[b]) on all
    # 64 pairs of the dihedral group
    group = closure(two_step_id)
    assert len(group) == 8
    cayley = cayley_table(group)
    for a in range(8):
        for b in range(8):
            state = random_state(3, 8 * a + b)
            product = apply_steps(two_step_id, group.words[cayley[a][b]], state)
            assert apply_steps(two_step_id, group.words[a], apply_steps(two_step_id, group.words[b], state)) == product
            assert apply_steps(two_step_id, group.words[a] + group.words[b], state) == product


def test_representation_product_rule(two_step_id):
    s1, s2 = _two_step(two_step_id)
    mapping = perm_compose(s2, s1).mapping
    for seed in range(5):
        state = random_state(3, seed, 4)
        routed = QState(3, (mapping[i] for i in state.support))
        assert apply_steps(two_step_id, (1,), apply_steps(two_step_id, (0,), state)) == routed
        assert apply_steps(two_step_id, (1, 0), state) == routed


def test_representation_identity_element(two_step_id):
    group = closure(two_step_id)
    assert group.elements[0] == 0 and group.words[0] == ()
    for seed in range(5):
        state = random_state(3, seed, 4)
        assert apply_steps(two_step_id, group.words[0], state) == state
        assert apply_steps(two_step_id, (1, 0) * 4, state) == state  # (f2 f1)^4 = e on the command line


@given(seed=seeds)
@settings(max_examples=25)
def test_classical_embedding(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=2)
    f, g = pipeline.steps
    for x in range(1 << pipeline.widths[0]):
        out = apply_steps(pipeline, (1, 0), basis_state(pipeline, (x,) + (0,) * 2))
        result = measure(out, pipeline, 2, seed=seed & 0xFFFF, shots=20)
        assert result.counts == {g(f(x)): 20}


@given(seed=seeds, data=st.data())
@settings(max_examples=40)
def test_built_states_pass_the_state_checks(seed, data):
    # what apply_steps and uniform_superposition build is held in the form
    # QState makes of its indices, so rebuilding it gives the same state
    pipeline = random_pipeline(seed, steps=3, max_width=3)
    word = data.draw(st.lists(st.integers(0, 2), max_size=6))
    size = 1 << data.draw(st.integers(0, 4))
    routed = apply_steps(pipeline, word, random_state(pipeline.total_width, data.draw(seeds), size))
    register = data.draw(st.integers(0, 3))
    spread = uniform_superposition(pipeline, register, basis_state(pipeline, (0,) * 4))
    for state in (routed, spread):
        assert QState(state.total_width, state.support) == state
        assert list(state.support) == sorted(set(state.support))


def test_random_state_deterministic_and_normalized():
    a = random_state(4, 77)
    b = random_state(4, 77)
    assert a == b
    assert len(a.support) == 8
    assert random_state(4, 78) != a
