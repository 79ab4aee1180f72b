import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from involift.lifting import PipelineSpec, random_pipeline
from involift.permgroup import closure
from involift.quantum import (
    AMPLITUDE_TOLERANCE,
    PRUNE_THRESHOLD,
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
    evaluate_word,
    perm_compose,
    random_state,
    reference_measure,
    state_norm,
    step_perm,
    step_perms,
    zero_fn,
)

seeds = st.integers(0, 2**64 - 1)


def _two_step(pipeline):
    return step_perm(pipeline, 0), step_perm(pipeline, 1)


def test_basis_state_examples(two_step_id):
    assert basis_state(two_step_id, (1, 0, 0)).amplitudes == {1: 1.0 + 0j}
    assert basis_state(two_step_id, (0, 0, 0)).amplitudes == {0: 1.0 + 0j}
    assert basis_state(two_step_id, (1, 1, 1)).amplitudes == {7: 1.0 + 0j}


def test_basis_state_rejects_out_of_range(two_step_id):
    with pytest.raises(ValueError, match="register 1 value 2"):
        basis_state(two_step_id, (0, 2, 0))


def test_qstate_validation():
    with pytest.raises(ValueError, match="norm"):
        QState(1, {0: 0.5 + 0j})
    with pytest.raises(ValueError, match="out of range"):
        QState(1, {2: 1.0 + 0j})
    with pytest.raises(ValueError, match="pruning"):
        QState(1, {0: 1.0 + 0j, 1: 1e-16 + 0j})


def test_uniform_superposition_one_bit(two_step_id):
    state = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    amp = 2.0**-0.5
    assert state.amplitudes == {0: amp + 0j, 1: amp + 0j}
    assert abs(state_norm(state) - 1.0) <= AMPLITUDE_TOLERANCE


def test_uniform_superposition_wide_register():
    pipeline = PipelineSpec((2, 1), (zero_fn(2, 1),))
    state = uniform_superposition(pipeline, 0, basis_state(pipeline, (0, 1)))
    assert len(state.amplitudes) == 4
    assert all(abs(a - 0.5) <= AMPLITUDE_TOLERANCE for a in state.amplitudes.values())
    assert abs(state_norm(state) - 1.0) <= AMPLITUDE_TOLERANCE


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
        assert out.amplitudes == basis_state(pipeline, (x, f(x), g(f(x)))).amplitudes


def test_apply_identity(two_step_id):
    state = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    assert apply_steps(two_step_id, (), state) == state


def test_apply_linear_extension(two_step_id):
    state = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    out = apply_steps(two_step_id, (1, 0), state)
    amp = 2.0**-0.5
    assert out.amplitudes == {0: amp + 0j, 7: amp + 0j}


def test_apply_width_mismatch(two_step_id):
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(PipelineSpec((1, 1), (ID1,)), (), basis_state(two_step_id, (0, 0, 0)))


@given(seed=seeds, data=st.data())
@settings(max_examples=40)
def test_apply_steps_matches_permutation_unitary(seed, data):
    # amplitudes routed through the composed permutation are the reference
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    word = data.draw(st.lists(st.integers(0, 2), max_size=6))
    gens = step_perms(pipeline)
    mapping = evaluate_word(gens, word).mapping
    state = random_state(pipeline.total_width, data.draw(seeds))
    assert apply_steps(pipeline, word, state).amplitudes == {mapping[i]: a for i, a in state.amplitudes.items()}
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(pipeline, word, random_state(pipeline.total_width + 1, 0))


def test_norm_preserved_on_random_states(two_step_id):
    for seed in range(20):
        state = random_state(3, seed)
        out = apply_steps(two_step_id, (1, 0), state)
        assert abs(state_norm(out) - 1.0) <= AMPLITUDE_TOLERANCE


def test_inverse_consistency(two_step_id):
    # the steps are involutions, so the reversed word undoes the word
    for seed in range(10):
        state = random_state(3, seed)
        back = apply_steps(two_step_id, (0, 1), apply_steps(two_step_id, (1, 0), state))
        assert back.amplitudes.keys() == state.amplitudes.keys()
        for index in state.amplitudes:
            assert abs(back.amplitudes[index] - state.amplitudes[index]) <= AMPLITUDE_TOLERANCE


def test_measure_deterministic_outcome(two_step_id):
    state = basis_state(two_step_id, (1, 1, 1))
    result = measure(state, two_step_id, 2, seed=42, shots=100)
    assert result.counts == {1: 100}
    assert result.shots == 100 and result.register == 2


def test_measure_same_seed_identical(two_step_id):
    out = apply_steps(two_step_id, (1, 0), uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0))))
    a = measure(out, two_step_id, 2, seed=9, shots=500)
    b = measure(out, two_step_id, 2, seed=9, shots=500)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 500


def test_measure_marginal_exact_and_converges(two_step_id):
    out = apply_steps(two_step_id, (1, 0), uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0))))
    distribution = marginal_distribution(out, two_step_id, 2)
    assert abs(distribution[0] - 0.5) <= AMPLITUDE_TOLERANCE
    assert abs(distribution[1] - 0.5) <= AMPLITUDE_TOLERANCE
    result = measure(out, two_step_id, 2, seed=20250810, shots=10_000)
    for value in (0, 1):
        assert abs(result.counts.get(value, 0) / 10_000 - 0.5) <= 0.03


def test_measure_requires_shots(two_step_id):
    with pytest.raises(ValueError, match="shots"):
        measure(basis_state(two_step_id, (0, 0, 0)), two_step_id, 0, seed=1, shots=0)


# register 0 (8 bits) of a seeded state on 512-point support has every value
MEASURED = PipelineSpec((8, 1), (zero_fn(8, 1),))
BLOCK_EDGE_SHOTS = (1, 2, 4095, 4096, 4097, 3 * 4096 + 1)


@pytest.mark.parametrize("support, n_values", [(1, 1), (2, 2), (5, 5), (512, 256)])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_measure_matches_per_shot_reference(support, n_values, seed):
    state = random_state(MEASURED.total_width, 300, support)
    distribution = marginal_distribution(state, MEASURED, 0)
    assert len(distribution) == n_values
    for shots in BLOCK_EDGE_SHOTS:
        result = measure(state, MEASURED, 0, seed=seed, shots=shots)
        assert result.counts == reference_measure(state, MEASURED, 0, seed, shots)
        assert result.distribution == distribution


def _two_value_state(p: float) -> QState:
    """A state of a (1, 1) pipeline whose register 0 reads 0 with
    probability exactly p and whose marginal sums to exactly 1."""
    a = next(c for c in (math.sqrt(p), math.nextafter(math.sqrt(p), 0)) if c * c == p)
    b = next(c for c in (math.sqrt(1 - p), math.nextafter(math.sqrt(1 - p), 2)) if p + c * c == 1.0)
    return QState(2, {0: complex(a), 1: complex(b)})


def test_measure_draw_on_a_bound_counts_for_the_next_value():
    # the first draw of seed 1 is u = m * 2^-53 for its top 53 bits m; its
    # low 11 bits would round a 64-bit float of the whole word up to the
    # next double, so only the truncated m lands on these bounds
    pipeline = PipelineSpec((1, 1), (ID1,))
    word = SplitMix64(1).next_u64()
    m = word >> 11
    assert word & 0x7FF >= 0x400
    for bound, counts in ((m * 2.0**-53, {1: 1}), ((m + 1) * 2.0**-53, {0: 1})):
        state = _two_value_state(bound)
        assert measure(state, pipeline, 0, seed=1, shots=1).counts == reference_measure(state, pipeline, 0, 1, 1) == counts


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
    for a in range(8):
        for b in range(8):
            state = random_state(3, 8 * a + b)
            product = apply_steps(two_step_id, group.words[group.cayley[a][b]], state)
            assert apply_steps(two_step_id, group.words[a], apply_steps(two_step_id, group.words[b], state)) == product
            assert apply_steps(two_step_id, group.words[a] + group.words[b], state) == product


def test_representation_product_rule(two_step_id):
    s1, s2 = _two_step(two_step_id)
    mapping = perm_compose(s2, s1).mapping
    for seed in range(5):
        state = random_state(3, seed)
        routed = {mapping[i]: a for i, a in state.amplitudes.items()}
        assert apply_steps(two_step_id, (1,), apply_steps(two_step_id, (0,), state)).amplitudes == routed
        assert apply_steps(two_step_id, (1, 0), state).amplitudes == routed


def test_representation_identity_element(two_step_id):
    group = closure(two_step_id)
    assert not any(group.elements[0]) and group.words[0] == ()
    for seed in range(5):
        state = random_state(3, seed)
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


def test_random_state_deterministic_and_normalized():
    a = random_state(4, 77)
    b = random_state(4, 77)
    assert a == b
    assert abs(state_norm(a) - 1.0) <= AMPLITUDE_TOLERANCE
    assert all(abs(v) >= PRUNE_THRESHOLD for v in a.amplitudes.values())
    assert len(a.amplitudes) <= 8

