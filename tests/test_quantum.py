import pytest
from hypothesis import given, settings, strategies as st

from involift.lifting import PipelineSpec, RegisterLayout, layout, random_pipeline
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

from conftest import ID1, evaluate_word, perm_compose, random_state, state_norm, step_perm, step_perms

seeds = st.integers(0, 2**64 - 1)


def _two_step(pipeline):
    return step_perm(pipeline, 1), step_perm(pipeline, 2)


def test_basis_state_examples(two_step_id):
    lay = layout(two_step_id)
    assert basis_state(lay, (1, 0, 0)).amplitudes == {1: 1.0 + 0j}
    assert basis_state(lay, (0, 0, 0)).amplitudes == {0: 1.0 + 0j}
    assert basis_state(lay, (1, 1, 1)).amplitudes == {7: 1.0 + 0j}


def test_basis_state_rejects_out_of_range(two_step_id):
    lay = layout(two_step_id)
    with pytest.raises(ValueError, match="register 1 value 2"):
        basis_state(lay, (0, 2, 0))


def test_qstate_validation():
    with pytest.raises(ValueError, match="norm"):
        QState(1, {0: 0.5 + 0j})
    with pytest.raises(ValueError, match="out of range"):
        QState(1, {2: 1.0 + 0j})
    with pytest.raises(ValueError, match="pruning"):
        QState(1, {0: 1.0 + 0j, 1: 1e-16 + 0j})


def test_uniform_superposition_one_bit(two_step_id):
    lay = layout(two_step_id)
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0)))
    amp = 2.0**-0.5
    assert state.amplitudes == {0: amp + 0j, 1: amp + 0j}
    assert abs(state_norm(state) - 1.0) <= AMPLITUDE_TOLERANCE


def test_uniform_superposition_wide_register():
    lay = RegisterLayout.from_widths((2, 1))
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 1)))
    assert len(state.amplitudes) == 4
    assert all(abs(a - 0.5) <= AMPLITUDE_TOLERANCE for a in state.amplitudes.values())
    assert abs(state_norm(state) - 1.0) <= AMPLITUDE_TOLERANCE


def test_uniform_superposition_preconditions(two_step_id):
    lay = layout(two_step_id)
    with pytest.raises(ValueError, match="must be 0"):
        uniform_superposition(lay, 0, basis_state(lay, (1, 0, 0)))
    spread = uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0)))
    with pytest.raises(ValueError, match="basis state"):
        uniform_superposition(lay, 1, spread)


@given(seed=seeds)
@settings(max_examples=40)
def test_apply_evaluates_pipeline(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    lay = layout(pipeline)
    f, g = pipeline.steps
    for x in range(1 << pipeline.widths[0]):
        out = apply_steps(pipeline, (2, 1), basis_state(lay, (x, 0, 0)))
        assert out.amplitudes == basis_state(lay, (x, f(x), g(f(x)))).amplitudes


def test_apply_identity(two_step_id):
    lay = layout(two_step_id)
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0)))
    assert apply_steps(two_step_id, (), state) == state


def test_apply_linear_extension(two_step_id):
    lay = layout(two_step_id)
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0)))
    out = apply_steps(two_step_id, (2, 1), state)
    amp = 2.0**-0.5
    assert out.amplitudes == {0: amp + 0j, 7: amp + 0j}


def test_apply_width_mismatch(two_step_id):
    lay = layout(two_step_id)
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(PipelineSpec((1, 1), (ID1,)), (), basis_state(lay, (0, 0, 0)))


@given(seed=seeds, data=st.data())
@settings(max_examples=40)
def test_apply_steps_matches_permutation_unitary(seed, data):
    # amplitudes routed through the composed permutation are the reference
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    word = data.draw(st.lists(st.integers(1, 3), max_size=6))
    gens = step_perms(pipeline)
    mapping = evaluate_word(gens, [i - 1 for i in word]).mapping
    state = random_state(pipeline.total_width, data.draw(seeds))
    assert apply_steps(pipeline, word, state).amplitudes == {mapping[i]: a for i, a in state.amplitudes.items()}
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(pipeline, word, random_state(pipeline.total_width + 1, 0))


def test_norm_preserved_on_random_states(two_step_id):
    for seed in range(20):
        state = random_state(3, seed)
        out = apply_steps(two_step_id, (2, 1), state)
        assert abs(state_norm(out) - 1.0) <= AMPLITUDE_TOLERANCE


def test_inverse_consistency(two_step_id):
    # the steps are involutions, so the reversed word undoes the word
    for seed in range(10):
        state = random_state(3, seed)
        back = apply_steps(two_step_id, (1, 2), apply_steps(two_step_id, (2, 1), state))
        assert back.amplitudes.keys() == state.amplitudes.keys()
        for index in state.amplitudes:
            assert abs(back.amplitudes[index] - state.amplitudes[index]) <= AMPLITUDE_TOLERANCE


def test_measure_deterministic_outcome(two_step_id):
    lay = layout(two_step_id)
    state = basis_state(lay, (1, 1, 1))
    result = measure(state, lay, 2, seed=42, shots=100)
    assert result.counts == {1: 100}
    assert result.shots == 100 and result.register == 2


def test_measure_same_seed_identical(two_step_id):
    lay = layout(two_step_id)
    out = apply_steps(two_step_id, (2, 1), uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0))))
    a = measure(out, lay, 2, seed=9, shots=500)
    b = measure(out, lay, 2, seed=9, shots=500)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 500


def test_measure_marginal_exact_and_converges(two_step_id):
    lay = layout(two_step_id)
    out = apply_steps(two_step_id, (2, 1), uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0))))
    distribution = marginal_distribution(out, lay, 2)
    assert abs(distribution[0] - 0.5) <= AMPLITUDE_TOLERANCE
    assert abs(distribution[1] - 0.5) <= AMPLITUDE_TOLERANCE
    result = measure(out, lay, 2, seed=20250810, shots=10_000)
    for value in (0, 1):
        assert abs(result.counts.get(value, 0) / 10_000 - 0.5) <= 0.03


def test_measure_requires_shots(two_step_id):
    lay = layout(two_step_id)
    with pytest.raises(ValueError, match="shots"):
        measure(basis_state(lay, (0, 0, 0)), lay, 0, seed=1, shots=0)


def test_representation_check_two_step(two_step_id):
    # U(words[a]) U(words[b]) = U(words[a b]) = U(words[a] + words[b]) on all
    # 64 pairs of the dihedral group
    group = closure(two_step_id)
    assert len(group) == 8
    steps = [tuple(s + 1 for s in w) for w in group.words]
    for a in range(8):
        for b in range(8):
            state = random_state(3, 8 * a + b)
            product = apply_steps(two_step_id, steps[group.cayley[a][b]], state)
            assert apply_steps(two_step_id, steps[a], apply_steps(two_step_id, steps[b], state)) == product
            assert apply_steps(two_step_id, steps[a] + steps[b], state) == product


def test_representation_product_rule(two_step_id):
    s1, s2 = _two_step(two_step_id)
    mapping = perm_compose(s2, s1).mapping
    for seed in range(5):
        state = random_state(3, seed)
        routed = {mapping[i]: a for i, a in state.amplitudes.items()}
        assert apply_steps(two_step_id, (2,), apply_steps(two_step_id, (1,), state)).amplitudes == routed
        assert apply_steps(two_step_id, (2, 1), state).amplitudes == routed


def test_representation_identity_element(two_step_id):
    group = closure(two_step_id)
    assert not any(group.elements[0].tables) and group.words[0] == ()
    for seed in range(5):
        state = random_state(3, seed)
        assert apply_steps(two_step_id, group.words[0], state) == state
        assert apply_steps(two_step_id, (2, 1) * 4, state) == state  # (f2 f1)^4 = e


@given(seed=seeds)
@settings(max_examples=25)
def test_classical_embedding(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=2)
    lay = layout(pipeline)
    f, g = pipeline.steps
    for x in range(1 << pipeline.widths[0]):
        out = apply_steps(pipeline, (2, 1), basis_state(lay, (x,) + (0,) * 2))
        result = measure(out, lay, 2, seed=seed & 0xFFFF, shots=20)
        assert result.counts == {g(f(x)): 20}


def test_random_state_deterministic_and_normalized():
    a = random_state(4, 77)
    b = random_state(4, 77)
    assert a == b
    assert abs(state_norm(a) - 1.0) <= AMPLITUDE_TOLERANCE
    assert all(abs(v) >= PRUNE_THRESHOLD for v in a.amplitudes.values())
    assert len(a.amplitudes) <= 8

