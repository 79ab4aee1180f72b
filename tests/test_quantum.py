import pytest
from hypothesis import given, settings, strategies as st

from involift.lifting import Perm, RegisterLayout, layout, random_pipeline, step_involution
from involift.permgroup import closure, evaluate_word, perm_compose
from involift.quantum import (
    AMPLITUDE_TOLERANCE,
    PRUNE_THRESHOLD,
    PermUnitary,
    QState,
    apply,
    apply_steps,
    basis_state,
    marginal_distribution,
    measure,
    random_state,
    representation_check,
    states_close,
    uniform_superposition,
)

seeds = st.integers(0, 2**64 - 1)


def _two_step(pipeline):
    return step_involution(pipeline, 1), step_involution(pipeline, 2)


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
    assert abs(state.norm() - 1.0) <= AMPLITUDE_TOLERANCE


def test_uniform_superposition_wide_register():
    lay = RegisterLayout.from_widths((2, 1))
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 1)))
    assert len(state.amplitudes) == 4
    assert all(abs(a - 0.5) <= AMPLITUDE_TOLERANCE for a in state.amplitudes.values())
    assert abs(state.norm() - 1.0) <= AMPLITUDE_TOLERANCE


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
    s1, s2 = _two_step(pipeline)
    unitary = PermUnitary(perm_compose(s2, s1))
    for x in range(1 << pipeline.widths[0]):
        out = apply(unitary, basis_state(lay, (x, 0, 0)))
        assert out.amplitudes == basis_state(lay, (x, f(x), g(f(x)))).amplitudes


def test_apply_identity(two_step_id):
    lay = layout(two_step_id)
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0)))
    assert apply(PermUnitary(Perm.identity(3)), state) == state


def test_apply_linear_extension(two_step_id):
    lay = layout(two_step_id)
    s1, s2 = _two_step(two_step_id)
    unitary = PermUnitary(perm_compose(s2, s1))
    state = uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0)))
    out = apply(unitary, state)
    amp = 2.0**-0.5
    assert out.amplitudes == {0: amp + 0j, 7: amp + 0j}


def test_apply_width_mismatch(two_step_id):
    lay = layout(two_step_id)
    with pytest.raises(ValueError, match="width mismatch"):
        apply(PermUnitary(Perm.identity(2)), basis_state(lay, (0, 0, 0)))


@given(seed=seeds, data=st.data())
@settings(max_examples=40)
def test_apply_steps_matches_permutation_unitary(seed, data):
    # the composed permutation unitary stays the reference for the routed word
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    word = data.draw(st.lists(st.integers(1, 3), max_size=6))
    gens = [step_involution(pipeline, i) for i in (1, 2, 3)]
    unitary = PermUnitary(evaluate_word(gens, [i - 1 for i in word]))
    state = random_state(pipeline.total_width, data.draw(seeds))
    assert apply_steps(pipeline, word, state) == apply(unitary, state)
    with pytest.raises(ValueError, match="width mismatch"):
        apply_steps(pipeline, word, random_state(pipeline.total_width + 1, 0))


def test_norm_preserved_on_random_states(two_step_id):
    s1, s2 = _two_step(two_step_id)
    unitary = PermUnitary(perm_compose(s2, s1))
    for seed in range(20):
        state = random_state(3, seed)
        out = apply(unitary, state)
        assert abs(out.norm() - 1.0) <= AMPLITUDE_TOLERANCE


def test_inverse_consistency(two_step_id):
    s1, s2 = _two_step(two_step_id)
    unitary = PermUnitary(perm_compose(s2, s1))
    for seed in range(10):
        state = random_state(3, seed)
        back = apply(unitary.adjoint(), apply(unitary, state))
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
    s1, s2 = _two_step(two_step_id)
    out = apply(PermUnitary(perm_compose(s2, s1)), uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0))))
    a = measure(out, lay, 2, seed=9, shots=500)
    b = measure(out, lay, 2, seed=9, shots=500)
    assert a.counts == b.counts
    assert sum(a.counts.values()) == 500


def test_measure_marginal_exact_and_converges(two_step_id):
    lay = layout(two_step_id)
    s1, s2 = _two_step(two_step_id)
    out = apply(PermUnitary(perm_compose(s2, s1)), uniform_superposition(lay, 0, basis_state(lay, (0, 0, 0))))
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
    group = closure(_two_step(two_step_id))
    report = representation_check(group, trials=5, seed=3)
    assert report.passed
    assert report.pairs_checked == 64
    assert report.group_order == 8


def test_representation_product_rule(two_step_id):
    s1, s2 = _two_step(two_step_id)
    u1, u2 = PermUnitary(s1), PermUnitary(s2)
    u_product = PermUnitary(perm_compose(s2, s1))
    for seed in range(5):
        state = random_state(3, seed)
        assert states_close(apply(u_product, state), apply(u2, apply(u1, state)))


def test_representation_identity_element(two_step_id):
    group = closure(_two_step(two_step_id))
    identity_unitary = PermUnitary(group.elements[0])
    for seed in range(5):
        state = random_state(3, seed)
        assert apply(identity_unitary, state) == state


@given(seed=seeds)
@settings(max_examples=25)
def test_classical_embedding(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=2)
    lay = layout(pipeline)
    s1, s2 = _two_step(pipeline)
    unitary = PermUnitary(perm_compose(s2, s1))
    f, g = pipeline.steps
    for x in range(1 << pipeline.widths[0]):
        out = apply(unitary, basis_state(lay, (x,) + (0,) * 2))
        result = measure(out, lay, 2, seed=seed & 0xFFFF, shots=20)
        assert result.counts == {g(f(x)): 20}


def test_random_state_deterministic_and_normalized():
    a = random_state(4, 77)
    b = random_state(4, 77)
    assert a == b
    assert abs(a.norm() - 1.0) <= AMPLITUDE_TOLERANCE
    assert all(abs(v) >= PRUNE_THRESHOLD for v in a.amplitudes.values())
    assert len(a.amplitudes) <= 8


def test_states_close_tolerance():
    a = QState(1, {0: 1.0 + 0j})
    b = QState(1, {0: 1.0 + 1e-13j})
    assert states_close(a, b)
    c = QState(1, {1: 1.0 + 0j})
    assert not states_close(a, c)
