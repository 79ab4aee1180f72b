import pytest
from hypothesis import given, settings, strategies as st

from involift.boolfn import BoolFunc, random_fn
from involift.lifting import (
    Perm,
    PipelineSpec,
    product_orders,
    random_pipeline,
    run_classical,
    word_action,
)
from involift.permgroup import word_elements

from conftest import (
    ID1,
    NOT1,
    evaluate_word,
    identity_fn,
    perm_compose,
    perm_is_identity,
    perm_tables,
    step_perm,
    step_perms,
    word_tables,
    zero_fn,
)

seeds = st.integers(0, 2**64 - 1)


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        Perm(1, (0, 0))
    with pytest.raises(ValueError, match="entries"):
        Perm(1, (0, 1, 2))


def _widths(widths):
    """A pipeline with the given register widths (its steps are zero)."""
    return PipelineSpec(widths, tuple(zero_fn(a, b) for a, b in zip(widths, widths[1:])))


def test_layout_examples():
    assert _widths((1, 1, 1)).offsets == (0, 1, 2)
    pipeline = _widths((2, 3, 1))
    assert pipeline.offsets == (0, 2, 5) and pipeline.total_width == 6
    assert _widths((1, 1, 1, 1)).offsets == (0, 1, 2, 3)
    # the offsets are derived, not a constructor argument
    with pytest.raises(TypeError):
        PipelineSpec((1, 1), (ID1,), offsets=(0, 1))


def test_layout_pack_unpack():
    pipeline = _widths((2, 3, 1))
    state = pipeline.pack_registers((3, 5, 1))
    assert pipeline.unpack_registers(state) == (3, 5, 1)
    with pytest.raises(ValueError, match="register 1 value 8"):
        pipeline.pack_registers((0, 8, 0))
    with pytest.raises(ValueError, match="expected 3 register values"):
        pipeline.pack_registers((0, 0))


def test_lift_identity_mapping():
    # y flips exactly when x = 1; states packed with x least significant
    one_step = PipelineSpec((1, 1), (ID1,))
    reference = perm_tables(evaluate_word(step_perms(one_step), (0,)), one_step)
    assert word_tables(one_step, (0,)) == reference == ((0, 1),)
    assert word_action(one_step, (0,))(range(4)) == [0, 3, 2, 1]
    assert step_perm(one_step, 0).mapping == (0, 3, 2, 1)


def test_lift_constant_zero_is_identity():
    zero_step = PipelineSpec((1, 1), (zero_fn(1, 1),))
    assert word_elements(zero_step, [(0,)]) == [0]
    assert perm_tables(evaluate_word(step_perms(zero_step), (0,)), zero_step) == (None,)
    assert word_action(zero_step, (0,))(range(4)) == [0, 1, 2, 3]


@given(a=st.integers(1, 3), b=st.integers(1, 3), seed=seeds)
@settings(max_examples=100)
def test_lift_is_involution(a, b, seed):
    one_step = PipelineSpec((a, b), (random_fn(a, b, seed),))
    assert word_elements(one_step, [(0, 0)]) == [0]
    assert perm_is_identity(evaluate_word(step_perms(one_step), (0, 0)))
    assert word_action(one_step, (0, 0))(range(1 << (a + b))) == list(range(1 << (a + b)))


def test_lift_width_cap():
    # each register is capped at 16 bits by the tables that read and write
    # it, checked before any 2^width is computed; the summed width is not
    wide = PipelineSpec((16, 5), (BoolFunc(16, 5, (0,) * (1 << 16)),))
    assert wide.total_width == 21 and wide.offsets == (0, 16)
    with pytest.raises(ValueError, match="^arity_out 17 exceeds the cap of 16$"):
        BoolFunc(1, 17, (0, 0))
    with pytest.raises(ValueError, match="^arity_in 17 exceeds the cap of 16$"):
        BoolFunc(17, 1, ())
    with pytest.raises(ValueError, match=f"^arity_out {2**70} exceeds the cap of 16$"):
        BoolFunc(1, 2**70, (0, 0))


def test_step_involution_mappings(two_step_id):
    # the lifted steps act on states through word_action; the reference
    # permutations of the tests agree
    for step, mapping in ((0, [0, 3, 2, 1, 4, 7, 6, 5]), (1, [0, 1, 6, 7, 4, 5, 2, 3])):
        assert word_action(two_step_id, (step,))(range(8)) == mapping
        assert list(step_perm(two_step_id, step).mapping) == mapping


def test_step_involution_index_errors(two_step_id):
    with pytest.raises(ValueError, match="out of range"):
        word_action(two_step_id, (-1,))
    with pytest.raises(ValueError, match="out of range"):
        word_action(two_step_id, (2,))


@given(seed=seeds, step=st.integers(0, 2))
@settings(max_examples=50)
def test_step_involution_touches_only_its_registers(seed, step):
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    states = range(1 << pipeline.total_width)
    for state, image in zip(states, word_action(pipeline, (step,))(states)):
        before = pipeline.unpack_registers(state)
        after = pipeline.unpack_registers(image)
        for r in range(len(before)):
            if r != step + 1:
                assert before[r] == after[r]


@given(seed=seeds)
@settings(max_examples=100)
def test_step_involutions_square_to_identity(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    assert word_elements(pipeline, [(0, 0), (1, 1)]) == [0, 0]
    for i in (0, 1):
        assert perm_tables(evaluate_word(step_perms(pipeline), (i, i)), pipeline) == (None, None)
        states = range(1 << pipeline.total_width)
        assert word_action(pipeline, (i, i))(states) == list(states)


@given(seed=seeds)
@settings(max_examples=50)
def test_forward_perm_two_step_trace(seed):
    # the forward word (1, 0), f2 f1 on the command line, applies step 0 first
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    f, g = pipeline.steps
    for x in range(1 << pipeline.widths[0]):
        (state,) = word_action(pipeline, (1, 0))([pipeline.pack_registers((x, 0, 0))])
        assert pipeline.unpack_registers(state) == (x, f(x), g(f(x)))


def test_forward_perm_three_step_trace():
    pipeline = PipelineSpec((1, 1, 1, 1), (ID1, NOT1, ID1))
    f, g, h = pipeline.steps
    for x in range(2):
        (state,) = word_action(pipeline, (2, 1, 0))([pipeline.pack_registers((x, 0, 0, 0))])
        assert pipeline.unpack_registers(state) == (x, f(x), g(f(x)), h(g(f(x))))


@given(seed=seeds, steps=st.integers(1, 3))
@settings(max_examples=50)
def test_forward_reversed_word_is_inverse(seed, steps):
    pipeline = random_pipeline(seed, steps=steps, max_width=2)
    gens = step_perms(pipeline)
    forward = list(range(steps - 1, -1, -1))
    reverse = list(range(steps))
    assert perm_is_identity(evaluate_word(gens, reverse + forward))
    states = range(1 << pipeline.total_width)
    assert word_action(pipeline, reverse)(word_action(pipeline, forward)(states)) == list(states)


@given(data=st.data(), seed=seeds, steps=st.integers(1, 4))
@settings(max_examples=100)
def test_word_action_matches_evaluate_word(data, seed, steps):
    # the permutation product stays the reference for the per-state action
    pipeline = random_pipeline(seed, steps=steps, max_width=9 // (steps + 1))
    assert pipeline.total_width <= 9
    word = data.draw(st.lists(st.integers(0, steps - 1), max_size=6))
    gens = step_perms(pipeline)
    reference = evaluate_word(gens, word)
    act = word_action(pipeline, word)
    size = 1 << pipeline.total_width
    assert act(range(size)) == list(map(reference, range(size)))
    assert act([]) == []
    for bad_state in (-1, size):
        # the first state out of range is named, wherever it stands
        with pytest.raises(ValueError, match=f"^state {bad_state} out of range for width"):
            act([0, bad_state, size - 1, size + 7])
    for bad_step in (-1, steps):
        with pytest.raises(ValueError, match="out of range"):
            word_action(pipeline, word + [bad_step])


def test_run_classical_examples(two_step_id):
    assert run_classical(two_step_id, 1) == (1, 1, 1)
    double_not = PipelineSpec((1, 1, 1), (NOT1, NOT1))
    assert run_classical(double_not, 0) == (0, 1, 0)


@given(seed=seeds, data=st.data())
@settings(max_examples=50)
def test_run_classical_matches_direct(seed, data):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    x = data.draw(st.integers(0, (1 << pipeline.widths[0]) - 1))
    value = x
    expected = [x]
    for f in pipeline.steps:
        value = f(value)
        expected.append(value)
    assert run_classical(pipeline, x) == tuple(expected)


def test_run_classical_rejects_out_of_range(two_step_id):
    with pytest.raises(ValueError, match="out of range"):
        run_classical(two_step_id, 2)


def test_two_step_product_closed_forms(rule_perm):
    # words over the two lifted steps s1, s2, checked against explicit XOR
    # rules on the register tuples
    def rule_s1(regs, steps):
        x, y, z = regs
        return (x, y ^ steps[0](x), z)

    def rule_s2(regs, steps):
        x, y, z = regs
        return (x, y, z ^ steps[1](y))

    def rule_s2s1(regs, steps):
        x, y, z = regs
        return (x, y ^ steps[0](x), z ^ steps[1](y ^ steps[0](x)))

    def rule_s1s2s1(regs, steps):
        x, y, z = regs
        return (x, y, z ^ steps[1](y ^ steps[0](x)))

    def rule_s2s1_squared(regs, steps):
        x, y, z = regs
        return (x, y, z ^ steps[1](y ^ steps[0](x)) ^ steps[1](y))

    def rule_s1_s2s1_squared(regs, steps):
        x, y, z = regs
        return (x, y ^ steps[0](x), z ^ steps[1](y ^ steps[0](x)) ^ steps[1](y))

    def rule_s2s1_cubed(regs, steps):
        x, y, z = regs
        return (x, y ^ steps[0](x), z ^ steps[1](y))

    for seed in range(25):
        pipeline = random_pipeline(seed, steps=2, max_width=4)
        if pipeline.total_width > 12:
            continue
        s1 = step_perm(pipeline, 0)
        s2 = step_perm(pipeline, 1)
        s21 = perm_compose(s2, s1)
        assert s1 == rule_perm(pipeline, rule_s1)
        assert s2 == rule_perm(pipeline, rule_s2)
        assert s21 == rule_perm(pipeline, rule_s2s1)
        assert perm_compose(s1, s21) == rule_perm(pipeline, rule_s1s2s1)
        s21_sq = perm_compose(s21, s21)
        assert s21_sq == rule_perm(pipeline, rule_s2s1_squared)
        assert perm_compose(s1, s21_sq) == rule_perm(pipeline, rule_s1_s2s1_squared)
        s21_cu = perm_compose(s21, s21_sq)
        assert s21_cu == rule_perm(pipeline, rule_s2s1_cubed)
        assert perm_compose(s1, s21_cu) == s2
        assert perm_is_identity(perm_compose(s21, s21_cu))


@given(seed=seeds)
@settings(max_examples=100)
def test_adjacent_product_fourth_power_is_identity(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    gp = perm_compose(step_perm(pipeline, 1), step_perm(pipeline, 0))
    gp2 = perm_compose(gp, gp)
    assert perm_is_identity(perm_compose(gp2, gp2))


def test_pipeline_spec_validation():
    with pytest.raises(ValueError, match="at least one step"):
        PipelineSpec((1,), ())
    with pytest.raises(ValueError, match="register widths"):
        PipelineSpec((1, 1), (ID1, ID1))
    with pytest.raises(ValueError, match="step 1 maps"):
        PipelineSpec((1, 1, 2), (ID1, ID1))


def test_pipeline_width_cap():
    # no cap on the summed width: a 4-register chain of 16-bit identities
    # has W = 64, and it runs and packs like any other
    pipeline = PipelineSpec((16,) * 4, (identity_fn(16),) * 3)
    assert pipeline.total_width == 64 and pipeline.offsets == (0, 16, 32, 48)
    assert run_classical(pipeline, 0xBEEF) == (0xBEEF,) * 4
    state = pipeline.pack_registers((1, 2, 3, 0xFFFF))
    assert state == 1 | 2 << 16 | 3 << 32 | 0xFFFF << 48
    assert pipeline.unpack_registers(state) == (1, 2, 3, 0xFFFF)
    assert word_action(pipeline, (2, 1, 0))([0xBEEF]) == [0xBEEF * (1 + (1 << 16) + (1 << 32) + (1 << 48))]


def _reference_product_orders(pipeline):
    """The rule product_orders used before it reduced the image to a basis:
    every value of the image of F against every y."""
    steps = pipeline.steps
    zero = [f.is_constant_zero for f in steps]
    orders = [[1] * len(steps) for _ in steps]
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            if zero[i] and zero[j]:
                continue
            k = 2
            if j == i + 1:
                g = steps[j].table
                if any(g[y] != g[y ^ v] for v in set(steps[i].table) for y in range(len(g))):
                    k = 4
            orders[i][j] = orders[j][i] = k
    return tuple(map(tuple, orders))


@pytest.mark.parametrize(
    "f, g, order",
    [
        # im f = {1, 2, 3} spans {1, 2}; g reads only bit 2 of y
        ((1, 2, 3, 1), (0, 0, 0, 0, 1, 1, 1, 1), 2),
        # im f = {3}: g(y) = g(y ^ 3) but g(y) != g(y ^ 1)
        ((3, 3, 0, 3), (0, 1, 1, 0, 1, 0, 0, 1), 2),
        ((3, 3, 0, 3), (0, 1, 0, 1, 0, 1, 0, 1), 4),
        # im f = {5, 6} spans {3, 5, 6}: g is invariant under 6, not under 5
        ((5, 6, 5, 6), (0, 0, 1, 1, 1, 1, 0, 0), 4),
        ((5, 6, 5, 6), (0, 0, 0, 0, 0, 0, 0, 0), 2),
    ],
)
def test_product_orders_on_a_basis_of_the_image(f, g, order):
    pipeline = PipelineSpec((2, 3, 1), (BoolFunc(2, 3, f), BoolFunc(3, 1, g)))
    assert product_orders(pipeline) == _reference_product_orders(pipeline) == ((1, order), (order, 1))


def test_product_orders_of_wide_registers():
    # f the 16-bit identity, g constant: the image of f spans all 2^16 values
    # from 16 basis vectors, so g is read 16 * 2^16 times, not 2^32
    pipeline = PipelineSpec((16, 16, 16), (identity_fn(16), BoolFunc(16, 16, (1,) * (1 << 16))))
    assert product_orders(pipeline) == ((1, 2), (2, 1))


@given(seed=seeds, steps=st.sampled_from([2, 3, 4]), sparse=st.booleans())
@settings(max_examples=200)
def test_product_orders_match_every_image_value(seed, steps, sparse):
    # a pipeline whose last table is a function of fewer bits of y, so that
    # order 2 turns up beside order 4
    pipeline = random_pipeline(seed, steps=steps, max_width=4)
    if sparse:
        widths, fns = pipeline.widths, list(pipeline.steps)
        keep = random_fn(1, 1, seed).table[0] + 1
        fns[-1] = BoolFunc(widths[-2], widths[-1], tuple(fns[-1].table[y & keep] for y in range(1 << widths[-2])))
        pipeline = PipelineSpec(widths, tuple(fns))
    assert product_orders(pipeline) == _reference_product_orders(pipeline)


def test_random_pipeline_deterministic():
    assert random_pipeline(99) == random_pipeline(99)
    p = random_pipeline(7, steps=3, max_width=3)
    assert p.n_steps == 3 and all(1 <= w <= 3 for w in p.widths)
