from collections import Counter
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from involift import permgroup
from involift.boolfn import BoolFunc, random_fn
from involift.lifting import (
    Perm,
    PipelineSpec,
    generator_defects,
    layout,
    nondegeneracy_defects,
    product_orders,
    random_pipeline,
    step_involution,
)
from involift.permgroup import (
    ClosureCapExceeded,
    closure,
    element_order_histogram,
    is_dihedral_8,
    lifted_tableaux,
    polycyclic_layers,
)
from involift.rng import SplitMix64

from conftest import ID1, evaluate_word, perm_compose, perm_is_identity, perm_order, zero_fn

seeds = st.integers(0, 2**64 - 1)


def _two_step_gens(pipeline):
    return step_involution(pipeline, 1), step_involution(pipeline, 2)


def _brute_force_order(perm):
    power = perm
    k = 1
    while not perm_is_identity(power):
        power = perm_compose(power, perm)
        k += 1
    return k


def test_perm_compose_identity_law(two_step_id):
    s1, _ = _two_step_gens(two_step_id)
    assert perm_compose(s1, Perm.identity(3)) == s1
    assert perm_compose(Perm.identity(3), s1) == s1


def test_perm_compose_width_mismatch():
    with pytest.raises(ValueError, match="width mismatch"):
        perm_compose(Perm.identity(2), Perm.identity(3))


@given(seed=seeds)
@settings(max_examples=50)
def test_perm_compose_forward_trace(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    lay = layout(pipeline)
    f, g = pipeline.steps
    s1, s2 = _two_step_gens(pipeline)
    s21 = perm_compose(s2, s1)
    for x in range(1 << pipeline.widths[0]):
        assert lay.unpack_registers(s21(lay.pack_registers((x, 0, 0)))) == (x, f(x), g(f(x)))
    assert perm_is_identity(perm_compose(perm_compose(s1, s2), s21))


def test_perm_inverse_examples(two_step_id):
    # q is the inverse of p when p after q is the identity
    s1, s2 = _two_step_gens(two_step_id)
    assert perm_is_identity(perm_compose(Perm.identity(3), Perm.identity(3)))
    assert perm_is_identity(perm_compose(s1, s1))
    s21 = perm_compose(s2, s1)
    s21_cu = perm_compose(s21, perm_compose(s21, s21))
    assert perm_is_identity(perm_compose(s21, s21_cu)) and perm_is_identity(perm_compose(s21_cu, s21))
    assert not perm_is_identity(perm_compose(s21, s21))


def test_perm_order_examples(two_step_id, two_step_zero_first):
    s1, s2 = _two_step_gens(two_step_id)
    assert perm_order(Perm.identity(3)) == 1
    assert perm_order(perm_compose(s2, s1)) == 4
    d1, d2 = _two_step_gens(two_step_zero_first)
    assert perm_order(perm_compose(d2, d1)) == 2


@given(seed=seeds)
@settings(max_examples=30)
def test_perm_order_matches_brute_force(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=2)
    s1, s2 = _two_step_gens(pipeline)
    for perm in (s1, s2, perm_compose(s2, s1)):
        assert perm_order(perm) == _brute_force_order(perm)


def test_perm_order_lcm_of_cycles():
    # one 2-cycle and one 3-cycle among 8 points
    perm = Perm(3, (1, 0, 3, 4, 2, 5, 6, 7))
    assert perm_order(perm) == 6
    assert _brute_force_order(perm) == 6


def test_closure_two_step_identity(two_step_id):
    grp = closure(_two_step_gens(two_step_id))
    assert len(grp) == 8
    assert perm_is_identity(grp.elements[0])
    assert grp.words[0] == ()


def test_closure_identity_generator_only():
    grp = closure([Perm.identity(2)])
    assert len(grp) == 1


def test_closure_degenerate_two_elements(two_step_zero_first):
    s1, s2 = _two_step_gens(two_step_zero_first)
    grp = closure([s1, s2])
    assert len(grp) == 2
    assert {p.mapping for p in grp.elements} == {Perm.identity(3).mapping, s2.mapping}


def test_closure_cap_exceeded(two_step_id):
    with pytest.raises(ClosureCapExceeded):
        closure(_two_step_gens(two_step_id), element_cap=4)


def test_closure_requires_matching_widths():
    with pytest.raises(ValueError, match="same width"):
        closure([Perm.identity(2), Perm.identity(3)])
    with pytest.raises(ValueError, match="at least one"):
        closure([])


@given(seed=seeds, steps=st.sampled_from([2, 3]))
@settings(max_examples=40)
def test_closure_elements_pass_perm_validation(seed, steps):
    # closure builds its products without the bijectivity check; each must still pass it
    pipeline = random_pipeline(seed, steps=steps, max_width=3 if steps == 2 else 2)
    width = pipeline.total_width
    assert width <= 9
    grp = closure([step_involution(pipeline, i) for i in range(1, steps + 1)])
    for element in grp.elements:
        assert Perm(width, element.mapping) == element
    collapsed = list(grp.elements[-1].mapping)
    collapsed[0] = collapsed[1]
    with pytest.raises(ValueError, match="not a bijection"):
        Perm(width, collapsed)


def test_closure_cayley_is_composition_table(two_step_id, three_step_id):
    # the table is read from the generator action table and BFS parents;
    # S4 from a 4-cycle and a transposition checks it with a generator that
    # is not an involution
    s4 = [Perm(2, (1, 2, 3, 0)), Perm(2, (1, 0, 2, 3))]
    three_step = [step_involution(three_step_id, i) for i in (1, 2, 3)]
    for gens, order in ((_two_step_gens(two_step_id), 8), (three_step, 64), (s4, 24)):
        grp = closure(gens)
        assert len(grp) == order
        for i in range(len(grp)):
            for j in range(len(grp)):
                product = perm_compose(grp.elements[i], grp.elements[j])
                assert grp.elements[grp.cayley[i][j]] == product


def test_words_are_minimal_and_evaluate_back(two_step_id):
    grp = closure(_two_step_gens(two_step_id))
    lengths = [len(w) for w in grp.words]
    assert lengths == sorted(lengths)  # BFS discovery order
    for e in range(len(grp)):
        assert evaluate_word(grp.generators, grp.words[e]) == grp.elements[e]


def test_words_match_brute_force_enumeration(three_step_id):
    # enumerate all generator words in (length, lex) order; the first word
    # reaching each element is the canonical shortest word
    from itertools import product as cartesian

    for pipeline in (three_step_id, random_pipeline(321, steps=2, max_width=2)):
        gens = tuple(
            step_involution(pipeline, i) for i in range(1, pipeline.n_steps + 1)
        )
        grp = closure(gens)
        expected = {}
        length = 0
        while len(expected) < len(grp):
            for word in cartesian(range(len(gens)), repeat=length):
                perm = evaluate_word(gens, word)
                if perm.mapping not in expected:
                    expected[perm.mapping] = word
            length += 1
        for e, perm in enumerate(grp.elements):
            assert grp.words[e] == expected[perm.mapping]


def test_shortest_word_tie_break(two_step_id):
    s1, s2 = _two_step_gens(two_step_id)
    grp = closure([s1, s2])
    s21 = perm_compose(s2, s1)
    s21_sq = perm_compose(s21, s21)
    # (f2 f1)^2 equals (f1 f2)^2; the lexicographically smaller word wins
    assert grp.words[grp.elements.index(s21_sq)] == (0, 1, 0, 1)
    assert grp.words[0] == ()


def test_element_order_histogram(two_step_id, two_step_zero_first):
    assert element_order_histogram(closure(_two_step_gens(two_step_id))) == {1: 1, 2: 5, 4: 2}
    assert element_order_histogram(closure([Perm.identity(2)])) == {1: 1}
    assert element_order_histogram(closure(_two_step_gens(two_step_zero_first))) == {1: 1, 2: 1}


def test_is_dihedral_8_two_step(two_step_id):
    s1, s2 = _two_step_gens(two_step_id)
    grp = closure([s1, s2])
    witness = is_dihedral_8(grp)
    assert witness is not None and witness.from_generators
    assert grp.elements[witness.rotation] == perm_compose(s1, s2)
    assert grp.elements[witness.reflection] == s2


def test_is_dihedral_8_cyclic_false(two_step_id):
    s1, s2 = _two_step_gens(two_step_id)
    cyclic = closure([perm_compose(s2, s1)])
    assert len(cyclic) == 4
    assert is_dihedral_8(cyclic) is None


def test_is_dihedral_8_trivial_false():
    assert is_dihedral_8(closure([Perm.identity(2)])) is None


def test_is_dihedral_8_without_canonical_generators(two_step_id):
    # generate by rotation and reflection directly: witness found by search
    s1, s2 = _two_step_gens(two_step_id)
    grp = closure([perm_compose(s1, s2), s2])
    witness = is_dihedral_8(grp)
    assert witness is not None and not witness.from_generators


@given(seed=seeds)
@settings(max_examples=30)
def test_cyclic_subgroups_coincide(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    s1, s2 = _two_step_gens(pipeline)
    s21 = perm_compose(s2, s1)
    s12 = perm_compose(s1, s2)

    def powers(p):
        out = {Perm.identity(p.total_width).mapping}
        acc = p
        for _ in range(3):
            out.add(acc.mapping)
            acc = perm_compose(acc, p)
        return out

    assert powers(s21) == powers(s12)


def test_two_step_closure_matches_closed_forms(rule_perm):
    # the eight elements of a nondegenerate two-step closure, by explicit rule
    def make_rules():
        def rule_identity(regs, steps):
            return regs

        def rule_s1(regs, steps):
            x, y, z = regs
            return (x, y ^ steps[0](x), z)

        def rule_s2(regs, steps):
            x, y, z = regs
            return (x, y, z ^ steps[1](y))

        def rule_s2s1(regs, steps):
            x, y, z = regs
            return (x, y ^ steps[0](x), z ^ steps[1](y ^ steps[0](x)))

        def rule_s2s1_squared(regs, steps):
            x, y, z = regs
            return (x, y, z ^ steps[1](y ^ steps[0](x)) ^ steps[1](y))

        def rule_s2s1_cubed(regs, steps):
            x, y, z = regs
            return (x, y ^ steps[0](x), z ^ steps[1](y))

        def rule_s1s2s1(regs, steps):
            x, y, z = regs
            return (x, y, z ^ steps[1](y ^ steps[0](x)))

        def rule_s2s1s2(regs, steps):
            x, y, z = regs
            return (x, y ^ steps[0](x), z ^ steps[1](y) ^ steps[1](y ^ steps[0](x)))

        return (
            rule_identity,
            rule_s1,
            rule_s2,
            rule_s2s1,
            rule_s2s1_squared,
            rule_s2s1_cubed,
            rule_s1s2s1,
            rule_s2s1s2,
        )

    checked = 0
    for seed in range(40):
        pipeline = random_pipeline(seed, steps=2, max_width=3)
        if nondegeneracy_defects(pipeline):
            continue
        gens = _two_step_gens(pipeline)
        grp = closure(gens)
        expected = {rule_perm(pipeline, rule).mapping for rule in make_rules()}
        assert {p.mapping for p in grp.elements} == expected
        checked += 1
    assert checked >= 10


def test_closure_invariant_under_conjugation(two_step_id):
    s1, s2 = _two_step_gens(two_step_id)
    rng = SplitMix64(123)
    points = list(range(8))
    for i in range(7, 0, -1):  # seeded Fisher-Yates
        j = rng.next_u64() % (i + 1)
        points[i], points[j] = points[j], points[i]
    sigma = Perm(3, tuple(points))
    sigma_inv = Perm(3, tuple(points.index(i) for i in range(8)))
    assert perm_is_identity(perm_compose(sigma, sigma_inv))
    conjugated = [perm_compose(sigma, perm_compose(g, sigma_inv)) for g in (s1, s2)]
    original = closure([s1, s2])
    image = closure(conjugated)
    assert len(image) == len(original)
    assert element_order_histogram(image) == element_order_histogram(original)


def test_nondegeneracy_defects_messages(two_step_id, two_step_zero_first):
    assert nondegeneracy_defects(two_step_id) == ()
    assert any("identity" in d for d in nondegeneracy_defects(two_step_zero_first))
    # lifted steps write different registers: only two identities are equal
    both_zero = PipelineSpec((1, 1, 1, 1), (zero_fn(1, 1), ID1, zero_fn(1, 1)))
    assert "generators 1 and 3 are equal" in nondegeneracy_defects(both_zero)
    # constant-one steps give commuting involutions: adjacent product order 2
    one = BoolFunc(1, 1, (1, 1))
    constant = PipelineSpec((1, 1, 1), (one, one))
    defects = nondegeneracy_defects(constant)
    assert any("order 2, expected 4" in d for d in defects)


def _reference_defects(gens):
    """The generator precondition computed from permutations: orders by
    cycle structure, equality by mapping."""
    defects = []
    for i, g in enumerate(gens, start=1):
        k = perm_order(g)
        if k == 1:
            defects.append(f"generator {i} is the identity")
        elif k != 2:
            defects.append(f"generator {i} has order {k}, not an involution")
    for i, j in combinations(range(len(gens)), 2):
        if gens[i].mapping == gens[j].mapping:
            defects.append(f"generators {i + 1} and {j + 1} are equal")
    return tuple(defects)


def _is_power_of_two(k):
    return k & (k - 1) == 0


STEP_KINDS = ("random", "zero", "constant", "sparse")


def _kinded_pipeline(seed, steps, kinds):
    """A seeded pipeline of 1-4 steps whose step k is replaced by the kind
    kinds[k]: random (kept), zero, constant nonzero, or one nonzero entry."""
    # register widths capped so that the steps + 1 registers span W <= 9 bits
    base = random_pipeline(seed, steps=steps, max_width=9 // (steps + 1))
    rng = SplitMix64(seed)
    fns = []
    for f, kind in zip(base.steps, kinds):
        size = len(f.table)
        if kind == "zero":
            f = zero_fn(f.arity_in, f.arity_out)
        elif kind == "constant":
            f = BoolFunc(f.arity_in, f.arity_out, (1 + rng.next_u64() % ((1 << f.arity_out) - 1),) * size)
        elif kind == "sparse":
            table = [0] * size
            table[rng.next_u64() % size] = 1 << rng.next_u64() % f.arity_out
            f = BoolFunc(f.arity_in, f.arity_out, tuple(table))
        fns.append(f)
    return PipelineSpec(base.widths, tuple(fns))


# the examples pin down every case: orders 1 (two zero steps side by side),
# 2 (constant steps, and one zero neighbour) and 4 (random steps), and both
# defect messages
@given(seed=seeds, steps=st.integers(1, 4), kinds=st.lists(st.sampled_from(STEP_KINDS), min_size=4, max_size=4))
@example(seed=7, steps=3, kinds=["zero", "zero", "random", "random"])
@example(seed=8, steps=2, kinds=["constant", "constant", "random", "random"])
@example(seed=9, steps=4, kinds=["random", "sparse", "random", "zero"])
@settings(max_examples=60, deadline=None)
def test_table_rules_match_permutations(seed, steps, kinds):
    pipeline = _kinded_pipeline(seed, steps, kinds)
    gens = [step_involution(pipeline, i) for i in range(1, steps + 1)]

    assert generator_defects(pipeline) == _reference_defects(gens)
    orders = product_orders(pipeline)
    assert orders == tuple(tuple(perm_order(perm_compose(a, b)) for b in gens) for a in gens)
    group = closure(gens)
    walked = permgroup._element_orders(group)
    assert walked == [perm_order(e) for e in group.elements]
    assert element_order_histogram(group) == dict(sorted(Counter(walked).items()))
    # every lifted group is a 2-group; neighbours give orders 1, 2 or 4, others 1 or 2
    assert _is_power_of_two(len(group))
    assert all(_is_power_of_two(k) for k in walked)
    for i, j in combinations(range(steps), 2):
        assert orders[i][j] in ({1, 2, 4} if j == i + 1 else {1, 2})


def _tableau_tables(perm, pipeline):
    """T_1..T_n of a permutation of the lifted group, read from its images of
    the states whose registers j..n are zero (None for an all-zero table)."""
    offsets = layout(pipeline).offsets
    tables = []
    for j in range(1, pipeline.n_steps + 1):
        mask = (1 << pipeline.widths[j]) - 1
        table = [(perm(x) >> offsets[j]) & mask for x in range(1 << offsets[j])]
        tables.append(table if any(table) else None)
    return tuple(tables)


@given(
    seed=seeds,
    steps=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(STEP_KINDS), min_size=4, max_size=4),
    data=st.data(),
)
@example(seed=7, steps=3, kinds=["zero", "zero", "random", "random"], data=None)
@example(seed=9, steps=4, kinds=["random", "sparse", "random", "zero"], data=None)
@settings(max_examples=60, deadline=None)
def test_tableau_order_matches_closure(seed, steps, kinds, data):
    pipeline = _kinded_pipeline(seed, steps, kinds)
    gens = [step_involution(pipeline, i) for i in range(1, steps + 1)]
    group = closure(gens)
    layers = polycyclic_layers(pipeline)
    assert len(layers) == steps
    assert 1 << sum(layers) == len(group)
    # layer j counts the factor N_j / N_{j+1}, N_j the elements fixing registers 0..j-1
    bounds = layout(pipeline).offsets[1:] + (pipeline.total_width,)
    fixing = [
        sum(all(e(x) & ((1 << bound) - 1) == x for x in range(1 << bound)) for e in group.elements) for bound in bounds
    ]
    assert [fixing[j] // fixing[j + 1] for j in range(steps)] == [1 << d for d in layers]
    # products and inverses agree with the permutations they stand for
    tableaux = lifted_tableaux(pipeline)
    assert [g.tables for g in tableaux] == [_tableau_tables(g, pipeline) for g in gens]
    words = st.lists(st.integers(0, steps - 1), min_size=1, max_size=10)
    left, right = ([0], list(range(steps))) if data is None else (data.draw(words), data.draw(words))
    a, b = (reduce(lambda x, y: x * y, (tableaux[s] for s in w)) for w in (left, right))
    assert (a * b).tables == _tableau_tables(evaluate_word(gens, left + right), pipeline)
    # the generators are involutions, so the reversed word is the inverse
    assert b.inverse().tables == _tableau_tables(evaluate_word(gens, right[::-1]), pipeline)
    assert (a * b.inverse()).tables == _tableau_tables(evaluate_word(gens, left + right[::-1]), pipeline)
    assert (b * b.inverse()).is_identity and b.is_identity == perm_is_identity(evaluate_word(gens, right))


def test_identity_pipeline_layers():
    # the n-step 1-bit identity group is unitriangular: layer j has dimension j
    for n in range(2, 9):
        pipeline = PipelineSpec((1,) * (n + 1), (ID1,) * n)
        assert polycyclic_layers(pipeline, element_cap=1 << 36) == tuple(range(1, n + 1))


@pytest.mark.parametrize("cap, raises", [(63, True), (64, False)])
def test_polycyclic_cap_is_the_order(cap, raises):
    # the 3-step identity group has order 64: the cap fails exactly above it
    pipeline = PipelineSpec((1,) * 4, (ID1,) * 3)
    if raises:
        with pytest.raises(ClosureCapExceeded, match=f"the cap of {cap} elements"):
            polycyclic_layers(pipeline, element_cap=cap)
    else:
        assert polycyclic_layers(pipeline, element_cap=cap) == (1, 2, 3)
    with pytest.raises(ValueError, match="element_cap must be >= 1"):
        polycyclic_layers(pipeline, element_cap=0)


@pytest.mark.parametrize("high_only", [False, True])
@pytest.mark.parametrize("widths", [(2, 9, 1), (1, 2, 10), (3, 12), (1, 9, 2, 1)])
def test_tableau_order_with_registers_wider_than_a_byte(widths, high_only):
    # a layer vector packs entries of more than 8 bits as byte planes; with
    # high_only the steps writing a wide register set none of its low 8 bits
    fns = []
    for i in range(len(widths) - 1):
        f = random_fn(widths[i], widths[i + 1], 40 + i)
        if high_only and widths[i + 1] > 8:
            f = BoolFunc(f.arity_in, f.arity_out, tuple((v | 256) & ~255 for v in f.table))
        fns.append(f)
    pipeline = PipelineSpec(widths, tuple(fns))
    group = closure([step_involution(pipeline, i) for i in range(1, len(fns) + 1)])
    assert 1 << sum(polycyclic_layers(pipeline)) == len(group)
