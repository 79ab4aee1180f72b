import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from involift import cli, permgroup
from involift.boolfn import BoolFunc, random_fn
from involift.cli import main
from involift.lifting import (
    DEFAULT_WIDTH_CAP,
    LiftingCheckFailed,
    Perm,
    PipelineSpec,
    product_orders,
    random_pipeline,
    word_action,
)
from involift.permgroup import (
    ClosureCapExceeded,
    _tables,
    closure,
    element_order_histogram,
    layer_dimensions,
    word_tableau,
)
from involift.rng import SplitMix64

from conftest import (
    ID1,
    cayley_table,
    emit_pipeline,
    evaluate_word,
    is_nondegenerate,
    perm_compose,
    perm_identity,
    perm_is_identity,
    perm_order,
    perm_tables,
    reference_cayley,
    reference_closure,
    step_perm,
    step_perms,
    walked_orders,
    zero_fn,
)

seeds = st.integers(0, 2**64 - 1)


def _two_step_gens(pipeline):
    return step_perm(pipeline, 0), step_perm(pipeline, 1)


ONE_ZERO_STEP = PipelineSpec((1, 1), (zero_fn(1, 1),))


def _brute_force_order(perm):
    power = perm
    k = 1
    while not perm_is_identity(power):
        power = perm_compose(power, perm)
        k += 1
    return k


def test_perm_compose_identity_law(two_step_id):
    s1, _ = _two_step_gens(two_step_id)
    assert perm_compose(s1, perm_identity(3)) == s1
    assert perm_compose(perm_identity(3), s1) == s1


def test_perm_compose_width_mismatch():
    with pytest.raises(ValueError, match="width mismatch"):
        perm_compose(perm_identity(2), perm_identity(3))


@given(seed=seeds)
@settings(max_examples=50)
def test_perm_compose_forward_trace(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    f, g = pipeline.steps
    s1, s2 = _two_step_gens(pipeline)
    s21 = perm_compose(s2, s1)
    for x in range(1 << pipeline.widths[0]):
        assert pipeline.unpack_registers(s21(pipeline.pack_registers((x, 0, 0)))) == (x, f(x), g(f(x)))
    assert perm_is_identity(perm_compose(perm_compose(s1, s2), s21))


def test_perm_inverse_examples(two_step_id):
    # q is the inverse of p when p after q is the identity
    s1, s2 = _two_step_gens(two_step_id)
    assert perm_is_identity(perm_compose(perm_identity(3), perm_identity(3)))
    assert perm_is_identity(perm_compose(s1, s1))
    s21 = perm_compose(s2, s1)
    s21_cu = perm_compose(s21, perm_compose(s21, s21))
    assert perm_is_identity(perm_compose(s21, s21_cu)) and perm_is_identity(perm_compose(s21_cu, s21))
    assert not perm_is_identity(perm_compose(s21, s21))


def test_perm_order_examples(two_step_id, two_step_zero_first):
    s1, s2 = _two_step_gens(two_step_id)
    assert perm_order(perm_identity(3)) == 1
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
    grp = closure(two_step_id)
    assert len(grp) == 8
    assert grp.elements[0] == 0
    assert grp.words[0] == ()


def test_closure_identity_generator_only():
    grp = closure(ONE_ZERO_STEP)
    assert len(grp) == 1


def test_closure_degenerate_two_elements(two_step_zero_first):
    s1, s2 = _two_step_gens(two_step_zero_first)
    grp = closure(two_step_zero_first)
    assert len(grp) == 2
    assert {_tables(two_step_zero_first, e) for e in grp.elements} == {
        perm_tables(perm_identity(3), two_step_zero_first),
        perm_tables(s2, two_step_zero_first),
    }


def test_closure_cap_exceeded(two_step_id):
    with pytest.raises(ClosureCapExceeded, match="the cap of 4 elements"):
        closure(two_step_id, element_cap=4)
    assert len(closure(two_step_id, element_cap=8)) == 8
    with pytest.raises(ValueError, match="element_cap must be >= 1"):
        closure(two_step_id, element_cap=0)


def _tableau_image(tableau, pipeline, s):
    """The image of the packed state s under a tableau: register j of the
    image is register j of s XOR T_j at the lower registers of s."""
    offsets = pipeline.offsets
    image = s
    for j, t in enumerate(tableau, start=1):
        if t is not None:
            image ^= t[s & ((1 << offsets[j]) - 1)] << offsets[j]
    return image


def _tableau_mapping(tableau, pipeline):
    """The 2^W-point mapping of a tableau."""
    return [_tableau_image(tableau, pipeline, s) for s in range(1 << pipeline.total_width)]


def test_word_action_matches_word_tableau():
    # the package's two evaluators of a word, the per-state action and the
    # tableau, agree on seeded states, up to the 20-bit width cap (the
    # reference permutations stop at W <= 12)
    pipelines = [random_pipeline(700 + k, steps=2 + k % 4, max_width=3) for k in range(6)]
    for k, widths in enumerate(((4, 4, 4, 8), (2, 3, 5, 10), (1, 2, 3, 14), (5, 5, 10), (6, 6, 6, 2))):
        steps = tuple(random_fn(a, b, 800 + 10 * k + i) for i, (a, b) in enumerate(zip(widths, widths[1:])))
        pipelines.append(PipelineSpec(widths, steps))
    assert max(p.total_width for p in pipelines) == DEFAULT_WIDTH_CAP
    rng = SplitMix64(900)
    for pipeline in pipelines:
        for _ in range(3):
            word = [rng.next_u64() % pipeline.n_steps for _ in range(rng.next_u64() % 9)]
            act = word_action(pipeline, word)
            tableau = word_tableau(pipeline, word)
            states = [rng.next_bits(pipeline.total_width) for _ in range(200)]
            assert act(states) == [_tableau_image(tableau, pipeline, x) for x in states]


@given(seed=seeds, steps=st.sampled_from([2, 3]))
@settings(max_examples=40)
def test_closure_elements_pass_perm_validation(seed, steps):
    # every tableau the closure lists expands to a bijection, the reference element
    pipeline = random_pipeline(seed, steps=steps, max_width=3 if steps == 2 else 2)
    width = pipeline.total_width
    assert width <= 9
    grp = closure(pipeline)
    reference = reference_closure(step_perms(pipeline))
    for element, expected in zip(grp.elements, reference.elements, strict=True):
        assert Perm(width, _tableau_mapping(_tables(pipeline, element), pipeline)) == expected
    collapsed = _tableau_mapping(_tables(pipeline, grp.elements[-1]), pipeline)
    collapsed[0] = collapsed[1]
    with pytest.raises(ValueError, match="not a bijection"):
        Perm(width, collapsed)


def test_closure_cayley_is_composition_table(two_step_id, three_step_id, two_step_zero_first):
    # the rows are gathered from earlier rows through the generator action
    # table; the reference composes every pair of permutations.  |G| = 1 is
    # one 1-entry row and |G| = 2 the first gather; S4 from a 4-cycle and a
    # transposition checks it, through the reference closure, with a
    # generator that is not an involution
    s4 = reference_closure([Perm(2, (1, 2, 3, 0)), Perm(2, (1, 0, 2, 3))])
    pipelines = (ONE_ZERO_STEP, two_step_zero_first, two_step_id, three_step_id)
    lifted = [(closure(p), reference_closure(step_perms(p))) for p in pipelines]
    for (grp, reference), order in zip((*lifted, (s4, s4)), (1, 2, 8, 64, 24), strict=True):
        assert len(grp) == order
        assert cayley_table(grp) == reference_cayley(reference)
    # the rows come mapped through any images, without an int table
    grp = lifted[2][0]
    decimals = tuple(map(str, range(len(grp))))
    assert list(grp.cayley_rows(decimals)) == [tuple(map(str, row)) for row in cayley_table(grp)]
    assert list(lifted[0][0].cayley_rows(["0"])) == [("0",)]


def test_words_are_minimal_and_evaluate_back(two_step_id):
    grp = closure(two_step_id)
    gens = step_perms(two_step_id)
    lengths = [len(w) for w in grp.words]
    assert lengths == sorted(lengths)  # BFS discovery order
    for e in range(len(grp)):
        assert perm_tables(evaluate_word(gens, grp.words[e]), two_step_id) == _tables(two_step_id, grp.elements[e])


def test_words_match_brute_force_enumeration(three_step_id):
    # enumerate all generator words in (length, lex) order; the first word
    # reaching each element is the canonical shortest word
    from itertools import product as cartesian

    for pipeline in (three_step_id, random_pipeline(321, steps=2, max_width=2)):
        gens = step_perms(pipeline)
        grp = closure(pipeline)
        expected = {}
        length = 0
        while len(expected) < len(grp):
            for word in cartesian(range(len(gens)), repeat=length):
                tables = perm_tables(evaluate_word(gens, word), pipeline)
                if tables not in expected:
                    expected[tables] = word
            length += 1
        for e, element in enumerate(grp.elements):
            assert grp.words[e] == expected[_tables(pipeline, element)]


def test_shortest_word_tie_break(two_step_id):
    s1, s2 = _two_step_gens(two_step_id)
    grp = closure(two_step_id)
    s21 = perm_compose(s2, s1)
    s21_sq = perm_tables(perm_compose(s21, s21), two_step_id)
    # (f2 f1)^2 equals (f1 f2)^2; the lexicographically smaller word wins
    tables = [_tables(two_step_id, e) for e in grp.elements]
    assert grp.words[tables.index(s21_sq)] == (0, 1, 0, 1)
    assert grp.words[0] == ()


def test_element_order_histogram(two_step_id, two_step_zero_first):
    assert element_order_histogram(closure(two_step_id)) == {1: 1, 2: 5, 4: 2}
    assert element_order_histogram(closure(ONE_ZERO_STEP)) == {1: 1}
    assert element_order_histogram(closure(two_step_zero_first)) == {1: 1, 2: 1}


@given(seed=seeds)
@settings(max_examples=30)
def test_cyclic_subgroups_coincide(seed):
    pipeline = random_pipeline(seed, steps=2, max_width=3)
    s1, s2 = _two_step_gens(pipeline)
    s21 = perm_compose(s2, s1)
    s12 = perm_compose(s1, s2)

    def powers(p):
        out = {perm_identity(p.total_width).mapping}
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
        if not is_nondegenerate(pipeline):
            continue
        grp = closure(pipeline)
        expected = {perm_tables(rule_perm(pipeline, rule), pipeline) for rule in make_rules()}
        assert {_tables(pipeline, e) for e in grp.elements} == expected
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
    # the conjugates are no lifted steps: the reference closes them
    conjugated = [perm_compose(sigma, perm_compose(g, sigma_inv)) for g in (s1, s2)]
    original = closure(two_step_id)
    image = reference_closure(conjugated)
    assert len(image) == len(original)
    assert element_order_histogram(image) == element_order_histogram(original)


def _reference_defects(gens):
    """The generator precondition computed from permutations: orders by
    cycle structure, equality by mapping, in the command line's words."""
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
    return defects


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
    gens = step_perms(pipeline)

    assert cli._defects(pipeline) == _reference_defects(gens)
    orders = product_orders(pipeline)
    assert orders == tuple(tuple(perm_order(perm_compose(a, b)) for b in gens) for a in gens)
    group = closure(pipeline)
    reference = reference_closure(gens)
    assert group.words == reference.words
    walked = permgroup._element_orders(group)
    assert walked == [perm_order(e) for e in reference.elements] == walked_orders(group)
    assert element_order_histogram(group) == dict(sorted(Counter(walked).items()))
    # every lifted group is a 2-group; neighbours give orders 1, 2 or 4, others 1 or 2
    assert _is_power_of_two(len(group))
    assert all(_is_power_of_two(k) for k in walked)
    for i, j in combinations(range(steps), 2):
        assert orders[i][j] in ({1, 2, 4} if j == i + 1 else {1, 2})


@given(seed=seeds, steps=st.integers(1, 4), kinds=st.lists(st.sampled_from(STEP_KINDS), min_size=4, max_size=4))
@example(seed=7, steps=3, kinds=["zero", "zero", "random", "random"])
@example(seed=8, steps=2, kinds=["constant", "constant", "random", "random"])
@example(seed=9, steps=4, kinds=["random", "sparse", "random", "zero"])
@example(seed=10, steps=1, kinds=["zero", "random", "random", "random"])
@settings(max_examples=60, deadline=None)
def test_closure_matches_reference(seed, steps, kinds):
    # the tableau closure lists the group exactly as the permutation BFS does
    pipeline = _kinded_pipeline(seed, steps, kinds)
    group = closure(pipeline)
    reference = reference_closure(step_perms(pipeline))
    assert len(group) == len(reference)
    assert group.words == reference.words
    assert group.left == reference.left
    assert group.parents == reference.parents
    # composing every pair of permutations is kept to the smaller groups
    assert cayley_table(group) == (reference_cayley(reference) if len(group) <= 64 else cayley_table(reference))
    assert len(group.left) == steps
    assert [_tables(pipeline, e) for e in group.elements] == [perm_tables(p, pipeline) for p in reference.elements]


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
    gens = step_perms(pipeline)
    group = closure(pipeline)
    layers = layer_dimensions(pipeline)
    assert len(layers) == steps
    assert 1 << sum(layers) == len(group)
    # layer j counts the factor N_j / N_{j+1}, N_j the elements fixing registers 0..j-1
    bounds = pipeline.offsets[1:] + (pipeline.total_width,)
    elements = reference_closure(gens).elements
    fixing = [sum(all(e(x) & ((1 << bound) - 1) == x for x in range(1 << bound)) for e in elements) for bound in bounds]
    assert [fixing[j] // fixing[j + 1] for j in range(steps)] == [1 << d for d in layers]
    # the tables of words agree with the permutations they stand for
    assert [word_tableau(pipeline, (s,)) for s in range(steps)] == [perm_tables(g, pipeline) for g in gens]
    words = st.lists(st.integers(0, steps - 1), min_size=1, max_size=10)
    left, right = ([0], list(range(steps))) if data is None else (data.draw(words), data.draw(words))
    assert word_tableau(pipeline, left + right) == perm_tables(evaluate_word(gens, left + right), pipeline)
    # the generators are involutions, so the reversed word is the inverse
    assert word_tableau(pipeline, right[::-1]) == perm_tables(evaluate_word(gens, right[::-1]), pipeline)
    assert any(word_tableau(pipeline, right)) != perm_is_identity(evaluate_word(gens, right))


def _tuple_closure(pipeline):
    """The closure's breadth-first search over tuples of tables in normal
    form, one :func:`permgroup._times_step` per product: elements, words,
    left and parents."""
    steps = [permgroup._step(pipeline, i) for i in range(pipeline.n_steps)]
    identity = (None,) * len(steps)
    elements, words, parents, index = [identity], [()], [0], {identity: 0}
    left = [[] for _ in steps]
    frontier = range(1)
    while frontier:
        for gi, step in enumerate(steps):
            for ei in frontier:
                product = permgroup._times_step(elements[ei], gi, step)
                k = index.get(product)
                if k is None:
                    k = index[product] = len(elements)
                    elements.append(product)
                    words.append((gi,) + words[ei])
                    parents.append(ei)
                left[gi].append(k)
        frontier = range(frontier.stop, len(elements))
    return elements, tuple(words), tuple(map(tuple, left)), tuple(parents)


def test_packed_closure_matches_tuple_closure():
    # the packed elements unpack to the tuples that one left multiplication
    # per product gives, in the same order, with the same words and tables,
    # up to 12 bits and registers of more than 8
    pipelines = [
        _kinded_pipeline(1000 + k, 1 + k % 4, [STEP_KINDS[(k + j) % 4 if k % 3 else 0] for j in range(4)])
        for k in range(48)
    ]
    pipelines += [PipelineSpec((1,) * (n + 1), (ID1,) * n) for n in range(1, 5)]
    pipelines += [PipelineSpec((2, 10), (random_fn(2, 10, 7),)), PipelineSpec((3, 9), (random_fn(3, 9, 8),))]
    assert len(pipelines) >= 50
    for pipeline in pipelines:
        group = closure(pipeline)
        elements, words, left, parents = _tuple_closure(pipeline)
        assert [_tables(pipeline, e) for e in group.elements] == elements
        assert (group.words, group.left, group.parents) == (words, left, parents)


def test_closure_order_must_be_a_power_of_two(tmp_path, capsys, monkeypatch):
    # every lifted group is a 2-group.  With the places of T_1 and T_2
    # swapped, step 2 reads the bits that step 1 writes and writes those it
    # reads, which breaks the construction, and the closure reports it
    fields = permgroup._fields

    def swapped(pipeline):
        (p1, w1, n1), (p2, w2, n2) = fields(pipeline)
        return [(p2, w1, n1), (p1, w2, n2)]

    monkeypatch.setattr(permgroup, "_fields", swapped)
    pipeline = random_pipeline(7, steps=2, max_width=2)
    with pytest.raises(LiftingCheckFailed, match="the lifted group has order 3, not a power of two"):
        closure(pipeline)
    path = tmp_path / "pipeline.json"
    path.write_text(emit_pipeline(pipeline), encoding="utf-8")
    assert main(["group", str(path)]) == 1
    assert capsys.readouterr().err == "error: internal check failed: the lifted group has order 3, not a power of two\n"


def test_identity_pipeline_layers():
    # the n-step 1-bit identity group is unitriangular: layer j has dimension j
    for n in range(2, 13):
        pipeline = PipelineSpec((1,) * (n + 1), (ID1,) * n)
        assert layer_dimensions(pipeline, element_cap=1 << 78) == tuple(range(1, n + 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_layer_dimensions_meet_the_proved_bound(n):
    # G_{j-1} fixes phi_j, so phi_j has at most [G_j : G_{j-1}] = 2^(dim V_{j-1})
    # images: dim V_0 <= 1 and dim V_j <= 2^(dim V_{j-1}), so |G| <= 128 for
    # n = 3.  A layer reads only the steps up to its own, so the layers of
    # each prefix extend those of the shorter one; the walk stops at the
    # prefix whose group passes 2^64 elements.
    for seed in range(30):
        pipeline = random_pipeline(600 + seed, steps=n, max_width=3 if n <= 4 else 2)
        layers = ()
        for k in range(1, n + 1):
            prefix = PipelineSpec(pipeline.widths[: k + 1], pipeline.steps[:k])
            try:
                longer = layer_dimensions(prefix, element_cap=1 << 64)
            except ClosureCapExceeded:
                break
            assert longer[:-1] == layers
            layers = longer
        assert layers[0] <= 1 and all(b <= 1 << a for a, b in zip(layers, layers[1:])), layers
        if n == 3:
            assert 1 << sum(layers) <= 128


def test_zero_steps_move_no_table(monkeypatch):
    # 18 zero steps and one identity step at W = 20: the zero steps are
    # skipped as moves, so the last layer's 2^19-entry table is formed once
    sizes = []
    vector = permgroup._vector

    def spy(table, width):
        sizes.append(len(table))
        return vector(table, width)

    monkeypatch.setattr(permgroup, "_vector", spy)
    pipeline = PipelineSpec((1,) * 20, (zero_fn(1, 1),) * 18 + (ID1,))
    assert layer_dimensions(pipeline) == (0,) * 18 + (1,)
    assert sizes.count(1 << 19) == 1


@pytest.mark.parametrize("cap, raises", [(63, True), (64, False)])
def test_polycyclic_cap_is_the_order(cap, raises):
    # the 3-step identity group has order 64: the cap fails exactly above it
    pipeline = PipelineSpec((1,) * 4, (ID1,) * 3)
    if raises:
        with pytest.raises(ClosureCapExceeded, match=f"the cap of {cap} elements"):
            layer_dimensions(pipeline, element_cap=cap)
    else:
        assert layer_dimensions(pipeline, element_cap=cap) == (1, 2, 3)
    with pytest.raises(ValueError, match="element_cap must be >= 1"):
        layer_dimensions(pipeline, element_cap=0)


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
    assert 1 << sum(layer_dimensions(pipeline)) == len(closure(pipeline))


def _in_normal_form(tableau):
    """Every table None or nonzero: the form that makes equal elements have
    equal tables."""
    return all(t is None or any(t) for t in tableau)


@given(
    seed=seeds,
    steps=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(STEP_KINDS), min_size=4, max_size=4),
    data=st.data(),
)
@example(seed=7, steps=3, kinds=["zero", "zero", "random", "random"], data=None)
@example(seed=8, steps=2, kinds=["constant", "constant", "random", "random"], data=None)
@example(seed=9, steps=4, kinds=["random", "sparse", "random", "zero"], data=None)
@settings(max_examples=60, deadline=None)
def test_every_operation_keeps_the_normal_form(seed, steps, kinds, data):
    pipeline = _kinded_pipeline(seed, steps, kinds)
    group = closure(pipeline)
    assert all(_in_normal_form(_tables(pipeline, e)) for e in group.elements)
    # a word and its reverse multiply to the identity, so a table written
    # back to zero by the XOR must come out None
    words = st.lists(st.integers(0, steps - 1), max_size=12)
    u, v = (list(range(steps)), [steps - 1, 0] * 3) if data is None else (data.draw(words), data.draw(words))
    assert all(t is None for t in word_tableau(pipeline, u + u[::-1]))
    for word in (u, v, u + v, v + u[::-1], *([s] for s in range(steps))):
        assert _in_normal_form(word_tableau(pipeline, word))
    assert all(t is None for s in range(steps) for t in word_tableau(pipeline, (s, s)))


def _reference_is_dihedral_8(reference):
    """Brute-force D8 test on a closure of permutations: order 8, with some
    a of order 4 and b of order 2 such that b a b = a^-1."""
    if len(reference) != 8:
        return False
    orders = [perm_order(e) for e in reference.elements]
    return any(
        perm_is_identity(perm_compose(perm_compose(b, perm_compose(a, b)), a))
        for a, ka in zip(reference.elements, orders)
        if ka == 4
        for b, kb in zip(reference.elements, orders)
        if kb == 2
    )


def test_group_dihedral_flag_matches_brute_force(tmp_path):
    # seeded 1-4-step pipelines with zero, constant and one-entry steps: the
    # order-8 groups among them are D8 and Z2^3, and the report tells them apart
    seen = Counter()
    for k in range(96):
        steps = 1 + k % 4
        kinds = [STEP_KINDS[(k // 4 + j * (k % 3 + 1)) % 4] for j in range(4)]
        pipeline = _kinded_pipeline(500 + k, steps, kinds)
        path = tmp_path / "pipeline.json"
        path.write_text(emit_pipeline(pipeline), encoding="utf-8")
        report = tmp_path / "group.json"
        assert main(["group", str(path), "--json", str(report)]) == 0
        results = json.loads(report.read_text(encoding="utf-8"))["results"]
        expected = _reference_is_dihedral_8(reference_closure(step_perms(pipeline)))
        assert results["dihedral_8"] is expected
        seen[results["order"], expected] += 1
    assert seen[8, True] and seen[8, False], seen
