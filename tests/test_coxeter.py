import math

import pytest
from hypothesis import given, settings, strategies as st

from involift import coxeter
from involift.coxeter import (
    BOUND_EXCEEDED,
    CONFIRMED,
    CoxeterMatrix,
    DEGENERATE,
    PROPER_QUOTIENT,
    VerificationReport,
    check_relations,
    claimed_coxeter_matrix,
    todd_coxeter,
    verify_pipeline,
)
from involift.lifting import (
    Perm,
    PipelineSpec,
    product_orders,
    random_pipeline,
)
from involift.permgroup import closure

from conftest import (
    ID1,
    evaluate_word,
    perm_compose,
    perm_identity,
    perm_is_identity,
    reference_closure,
    step_perms,
    zero_fn,
)

seeds = st.integers(0, 2**64 - 1)


def _dihedral_relators(m):
    return ((0, 0), (1, 1), (0, 1) * m)


def _dihedral_perms(m):
    """Two reflections of an m-gon, embedded into the 2^ceil(log2(m)) points
    by fixing everything beyond the polygon."""
    if m == 2:
        return Perm(2, (1, 0, 2, 3)), Perm(2, (0, 1, 3, 2))
    width = (m - 1).bit_length()
    size = 1 << width
    s1 = tuple((m - i) % m if i < m else i for i in range(size))
    s2 = tuple((1 - i) % m if i < m else i for i in range(size))
    return Perm(width, s1), Perm(width, s2)


def _germinate(perms):
    """Independent closure oracle: compose all pairs until a fixed point."""
    width = perms[0].total_width
    current = {perm_identity(width).mapping} | {p.mapping for p in perms}
    while True:
        extended = set(current)
        for a in current:
            for b in current:
                extended.add(tuple(a[v] for v in b))
        if len(extended) == len(current):
            return current
        current = extended


def test_coxeter_matrix_two_step(two_step_id):
    assert CoxeterMatrix(product_orders(two_step_id)).orders == ((1, 4), (4, 1))


def test_coxeter_matrix_three_step(three_step_id):
    assert CoxeterMatrix(product_orders(three_step_id)).orders == ((1, 4, 2), (4, 1, 4), (2, 4, 1))


def test_coxeter_matrix_rejects_duplicates():
    # lifted steps write different registers, so only two identities coincide
    pipeline = PipelineSpec((1, 1, 1), (zero_fn(1, 1), zero_fn(1, 1)))
    with pytest.raises(ValueError, match=">= 2"):
        CoxeterMatrix(product_orders(pipeline))


def test_coxeter_matrix_rejects_identity(two_step_zero_first):
    # the product with one identity is the other step, so the orders alone
    # look valid: the zero tables must be checked before the matrix is built
    assert product_orders(two_step_zero_first) == ((1, 2), (2, 1))


@given(seed=seeds)
@settings(max_examples=30)
def test_coxeter_matrix_symmetric_unit_diagonal(seed):
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    if any(f.is_constant_zero for f in pipeline.steps):
        return
    matrix = CoxeterMatrix(product_orders(pipeline))
    for i in range(matrix.n):
        assert matrix.orders[i][i] == 1
        for j in range(matrix.n):
            assert matrix.orders[i][j] == matrix.orders[j][i]


def test_coxeter_matrix_type_validation():
    with pytest.raises(ValueError, match="diagonal"):
        CoxeterMatrix(((2, 4), (4, 1)))
    with pytest.raises(ValueError, match="symmetric"):
        CoxeterMatrix(((1, 4), (3, 1)))
    with pytest.raises(ValueError, match=">= 2"):
        CoxeterMatrix(((1, 1), (1, 1)))
    with pytest.raises(TypeError):
        CoxeterMatrix(((1, None), (None, 1)))  # no infinite label: every claimed order is finite


def test_claimed_matrix():
    assert claimed_coxeter_matrix(3).orders == ((1, 4, 2), (4, 1, 4), (2, 4, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_claimed_relators_in_report_order(n):
    # the order `coxeter` and `verify` print: squares, braids, commutators
    squares = [(i, i) for i in range(n)]
    braids = [(k, k + 1) * 4 for k in range(n - 1)]
    commutators = [(p, q) * 2 for p in range(n) for q in range(p + 2, n)]
    assert list(claimed_coxeter_matrix(n).relators) == squares + braids + commutators


def _matrix(n, edges):
    """Coxeter matrix on n generators: each listed edge (i, j) gets its
    label, every other pair 2."""
    orders = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), m in edges.items():
        orders[i][j] = orders[j][i] = m
    return CoxeterMatrix(orders)


def _path(*labels):
    return _matrix(len(labels) + 1, {(k, k + 1): m for k, m in enumerate(labels)})


def _star(*arms):
    """Vertex 0 joined to one label-3 path of each given length."""
    edges = {}
    vertex = 1
    for length in arms:
        previous = 0
        for _ in range(length):
            edges[(previous, vertex)] = 3
            previous, vertex = vertex, vertex + 1
    return _matrix(vertex, edges)


def _gram_positive_definite(matrix):
    """Float oracle for a finite Coxeter group: the Gram matrix -cos(pi/m)
    has every Cholesky pivot above 1e-9.  Affine types have a zero pivot,
    which rounding leaves far below that margin."""
    n = matrix.n
    gram = [[-math.cos(math.pi / m) for m in row] for row in matrix.orders]
    lower = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = gram[j][j] - sum(lower[j][k] ** 2 for k in range(j))
        if pivot <= 1e-9:
            return False
        lower[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            lower[i][j] = (gram[i][j] - sum(lower[i][k] * lower[j][k] for k in range(j))) / lower[j][j]
    return True


FINITE_TYPES = {
    "A3": (_path(3, 3), 24),
    "B3": (_path(4, 3), 48),
    "D4": (_star(1, 1, 1), 192),
    "H3": (_path(5, 3), 120),
    "F4": (_path(3, 4, 3), 1152),
    **{f"I2({m})": (_path(m), 2 * m) for m in (2, 3, 4, 5, 6, 8)},
}


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_finite_types_enumerate_to_their_orders(name):
    matrix, order = FINITE_TYPES[name]
    assert _gram_positive_definite(matrix)
    assert todd_coxeter(matrix.n, matrix.relators, 100_000) == order


@pytest.mark.parametrize(
    "matrix",
    [
        _matrix(1, {}),
        _path(3, 3, 3, 3),  # A5
        _path(3, 3, 3, 4),  # B5
        _path(4, 3, 3, 3),  # B5, the 4 at the other end
        _star(1, 1, 2),  # D5
        _star(1, 1, 5),  # D8
        _star(1, 2, 2),  # E6
        _star(1, 2, 3),  # E7
        _star(1, 2, 4),  # E8
        _path(5, 3, 3),  # H4
        _path(3, 3, 5),  # H4, the 5 at the other end
        _path(12),  # I2(12)
        _matrix(5, {(0, 1): 3, (2, 3): 4}),  # A2 x B2 x A1
        claimed_coxeter_matrix(1),
        claimed_coxeter_matrix(2),  # I2(4)
    ],
    ids=[
        "A1", "A5", "B5", "B5r", "D5", "D8", "E6", "E7", "E8", "H4", "H4r", "I2(12)", "A2xB2xA1",
        "claimed1", "claimed2",
    ],
)
def test_is_finite_finite_types(matrix):
    # the Gram oracle reproduces the classification of finite types
    assert _gram_positive_definite(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        _matrix(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}),  # affine A2: a cycle
        _path(4, 4),  # affine C2
        _matrix(4, {(0, 1): 3, (0, 2): 3, (0, 3): 4}),  # affine B3
        _matrix(5, {(0, 1): 3, (0, 2): 3, (0, 3): 3, (0, 4): 3}),  # affine D4
        _star(2, 2, 2),  # affine E6
        _star(1, 3, 3),  # affine E7
        _star(1, 2, 5),  # affine E8
        _path(3, 3, 4, 3),  # affine F4
        _path(6, 3),  # affine G2
        _matrix(6, {(0, 1): 3, (0, 2): 3, (0, 3): 3, (3, 4): 3, (3, 5): 3}),  # affine D5
        _path(4, 3, 3, 4),  # affine C4
        _path(5, 3, 5),
        _path(3, 5, 3),
        _path(5, 3, 3, 3),
        _matrix(5, {(0, 1): 3, (2, 3): 4, (3, 4): 4}),  # A2 x affine C2
        *(claimed_coxeter_matrix(n) for n in range(3, 7)),
    ],
    ids=[
        "affine_A2", "affine_C2", "affine_B3", "affine_D4", "affine_E6", "affine_E7", "affine_E8",
        "affine_F4", "affine_G2", "affine_D5", "affine_C4", "5-3-5", "3-5-3", "5-3-3-3",
        "A2x_affine_C2", "claimed3", "claimed4", "claimed5", "claimed6",
    ],
)
def test_is_finite_infinite_types(matrix):
    # the Gram oracle reproduces the affine and indefinite types
    assert not _gram_positive_definite(matrix)


@pytest.mark.parametrize("n", range(1, 9))
def test_claimed_matrix_finite_iff_at_most_two_steps(n):
    # the rule `verify_pipeline` applies instead of enumerating, checked by the float oracle
    assert _gram_positive_definite(claimed_coxeter_matrix(n)) == (n <= 2)


def test_pipeline_presentation_two_steps():
    claimed = claimed_coxeter_matrix(2)
    assert claimed.n == 2
    assert claimed.relators == ((0, 0), (1, 1), (0, 1) * 4)


def test_pipeline_presentation_three_steps():
    relators = claimed_coxeter_matrix(3).relators
    assert (1, 2) * 4 in relators
    assert (0, 2) * 2 in relators


def test_pipeline_presentation_four_steps_counts():
    relators = claimed_coxeter_matrix(4).relators
    braids = [w for w in relators if len(w) == 8]
    commutators = [w for w in relators if len(w) == 4]
    squares = [w for w in relators if len(w) == 2]
    assert len(squares) == 4 and len(braids) == 3 and len(commutators) == 3
    assert set(commutators) == {(0, 2) * 2, (0, 3) * 2, (1, 3) * 2}


def test_check_relations_two_step(two_step_id):
    checks = check_relations(two_step_id, claimed_coxeter_matrix(2).relators)
    assert checks == (True,) * 3


def test_check_relations_three_step(three_step_id):
    checks = check_relations(three_step_id, claimed_coxeter_matrix(3).relators)
    assert checks == (True,) * 6


def test_check_relations_false_presentation(two_step_id):
    wrong = ((0, 0), (1, 1), (0, 1) * 2)
    assert check_relations(two_step_id, wrong) == (True, True, False)
    # witness: the square of the adjacent product moves packed state (1,0,0)
    g1, g2 = step_perms(two_step_id)
    s21 = perm_compose(g2, g1)
    s21_sq = perm_compose(s21, s21)
    assert s21_sq(two_step_id.pack_registers((1, 0, 0))) == two_step_id.pack_registers((1, 0, 1))


@given(seed=seeds)
@settings(max_examples=30)
def test_squares_and_distant_commutators_always_hold(seed):
    pipeline = random_pipeline(seed, steps=3, max_width=2)
    gens = step_perms(pipeline)
    relators = claimed_coxeter_matrix(3).relators
    for relator, holds in zip(relators, check_relations(pipeline, relators), strict=True):
        if len(relator) == 2 or len(relator) == 4:
            # squares (the XOR cancels) and distant commutators (disjoint
            # register support) hold for every lifting, degenerate or not
            assert holds
    assert perm_compose(gens[0], gens[2]) == perm_compose(gens[2], gens[0])


@given(seed=seeds, steps=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_check_relations_matches_evaluate_word(seed, steps, data):
    # register widths capped so that the steps + 1 registers span W <= 9 bits
    pipeline = random_pipeline(seed, steps=steps, max_width=9 // (steps + 1))
    gens = step_perms(pipeline)
    group = closure(pipeline)
    word = tuple(data.draw(st.lists(st.integers(0, steps - 1), max_size=12)))
    element = data.draw(st.integers(0, len(group) - 1))
    # a word followed by its reverse is trivial (the generators are
    # involutions); the shortest word of the last element is not, unless |G| = 1
    words = (word, word + word[::-1], group.words[element], group.words[-1])
    checks = check_relations(pipeline, words)
    assert checks == tuple(perm_is_identity(evaluate_word(gens, w)) for w in words)
    assert checks[1]
    assert checks[3] == (len(group) == 1)


def test_check_relations_length_twelve_relator(three_step_id):
    # R = f1 f2 f3 f1 f2 f1 f3 f2 f1 f3 f2 f3 holds on the 3-step identity group,
    # while its first eleven symbols do not
    r = (0, 1, 2, 0, 1, 0, 2, 1, 0, 2, 1, 2)
    gens = step_perms(three_step_id)
    checks = check_relations(three_step_id, (r, r[:-1]))
    assert checks == tuple(perm_is_identity(evaluate_word(gens, w)) for w in (r, r[:-1]))
    assert checks == (True, False)


def test_todd_coxeter_order_two_cyclic():
    assert todd_coxeter(1, ((0, 0),), 100) == 2


def test_todd_coxeter_two_step_presentation():
    assert todd_coxeter(2, claimed_coxeter_matrix(2).relators, 100) == 8


def test_todd_coxeter_klein_four():
    assert todd_coxeter(2, _dihedral_relators(2), 100) == 4


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_todd_coxeter_dihedral_family(m):
    abstract = todd_coxeter(2, _dihedral_relators(m), 1000)
    assert abstract == 2 * m
    s1, s2 = _dihedral_perms(m)
    assert len(reference_closure([s1, s2])) == 2 * m
    assert len(_germinate([s1, s2])) == 2 * m


def test_todd_coxeter_symmetric_and_hyperoctahedral():
    a2 = ((0, 0), (1, 1), (0, 1) * 3)
    assert todd_coxeter(2, a2, 1000) == 6
    a3 = ((0, 0), (1, 1), (2, 2), (0, 1) * 3, (1, 2) * 3, (0, 2) * 2)
    assert todd_coxeter(3, a3, 1000) == 24
    b3 = ((0, 0), (1, 1), (2, 2), (0, 1) * 4, (1, 2) * 3, (0, 2) * 2)
    assert todd_coxeter(3, b3, 1000) == 48


def test_todd_coxeter_bound_exceeded():
    assert todd_coxeter(3, claimed_coxeter_matrix(3).relators, 500) is None
    assert todd_coxeter(1, ((0, 0),), 1) is None


def test_todd_coxeter_deterministic():
    relators3 = claimed_coxeter_matrix(3).relators
    assert todd_coxeter(3, relators3, 2000) == todd_coxeter(3, relators3, 2000)
    relators2 = claimed_coxeter_matrix(2).relators
    assert todd_coxeter(2, relators2, 100) == todd_coxeter(2, relators2, 100)


def test_verify_two_step_confirmed(two_step_id):
    report = verify_pipeline(two_step_id)
    assert report.verdict == CONFIRMED
    assert report.concrete_order == 8 and report.abstract_order == 8
    assert report.isomorphism_established
    assert report.layer_dimensions == (1, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_identity_pipeline_order(n):
    # the n-step 1-bit identity group is unitriangular: order 2^(n(n+1)/2),
    # read from the spun layers without listing the group (n = 8 has 2^36 elements)
    report = verify_pipeline(PipelineSpec((1,) * (n + 1), (ID1,) * n), coset_cap=1000, element_cap=1 << 36)
    assert report.concrete_order == 2 ** (n * (n + 1) // 2)
    assert report.layer_dimensions == tuple(range(1, n + 1))
    assert report.verdict == (CONFIRMED if n == 2 else BOUND_EXCEEDED)


@pytest.mark.parametrize("cap", [1, 500, 100_000])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_verify_infinite_type_skips_enumeration(monkeypatch, n, cap):
    def refuse(generator_count, relators, coset_cap):
        raise AssertionError("coset enumeration ran on an infinite-type presentation")

    monkeypatch.setattr(coxeter, "todd_coxeter", refuse)
    report = verify_pipeline(PipelineSpec((1,) * (n + 1), (ID1,) * n), coset_cap=cap)
    assert report.verdict == BOUND_EXCEEDED
    assert report.abstract_order is None
    assert report.concrete_order == 2 ** (n * (n + 1) // 2)


def test_verify_degenerate(two_step_zero_first):
    report = verify_pipeline(two_step_zero_first)
    assert report.verdict == DEGENERATE
    assert report.concrete_order == 2
    assert not report.isomorphism_established


def test_verify_three_step_bounded_or_quotient(three_step_id):
    report = verify_pipeline(three_step_id, coset_cap=2000)
    assert report.verdict in {PROPER_QUOTIENT, BOUND_EXCEEDED}
    assert report.verdict != CONFIRMED
    assert report.concrete_order == 64  # unitriangular 4x4 group over GF(2)


def test_verify_single_step_pipeline():
    confirmed = verify_pipeline(PipelineSpec((1, 1), (ID1,)))
    assert confirmed.verdict == CONFIRMED
    assert confirmed.concrete_order == 2 and confirmed.abstract_order == 2
    degenerate = verify_pipeline(PipelineSpec((1, 1), (zero_fn(1, 1),)))
    assert degenerate.verdict == DEGENERATE and degenerate.concrete_order == 1


def test_verification_report_invariants():
    with pytest.raises(ValueError, match="CONFIRMED"):
        VerificationReport(verdict=CONFIRMED, layer_dimensions=(1, 2), abstract_order=16)
    with pytest.raises(ValueError, match="PROPER_QUOTIENT"):
        VerificationReport(verdict=PROPER_QUOTIENT, layer_dimensions=(1, 2), abstract_order=8)
