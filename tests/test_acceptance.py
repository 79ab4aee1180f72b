"""End-to-end acceptance checks.

Each test covers one exit criterion and prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Expected
values are exact permutation identities or frozen oracle results; the only
tolerances are the documented amplitude (1e-12) and sampling (+/- 0.03)
bounds.
"""

import functools
import itertools
import json
import time

from involift.boolfn import random_fn
from involift.coxeter import (
    CONFIRMED,
    DEGENERATE,
    PROPER_QUOTIENT,
    claimed_coxeter_matrix,
    verify_pipeline,
)
from involift.lifting import (
    Perm,
    PipelineSpec,
    product_orders,
    run_classical,
    word_action,
)
from involift.cli import main
from involift.permgroup import _tables, closure
from involift.quantum import AMPLITUDE_TOLERANCE, apply_steps, basis_state, measure, uniform_superposition

from conftest import (
    cayley_table,
    emit_pipeline,
    evaluate_word,
    identity_fn,
    is_nondegenerate,
    perm_compose,
    perm_identity,
    perm_is_identity,
    perm_order,
    perm_tables,
    random_state,
    reference_closure,
    state_norm,
    step_perm,
    step_perms,
    todd_coxeter,
    zero_fn,
)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return decorate


def _two_step(pipeline):
    return step_perm(pipeline, 0), step_perm(pipeline, 1)


def _group_results(pipeline, tmp_path):
    """The results of the ``group`` command's JSON report on the pipeline."""
    path, report = tmp_path / "pipeline.json", tmp_path / "group.json"
    path.write_text(emit_pipeline(pipeline), encoding="utf-8")
    assert main(["group", str(path), "--json", str(report)]) == 0
    return json.loads(report.read_text(encoding="utf-8"))["results"]


def _germinate(perms):
    """Independent group-order oracle: compose all pairs to a fixed point."""
    width = perms[0].total_width
    current = {perm_identity(width).mapping} | {p.mapping for p in perms}
    while True:
        extended = set(current)
        for a in current:
            for b in current:
                extended.add(tuple(a[v] for v in b))
        if len(extended) == len(current):
            return len(current)
        current = extended


@criterion("two-step product identities on 100 seeded pipelines")
def test_two_step_product_identities(pipeline_suite, rule_perm):
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

    started = time.perf_counter()
    assert len(pipeline_suite) == 100
    for pipeline in pipeline_suite:
        s1, s2 = _two_step(pipeline)
        # the lifted steps are involutions
        assert perm_is_identity(perm_compose(s1, s1))
        assert perm_is_identity(perm_compose(s2, s2))
        s21 = perm_compose(s2, s1)
        s12 = perm_compose(s1, s2)
        # adjacent products invert each other
        assert perm_is_identity(perm_compose(s12, s21)) and perm_is_identity(perm_compose(s21, s12))
        # closed forms of the mixed products
        assert s21 == rule_perm(pipeline, rule_s2s1)
        assert perm_compose(s1, s21) == rule_perm(pipeline, rule_s1s2s1)
        s21_sq = perm_compose(s21, s21)
        assert s21_sq == rule_perm(pipeline, rule_s2s1_squared)
        assert perm_compose(s1, s21_sq) == rule_perm(pipeline, rule_s1_s2s1_squared)
        s21_cu = perm_compose(s21, s21_sq)
        assert s21_cu == rule_perm(pipeline, rule_s2s1_cubed)
        assert perm_compose(s1, s21_cu) == s2
        s21_4th = perm_compose(s21, s21_cu)
        assert perm_is_identity(s21_4th)
        # power identities of the reversed product and the order-4 cycle sets
        s12_sq = perm_compose(s12, s12)
        s12_cu = perm_compose(s12, s12_sq)
        assert s12 == s21_cu and s12_sq == s21_sq and s12_cu == s21
        assert perm_is_identity(perm_compose(s12, s12_cu))
        assert perm_is_identity(perm_compose(s21_sq, s21_sq))  # the square is self-inverse
        assert {s21.mapping, s21_sq.mapping, s21_cu.mapping, s21_4th.mapping} == {
            s12.mapping,
            s12_sq.mapping,
            s12_cu.mapping,
            s21_4th.mapping,
        }
    assert time.perf_counter() - started < 5.0


@criterion("nondegenerate two-step closures are dihedral of order 8")
def test_two_step_group_is_dihedral_8(pipeline_suite, tmp_path):
    checked = 0
    for pipeline in pipeline_suite:
        s1, s2 = _two_step(pipeline)
        if not is_nondegenerate(pipeline):
            continue
        started = time.perf_counter()
        results = _group_results(pipeline, tmp_path)
        assert results["order"] == 8 and results["dihedral_8"] is True
        # the rotation f1 f2 has order 4, and the closure holds it in table form
        rotation = perm_compose(s1, s2)
        assert perm_order(rotation) == 4
        group = closure(pipeline)
        assert _tables(pipeline, group.elements[group.left[0][group.left[1][0]]]) == perm_tables(rotation, pipeline)
        assert time.perf_counter() - started < 1.0
        checked += 1
    assert checked >= 30, f"suite produced only {checked} nondegenerate pipelines"


@criterion("invertible evaluation reproduces direct traces and restores inputs")
def test_invertible_evaluation_matches_direct():
    for steps in (2, 3):
        for combo_index, widths in enumerate(itertools.product((1, 2, 3), repeat=steps + 1)):
            fns = tuple(
                random_fn(widths[i], widths[i + 1], seed=10_000 + 100 * steps + 7 * combo_index + i)
                for i in range(steps)
            )
            pipeline = PipelineSpec(widths, fns)
            gens = step_perms(pipeline)
            fwd = evaluate_word(gens, range(steps - 1, -1, -1))
            reverse = evaluate_word(gens, range(steps))
            for x in range(1 << widths[0]):
                value = x
                expected = [x]
                for f in fns:
                    value = f(value)
                    expected.append(value)
                assert run_classical(pipeline, x) == tuple(expected)
                initial = pipeline.pack_registers((x,) + (0,) * steps)
                final = fwd(initial)
                assert pipeline.unpack_registers(final) == tuple(expected)
                assert reverse(final) == initial
                assert word_action(pipeline, range(steps - 1, -1, -1))([initial]) == [final]
                assert word_action(pipeline, range(steps))([final]) == [initial]


@criterion("three-step identity pipeline has Coxeter matrix [[1,4,2],[4,1,4],[2,4,1]]")
def test_three_step_coxeter_matrix(three_step_id):
    started = time.perf_counter()
    assert product_orders(three_step_id) == ((1, 4, 2), (4, 1, 4), (2, 4, 1))
    gens = step_perms(three_step_id)
    assert [[perm_order(perm_compose(a, b)) for b in gens] for a in gens] == [[1, 4, 2], [4, 1, 4], [2, 4, 1]]
    assert time.perf_counter() - started < 1.0


@criterion("presentation verification: two-step confirmed, three-step checked not assumed")
def test_presentation_verification(two_step_id, three_step_id):
    started = time.perf_counter()
    assert todd_coxeter(2, claimed_coxeter_matrix(2).relators, 100_000) == 8
    report2 = verify_pipeline(two_step_id)
    assert report2.verdict == CONFIRMED
    assert report2.concrete_order == 8 and report2.abstract_order == 8
    assert time.perf_counter() - started < 1.0

    # a report is returned only when every claimed relation holds
    # the claimed three-step group is infinite, so a finite group is a proper quotient
    report3 = verify_pipeline(three_step_id)
    assert report3.verdict == PROPER_QUOTIENT
    assert report3.abstract_order is None
    gens = step_perms(three_step_id)
    assert report3.concrete_order == _germinate(gens)


@criterion("coset enumeration matches the dihedral family oracle")
def test_dihedral_family_oracle():
    started = time.perf_counter()
    for m in (2, 3, 4, 5, 6):
        assert todd_coxeter(2, ((0, 0), (1, 1), (0, 1) * m), 1000) == 2 * m
        if m == 2:
            s1, s2 = Perm(2, (1, 0, 2, 3)), Perm(2, (0, 1, 3, 2))
        else:
            width = (m - 1).bit_length()
            size = 1 << width
            s1 = Perm(width, tuple((m - i) % m if i < m else i for i in range(size)))
            s2 = Perm(width, tuple((1 - i) % m if i < m else i for i in range(size)))
        assert len(reference_closure((s1, s2))) == 2 * m
        assert _germinate((s1, s2)) == 2 * m
    assert time.perf_counter() - started < 2.0


@criterion("word unitaries represent every small nondegenerate two-step group")
def test_unitary_representation_exhaustive(pipeline_suite):
    # U(words[a]) U(words[b]) = U(words[a b]) for all 64 pairs, and so does the
    # concatenated word: a unitary depends only on its element, not on the word
    started = time.perf_counter()
    checked = 0
    for k, pipeline in enumerate(pipeline_suite):
        if pipeline.total_width > 6:
            continue
        if not is_nondegenerate(pipeline):
            continue
        group = closure(pipeline)
        assert len(group) == 8
        cayley = cayley_table(group)
        for a in range(8):
            for b in range(8):
                for trial in range(5):
                    state = random_state(pipeline.total_width, 50_000 + 1000 * k + 64 * trial + 8 * a + b)
                    product = apply_steps(pipeline, group.words[cayley[a][b]], state)
                    assert apply_steps(pipeline, group.words[a], apply_steps(pipeline, group.words[b], state)) == product
                    assert apply_steps(pipeline, group.words[a] + group.words[b], state) == product
        checked += 1
    assert checked >= 10, f"suite produced only {checked} small nondegenerate pipelines"
    assert time.perf_counter() - started < 10.0


@criterion("quantum evaluation matches the classical pipeline and samples fairly")
def test_quantum_evaluation(pipeline_suite, two_step_id):
    started = time.perf_counter()
    for k, pipeline in enumerate(pipeline_suite):
        assert pipeline.total_width <= 9
        f, g = pipeline.steps
        for x in range(1 << pipeline.widths[0]):
            out = apply_steps(pipeline, (1, 0), basis_state(pipeline, (x, 0, 0)))
            expected = basis_state(pipeline, (x, f(x), g(f(x))))
            assert out.amplitudes == expected.amplitudes
            shots = measure(out, pipeline, 2, seed=60_000 + 17 * k + x, shots=20)
            assert shots.counts == {g(f(x)): 20}

    prepared = uniform_superposition(two_step_id, 0, basis_state(two_step_id, (0, 0, 0)))
    out = apply_steps(two_step_id, (1, 0), prepared)
    assert abs(state_norm(out) - 1.0) <= AMPLITUDE_TOLERANCE
    result = measure(out, two_step_id, 2, seed=20250810, shots=10_000)
    for value in (0, 1):
        assert abs(result.counts.get(value, 0) / 10_000 - 0.5) <= 0.03
    assert time.perf_counter() - started < 5.0


@criterion("constant-zero steps yield DEGENERATE verdicts, never a false dihedral claim")
def test_zero_step_degeneracy(tmp_path):
    cases = [
        PipelineSpec((1, 1, 1), (zero_fn(1, 1), identity_fn(1))),
        PipelineSpec((1, 1, 1), (zero_fn(1, 1), zero_fn(1, 1))),
        PipelineSpec((2, 2, 2), (zero_fn(2, 2), identity_fn(2))),
        PipelineSpec((1, 2, 1), (zero_fn(1, 2), random_fn(2, 1, seed=5))),
    ]
    for pipeline in cases:
        report = verify_pipeline(pipeline)
        assert report.verdict == DEGENERATE
        group = closure(pipeline)
        assert len(group) in (1, 2)
        assert report.concrete_order == len(group)
        assert _group_results(pipeline, tmp_path)["dihedral_8"] is False
