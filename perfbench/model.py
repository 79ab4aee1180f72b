"""Reference model of a lifted pipeline, and the known-answer checks.

Everything here is computed from the truth tables alone, independently of
involift: the benchmark never reads an expected answer back from the program
under test.  A lifted step i is the involution

    s -> s XOR (f_i(register i-1 of s) << offset of register i)

on the packed state (register 0 in the low bits).  Permutations are lists;
(p after q)(s) = p[q[s]], and a word applies its rightmost symbol first.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cached_property

# Reference closures are kept to small state spaces (W <= 9, at most 512
# points); larger groups get their orders from theory instead.
REFERENCE_WIDTH_CAP = 9
# Sampled Cayley-table entries checked per --cayley report.
CAYLEY_SAMPLES = 512


@dataclass(frozen=True)
class Pipeline:
    widths: tuple[int, ...]
    tables: tuple[tuple[int, ...], ...]
    name: str = ""

    @classmethod
    def random(cls, rng: random.Random, widths) -> "Pipeline":
        widths = tuple(widths)
        tables = tuple(
            tuple(rng.getrandbits(widths[i + 1]) for _ in range(1 << widths[i])) for i in range(len(widths) - 1)
        )
        return cls(widths, tables)

    @classmethod
    def identity(cls, n: int) -> "Pipeline":
        """The n-step identity pipeline on 1-bit registers."""
        return cls((1,) * (n + 1), ((0, 1),) * n, f"{n}-step identity on 1-bit registers")

    @classmethod
    def from_document(cls, text: str) -> "Pipeline":
        doc = json.loads(text)
        return cls(
            tuple(doc["registers"]),
            tuple(tuple(int(v, 16) for v in f["table"]) for f in doc["functions"]),
            doc.get("name", ""),
        )

    def document(self) -> str:
        doc = {
            "format_version": 1,
            "registers": list(self.widths),
            "functions": [{"table": [format(v, "x") for v in t]} for t in self.tables],
        }
        if self.name:
            doc["name"] = self.name
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @property
    def n(self) -> int:
        return len(self.tables)

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(sum(self.widths[:i]) for i in range(len(self.widths)))

    @property
    def has_zero_table(self) -> bool:
        return any(not any(t) for t in self.tables)

    def step(self, i: int, state: int) -> int:
        """Lifted step i (1-based) applied to one packed state."""
        off = self.offsets
        src = (state >> off[i - 1]) & ((1 << self.widths[i - 1]) - 1)
        return state ^ (self.tables[i - 1][src] << off[i])

    def apply_word(self, word, state: int) -> int:
        for i in reversed(word):
            state = self.step(i, state)
        return state

    def registers(self, state: int) -> list[int]:
        return [(state >> o) & ((1 << w) - 1) for o, w in zip(self.offsets, self.widths)]

    def chained(self, x: int) -> list[int]:
        values = [x]
        for t in self.tables:
            values.append(t[values[-1]])
        return values

    # -- group theory on the full state space, for small W only ------------

    @cached_property
    def generators(self) -> list[tuple[int, ...]]:
        return [tuple(self.step(i, s) for s in range(1 << self.total_width)) for i in range(1, self.n + 1)]

    @cached_property
    def product_orders(self) -> list[list[int]]:
        g = self.generators
        return [[perm_order(compose(g[i], g[j])) for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def group(self) -> list[tuple[int, ...]]:
        """All elements of the generated group, by breadth-first search."""
        if self.total_width > REFERENCE_WIDTH_CAP:
            raise ValueError("reference closure is limited to small widths")
        identity = tuple(range(1 << self.total_width))
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in self.generators:
                for e in frontier:
                    p = compose(g, e)
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        return list(seen)

    @cached_property
    def histogram(self) -> dict[str, int]:
        counts: dict[int, int] = {}
        for p in self.group:
            k = perm_order(p)
            counts[k] = counts.get(k, 0) + 1
        return {str(k): counts[k] for k in sorted(counts)}

    @property
    def nondegenerate(self) -> bool:
        """No identity generator, pairwise distinct, adjacent products of order 4."""
        g = self.generators
        if self.has_zero_table or len(set(g)) != len(g):
            return False
        return all(self.product_orders[i + 1][i] == 4 for i in range(self.n - 1))

    def relators(self) -> list[tuple[int, ...]]:
        """The paper's claimed presentation, in the order involift lists it."""
        n = self.n
        words = [(i, i) for i in range(1, n + 1)]
        words += [(k, k + 1) * 4 for k in range(1, n)]
        words += [(p, q) * 2 for p in range(1, n + 1) for q in range(p + 2, n + 1)]
        return words

    def evaluate(self, word) -> tuple[int, ...]:
        acc = tuple(range(1 << self.total_width))
        for i in word:
            acc = compose(acc, self.generators[i - 1])
        return acc


def compose(p, q) -> tuple[int, ...]:
    return tuple(p[v] for v in q)


def perm_order(p) -> int:
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = 1
            cursor = p[cursor]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def is_power_of_two(k) -> bool:
    return isinstance(k, int) and k > 0 and k & (k - 1) == 0


def identity_order(n: int) -> int:
    """|G| of the n-step 1-bit identity pipeline: the unitriangular group."""
    return 2 ** (n * (n + 1) // 2)


# ---------------------------------------------------------------------------
# known-answer checks: each takes (exit code, report results) and returns a
# list of problems, empty when the answer is right.


def _hex(values) -> list[str]:
    return [format(v, "x") for v in values]


def check_lift(p: Pipeline):
    def check(rc, res):
        errors = [] if rc == 0 else [f"exit {rc}, expected 0"]
        want = {"widths": list(p.widths), "offsets": list(p.offsets), "total_width": p.total_width}
        if res["layout"] != want:
            errors.append(f"layout {res['layout']} != {want}")
        for i, step in enumerate(res["steps"], start=1):
            zero = not any(p.tables[i - 1])
            if step["order"] != (1 if zero else 2) or step["is_identity"] != zero:
                errors.append(f"step {i}: order {step['order']}, table all zero: {zero}")
            if (step["arity_in"], step["arity_out"]) != p.widths[i - 1 : i + 1]:
                errors.append(f"step {i}: wrong arities")
        if len(res["steps"]) != p.n:
            errors.append("wrong step count")
        return errors

    return check


def check_run(p: Pipeline, x: int):
    chained = _hex(p.chained(x))
    initial = _hex([x] + [0] * p.n)

    def check(rc, res):
        errors = [] if rc == 0 else [f"exit {rc}, expected 0"]
        if res["trace"] != chained or res["direct"] != chained:
            errors.append(f"trace {res['trace']} / direct {res['direct']} != chained tables {chained}")
        if res["restored"] != initial or res["restoration_ok"] is not True:
            errors.append(f"restored {res['restored']} != initial {initial}")
        return errors

    return check


def check_qrun(p: Pipeline, word, values, superpose, measure: int, shots: int):
    """Word is a list of 1-based step indices, rightmost applied first."""
    base = sum(v << o for v, o in zip(values, p.offsets))
    if superpose is None:
        states = [(base, 1.0)]
    else:
        w = p.widths[superpose]
        states = [(base | (v << p.offsets[superpose]), 2.0**-w) for v in range(1 << w)]
    expected: dict[str, float] = {}
    for s, prob in states:
        key = format(p.registers(p.apply_word(word, s))[measure], "x")
        expected[key] = expected.get(key, 0.0) + prob

    def check(rc, res):
        errors = [] if rc == 0 else [f"exit {rc}, expected 0"]
        dist = res["distribution"]
        if set(dist) != set(expected) or any(abs(dist[k] - expected[k]) > 1e-9 for k in expected):
            errors.append(f"distribution {dist} != hand-applied marginal {expected}")
        counts = res["counts"]
        if sum(counts.values()) != shots:
            errors.append(f"counts sum to {sum(counts.values())}, not {shots} shots")
        if not set(counts) <= set(expected):
            errors.append(f"counts {sorted(counts)} fall outside the support {sorted(expected)}")
        if res["word"] != [f"f{i}" for i in word]:
            errors.append(f"word {res['word']}")
        return errors

    return check


def _check_orders(res, order: int, histogram: dict[str, int]) -> list[str]:
    errors = []
    if res["order"] != order:
        errors.append(f"order {res['order']} != {order}")
    hist = res["order_histogram"]
    if not is_power_of_two(res["order"]) or not all(is_power_of_two(int(k)) for k in hist):
        errors.append(f"order {res['order']} or an element order in {hist} is not a power of two")
    if sum(hist.values()) != res["order"]:
        errors.append(f"histogram {hist} does not sum to the order {res['order']}")
    if hist != histogram:
        errors.append(f"histogram {hist} != reference {histogram}")
    return errors


def check_group(p: Pipeline, cayley: bool, order: int | None = None):
    """order: the order known from theory; the reference closure is always
    consulted as well, since every workload keeps group ops at W <= 9."""
    ref_order = len(p.group)
    histogram = p.histogram
    dihedral = ref_order == 8 and "4" in histogram
    nondegenerate = p.nondegenerate

    def check(rc, res):
        errors = [] if rc == 0 else [f"exit {rc}, expected 0"]
        if order is not None and ref_order != order:
            errors.append(f"reference closure order {ref_order} != theory {order}")
        errors += _check_orders(res, ref_order, histogram)
        if res["nondegenerate"] != nondegenerate or bool(res["defects"]) == nondegenerate:
            errors.append(f"nondegenerate {res['nondegenerate']} != {nondegenerate}")
        if res["dihedral_8"] != dihedral:
            errors.append(f"dihedral_8 {res['dihedral_8']} != {dihedral}")
        if cayley:
            errors += _check_cayley(p, res)
        return errors

    return check


def _check_cayley(p: Pipeline, res) -> list[str]:
    words = [[int(s[1:]) for s in w] for w in res["words"]]
    table = res["cayley"]
    size = len(p.group)
    if len(words) != size or len(table) != size:
        return [f"{len(words)} words, {len(table)} rows for a group of order {size}"]
    elements = [p.evaluate(w) for w in words]
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != size or words[0]:
        return ["words are not distinct elements starting at the identity"]
    full = list(range(size))
    if any(sorted(row) != full for row in table):
        return ["a Cayley row is not a permutation of the elements"]
    rng = random.Random(size)
    for _ in range(CAYLEY_SAMPLES):
        i, j = rng.randrange(size), rng.randrange(size)
        if table[i][j] != index[compose(elements[i], elements[j])]:
            return [f"cayley[{i}][{j}] = {table[i][j]} is not the product of its words"]
    return []


def check_coxeter(p: Pipeline):
    claimed = [[1 if i == j else 4 if abs(i - j) == 1 else 2 for j in range(p.n)] for i in range(p.n)]
    empirical = [[1 if i == j else p.product_orders[i][j] for j in range(p.n)] for i in range(p.n)]

    def check(rc, res):
        errors = [] if rc == 0 else [f"exit {rc}, expected 0"]
        if res["degenerate"] != p.has_zero_table:
            return errors + [f"degenerate {res['degenerate']} != table all zero {p.has_zero_table}"]
        if res["degenerate"]:
            return errors
        if res["empirical_matrix"] != empirical:
            errors.append(f"empirical matrix {res['empirical_matrix']} != {empirical}")
        if res["claimed_matrix"] != claimed or res["matches_claimed"] != (empirical == claimed):
            errors.append("claimed matrix or match flag wrong")
        return errors

    return check


def check_verify(p: Pipeline, order: int | None = None):
    """order: the concrete order when known from theory; otherwise the
    reference closure gives it."""
    concrete = order if order is not None else len(p.group)
    relators = [[f"f{i}" for i in w] for w in p.relators()]
    holds = [p.evaluate(w) == tuple(range(1 << p.total_width)) for w in p.relators()]
    degenerate = p.has_zero_table

    product_orders = p.product_orders

    def check(rc, res):
        errors = []
        verdict = res["verdict"]
        if rc != (2 if verdict == "BOUND_EXCEEDED" else 0):
            errors.append(f"exit {rc} does not match verdict {verdict}")
        if (verdict == "DEGENERATE") != degenerate:
            errors.append(f"verdict {verdict}, but a table all zero: {degenerate}")
        elif not degenerate and p.n == 2:
            want = "CONFIRMED" if concrete == 8 else "PROPER_QUOTIENT"
            if verdict != want or res["abstract_order"] != 8:
                errors.append(f"verdict {verdict} with abstract order {res['abstract_order']}, expected {want} and 8")
        elif not degenerate and verdict not in ("BOUND_EXCEEDED", "PROPER_QUOTIENT"):
            errors.append(f"verdict {verdict} for {p.n} steps, expected BOUND_EXCEEDED or PROPER_QUOTIENT")
        if res["concrete_order"] != concrete or not is_power_of_two(res["concrete_order"]):
            errors.append(f"concrete order {res['concrete_order']} != {concrete}")
        got = [r["relator"] for r in res["relations"]]
        if got != relators or [r["holds"] for r in res["relations"]] != holds or res["relations_hold"] != all(holds):
            errors.append("relation checks differ from the reference evaluation")
        if res["product_orders"] != product_orders:
            errors.append(f"product orders {res['product_orders']} != {product_orders}")
        if res["isomorphism_established"] != (verdict == "CONFIRMED"):
            errors.append("isomorphism_established disagrees with the verdict")
        return errors

    return check
