"""The benchmark's workloads: seeded inputs, fixed op lists, known answers.

Each workload is a function of a seeded ``random.Random`` that writes its
pipeline documents and returns the op list.  An op is one CLI invocation
(argv without ``--json``), its known-answer check, computed here from the
truth tables before anything is timed, and its wall budget.  Every op runs
as ``involift.cli.main(argv + ["--json", report])``.

Why these workloads: the toolkit is one chain (lift the steps to
involutions, close the group, test the Coxeter presentation, act on qubit
states) and each command pays for a different part of it.  The three
workloads load disjoint parts of that chain, so a change to one layer shows
as a gain on the workload that loads it and as no change on the others.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from model import (
    Pipeline,
    check_coxeter,
    check_group,
    check_lift,
    check_qrun,
    check_run,
    check_verify,
    identity_order,
)

# The 5-step verify probe runs in its own child under these budgets.
PROBE_WALL_S = 6.0
PROBE_ADDRESS_SPACE_MB = 600
PROBE_NOTE = (
    "known to fail at the seed: verify on the 5-step identity pipeline builds the full "
    "|G|^2 = 1.07e9-entry Cayley table of its 32768-element group and does not finish "
    "within the budget; ROADMAP item 3 (lazy Cayley table, Schreier-Sims order) makes it pass"
)


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[int, dict], list[str]]
    budget_s: float
    isolate: bool = False  # run in its own child under PROBE_* budgets
    note: str = ""


class Inputs:
    """Writes the generated pipeline documents; the program sees only these."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, pipeline: Pipeline) -> str:
        path = self.directory / name
        path.write_text(pipeline.document(), encoding="utf-8")
        return str(path)


def _qrun(p: Pipeline, path: str, word, values, superpose, measure: int, seed: int, shots: int, budget_s: float) -> Op:
    argv = ["qrun", path, "--word", *[f"f{i}" for i in word], "--input", *[format(v, "x") for v in values]]
    if superpose is not None:
        argv += ["--superpose", str(superpose)]
    argv += ["--measure", str(measure), "--seed", str(seed), "--shots", str(shots)]
    return Op(argv, check_qrun(p, word, values, superpose, measure, shots), budget_s)


def wide_eval(rng: random.Random, inputs: Inputs) -> list[Op]:
    """One seeded random 3-step pipeline at the 20-bit width cap, widths
    (8, 4, 4, 4): lift, run for two inputs, qrun on a basis state and on
    register 0 in uniform superposition.

    Loads: lifting (every op materializes three to six full 2^20-point
    permutations and checks each for bijectivity) and quantum (qrun).  This
    is where wall_s, max_op_s and peak_rss_mb move when states are evaluated
    without building permutations.  Leaves idle: closure and Cayley tables
    (permgroup.closure) and coxeter; only perm_compose and perm_order of
    permgroup run, on the lifted steps.
    """
    budget = 30.0
    p = Pipeline.random(rng, (8, 4, 4, 4))
    path = inputs.write("wide.json", p)
    ops = [Op(["lift", path], check_lift(p), budget)]
    for _ in range(2):
        x = rng.getrandbits(8)
        ops.append(Op(["run", path, "--input", format(x, "x")], check_run(p, x), budget))
    seed = rng.getrandbits(32)
    ops.append(_qrun(p, path, (1, 2, 3), (rng.getrandbits(8), 0, 0, 0), None, 2, seed, 1000, budget))
    ops.append(_qrun(p, path, (3, 2, 1), (0, 0, 0, 0), 0, 3, seed, 1000, budget))
    return ops


def group_verify(rng: random.Random, inputs: Inputs) -> list[Op]:
    """The group-theory side, all at W <= 8:

    - group, group --cayley, coxeter and verify on the n-step 1-bit
      identity pipelines, n = 2..4 (orders 8, 64, 1024);
    - verify on the committed pipelines/*.json and on seven seeded random
      3-step pipelines of register width <= 2, whose coset enumeration runs
      to the 100k-coset cap (seven, so that the median op falls among these
      similar ~0.4 s ops rather than on the edge between the millisecond
      ops and them);
    - the probe: verify on the 5-step identity pipeline (see PROBE_NOTE),
      in its own child under a wall and an address-space budget.  It stays
      in the list as a failing op until the program can answer it.

    Loads: permgroup (closure and the |G|^2 Cayley table: n = 4 group and
    --cayley dominate, the --cayley report is 13.7 MB) and coxeter
    (Todd-Coxeter to its cap).  group and group --cayley sit side by side
    so that a lazy Cayley table shows as a gain on one and no change on the
    other.  Leaves idle: lifting does almost nothing at W <= 8, and quantum
    does nothing.
    """
    budget = 30.0
    ops = []
    for n in (2, 3, 4):
        p = Pipeline.identity(n)
        path = inputs.write(f"identity{n}.json", p)
        order = identity_order(n)
        ops += [
            Op(["group", path], check_group(p, cayley=False, order=order), budget),
            Op(["group", path, "--cayley"], check_group(p, cayley=True, order=order), budget),
            Op(["coxeter", path], check_coxeter(p), budget),
            Op(["verify", path], check_verify(p, order), budget),
        ]
    for committed in sorted(Path("pipelines").glob("*.json")):
        p = Pipeline.from_document(committed.read_text(encoding="utf-8"))
        ops.append(Op(["verify", str(committed)], check_verify(p), budget))
    for k in range(7):
        p = Pipeline.random(rng, [rng.randint(1, 2) for _ in range(4)])
        ops.append(Op(["verify", inputs.write(f"narrow{k}.json", p)], check_verify(p), budget))
    p = Pipeline.identity(5)
    ops.append(
        Op(["verify", inputs.write("identity5.json", p)], check_verify(p, identity_order(5)), PROBE_WALL_S,
           isolate=True, note=PROBE_NOTE)
    )
    return ops


def survey_small(rng: random.Random, inputs: Inputs) -> list[Op]:
    """300 seeded random 2-step pipelines with register widths 1..3
    (W <= 9), modelled on scripts/survey_two_step.py; each gets group,
    verify, run and qrun (register 0 in superposition), about 3 ms per op.

    Loads the same layers as the other two, but fixed per-call costs
    dominate instead of asymptotics: parsing and BoolFunc validation, Perm
    validation, the layout, the dihedral-8 test and an 8-coset enumeration.
    A change that helps large groups but adds set-up per call (Schreier-Sims,
    a finiteness test, lazy tables) shows its cost here as op_p50_ms.  It is
    also the only workload with enough ops per pass for op_p90_ms.
    """
    budget = 2.0
    ops = []
    for k in range(300):
        p = Pipeline.random(rng, [rng.randint(1, 3) for _ in range(3)])
        path = inputs.write(f"survey{k}.json", p)
        x = rng.getrandbits(p.widths[0])
        ops += [
            Op(["group", path], check_group(p, cayley=False), budget),
            Op(["verify", path], check_verify(p), budget),
            Op(["run", path, "--input", format(x, "x")], check_run(p, x), budget),
            _qrun(p, path, (2, 1), (0, 0, 0), 0, 2, rng.getrandbits(32), 1000, budget),
        ]
    return ops


WORKLOADS = {"wide_eval": wide_eval, "group_verify": group_verify, "survey_small": survey_small}
