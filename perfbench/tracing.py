"""Span tracing of involift from the outside, for the traced run.

The program is not changed: ``install`` replaces each public function of
the involift modules by a wrapper, at module attribute level, and rebinds
the names other modules bound with ``from ... import ...`` (cli and coxeter
do this).  The validation hooks of ``BoolFunc`` and ``Perm`` get wrappers
too, and ``SplitMix64.next_u64`` a count-only one.  A span is
``[pass, op, name, start, end, parent]``; spans stay in memory until the
worker writes them out.  A span's self time is its duration minus that of
its child spans.  The split stops at public function boundaries: closure
BFS versus Cayley time, for example, needs spans inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter

MODULES = ("cli", "boolfn", "lifting", "permgroup", "coxeter", "quantum")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.pass_index = 0
        self.op = 0

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tracer.pass_index, tracer.op, name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer.counts[f"{name}!{type(e).__name__}"] += 1
                raise
            finally:
                span[4] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def add(self, spans, counts) -> None:
        """Merge spans and counts recorded by another process (the probe)."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(s[:5] + [s[5] + base if s[5] >= 0 else -1])
        self.counts.update(counts)


# Counters recorded on return, keyed by span name.
def _count_table(counts, args, _):
    counts["boolfn.tables_built"] += 1
    counts["boolfn.table_entries"] += len(args[0].table)


def _count_perm(counts, args, _):
    counts["lifting.perms_built"] += 1
    counts["lifting.perm_entries"] += 1 << args[0].total_width


def _count_closure(counts, _, group):
    counts["permgroup.elements"] += len(group)
    counts["permgroup.cayley_entries"] += len(group) ** 2  # computed from |G|


def _count_todd_coxeter(counts, _, order):
    counts["coxeter.tc_capped"] += order is None


def _count_apply(counts, _, state):
    counts["quantum.amplitudes_routed"] += len(state.amplitudes)


def _count_measure(counts, _, result):
    counts["quantum.shots"] += result.shots


AFTER = {
    "permgroup.closure": _count_closure,
    "coxeter.todd_coxeter": _count_todd_coxeter,
    "quantum.apply": _count_apply,
    "quantum.measure": _count_measure,
}


def install(tracer: Tracer) -> None:
    modules = {name: importlib.import_module(f"involift.{name}") for name in MODULES}
    wrapped = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                span = f"{name}.{attr}"
                wrapped[obj] = tracer.wrap(span, obj, AFTER.get(span))
    for module in [importlib.import_module("involift"), *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    from involift.boolfn import BoolFunc
    from involift.lifting import Perm
    from involift.rng import SplitMix64

    BoolFunc.__post_init__ = tracer.wrap("boolfn.BoolFunc.__post_init__", BoolFunc.__post_init__, _count_table)
    Perm.__post_init__ = tracer.wrap("lifting.Perm.__post_init__", Perm.__post_init__, _count_perm)
    next_u64 = SplitMix64.next_u64

    def counted_next_u64(self):
        tracer.counts["rng.draws"] += 1
        return next_u64(self)

    SplitMix64.next_u64 = counted_next_u64


# (metric, span name): inclusive seconds and call counts per traced pass.
INCLUSIVE = {
    "cli.parse_s": "cli.parse_pipeline",
    "boolfn.validate_s": "boolfn.BoolFunc.__post_init__",
    "lifting.step_involution_s": "lifting.step_involution",
    "lifting.forward_perm_s": "lifting.forward_perm",
    "lifting.run_classical_s": "lifting.run_classical",
    "lifting.perm_validate_s": "lifting.Perm.__post_init__",
    "permgroup.closure_s": "permgroup.closure",
    "permgroup.perm_compose_s": "permgroup.perm_compose",
    "permgroup.perm_order_s": "permgroup.perm_order",
    "permgroup.evaluate_word_s": "permgroup.evaluate_word",
    "permgroup.is_dihedral_8_s": "permgroup.is_dihedral_8",
    "coxeter.verify_pipeline_s": "coxeter.verify_pipeline",
    "coxeter.todd_coxeter_s": "coxeter.todd_coxeter",
    "coxeter.check_relations_s": "coxeter.check_relations",
    "coxeter.coxeter_matrix_s": "coxeter.coxeter_matrix",
    "coxeter.generator_defects_s": "coxeter.generator_defects",
    "quantum.apply_s": "quantum.apply",
    "quantum.measure_s": "quantum.measure",
    "quantum.marginal_distribution_s": "quantum.marginal_distribution",
    "quantum.uniform_superposition_s": "quantum.uniform_superposition",
}
CALLS = {
    "lifting.step_involution_calls": "lifting.step_involution",
    "lifting.forward_perm_calls": "lifting.forward_perm",
    "permgroup.closure_calls": "permgroup.closure",
    "permgroup.perm_compose_calls": "permgroup.perm_compose",
    "permgroup.perm_order_calls": "permgroup.perm_order",
    "coxeter.todd_coxeter_calls": "coxeter.todd_coxeter",
    "quantum.apply_calls": "quantum.apply",
}
COUNTS = (
    "boolfn.tables_built",
    "boolfn.table_entries",
    "lifting.perms_built",
    "lifting.perm_entries",
    "permgroup.elements",
    "permgroup.cayley_entries",
    "coxeter.tc_capped",
    "quantum.amplitudes_routed",
    "quantum.shots",
    "rng.draws",
)
COMMANDS = ("lift", "group", "coxeter", "verify", "run", "qrun")


def layer_metrics(spans, counts, commands, traced, untraced, scale) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced pass, as name -> (value, unit).

    commands[i] is op i's subcommand; traced and untraced are lists of pass
    records (each a list of op records with ``seconds`` and ``bytes``);
    scale[(pass, op)] scales that op's span times to the reference speed,
    as its end-to-end time is.
    """
    passes = len(traced)
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    child: Counter = Counter()
    self_time: Counter = Counter()
    by_command: Counter = Counter()
    durations = [(s[4] - s[3]) * scale[s[0], s[1]] for s in spans]
    for s, duration in zip(spans, durations):
        inclusive[s[2]] += duration
        calls[s[2]] += 1
        if s[5] >= 0:
            child[s[5]] += duration
    for i, (s, duration) in enumerate(zip(spans, durations)):
        self_time[s[2].split(".", 1)[0]] += duration - child[i]
        if s[2] == "cli.main":
            by_command[commands[s[1]]] += duration

    out: dict[str, tuple[float, str]] = {"cli.ops": (calls["cli.main"] / passes, "count")}
    for layer in MODULES:
        out[f"{layer}.self_s"] = (self_time[layer] / passes, "s")
    for command in COMMANDS:
        out[f"cli.{command}_s"] = (by_command[command] / passes, "s")
    out["cli.report_bytes"] = (sum(op["bytes"] for p in traced for op in p) / passes, "bytes")
    for metric, span in INCLUSIVE.items():
        out[metric] = (inclusive[span] / passes, "s")
    for metric, span in CALLS.items():
        out[metric] = (calls[span] / passes, "count")
    for metric in COUNTS:
        out[metric] = (counts.get(metric, 0) / passes, "count")
    out["permgroup.cap_exceeded"] = (counts.get("permgroup.closure!ClosureCapExceeded", 0) / passes, "count")
    attempted = calls["coxeter.todd_coxeter"]
    closed = attempted - counts.get("coxeter.tc_capped", 0)
    out["coxeter.tc_closed_ratio"] = (closed / attempted if attempted else 0.0, "ratio")
    out["trace.spans"] = (len(spans) / passes, "count")
    wall = [statistics.median(sum(op["seconds"] for op in p) for p in runs) for runs in (traced, untraced)]
    out["trace.overhead_s"] = (wall[0] - wall[1], "s")
    return out
