"""Command-line interface: pipeline documents in, reports out.

This is the only module that touches files.  Pipeline documents are strict
JSON (unknown fields rejected) with case-insensitive hex truth tables;
reports are exactly ``json.dumps(report, indent=2, sort_keys=True)`` plus a
newline, written by :func:`_json_chunks` at C-encoder speed, so identical
invocations produce byte-identical files.  Exit status: 0 on success, 1 on
validation or usage errors or a failed internal check, 2 when a computation
hit a configured cap (group elements, cosets), ran out of memory, or when
``verify`` cannot reach the abstract order: a claim of three or more steps
is an infinite Coxeter group, so it exits 2 with no cap involved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from functools import cache
from pathlib import Path
from typing import Sequence

from . import __version__
from .boolfn import BoolFunc
from .coxeter import (
    BOUND_EXCEEDED,
    DEFAULT_COSET_CAP,
    CoxeterMatrix,
    claimed_coxeter_matrix,
    verify_pipeline,
)
from .lifting import (
    DEFAULT_WIDTH_CAP,
    LiftingCheckFailed,
    PipelineSpec,
    apply_word,
    generator_defects,
    layout,
    nondegeneracy_defects,
    product_orders,
    run_classical,
)
from .permgroup import (
    ClosureCapExceeded,
    DEFAULT_ELEMENT_CAP,
    closure,
    element_order_histogram,
    is_dihedral_8,
)
from .quantum import apply_steps, basis_state, marginal_distribution, measure, uniform_superposition

FORMAT_VERSION = 1
REPORT_VERSION = 1
# one-letter step aliases, accepted only for pipelines of up to four steps
WORD_ALIASES = {"f": 1, "g": 2, "h": 3, "r": 4}


class PipelineFormatError(ValueError):
    """Malformed or invalid pipeline document."""


def parse_pipeline(source: str | Path | bytes) -> PipelineSpec:
    """Parse a pipeline document from a path or raw bytes, strictly."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    else:
        text = Path(source).read_text(encoding="utf-8")
    try:
        document = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as e:
        raise PipelineFormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise PipelineFormatError("invalid JSON: nested too deeply") from None
    return pipeline_from_document(document)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, rejecting a repeated field instead of letting
    its last value win."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise PipelineFormatError(f"duplicate field: {key}")
        document[key] = value
    return document


def pipeline_from_document(document: object) -> PipelineSpec:
    """Validate a decoded pipeline document and build the PipelineSpec."""
    if not isinstance(document, dict):
        raise PipelineFormatError("top level must be an object")
    unknown = set(document) - {"format_version", "registers", "functions", "name"}
    if unknown:
        raise PipelineFormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    for required in ("format_version", "registers", "functions"):
        if required not in document:
            raise PipelineFormatError(f"missing field: {required}")
    version = document["format_version"]
    if not isinstance(version, int) or isinstance(version, bool) or version != FORMAT_VERSION:
        raise PipelineFormatError(
            f"format_version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    if "name" in document and not isinstance(document["name"], str):
        raise PipelineFormatError("name must be a string")
    registers = document["registers"]
    if (
        not isinstance(registers, list)
        or len(registers) < 2
        or not all(isinstance(w, int) and not isinstance(w, bool) for w in registers)
    ):
        raise PipelineFormatError("registers must be a list of at least two integers")
    functions = document["functions"]
    if not isinstance(functions, list):
        raise PipelineFormatError("functions must be a list")
    if len(functions) != len(registers) - 1:
        raise PipelineFormatError(
            f"{len(registers)} registers need {len(registers) - 1} functions, got {len(functions)}"
        )
    # PipelineSpec caps the total width only after the truth tables are built,
    # and a table's entry bound is 2^arity_out: a register over the cap fails first
    if max(registers) > DEFAULT_WIDTH_CAP:
        total = sum(registers)
        if total > DEFAULT_WIDTH_CAP:
            raise PipelineFormatError(f"total width {total} exceeds the cap of {DEFAULT_WIDTH_CAP}")
        raise PipelineFormatError(f"register width {max(registers)} exceeds the cap of {DEFAULT_WIDTH_CAP}")
    steps = []
    for i, obj in enumerate(functions):
        if not isinstance(obj, dict):
            raise PipelineFormatError(f"functions[{i}] must be an object")
        extra = set(obj) - {"table"}
        if extra:
            raise PipelineFormatError(f"functions[{i}]: unknown field(s): {', '.join(sorted(extra))}")
        if "table" not in obj:
            raise PipelineFormatError(f"functions[{i}]: missing field: table")
        entries = obj["table"]
        if not isinstance(entries, list):
            raise PipelineFormatError(f"functions[{i}].table must be a list of hex strings")
        try:
            values = _parse_hex(entries, f"functions[{i}].table[{{}}]")
        except ValueError as e:
            raise PipelineFormatError(str(e)) from None
        try:
            steps.append(BoolFunc(registers[i], registers[i + 1], tuple(values)))
        except ValueError as e:
            raise PipelineFormatError(f"functions[{i}]: {e}") from None
    try:
        return PipelineSpec(tuple(registers), tuple(steps))
    except ValueError as e:
        raise PipelineFormatError(str(e)) from None


def _hex(value: int) -> str:
    return format(value, "x")


# ASCII hex digits only: int(text, 16) also takes other scripts' digits,
# underscores, whitespace and the 0x and + prefixes
_HEX = re.compile(r"[0-9A-Fa-f]+")


def _parse_hex(texts: Sequence[object], what: str) -> list[int]:
    """Nonnegative hex numbers, one per string; ``what.format(k)`` names
    entry k in an error message."""
    for k, text in enumerate(texts):
        if not isinstance(text, str):
            raise ValueError(f"{what.format(k)} must be a hex string")
        if _HEX.fullmatch(text) is None:
            if text[:1] == "-" and _HEX.fullmatch(text, 1):
                raise ValueError(f"{what.format(k)} must be nonnegative")
            raise ValueError(f"{what.format(k)} is not valid hex: {text!r}")
    return [int(text, 16) for text in texts]


def _step_index(symbol: str, n_steps: int) -> int:
    s = symbol.lower()
    if s in WORD_ALIASES and n_steps <= 4:
        index = WORD_ALIASES[s]
        if index <= n_steps:
            return index
        raise ValueError(f"word symbol {symbol!r} names step {index}, but the pipeline has {n_steps}")
    # ASCII digits only: str.isdigit also accepts superscripts and other scripts' digits
    if s.startswith("f") and s[1:].isascii() and s[1:].isdigit():
        index = int(s[1:])
        if 1 <= index <= n_steps:
            return index
    raise ValueError(f"unknown word symbol {symbol!r} (use f1..f{n_steps})")


def _print_matrix(label: str, orders) -> None:
    print(f"{label}:")
    for row in orders:
        print(f"  {list(row)}")


def _render_word(word: Sequence[int]) -> list[str]:
    return [f"f{s + 1}" for s in word]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_lift(args, pipeline: PipelineSpec):
    lay = layout(pipeline)
    print(f"registers: widths {tuple(lay.widths)}, offsets {tuple(lay.offsets)}, total width {lay.total_width}")
    steps = []
    for i, f in enumerate(pipeline.steps, start=1):
        # XOR into a register it does not read: an involution, the identity iff f is zero
        order = 1 if f.is_constant_zero else 2
        steps.append(
            {
                "step": i,
                "symbol": f"f{i}",
                "arity_in": f.arity_in,
                "arity_out": f.arity_out,
                "order": order,
                "is_identity": f.is_constant_zero,
            }
        )
        note = "identity (degenerate)" if f.is_constant_zero else f"order {order}"
        print(f"step {i} (f{i}): {f.arity_in} -> {f.arity_out} bits, lifted involution: {note}")
    results = {
        "layout": {
            "widths": list(lay.widths),
            "offsets": list(lay.offsets),
            "total_width": lay.total_width,
        },
        "steps": steps,
    }
    return 0, results


def _cmd_group(args, pipeline: PipelineSpec):
    group = closure(pipeline, element_cap=args.element_cap)
    histogram = element_order_histogram(group)
    defects = nondegeneracy_defects(pipeline)
    witness = is_dihedral_8(group)
    print(f"closure order: {len(group)}")
    print("element order histogram: {" + ", ".join(f"{k}: {v}" for k, v in histogram.items()) + "}")
    if defects:
        print("degenerate:")
        for d in defects:
            print(f"  - {d}")
    else:
        print("nondegenerate: yes")
    if witness is not None:
        rotation = " ".join(_render_word(group.words[witness.rotation])) or "e"
        reflection = " ".join(_render_word(group.words[witness.reflection])) or "e"
        print(f"dihedral of order 8: yes (rotation {rotation}, reflection {reflection})")
    else:
        print("dihedral of order 8: no")
    results: dict[str, object] = {
        "order": len(group),
        "order_histogram": {str(k): v for k, v in histogram.items()},
        "nondegenerate": not defects,
        "defects": list(defects),
        "dihedral_8": witness is not None,
    }
    if witness is not None:
        results["dihedral_8_witness"] = {
            "rotation": witness.rotation,
            "reflection": witness.reflection,
            "from_generators": witness.from_generators,
        }
    if args.cayley:
        results["cayley"] = group.cayley
        results["words"] = [_render_word(w) for w in group.words]
    return 0, results


def _cmd_coxeter(args, pipeline: PipelineSpec):
    claimed = claimed_coxeter_matrix(pipeline.n_steps)
    relators = [" ".join(_render_word(w)) for w in claimed.relators]
    defects = generator_defects(pipeline)
    if defects:
        print("degenerate generator set; no Coxeter matrix:")
        for d in defects:
            print(f"  - {d}")
        return 0, {"degenerate": True, "defects": list(defects)}
    empirical = CoxeterMatrix(product_orders(pipeline))
    matches = empirical.orders == claimed.orders
    _print_matrix("empirical matrix (orders of pairwise products)", empirical.orders)
    _print_matrix("claimed matrix (adjacent 4, distant 2)", claimed.orders)
    print(f"match: {'yes' if matches else 'NO (surfaced, not an error)'}")
    generators = ", ".join(f"f{i}" for i in range(1, pipeline.n_steps + 1))
    print(f"claimed presentation: <{generators} | {', '.join(relators)}>")
    results = {
        "degenerate": False,
        "empirical_matrix": empirical.orders,
        "claimed_matrix": claimed.orders,
        "matches_claimed": matches,
        "relators": relators,
    }
    return 0, results


def _cmd_verify(args, pipeline: PipelineSpec):
    report = verify_pipeline(pipeline, coset_cap=args.coset_cap, element_cap=args.element_cap)
    held = sum(1 for c in report.relation_checks if c.holds)
    print(f"relations: {held}/{len(report.relation_checks)} hold")
    print(f"concrete group order: {report.concrete_order}")
    if report.abstract_order is None:
        print(f"abstract group order: not reached within {report.coset_cap} cosets")
    else:
        print(f"abstract group order: {report.abstract_order}")
    print(f"verdict: {report.verdict}")
    if report.verdict == "CONFIRMED":
        print(
            "the relations give a surjection from the abstract group onto the concrete one;"
            " equal finite orders make it an isomorphism"
        )
    for d in report.defects:
        print(f"  - {d}")
    results = {
        "verdict": report.verdict,
        "relations_hold": report.relations_hold,
        "concrete_order": report.concrete_order,
        "layer_dimensions": list(report.layer_dimensions),
        "abstract_order": report.abstract_order,
        "coset_cap": report.coset_cap,
        "relations": [
            {"relator": _render_word(c.relator), "holds": c.holds} for c in report.relation_checks
        ],
        "product_orders": report.product_orders,
        "defects": list(report.defects),
        "isomorphism_established": report.isomorphism_established,
    }
    return (2 if report.verdict == BOUND_EXCEEDED else 0), results


def _cmd_run(args, pipeline: PipelineSpec):
    (x,) = _parse_hex([args.input], "--input")
    trace = run_classical(pipeline, x)
    lay = layout(pipeline)
    # the reversed word f1 f2 .. fn (step n applied first) undoes the forward run
    restored = lay.unpack_registers(
        apply_word(pipeline, range(1, pipeline.n_steps + 1), lay.pack_registers(trace.registers))
    )
    initial = (x,) + (0,) * pipeline.n_steps
    restoration_ok = restored == initial
    print(f"input: 0x{_hex(x)}")
    print("trace: (" + ", ".join("0x" + _hex(v) for v in trace.registers) + ")")
    print("direct evaluation matches: yes")
    print(
        f"reversed word restores the initial state: {'yes' if restoration_ok else 'NO'}"
        f" ({', '.join('0x' + _hex(v) for v in restored)})"
    )
    results = {
        "input": _hex(x),
        "trace": [_hex(v) for v in trace.registers],
        "direct": [_hex(v) for v in trace.direct],
        "restored": [_hex(v) for v in restored],
        "restoration_ok": restoration_ok,
    }
    return 0, results


def _cmd_qrun(args, pipeline: PipelineSpec):
    lay = layout(pipeline)
    indices = [_step_index(s, pipeline.n_steps) for s in args.word]
    word = [f"f{i}" for i in indices]
    if len(args.input) != len(lay.widths):
        raise ValueError(f"--input needs {len(lay.widths)} register values, got {len(args.input)}")
    values = _parse_hex(args.input, "--input register {}")
    state = basis_state(lay, values)
    if args.superpose is not None:
        state = uniform_superposition(lay, args.superpose, state)
    state = apply_steps(pipeline, indices, state)
    result = measure(state, lay, args.measure, seed=args.seed, shots=args.shots)
    distribution = marginal_distribution(state, lay, args.measure)
    print(f"word: {' '.join(word)} (rightmost symbol applied first)")
    print("initial registers: (" + ", ".join("0x" + _hex(v) for v in values) + ")")
    if args.superpose is not None:
        print(f"register {args.superpose} prepared in uniform superposition")
    counts_text = ", ".join(f"0x{_hex(v)}: {c}" for v, c in sorted(result.counts.items()))
    print(f"measured register {args.measure} over {args.shots} shots (seed {args.seed}): {{{counts_text}}}")
    results = {
        "word": word,
        "input": [_hex(v) for v in values],
        "superpose": args.superpose,
        "measured_register": args.measure,
        "seed": args.seed,
        "shots": args.shots,
        "counts": {_hex(v): c for v, c in sorted(result.counts.items())},
        "distribution": {_hex(v): p for v, p in sorted(distribution.items())},
    }
    return 0, results


# ---------------------------------------------------------------------------
# report writing

_SCALARS = {str, int, float, bool, type(None)}
_encode = json.JSONEncoder().encode


@cache
def _flat_list_encoder(inner: str):
    """Encodes a list of scalars with each item on its own line at ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


def _json_chunks(value: object, indent: str = ""):
    """Yields ``json.dumps(value, indent=2, sort_keys=True)`` piece by piece,
    byte for byte, for dicts with str keys, lists, tuples and scalars.  Any
    ``indent`` sends ``json`` to its pure-Python encoder, one generator step
    per item, so containers are walked here and every list of scalars (each
    Cayley row) goes through the C encoder in one call.  The pieces go
    straight to the report file, so no report is held whole in memory: the
    13.7 MB ``--cayley`` report of the 4-step identity pipeline costs no
    13.7 MB strings, and peak memory does not depend on where the allocator
    left those of an earlier report."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{\n" + inner
        for k, v in sorted(value.items()):
            yield sep + _encode(k) + ": "
            yield from _json_chunks(v, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif set(map(type, value)) <= _SCALARS:
            yield "[\n" + inner + _flat_list_encoder(inner)(value)[1:-1] + "\n" + indent + "]"
        else:
            sep = "[\n" + inner
            for v in value:
                yield sep
                yield from _json_chunks(v, inner)
                sep = ",\n" + inner
            yield "\n" + indent + "]"
    else:
        yield _encode(value)


# ---------------------------------------------------------------------------
# dispatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="involift", description="Boolean pipeline lifting and group analysis")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("pipeline", help="pipeline document (JSON)")
    common.add_argument("--json", metavar="PATH", help="also write a JSON report")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("lift", parents=[common], help="layout and per-step involution summary")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("group", parents=[common], help="closure order and element order histogram")
    p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP, metavar="N")
    p.add_argument("--cayley", action="store_true", help="include the Cayley table and words in the report")
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("coxeter", parents=[common], help="empirical matrix and claimed presentation")
    p.set_defaults(handler=_cmd_coxeter)

    p = sub.add_parser("verify", parents=[common], help="test the claimed presentation against the group")
    p.add_argument("--coset-cap", type=int, default=DEFAULT_COSET_CAP, metavar="N")
    p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP, metavar="N")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("run", parents=[common], help="classical trace plus inverse-run restoration check")
    p.add_argument("--input", required=True, metavar="HEX", help="value of register 0")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("qrun", parents=[common], help="apply a generator word to a state and measure")
    p.add_argument("--word", required=True, nargs="+", metavar="SYM",
                   help="generator symbols f1..fn (aliases f g h r for up to 4 steps), rightmost applied first")
    p.add_argument("--input", required=True, nargs="+", metavar="HEX", help="per-register initial values")
    p.add_argument("--superpose", type=int, metavar="REG", help="prepare this register in uniform superposition")
    p.add_argument("--measure", required=True, type=int, metavar="REG")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--shots", type=int, default=1000, metavar="N")
    p.set_defaults(handler=_cmd_qrun)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        data = Path(args.pipeline).read_bytes()
    except OSError as e:
        print(f"error: cannot read {args.pipeline}: {e}", file=sys.stderr)
        return 1
    try:
        pipeline = parse_pipeline(data)
        exit_code, results = args.handler(args, pipeline)
    except (PipelineFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ClosureCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.subcommand} ran out of memory", file=sys.stderr)
        return 2
    except LiftingCheckFailed as e:
        print(f"error: internal check failed: {e}", file=sys.stderr)
        return 1
    if args.json:
        report = {
            "report_version": REPORT_VERSION,
            "toolkit_version": __version__,
            "command": argv,
            "input_digest": "sha256:" + hashlib.sha256(data).hexdigest(),
            "results": results,
        }
        try:
            with open(args.json, "w", encoding="utf-8") as out:
                out.writelines(_json_chunks(report))
                out.write("\n")
        except OSError as e:
            print(f"error: cannot write {args.json}: {e}", file=sys.stderr)
            return 1
    return exit_code


def entry() -> None:
    raise SystemExit(main())
