"""Command-line interface: pipeline documents in, reports out.

This is the only module that touches files, and the only one that names
the steps f1..fn (the package numbers them from 0) and writes defect text.
Pipeline documents are strict JSON (unknown fields rejected) with
case-insensitive hex truth tables; reports are exactly
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, written
piece by piece by :func:`_json_chunks` without ``json``'s pure-Python
encoder, so identical invocations produce byte-identical files.  Exit
status: 0 on success, 1 on validation or usage errors or a failed internal
check, 2 when a computation hit the group element cap or the byte budget
of :mod:`involift.permgroup`, or ran out of memory.  :func:`main` can be
called repeatedly in one process (:func:`_build_parser`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from functools import cache
from itertools import combinations, repeat
from pathlib import Path
from typing import Sequence

from . import __version__
from .boolfn import BoolFunc
from .coxeter import CoxeterMatrix, claimed_coxeter_matrix, verify_pipeline
from .lifting import (
    LiftingCheckFailed,
    PipelineSpec,
    product_orders,
    run_classical,
    word_action,
)
from .permgroup import (
    ClosureCapExceeded,
    DEFAULT_ELEMENT_CAP,
    closure,
    element_order_histogram,
)
from .quantum import apply_steps, basis_state, measure, uniform_superposition

FORMAT_VERSION = 1
REPORT_VERSION = 1
# one-letter aliases of the symbols f1..f4, accepted only for pipelines of up to four steps
WORD_ALIASES = {"f": 1, "g": 2, "h": 3, "r": 4}


class PipelineFormatError(ValueError):
    """Malformed or invalid pipeline document."""


def parse_pipeline(data: bytes) -> PipelineSpec:
    """Parse a pipeline document from its raw bytes, strictly."""
    try:
        document = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_fields)
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
_HEX_LIST = re.compile(r"[0-9A-Fa-f]+(?:,[0-9A-Fa-f]+)*")


def _parse_hex(texts: Sequence[object], what: str) -> list[int]:
    """Nonnegative hex numbers, one per string; ``what.format(k)`` names
    entry k in an error message.

    The whole list is checked at once: its entries joined by commas must be
    comma-separated hex numbers, with exactly one comma fewer than there are
    entries (an entry may itself hold a comma), and are then decoded in one
    pass.  Only a list that fails, or an empty one, is walked entry by entry
    to word the first error."""
    try:
        joined = ",".join(texts)
    except TypeError:  # an entry that is not a string
        joined = None
    if joined is None or joined.count(",") != len(texts) - 1 or _HEX_LIST.fullmatch(joined) is None:
        for k, text in enumerate(texts):
            if not isinstance(text, str):
                raise ValueError(f"{what.format(k)} must be a hex string")
            if _HEX.fullmatch(text) is None:
                if text[:1] == "-" and _HEX.fullmatch(text, 1):
                    raise ValueError(f"{what.format(k)} must be nonnegative")
                raise ValueError(f"{what.format(k)} is not valid hex: {text!r}")
    return list(map(int, texts, repeat(16)))


def _step_index(symbol: str, n_steps: int) -> int:
    """The step index (from 0) of a word symbol: fk or its alias names step k - 1."""
    s = symbol.lower()
    if s in WORD_ALIASES and n_steps <= 4:
        k = WORD_ALIASES[s]
        if k <= n_steps:
            return k - 1
        raise ValueError(f"word symbol {symbol!r} names step {k}, but the pipeline has {n_steps}")
    # ASCII digits only: str.isdigit also accepts superscripts and other scripts' digits
    if s.startswith("f") and s[1:].isascii() and s[1:].isdigit():
        k = int(s[1:])
        if 1 <= k <= n_steps:
            return k - 1
    raise ValueError(f"unknown word symbol {symbol!r} (use f1..f{n_steps})")


def _print_matrix(label: str, orders) -> None:
    print(f"{label}:")
    for row in orders:
        print(f"  {list(row)}")


def _render_word(word: Sequence[int]) -> list[str]:
    """Step indices as the symbols the command line shows: step i is f{i+1}."""
    return [f"f{s + 1}" for s in word]


def _defects(pipeline: PipelineSpec) -> list[str]:
    """Violations of the Coxeter generator precondition, every lifted step an
    involution and all pairwise distinct, with generators numbered from 1.

    A step XORs into a register it does not read, so it is an involution
    unless its table is all zero, which makes it the identity.  Two steps
    write different registers, so they are equal only when both are the
    identity.
    """
    zero = [i for i, f in enumerate(pipeline.steps, start=1) if f.is_constant_zero]
    return [f"generator {i} is the identity" for i in zero] + [
        f"generators {i} and {j} are equal" for i, j in combinations(zero, 2)
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_lift(args, pipeline: PipelineSpec):
    print(f"registers: widths {pipeline.widths}, offsets {pipeline.offsets}, total width {pipeline.total_width}")
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
            "widths": list(pipeline.widths),
            "offsets": list(pipeline.offsets),
            "total_width": pipeline.total_width,
        },
        "steps": steps,
    }
    return 0, results


def _cmd_group(args, pipeline: PipelineSpec):
    group = closure(pipeline, element_cap=args.element_cap)
    # the table's size is checked here, before anything is printed
    cayley = group.cayley_rows(map(str, range(len(group)))) if args.cayley else None
    histogram = element_order_histogram(group)
    # nondegenerate: pairwise-distinct involutions whose neighbours have products of order 4
    orders = product_orders(pipeline)
    defects = _defects(pipeline) + [
        f"product of adjacent generators {i + 1} and {i + 2} has order {orders[i][i + 1]}, expected 4"
        for i in range(pipeline.n_steps - 1)
        if orders[i][i + 1] != 4
    ]
    # A group of order 8 generated by involutions is Z2^3 or D8: Z8 and
    # Z4 x Z2 are abelian, so involutions would generate only an elementary
    # abelian subgroup, and Q8 has a single involution.  Of the two, only D8
    # has an element of order 4.
    dihedral = len(group) == 8 and 4 in histogram
    print(f"closure order: {len(group)}")
    print("element order histogram: {" + ", ".join(f"{k}: {v}" for k, v in histogram.items()) + "}")
    if defects:
        print("degenerate:")
        for d in defects:
            print(f"  - {d}")
    else:
        print("nondegenerate: yes")
    print(f"dihedral of order 8: {'yes' if dihedral else 'no'}")
    results: dict[str, object] = {
        "order": len(group),
        "order_histogram": {str(k): v for k, v in histogram.items()},
        "nondegenerate": not defects,
        "defects": defects,
        "dihedral_8": dihedral,
    }
    if args.cayley:
        results["cayley"] = _TextRows(cayley)
        symbols = [f'"f{i}"' for i in range(1, pipeline.n_steps + 1)]
        results["words"] = _TextRows([symbols[s] for s in w] for w in group.words)
    return 0, results


def _cmd_coxeter(args, pipeline: PipelineSpec):
    claimed = claimed_coxeter_matrix(pipeline.n_steps)
    relators = [" ".join(_render_word(w)) for w in claimed.relators]
    defects = _defects(pipeline)
    if defects:
        print("degenerate generator set; no Coxeter matrix:")
        for d in defects:
            print(f"  - {d}")
        return 0, {"degenerate": True, "defects": defects}
    empirical = CoxeterMatrix(product_orders(pipeline))
    matches = empirical.orders == claimed.orders
    _print_matrix("empirical matrix (orders of pairwise products)", empirical.orders)
    _print_matrix("claimed matrix (adjacent 4, distant 2)", claimed.orders)
    print(f"match: {'yes' if matches else 'NO (surfaced, not an error)'}")
    generators = ", ".join(_render_word(range(pipeline.n_steps)))
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
    """Report the verification of the claimed presentation.  Every claimed
    relator is reported as holding: :func:`verify_pipeline` returns only when
    all of them hold on the lifted steps, and raises LiftingCheckFailed
    (exit 1) otherwise."""
    report = verify_pipeline(pipeline, element_cap=args.element_cap)
    # verify_pipeline returned, so every claimed relator holds
    relators = claimed_coxeter_matrix(pipeline.n_steps).relators
    defects = _defects(pipeline)
    print(f"relations: {len(relators)}/{len(relators)} hold")
    print(f"concrete group order: {report.concrete_order}")
    print(f"abstract group order: {'infinite' if report.abstract_order is None else report.abstract_order}")
    print(f"verdict: {report.verdict}")
    if report.verdict == "CONFIRMED":
        print(
            "the relations give a surjection from the abstract group onto the concrete one;"
            " equal finite orders make it an isomorphism"
        )
    for d in defects:
        print(f"  - {d}")
    results = {
        "verdict": report.verdict,
        "relations_hold": True,
        "concrete_order": report.concrete_order,
        "layer_dimensions": list(report.layer_dimensions),
        "abstract_order": report.abstract_order,
        "relations": [{"relator": _render_word(w), "holds": True} for w in relators],
        "product_orders": product_orders(pipeline),
        "defects": defects,
        "isomorphism_established": report.isomorphism_established,
    }
    return 0, results


def _cmd_run(args, pipeline: PipelineSpec):
    (x,) = _parse_hex([args.input], "--input")
    registers = run_classical(pipeline, x)
    # the reversed word, steps 0..n-1 from the left (the last step applied
    # first), undoes the forward run
    (undone,) = word_action(pipeline, range(pipeline.n_steps))([pipeline.pack_registers(registers)])
    restored = pipeline.unpack_registers(undone)
    initial = (x,) + (0,) * pipeline.n_steps
    restoration_ok = restored == initial
    print(f"input: 0x{_hex(x)}")
    print("trace: (" + ", ".join("0x" + _hex(v) for v in registers) + ")")
    print("direct evaluation matches: yes")
    print(
        f"reversed word restores the initial state: {'yes' if restoration_ok else 'NO'}"
        f" ({', '.join('0x' + _hex(v) for v in restored)})"
    )
    # run_classical returns only when the direct evaluation gives the same registers
    trace = [_hex(v) for v in registers]
    results = {
        "input": _hex(x),
        "trace": trace,
        "direct": trace,
        "restored": [_hex(v) for v in restored],
        "restoration_ok": restoration_ok,
    }
    return 0, results


def _cmd_qrun(args, pipeline: PipelineSpec):
    word = [_step_index(s, pipeline.n_steps) for s in args.word]
    if len(args.input) != len(pipeline.widths):
        raise ValueError(f"--input needs {len(pipeline.widths)} register values, got {len(args.input)}")
    values = _parse_hex(args.input, "--input register {}")
    state = basis_state(pipeline, values)
    if args.superpose is not None:
        state = uniform_superposition(pipeline, args.superpose, state)
    state = apply_steps(pipeline, word, state)
    result = measure(state, pipeline, args.measure, seed=args.seed, shots=args.shots)
    symbols = _render_word(word)
    print(f"word: {' '.join(symbols)} (rightmost symbol applied first)")
    print("initial registers: (" + ", ".join("0x" + _hex(v) for v in values) + ")")
    if args.superpose is not None:
        print(f"register {args.superpose} prepared in uniform superposition")
    counts_text = ", ".join(f"0x{_hex(v)}: {c}" for v, c in sorted(result.counts.items()))
    print(f"measured register {args.measure} over {args.shots} shots (seed {args.seed}): {{{counts_text}}}")
    results = {
        "word": symbols,
        "input": [_hex(v) for v in values],
        "superpose": args.superpose,
        "measured_register": args.measure,
        "seed": args.seed,
        "shots": args.shots,
        "counts": {_hex(v): c for v, c in sorted(result.counts.items())},
        "distribution": {_hex(v): p for v, p in sorted(result.distribution.items())},
    }
    return 0, results


# ---------------------------------------------------------------------------
# report writing

_encode = json.JSONEncoder().encode
# scalar type -> its text as json writes it; JSONEncoder.encode builds a new
# C encoder on every call that is not a str, so only floats (NaN, Infinity)
# still go through it
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    float: _encode,
}


class _TextRows:
    """A nonempty list of lists of scalars, each scalar held as its JSON
    text: the Cayley table's decimal indices and the words' quoted symbols.
    :func:`_json_chunks` writes each row with one join, without the
    encoder, and draws the rows from ``rows`` once, as it writes them."""

    def __init__(self, rows):
        self.rows = rows


@cache
def _flat_encoder(inner: str):
    """Encodes a list of scalars, or a dict of them by sorted key, with each
    item on its own line at ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": "), sort_keys=True).encode


def _json_chunks(value: object, indent: str = ""):
    """Yields ``json.dumps(value, indent=2, sort_keys=True)`` piece by piece,
    byte for byte, for dicts with str keys, lists, tuples and scalars.  Any
    ``indent`` sends ``json`` to its pure-Python encoder, one generator step
    per item, so containers are walked here, every other list or dict of
    scalars goes through the C encoder in one call, and a scalar in any
    other dict is written inline.  A :class:`_TextRows` (the Cayley table
    and the words) skips the encoder, which formats each int on its own:
    each row is one join of the texts it holds.  The pieces go straight to
    the report file, one row at most, so neither a report nor its Cayley
    table is ever held whole in memory."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        if set(map(type, value.values())) <= _SCALAR_TEXT.keys():
            yield "{\n" + inner + _flat_encoder(inner)(value)[1:-1] + "\n" + indent + "}"
            return
        sep = "{\n" + inner
        for k, v in sorted(value.items()):
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                yield sep + _encode(k) + ": "
                yield from _json_chunks(v, inner)
            else:
                yield sep + _encode(k) + ": " + text(v)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif set(map(type, value)) <= _SCALAR_TEXT.keys():
            yield "[\n" + inner + _flat_encoder(inner)(value)[1:-1] + "\n" + indent + "]"
        else:
            sep = "[\n" + inner
            for v in value:
                yield sep
                yield from _json_chunks(v, inner)
                sep = ",\n" + inner
            yield "\n" + indent + "]"
    elif isinstance(value, _TextRows):
        row_inner = inner + "  "
        head, joiner, tail = "[\n" + row_inner, ",\n" + row_inner, "\n" + inner + "]"
        sep = "[\n" + inner
        for row in value.rows:
            yield sep
            yield head + joiner.join(row) + tail if row else "[]"
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


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first :func:`main` call of the
    process and reused by every later one.  It holds no per-call state:
    ``parse_args`` returns a fresh namespace, no action appends to or
    mutates its default, and handlers and caps are bound here."""
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
        out = None
        try:
            # a Cayley row of a 1024-element group is 16 KB: a 64 KB buffer
            # writes several per system call, the default 8 KB one each alone
            with open(args.json, "w", encoding="utf-8", buffering=1 << 16) as out:
                out.writelines(_json_chunks(report))
                out.write("\n")
        except (OSError, MemoryError) as e:
            # the Cayley rows are gathered as they are written, so memory can
            # run out here too.  A partial report is removed; a file that
            # could not be opened is left as it was, and so is one that is
            # not a regular file (a device such as /dev/full)
            if out is not None and Path(args.json).is_file():
                Path(args.json).unlink(missing_ok=True)
            if isinstance(e, MemoryError):
                print(f"error: {args.subcommand} ran out of memory", file=sys.stderr)
                return 2
            print(f"error: cannot write {args.json}: {e}", file=sys.stderr)
            return 1
    return exit_code


def entry() -> None:
    raise SystemExit(main())
