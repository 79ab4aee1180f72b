import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from involift.cli import (
    PipelineFormatError,
    _json_chunks,
    main,
    parse_pipeline,
    pipeline_from_document,
)
import involift
from involift import cli, coxeter, lifting, permgroup
from involift.boolfn import random_fn
from involift.lifting import PipelineSpec, random_pipeline
from involift.permgroup import GroupClosure
from involift.rng import SplitMix64

from conftest import ID1, emit_pipeline, perm_is_identity, perm_order, step_perm, zero_fn

PIPELINES = Path(__file__).resolve().parents[1] / "pipelines"
P1_DOC = {
    "format_version": 1,
    "registers": [1, 1, 1],
    "functions": [{"table": ["0", "1"]}, {"table": ["0", "1"]}],
}


def _write(tmp_path, document, name="pipeline.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_parse_two_step_identity(tmp_path):
    pipeline = parse_pipeline(Path(_write(tmp_path, P1_DOC)).read_bytes())
    assert pipeline == PipelineSpec((1, 1, 1), (ID1, ID1))


def test_parse_from_bytes():
    pipeline = parse_pipeline(json.dumps(P1_DOC).encode())
    assert pipeline.widths == (1, 1, 1)


def test_parse_rejects_wrong_table_length():
    doc = {"format_version": 1, "registers": [1, 1], "functions": [{"table": ["0", "1", "0"]}]}
    with pytest.raises(PipelineFormatError, match=r"functions\[0\]"):
        pipeline_from_document(doc)


def test_parse_accepts_chained_arities():
    doc = {
        "format_version": 1,
        "registers": [1, 2, 1],
        "functions": [{"table": ["0", "3"]}, {"table": ["0", "1", "1", "0"]}],
    }
    pipeline = pipeline_from_document(doc)
    assert pipeline.widths == (1, 2, 1)


def test_parse_rejects_unknown_fields():
    with pytest.raises(PipelineFormatError, match="unknown field"):
        pipeline_from_document({**P1_DOC, "extra": 1})
    bad_fn = {
        "format_version": 1,
        "registers": [1, 1],
        "functions": [{"table": ["0", "1"], "comment": "no"}],
    }
    with pytest.raises(PipelineFormatError, match=r"functions\[0\]: unknown"):
        pipeline_from_document(bad_fn)


def test_parse_rejects_bad_version():
    # only the integer 1: True and 1.0 compare equal to it
    for version in (2, True, 1.0):
        with pytest.raises(PipelineFormatError, match="format_version"):
            pipeline_from_document({**P1_DOC, "format_version": version})


def test_parse_rejects_bad_hex():
    doc = {"format_version": 1, "registers": [1, 1], "functions": [{"table": ["0", "zz"]}]}
    with pytest.raises(PipelineFormatError, match="not valid hex"):
        pipeline_from_document(doc)
    doc = {"format_version": 1, "registers": [1, 1], "functions": [{"table": ["0", "-1"]}]}
    with pytest.raises(PipelineFormatError, match="nonnegative"):
        pipeline_from_document(doc)
    # a non-string entry after valid ones is named, not joined into the table
    doc = {"format_version": 1, "registers": [2, 1], "functions": [{"table": ["0", "1", "0", 1]}]}
    with pytest.raises(PipelineFormatError) as info:
        pipeline_from_document(doc)
    assert str(info.value) == "functions[0].table[3] must be a hex string"


# int(text, 16) reads each of these; a table entry or --input takes ASCII hex digits only
NOT_HEX = {
    "arabic_indic_one": "\u0661",
    "underscore": "1_0",
    "leading_space": " 1",
    "trailing_newline": "1\n",
    "prefix_0x": "0x1",
    "plus": "+1",
    # joined with the other entries it would read as two valid ones
    "comma": "1,0",
}


@pytest.mark.parametrize("spelling", NOT_HEX.values(), ids=NOT_HEX.keys())
def test_parse_rejects_non_ascii_hex_spellings(spelling):
    doc = {"format_version": 1, "registers": [1, 8], "functions": [{"table": ["0", spelling]}]}
    with pytest.raises(PipelineFormatError) as info:
        pipeline_from_document(doc)
    assert str(info.value) == f"functions[0].table[1] is not valid hex: {spelling!r}"


@pytest.mark.parametrize("spelling", NOT_HEX.values(), ids=NOT_HEX.keys())
def test_cli_input_rejects_non_ascii_hex_spellings(tmp_path, capsys, spelling):
    path = _write(tmp_path, P1_DOC)
    assert main(["run", path, "--input", spelling]) == 1
    assert capsys.readouterr().err == f"error: --input is not valid hex: {spelling!r}\n"
    assert main(["qrun", path, "--word", "f", "--input", "0", spelling, "0", "--measure", "2"]) == 1
    assert capsys.readouterr().err == f"error: --input register 1 is not valid hex: {spelling!r}\n"


@pytest.mark.parametrize("spelling", ["-1", "-0", "-a"])
def test_hex_with_leading_minus_is_negative(tmp_path, capsys, spelling):
    doc = {"format_version": 1, "registers": [1, 1], "functions": [{"table": ["0", spelling]}]}
    with pytest.raises(PipelineFormatError) as info:
        pipeline_from_document(doc)
    assert str(info.value) == "functions[0].table[1] must be nonnegative"
    assert main(["run", _write(tmp_path, P1_DOC), f"--input={spelling}"]) == 1
    assert capsys.readouterr().err == "error: --input must be nonnegative\n"


@pytest.mark.parametrize(
    "text, field",
    [
        (b'{"format_version": 1, "format_version": 1, "registers": [1, 1], "functions": [{"table": ["0", "1"]}]}',
         "format_version"),
        (b'{"format_version": 1, "registers": [1, 1], "functions": [{"table": ["0", "0"], "table": ["0", "1"]}]}',
         "table"),
    ],
    ids=["format_version", "table"],
)
def test_duplicate_field_exit_1(tmp_path, capsys, text, field):
    # the last value used to win silently
    with pytest.raises(PipelineFormatError, match=f"^duplicate field: {field}$"):
        parse_pipeline(text)
    path = tmp_path / "duplicate.json"
    path.write_bytes(text)
    assert main(["lift", str(path)]) == 1
    assert capsys.readouterr().err == f"error: duplicate field: {field}\n"


def test_parse_hex_case_insensitive():
    doc = {
        "format_version": 1,
        "registers": [2, 4],
        "functions": [{"table": ["A", "b", "0F", "3"]}],
    }
    pipeline = pipeline_from_document(doc)
    assert pipeline.steps[0].table == (10, 11, 15, 3)


def test_parse_reports_json_error_position():
    with pytest.raises(PipelineFormatError, match="line 1"):
        parse_pipeline(b"{not json")


def test_parse_rejects_missing_fields():
    with pytest.raises(PipelineFormatError, match="missing field: functions"):
        pipeline_from_document({"format_version": 1, "registers": [1, 1]})


@given(seed=st.integers(0, 2**64 - 1), steps=st.integers(1, 3))
@settings(max_examples=40)
def test_emit_parse_roundtrip(seed, steps):
    pipeline = random_pipeline(seed, steps=steps, max_width=3)
    text = emit_pipeline(pipeline, name="roundtrip")
    assert parse_pipeline(text.encode()) == pipeline


def test_verify_command_confirmed(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: CONFIRMED" in out
    assert "concrete group order: 8" in out
    assert "abstract group order: 8" in out


def test_verify_command_infinite_claim_exit_0(tmp_path, capsys):
    # the claimed group of three or more steps is infinite, so a finite
    # concrete group that satisfies its relations is a proper quotient
    doc = {
        "format_version": 1,
        "registers": [1, 1, 1, 1],
        "functions": [{"table": ["0", "1"]}] * 3,
    }
    path = _write(tmp_path, doc)
    report_path = tmp_path / "report.json"
    assert main(["verify", path, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "abstract group order: infinite\n" in out
    assert "verdict: PROPER_QUOTIENT\n" in out
    results = json.loads(report_path.read_text())["results"]
    assert results["verdict"] == "PROPER_QUOTIENT"
    assert results["abstract_order"] is None
    assert results["concrete_order"] == 64
    assert not results["isomorphism_established"]


def test_verify_finite_type_tiny_cap_exit_2(tmp_path, capsys):
    # the 2-step claim is finite (dihedral of order 8); the only cap verify
    # applies is the element cap, and 4 elements are too few
    report_path = tmp_path / "report.json"
    assert main(["verify", _write(tmp_path, P1_DOC), "--element-cap", "4", "--json", str(report_path)]) == 2
    assert capsys.readouterr() == ("", "error: group closure exceeds the cap of 4 elements\n")
    assert not report_path.exists()


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_nonpositive_coset_cap_exit_1(tmp_path, capsys, cap):
    # verify has no coset cap, so any value of the removed option is a usage error
    doc = {"format_version": 1, "registers": [1, 1, 1, 1], "functions": [{"table": ["0", "1"]}] * 3}
    assert main(["verify", _write(tmp_path, doc), "--coset-cap", cap]) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: --coset-cap {cap}\n"


def test_verify_checks_coset_cap_before_the_group(tmp_path, capsys):
    # the removed --coset-cap fails loudly as a usage error (exit 1) before any
    # group work, even when the group would also exceed its cap
    report_path = tmp_path / "report.json"
    argv = ["verify", str(PIPELINES / "three_step_identity.json"), "--coset-cap", "5", "--element-cap", "1"]
    assert main([*argv, "--json", str(report_path)]) == 1
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --coset-cap 5\n")
    assert not report_path.exists()


def test_verify_degenerate_exit_0(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "registers": [1, 1, 1],
        "functions": [{"table": ["0", "0"]}, {"table": ["0", "1"]}],
    }
    assert main(["verify", _write(tmp_path, doc)]) == 0
    assert "DEGENERATE" in capsys.readouterr().out


def test_run_command(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["run", path, "--input", "1"]) == 0
    out = capsys.readouterr().out
    assert "trace: (0x1, 0x1, 0x1)" in out
    assert "restores the initial state: yes" in out


def test_qrun_command_counts(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    code = main(
        ["qrun", path, "--word", "g", "f", "--input", "1", "0", "0",
         "--measure", "2", "--seed", "7", "--shots", "50"]
    )
    assert code == 0
    assert "{0x1: 50}" in capsys.readouterr().out


def test_qrun_word_aliases_match_canonical(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["qrun", path, "--word", "f2", "f1", "--input", "1", "0", "0",
                 "--measure", "2", "--seed", "7", "--shots", "50"]) == 0
    canonical = capsys.readouterr().out
    assert main(["qrun", path, "--word", "g", "f", "--input", "1", "0", "0",
                 "--measure", "2", "--seed", "7", "--shots", "50"]) == 0
    assert capsys.readouterr().out == canonical


def test_qrun_superpose(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    code = main(
        ["qrun", path, "--word", "g", "f", "--input", "0", "0", "0", "--superpose", "0",
         "--measure", "2", "--seed", "11", "--shots", "2000"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0x0:" in out and "0x1:" in out


@pytest.mark.parametrize(
    "stem, distribution", [("two_step_degenerate", {"0": 1.0}), ("two_step_identity", {"0": 0.5, "1": 0.5})]
)
def test_qrun_distribution_is_exact(tmp_path, stem, distribution):
    # a superposed 1-bit register once gave 1.0000000000000002 and 0.5000000000000001
    report = tmp_path / "report.json"
    argv = ["qrun", str(PIPELINES / f"{stem}.json"), "--word", "f2", "f1", "--input", "0", "0", "0",
            "--superpose", "0", "--measure", "2", "--shots", "10", "--json", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text())["results"]["distribution"] == distribution


def test_qrun_rejects_bad_symbol(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["qrun", path, "--word", "q", "--input", "0", "0", "0", "--measure", "2"]) == 1


@pytest.mark.parametrize("symbol", ["f\u00b2", "f\u0661"], ids=["superscript_two", "arabic_indic_one"])
def test_qrun_rejects_non_ascii_digit_symbol(tmp_path, capsys, symbol):
    # str.isdigit accepts both; int() rejects the superscript and reads the other as 1
    path = _write(tmp_path, P1_DOC)
    assert main(["qrun", path, "--word", symbol, "--input", "0", "0", "0", "--measure", "2"]) == 1
    assert capsys.readouterr().err == f"error: unknown word symbol {symbol!r} (use f1..f2)\n"


def test_qrun_rejects_wrong_input_count(tmp_path):
    path = _write(tmp_path, P1_DOC)
    assert main(["qrun", path, "--word", "f", "--input", "0", "0", "--measure", "2"]) == 1


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--seed", "-1", "seed must be an unsigned 64-bit integer, got -1"),
        ("--seed", str(1 << 64), f"seed must be an unsigned 64-bit integer, got {1 << 64}"),
        ("--shots", "0", "shots must be >= 1"),
    ],
    ids=["seed_negative", "seed_2_64", "shots_zero"],
)
def test_qrun_rejects_bad_seed_or_shots_before_drawing(tmp_path, capsys, monkeypatch, option, value, message):
    def draw(*args):
        raise AssertionError("a word was drawn before the seed and shots were checked")

    monkeypatch.setattr(SplitMix64, "next_u64", draw)
    monkeypatch.setattr(SplitMix64, "blocks", draw)
    path = _write(tmp_path, P1_DOC)
    report = tmp_path / "report.json"
    argv = ["qrun", path, "--word", "g", "f", "--input", "1", "0", "0", "--measure", "2", option, value]
    assert main(argv + ["--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize(
    "argv, target, broken",
    [
        (["run", "--input", "1"], lifting, ("word_action", lambda pipeline, word: lambda states: [s ^ 1 for s in states])),
        (["verify"], coxeter, ("check_relations", lambda pipeline, relators: (False,))),
    ],
    ids=["run", "verify"],
)
def test_failed_internal_check_exit_1(tmp_path, capsys, monkeypatch, argv, target, broken):
    monkeypatch.setattr(target, *broken)
    path = _write(tmp_path, P1_DOC)
    assert main([argv[0], path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: ")
    assert "Traceback" not in err


def test_run_and_qrun_build_no_permutation_at_width_cap(tmp_path, capsys, monkeypatch):
    # run and qrun act on states; lift and coxeter read the truth tables
    fns = (random_fn(8, 4, 101), random_fn(4, 4, 102), random_fn(4, 4, 103))
    pipeline = PipelineSpec((8, 4, 4, 4), fns)
    path = tmp_path / "wide.json"
    path.write_text(emit_pipeline(pipeline), encoding="utf-8")
    report_path = tmp_path / "report.json"

    def refuse(self):
        raise AssertionError("a 2^W permutation was built")

    monkeypatch.setattr(lifting.Perm, "__post_init__", refuse)
    f, g, h = fns
    x = 0xA5
    assert main(["run", str(path), "--input", "a5", "--json", str(report_path)]) == 0
    results = json.loads(report_path.read_text())["results"]
    assert results["trace"] == [format(v, "x") for v in (x, f(x), g(f(x)), h(g(f(x))))]
    assert results["restoration_ok"]
    assert main(["qrun", str(path), "--word", "f3", "f2", "f1", "--input", "0", "0", "0", "0",
                 "--superpose", "0", "--measure", "3", "--shots", "10", "--json", str(report_path)]) == 0
    results = json.loads(report_path.read_text())["results"]
    outputs = Counter(h(g(f(v))) for v in range(256))
    assert results["distribution"] == {format(v, "x"): c / 256 for v, c in sorted(outputs.items())}
    assert main(["lift", str(path), "--json", str(report_path)]) == 0
    steps = json.loads(report_path.read_text())["results"]["steps"]
    assert [(step["order"], step["is_identity"]) for step in steps] == [(2, False)] * 3
    assert main(["coxeter", str(path), "--json", str(report_path)]) == 0
    results = json.loads(report_path.read_text())["results"]
    # checked once against the composed 2^20-point permutations
    assert results["empirical_matrix"] == [[1, 4, 2], [4, 1, 4], [2, 4, 1]]
    assert results["matches_claimed"]


def _wide_document(tmp_path, widths, seed):
    fns = tuple(random_fn(a, b, seed + i) for i, (a, b) in enumerate(zip(widths, widths[1:])))
    path = tmp_path / "wide.json"
    path.write_text(emit_pipeline(PipelineSpec(widths, fns)), encoding="utf-8")
    return str(path), fns


def test_lift_coxeter_run_qrun_past_20_bits(tmp_path):
    # W = 48: none of these commands builds a table indexed by several
    # registers, so each is linear in the truth tables (qrun adds 2^12
    # amplitudes for the superposed register)
    path, (f, g, h) = _wide_document(tmp_path, (12, 12, 12, 12), 4800)
    report_path = tmp_path / "report.json"

    def results(command, *options):
        assert main([command, path, *options, "--json", str(report_path)]) == 0
        return json.loads(report_path.read_text())["results"]

    lifted = results("lift")
    assert lifted["layout"] == {"widths": [12] * 4, "offsets": [0, 12, 24, 36], "total_width": 48}
    assert [(step["order"], step["is_identity"]) for step in lifted["steps"]] == [(2, False)] * 3
    x = 0xA5C
    run = results("run", "--input", "a5c")
    assert run["trace"] == [format(v, "x") for v in (x, f(x), g(f(x)), h(g(f(x))))]
    assert run["restoration_ok"] and run["restored"] == ["a5c", "0", "0", "0"]
    qrun = results("qrun", "--word", "f3", "f2", "f1", "--input", "0", "0", "0", "0",
                   "--superpose", "0", "--measure", "3", "--shots", "100")
    outputs = Counter(h(g(f(v))) for v in range(1 << 12))
    assert qrun["distribution"] == {format(v, "x"): c / 4096 for v, c in sorted(outputs.items())}
    assert sum(qrun["counts"].values()) == 100 and qrun["counts"].keys() <= qrun["distribution"].keys()
    # a neighbour pair has order 4 exactly when G(y) != G(y ^ v) for some y
    # and some v in the image of F, here read from every image value
    expected = [[1, 2, 2], [2, 1, 2], [2, 2, 1]]
    for i, (F, G) in enumerate(((f, g), (g, h))):
        if any(G(y) != G(y ^ v) for v in set(F.table) for y in range(1 << 12)):
            expected[i][i + 1] = expected[i + 1][i] = 4
    assert results("coxeter")["empirical_matrix"] == expected


@pytest.mark.parametrize("command", ["group", "verify"])
@pytest.mark.parametrize(
    "widths, message",
    [
        ((12, 12, 12, 12), {"group": "group closure", "verify": "module spin"}),
        ((4, 4, 4, 4, 4), {"group": "group closure", "verify": None}),
        ((16, 12, 1), {"group": "group closure", "verify": "module spin"}),
    ],
    ids=["w48", "w20", "wide_t2"],
)
def test_byte_budget_stops_wide_groups(tmp_path, command, widths, message):
    # group and verify hold tables indexed by several registers (T_3 of the
    # W = 48 pipeline has 2^36 entries, T_2 of (16, 12, 1) 2^28, and a
    # (4, 4, 4, 4, 4) element takes 69,904 bytes, of 2^23): each exits 2
    # within 1 s in a child limited to 1 GB of address space, by the byte
    # budget, or, for verify on (4, 4, 4, 4, 4), by the element cap
    pytest.importorskip("resource")
    path, _ = _wide_document(tmp_path, widths, 4900)
    report_path = tmp_path / "report.json"
    script = (
        "import resource, sys, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
        "from involift.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = [command, path, "--json", str(report_path)]
    result = subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True,
                            text=True, timeout=120)
    error, elapsed = result.stderr.splitlines()
    what = message[command]
    expected = f"{what} exceeds the budget of {permgroup.BYTE_BUDGET} bytes" if what else (
        f"group closure exceeds the cap of {permgroup.DEFAULT_ELEMENT_CAP} elements")
    assert (result.returncode, result.stdout, error) == (2, "", f"error: {expected}")
    assert float(elapsed) < 1.0
    assert not report_path.exists()


@pytest.mark.parametrize(
    "widths, fns, cap, layers",
    [
        ((1,) * 6, (ID1,) * 5, None, [1, 2, 3, 4, 5]),
        ((1,) * 7, (ID1,) * 6, 2097152, [1, 2, 3, 4, 5, 6]),
        ((8, 4, 4, 4), (random_fn(8, 4, 101), random_fn(4, 4, 102), random_fn(4, 4, 103)), None, [1, 2, 4]),
    ],
    ids=["identity5", "identity6", "wide"],
)
def test_verify_builds_no_permutation(tmp_path, capsys, monkeypatch, widths, fns, cap, layers):
    # the order comes from the spun layers, the relators from word tables
    def refuse(*args, **kwargs):
        raise AssertionError("a 2^W permutation or the closure was built")

    monkeypatch.setattr(lifting.Perm, "__post_init__", refuse)
    monkeypatch.setattr(permgroup, "closure", refuse)
    path = tmp_path / "pipeline.json"
    path.write_text(emit_pipeline(PipelineSpec(widths, fns)), encoding="utf-8")
    report_path = tmp_path / "report.json"
    caps = [] if cap is None else ["--element-cap", str(cap)]
    # three or more steps: an infinite claim, so a proper quotient
    assert main(["verify", str(path), *caps, "--json", str(report_path)]) == 0
    results = json.loads(report_path.read_text())["results"]
    assert results["layer_dimensions"] == layers
    assert results["concrete_order"] == 1 << sum(layers)
    assert results["relations_hold"] and results["verdict"] == "PROPER_QUOTIENT"
    assert f"concrete group order: {1 << sum(layers)}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "widths, fns",
    [
        ((1,) * 6, (ID1,) * 5),
        ((8, 4, 4, 4), (random_fn(8, 4, 101), random_fn(4, 4, 102), random_fn(4, 4, 103))),
    ],
    ids=["identity5", "wide"],
)
def test_group_builds_no_permutation(tmp_path, capsys, monkeypatch, widths, fns):
    # the closure lists tableaux: the (8, 4, 4, 4) group of 128 elements
    # would otherwise hold 128 mappings of 2^20 entries
    def refuse(self):
        raise AssertionError("a 2^W permutation was built")

    path = tmp_path / "pipeline.json"
    path.write_text(emit_pipeline(PipelineSpec(widths, fns)), encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["verify", str(path), "--json", str(report_path)]) == 0
    concrete_order = json.loads(report_path.read_text())["results"]["concrete_order"]
    monkeypatch.setattr(lifting.Perm, "__post_init__", refuse)
    assert main(["group", str(path), "--json", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["results"]["order"] == concrete_order
    assert f"closure order: {concrete_order}\n" in capsys.readouterr().out


def test_verify_default_cap_stops_six_steps(tmp_path, capsys):
    # |G| = 2^21 exceeds the default cap of 10^6 elements
    doc = {"format_version": 1, "registers": [1] * 7, "functions": [{"table": ["0", "1"]}] * 6}
    report_path = tmp_path / "report.json"
    assert main(["verify", _write(tmp_path, doc), "--json", str(report_path)]) == 2
    assert capsys.readouterr().err == "error: group closure exceeds the cap of 1000000 elements\n"
    assert not report_path.exists()


def test_verify_cap_bounds_the_work_at_the_width_cap(tmp_path, capsys, monkeypatch):
    # the 19-step identity group at W = 20 has 2^190 elements: spinning stops
    # in layer 5, once 2^21 passes the default cap, and never gathers the
    # wide tables of the later layers (layer j has 2^(j + 1) entries)
    sizes = []
    vector = permgroup._vector

    def spy(table, width):
        sizes.append(len(table))
        return vector(table, width)

    monkeypatch.setattr(permgroup, "_vector", spy)
    doc = {"format_version": 1, "registers": [1] * 20, "functions": [{"table": ["0", "1"]}] * 19}
    report_path = tmp_path / "report.json"
    assert main(["verify", _write(tmp_path, doc), "--json", str(report_path)]) == 2
    assert capsys.readouterr() == ("", "error: group closure exceeds the cap of 1000000 elements\n")
    assert not report_path.exists()
    assert max(sizes) == 1 << 6


@pytest.mark.parametrize("cap", [63, 64])
def test_verify_element_cap_boundary(tmp_path, capsys, cap):
    # the command fails iff |G| exceeds the cap: the 3-step identity group has 64 elements
    doc = {"format_version": 1, "registers": [1, 1, 1, 1], "functions": [{"table": ["0", "1"]}] * 3}
    report_path = tmp_path / "report.json"
    exit_code = 2 if cap == 63 else 0
    assert main(["verify", _write(tmp_path, doc), "--element-cap", str(cap), "--json", str(report_path)]) == exit_code
    captured = capsys.readouterr()
    if cap == 63:
        assert captured.err == "error: group closure exceeds the cap of 63 elements\n"
        assert captured.out == "" and not report_path.exists()
    else:
        assert captured.err == ""
        results = json.loads(report_path.read_text())["results"]
        assert results["concrete_order"] == 64 and results["layer_dimensions"] == [1, 2, 3]


def test_group_command(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    report_path = tmp_path / "group.json"
    assert main(["group", path, "--cayley", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "closure order: 8" in out
    assert "{1: 1, 2: 5, 4: 2}" in out
    report = json.loads(report_path.read_text())
    assert report["results"]["order"] == 8
    assert len(report["results"]["cayley"]) == 8
    assert report["results"]["dihedral_8"] is True


def test_group_command_cap_exit_2(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["group", path, "--element-cap", "4"]) == 2


def test_lift_command(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["lift", path]) == 0
    out = capsys.readouterr().out
    assert "total width 3" in out
    assert "step 2 (f2)" in out


@given(seed=st.integers(0, 2**64 - 1), steps=st.integers(1, 2), zeroed=st.sets(st.integers(0, 1)))
@settings(max_examples=40)
def test_lift_orders_match_permutations(tmp_path_factory, seed, steps, zeroed):
    # lift reports order and identity from the truth tables; check them
    # against the lifted permutations (W <= 9)
    pipeline = random_pipeline(seed, steps=steps, max_width=3)
    fns = tuple(zero_fn(f.arity_in, f.arity_out) if i in zeroed else f for i, f in enumerate(pipeline.steps))
    pipeline = PipelineSpec(pipeline.widths, fns)
    directory = tmp_path_factory.mktemp("lift")
    path, report_path = directory / "pipeline.json", directory / "report.json"
    path.write_text(emit_pipeline(pipeline), encoding="utf-8")
    assert main(["lift", str(path), "--json", str(report_path)]) == 0
    reported = json.loads(report_path.read_text())["results"]["steps"]
    for i, step in enumerate(reported):
        perm = step_perm(pipeline, i)
        assert (step["order"], step["is_identity"]) == (perm_order(perm), perm_is_identity(perm))


def test_verify_and_group_build_no_cayley_table(tmp_path, capsys, monkeypatch):
    def refuse(self, images):
        raise AssertionError("the Cayley table was built")

    monkeypatch.setattr(GroupClosure, "cayley_rows", refuse)
    doc = {"format_version": 1, "registers": [1, 1, 1, 1], "functions": [{"table": ["0", "1"]}] * 3}
    path = _write(tmp_path, doc)
    assert main(["verify", path]) == 0
    assert main(["group", path]) == 0
    assert "closure order: 64" in capsys.readouterr().out


def test_coxeter_command(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["coxeter", path]) == 0
    out = capsys.readouterr().out
    assert "[1, 4]" in out and "match: yes" in out


def test_coxeter_command_degenerate(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "registers": [1, 1, 1],
        "functions": [{"table": ["0", "0"]}, {"table": ["0", "1"]}],
    }
    assert main(["coxeter", _write(tmp_path, doc)]) == 0
    assert "degenerate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "tables, defects, adjacent",
    [
        # three identities: every pair is equal, and neighbouring products are the identity
        (
            [["0", "0"]] * 3,
            [f"generator {i} is the identity" for i in (1, 2, 3)]
            + ["generators 1 and 2 are equal", "generators 1 and 3 are equal", "generators 2 and 3 are equal"],
            [1, 1],
        ),
        # one identity: its product with the neighbour is the neighbour, an involution
        ([["0", "0"], ["0", "1"]], ["generator 1 is the identity"], [2]),
        # lifted steps write different registers: only two identities are equal
        (
            [["0", "0"], ["0", "1"], ["0", "0"]],
            ["generator 1 is the identity", "generator 3 is the identity", "generators 1 and 3 are equal"],
            [2, 2],
        ),
        # constant steps: neighbours commute, so their product has order 2
        ([["1", "1"], ["1", "1"]], [], [2]),
        ([["0", "1"], ["0", "1"]], [], []),
    ],
    ids=["all_zero", "zero_first", "zero_ends", "commuting", "identity"],
)
def test_defects_in_reports(tmp_path, capsys, tables, defects, adjacent):
    # group adds the neighbours whose product is not of order 4 to the
    # generator defects that coxeter and verify report
    orders = [
        f"product of adjacent generators {i} and {i + 1} has order {k}, expected 4" for i, k in enumerate(adjacent, 1)
    ]
    doc = {"format_version": 1, "registers": [1] * (len(tables) + 1), "functions": [{"table": t} for t in tables]}
    path = _write(tmp_path, doc)
    report_path = tmp_path / "report.json"
    for command, expected in (("group", defects + orders), ("coxeter", defects), ("verify", defects)):
        assert main([command, path, "--json", str(report_path)]) == 0
        results = json.loads(report_path.read_text())["results"]
        # coxeter's report has the field only for a degenerate pipeline
        assert results.get("defects", []) == expected
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("  - ")] == [f"  - {d}" for d in expected]
    verdict = "DEGENERATE" if defects else "PROPER_QUOTIENT" if adjacent else "CONFIRMED"
    assert results["verdict"] == verdict  # verify's report, the last one written


# golden file name -> command line; group --cayley has a file of its own beside group's
_GOLDEN_COMMANDS = {
    "lift": ["lift"],
    "group": ["group"],
    "group_cayley": ["group", "--cayley"],
    "coxeter": ["coxeter"],
    "verify": ["verify"],
    "run": ["run", "--input", "1"],
    "qrun": ["qrun", "--word", "f2", "f1", "--input", "0", "0", "0", "--superpose", "0", "--measure", "2",
             "--seed", "7", "--shots", "5000"],
}


# every command on the 2-step pipelines; verify alone from three steps on, where the claim is infinite
_GOLDEN_CASES = [
    *((name, stem) for stem in ("two_step_identity", "two_step_degenerate") for name in _GOLDEN_COMMANDS),
    ("verify", "three_step_identity"),
]


@pytest.mark.parametrize("name, stem", _GOLDEN_CASES, ids=[f"{name}-{stem}" for name, stem in _GOLDEN_CASES])
def test_reports_match_golden(tmp_path, capsys, monkeypatch, stem, name):
    # relative paths keep the report's command field independent of the directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{stem}.json").write_bytes((PIPELINES / f"{stem}.json").read_bytes())
    command, *options = _GOLDEN_COMMANDS[name]
    assert main([command, f"{stem}.json", *options, "--json", "report.json"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"{stem}.{name}.json"
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()


def test_json_reports_are_byte_identical(tmp_path):
    path = _write(tmp_path, P1_DOC)
    report_path = tmp_path / "report.json"
    argv = ["qrun", path, "--word", "g", "f", "--input", "1", "0", "0",
            "--measure", "2", "--seed", "7", "--shots", "50", "--json", str(report_path)]
    assert main(argv) == 0
    first = report_path.read_bytes()
    assert main(argv) == 0
    assert report_path.read_bytes() == first
    report = json.loads(first)
    assert json.loads(json.dumps(report)) == report  # lossless round-trip
    assert report["input_digest"].startswith("sha256:")
    assert report["results"]["counts"] == {"1": 50}


def _one_bit_doc(*tables):
    return {"format_version": 1, "registers": [1] * (len(tables) + 1), "functions": [{"table": t} for t in tables]}


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "three_step_identity.json", "--cayley"],
        # Cayley tables of |G| = 1 (one 1-entry row), 2 and 1024 (four-digit indices)
        ["group", _one_bit_doc(["0", "0"]), "--cayley"],
        ["group", _one_bit_doc(["1", "1"]), "--cayley"],
        ["group", _one_bit_doc(*[["0", "1"]] * 4), "--cayley"],
        ["lift", "two_step_identity.json"],
        ["coxeter", "two_step_identity.json"],
        ["verify", "two_step_identity.json"],
        ["run", "two_step_identity.json", "--input", "1"],
        ["qrun", "two_step_identity.json", "--word", "f", "g", "--input", "0", "0", "0",
         "--superpose", "0", "--measure", "2", "--shots", "20"],
    ],
    ids=["group_cayley", "group_cayley_order_1", "group_cayley_order_2", "group_cayley_four_step_identity",
         "lift", "coxeter", "verify", "run", "qrun"],
)
def test_report_is_indented_sorted_json(tmp_path, argv):
    # the report form is pinned to the json module's, so any JSON tool can rebuild a fixture
    report_path = tmp_path / "report.json"
    command, pipeline, *options = argv
    path = _write(tmp_path, pipeline) if isinstance(pipeline, dict) else str(PIPELINES / pipeline)
    assert main([command, path, *options, "--json", str(report_path)]) == 0
    written = report_path.read_bytes()
    assert written == (json.dumps(json.loads(written), indent=2, sort_keys=True) + "\n").encode()


def test_cayley_report_is_written_row_by_row():
    # a report never exists as one string: the largest piece of a --cayley
    # report is one row of its table, drawn as it is written, so the
    # writer's memory stays flat
    spec = parse_pipeline((PIPELINES / "three_step_identity.json").read_bytes())
    args = argparse.Namespace(cayley=True, element_cap=permgroup.DEFAULT_ELEMENT_CAP)
    results = cli._cmd_group(args, spec)[1]
    assert isinstance(results["cayley"], cli._TextRows)  # the path group --cayley writes
    assert isinstance(results["words"], cli._TextRows)
    pieces = list(_json_chunks({"results": results}))
    group = permgroup.closure(spec)
    cayley = [list(row) for row in group.cayley_rows(range(len(group)))]
    words = [[f"f{s + 1}" for s in word] for word in group.words]
    row = "".join(_json_chunks(cayley[-1], "      "))
    assert len(cayley) == 64 and max(map(len, pieces)) == len(row)
    assert len(pieces) > 2 * len(cayley)
    plain = dict(results, cayley=cayley, words=words)
    assert "".join(pieces) == json.dumps({"results": plain}, indent=2, sort_keys=True)


def _nested(depth):
    value = [1, "x"]
    for i in range(depth):
        value = {"k": value, "n": None} if i % 2 else [value, i, []]
    return value


_KEYS = st.text() | st.sampled_from(["é", "ключ", "😀", '"', "\\", "\x00\x1f\n", "\u2028"])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.sampled_from([2**64, -(2**64) - 1, -1])
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | _KEYS
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_KEYS, inner),
    max_leaves=30,
)


@given(value=_VALUES)
@settings(max_examples=200)
@example(value=[])
@example(value={})
@example(value=[[], {}, (), 1, "a", [None]])
@example(value={"\u00e9\"\\\x01": (True, False, 2**70, -(2**64), -0.0, math.nan, math.inf, -math.inf)})
@example(value=_nested(60))
def test_json_chunks_match_json(value):
    assert "".join(_json_chunks(value)) == json.dumps(value, indent=2, sort_keys=True)


def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "closure", exhausted)
    report_path = tmp_path / "report.json"
    assert main(["group", _write(tmp_path, P1_DOC), "--json", str(report_path)]) == 2
    assert capsys.readouterr().err == "error: group ran out of memory\n"
    assert not report_path.exists()


def test_out_of_memory_while_writing_exit_2(tmp_path, capsys, monkeypatch):
    # the Cayley rows are gathered while the report is written: running out
    # of memory there exits 2 as well, and leaves no partial report
    def exhausted(self, images):
        yield tuple(images)
        raise MemoryError

    monkeypatch.setattr(GroupClosure, "cayley_rows", exhausted)
    report_path = tmp_path / "report.json"
    assert main(["group", _write(tmp_path, P1_DOC), "--cayley", "--json", str(report_path)]) == 2
    assert capsys.readouterr().err == "error: group ran out of memory\n"
    assert not report_path.exists()


def test_unknown_subcommand_exit_1(capsys):
    assert main(["bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exit_1(tmp_path, capsys):
    path = _write(tmp_path, P1_DOC)
    assert main(["verify", path, "--frobnicate"]) == 1


def test_missing_file_exit_1(capsys):
    assert main(["verify", "/nonexistent/path.json"]) == 1


@pytest.mark.parametrize("target", ["missing/report.json", ""], ids=["missing_directory", "directory"])
def test_unwritable_report_exit_1(tmp_path, capsys, target):
    path = _write(tmp_path, P1_DOC)
    assert main(["lift", path, "--json", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", [1 << 23, (1 << 23) - 1])
def test_cayley_byte_budget_boundary(tmp_path, capsys, monkeypatch, budget):
    # the 4-step identity table has 1024^2 entries at 8 bytes: 2^23 bytes,
    # checked before anything is printed or the report is opened (its
    # closure takes 588,016 bytes)
    monkeypatch.setattr(permgroup, "BYTE_BUDGET", budget)
    doc = {"format_version": 1, "registers": [1] * 5, "functions": [{"table": ["0", "1"]}] * 4}
    report_path = tmp_path / "report.json"
    code = main(["group", _write(tmp_path, doc), "--cayley", "--json", str(report_path)])
    captured = capsys.readouterr()
    if budget < 1 << 23:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: Cayley table exceeds the budget of {budget} bytes\n"
        assert not report_path.exists()
    else:
        assert (code, captured.err) == (0, "") and captured.out.startswith("closure order: 1024\n")
        assert len(json.loads(report_path.read_text())["results"]["cayley"]) == 1024


def test_cayley_table_of_the_five_step_identity_group_exit_2(tmp_path, capsys):
    # |G| = 32768 is within the default element cap, but its table would be
    # 2^30 entries, some 14 GB of report
    doc = {"format_version": 1, "registers": [1] * 6, "functions": [{"table": ["0", "1"]}] * 5}
    report_path = tmp_path / "report.json"
    assert main(["group", _write(tmp_path, doc), "--cayley", "--json", str(report_path)]) == 2
    assert capsys.readouterr() == ("", f"error: Cayley table exceeds the budget of {1 << 28} bytes\n")
    assert not report_path.exists()


def test_failed_write_leaves_no_partial_report(tmp_path):
    # the 4-step identity Cayley report runs to megabytes; with the file size
    # limited to 1 MiB (and SIGXFSZ ignored) the write fails with EFBIG, and
    # the truncated report is removed
    pytest.importorskip("resource")
    doc = {"format_version": 1, "registers": [1] * 5, "functions": [{"table": ["0", "1"]}] * 4}
    report_path = tmp_path / "report.json"
    script = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({1 << 20}, {1 << 20}))\n"
        "from involift.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["group", _write(tmp_path, doc), "--cayley", "--json", str(report_path)]
    result = subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == f"error: cannot write {report_path}: [Errno 27] File too large\n"
    assert not report_path.exists()


def test_report_that_cannot_be_opened_is_left_intact(tmp_path, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    report_path = tmp_path / "report.json"
    report_path.write_text("kept\n", encoding="utf-8")
    monkeypatch.setattr(cli, "open", refused, raising=False)
    assert main(["lift", _write(tmp_path, P1_DOC), "--json", str(report_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {report_path}: [Errno 13] Permission denied\n"
    assert report_path.read_text(encoding="utf-8") == "kept\n"


def test_deeply_nested_document_exit_1(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(["verify", str(deep)]) == 1
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "registers, message",
    [
        ([1, 10**18], f"functions[0]: arity_out {10**18} exceeds the cap of 16"),
        ([1, 10**18, 1 - 10**18], f"functions[0]: arity_out {10**18} exceeds the cap of 16"),
        ([1, 2**70], f"functions[0]: arity_out {2**70} exceeds the cap of 16"),
        ([1, 17], "functions[0]: arity_out 17 exceeds the cap of 16"),
    ],
    ids=["total", "beside_negative", "huge", "last_register"],
)
def test_oversized_register_exit_1(tmp_path, capsys, registers, message):
    # rejected before a table's entry bound 2^width is computed
    doc = {"format_version": 1, "registers": registers, "functions": [{"table": ["0", "0"]}] * (len(registers) - 1)}
    assert main(["lift", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_invalid_document_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "registers": [1], "functions": []}', encoding="utf-8")
    assert main(["verify", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def _child_env(**extra: str) -> dict[str, str]:
    # a child imports the package from where this process found it
    search = [str(Path(involift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search)), **extra}


def test_module_invocation_subprocess(tmp_path):
    path = _write(tmp_path, P1_DOC)
    result = subprocess.run(
        [sys.executable, "-m", "involift", "verify", path],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert "CONFIRMED" in result.stdout


def test_import_builds_no_parser():
    # the parser is built by the first main() call, never at import, so its
    # cost stays out of the start-up of a one-shot command
    result = subprocess.run(
        [sys.executable, "-c", "import involift.cli as cli; print(cli._build_parser.cache_info().currsize)"],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "0\n"


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    roots = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        if kwargs.get("prog") == "involift":
            roots.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli._build_parser.cache_clear()
    path = _write(tmp_path, P1_DOC)
    calls = [
        ["lift", path],
        ["group", path],
        ["coxeter", path],
        ["verify", path],
        ["run", path, "--input", "1"],
        ["qrun", path, "--word", "f", "--input", "1", "0", "0", "--measure", "1", "--shots", "5"],
        ["verify", path, "--frobnicate"],
    ]
    assert [main(argv) for argv in calls] == [0, 0, 0, 0, 0, 0, 1]
    assert len(roots) == 1
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(calls) - 1, 1)


def test_parser_holds_no_per_call_state():
    parser = cli._build_parser()
    argv = ["qrun", "p.json", "--word", "g", "f", "--input", "1", "0", "0", "--measure", "2"]
    first, second = parser.parse_args(argv), parser.parse_args(argv)
    assert first is not second and first == second
    assert first.word is not second.word and first.input is not second.input
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = [parser, *subparsers[0].choices.values()]
    assert len(parsers) == 7
    accumulating = (argparse._AppendAction, argparse._AppendConstAction, argparse._ExtendAction)
    for p in parsers:
        for action in p._actions:
            assert not isinstance(action, accumulating), (p.prog, action.dest)
            assert isinstance(action.default, (type(None), bool, int, str)), (p.prog, action.dest)
        assert all(callable(v) for v in p._defaults.values()), p.prog


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # --help
        code = e.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


# One process runs these in order.  Each pair's second call would inherit
# the first one's option (superposition, element cap) if parser
# or namespace state leaked between calls.
_SEQUENCE = [
    ["verify", "p.json", "--frobnicate"],
    ["--help"],
    ["qrun", "p.json", "--word", "g", "f", "--input", "0", "0", "0", "--superpose", "0",
     "--measure", "2", "--shots", "20", "--json", "qrun_superposed.json"],
    ["qrun", "p.json", "--word", "g", "f", "--input", "1", "0", "0",
     "--measure", "2", "--shots", "20", "--json", "qrun.json"],
    ["group", "p.json", "--element-cap", "2", "--json", "group_capped.json"],
    ["group", "p.json", "--cayley", "--json", "group.json"],
    ["verify", "p.json", "--element-cap", "4", "--json", "verify_capped.json"],
    ["verify", "p.json", "--json", "verify.json"],
]


def test_in_process_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # help text wraps at the terminal width; pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    here, child = tmp_path / "in_process", tmp_path / "child"
    for directory in (here, child):
        directory.mkdir()
        _write(directory, P1_DOC, name="p.json")
    monkeypatch.chdir(here)
    results = [_in_process(argv, capsys) for argv in _SEQUENCE]
    assert [code for code, _, _ in results] == [1, 0, 0, 0, 2, 0, 2, 0]
    for argv, (code, out, err) in zip(_SEQUENCE, results):
        alone = subprocess.run(
            [sys.executable, "-m", "involift", *argv], cwd=child, env=_child_env(COLUMNS="80"), capture_output=True
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
    reports = sorted(path.name for path in here.glob("*.json") if path.name != "p.json")
    # a capped command writes no report
    assert reports == ["group.json", "qrun.json", "qrun_superposed.json", "verify.json"]
    for name in reports:
        assert (here / name).read_bytes() == (child / name).read_bytes(), name
