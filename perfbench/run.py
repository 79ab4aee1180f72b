#!/usr/bin/env python3
"""The involift benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It generates the workload's pipeline
documents from the seed, computes every expected answer from the truth
tables, times interpreter start plus ``import involift.cli`` in fresh
children (setup_s), then runs the op list in one single-threaded child
(perfbench/worker.py) through ``involift.cli.main(argv)`` with ``--json``
on, and checks every report against the known answers.  Op times are
scaled to a reference host speed (see perfbench/README.md).

With ``--trace 0`` the end-to-end metrics come from untraced passes.  With
``--trace 1`` the child runs untraced passes for half the time and traced
passes (perfbench/tracing.py) for the other half; the per-layer metrics
come from the traced passes, the difference in pass wall time is the
tracing overhead, and every report must be byte-identical between the two.

A table of every metric, with unit and sample count, the run environment
and any failures go to standard output, and the run's record to
.perfbench_out/; the last line of standard output is the JSON result.
``--workload all`` runs each workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics
from worker import CAL_REFERENCE_S
from workloads import PROBE_ADDRESS_SPACE_MB, WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
SETUP_TRIALS = 11  # before the op passes, and as many again after them
RUN_LIMIT_S = 170  # the whole run, set-up included, must end well within 180 s
P90_MIN_OPS = 100  # op_p90_ms needs ten samples beyond it


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def measure_setup(env, trials) -> list[float]:
    """Interpreter start plus ``import involift.cli``, each in a fresh child.
    One untimed child first writes the bytecode cache.  Not scaled to the
    reference speed: process start does not track the calibration loop."""
    command = [sys.executable, "-c", "import involift.cli"]
    subprocess.run(command, env=env, check=True)
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def environment(name, seed, ops) -> dict:
    sources = sorted(Path("src/involift").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if Path(".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "workload": name,
        "seed": seed,
        "ops_per_pass": len(ops),
        "budgets": sorted({f"{op.argv[0]}{' (isolated)' if op.isolate else ''}: {op.budget_s:g} s" for op in ops})
        + [f"isolated address space: {PROBE_ADDRESS_SPACE_MB} MB"],
    }


def judge(ops, passes, digests_from) -> tuple[list[list[dict]], list[str], bool]:
    """Classify every op sample.  Returns charged samples per pass, failure
    lines, and whether every report produced was right (a blown budget is a
    failure but not a wrong answer).  A good op's time is scaled to the
    reference speed; a failed op is charged max(its time, its budget) in
    plain seconds."""
    failures = []
    correct = True
    verdicts = []
    for i, op in enumerate(ops):
        samples = [p[i] for p in passes]
        reference = samples[digests_from]["digest"]
        problems = []
        if any(s["digest"] != reference for s in samples if s["digest"] is not None):
            problems.append("report bytes differ between passes" + (" (traced vs untraced)" if digests_from else ""))
        finished = [s for s in samples if not s.get("budget")]
        if finished and reference is not None:
            report = json.loads(Path(op_report(i)).read_text())
            problems += op.check(finished[0]["rc"], report["results"])
        elif finished:
            problems.append(f"exit {finished[0]['rc']} without a report")
        if problems:
            correct = False
        verdicts.append(problems)
    charged = []
    for p in passes:
        row = []
        for i, (op, s) in enumerate(zip(ops, p)):
            reasons = list(verdicts[i])
            if s["error"]:
                reasons.append(s["error"].strip().splitlines()[-1])
                correct = correct and bool(s.get("budget"))
            if s["seconds"] > op.budget_s and not s.get("budget"):
                reasons.append(f"took {s['seconds']:.3f} s, over its {op.budget_s:g} s budget")
            failed = bool(reasons)
            seconds = max(s["seconds"], op.budget_s) if failed else s["seconds"] * CAL_REFERENCE_S / s["cal"]
            row.append({"seconds": seconds, "failed": failed, "bytes": s["bytes"]})
            if failed:
                line = f"op {i} {' '.join(op.argv)}: {'; '.join(reasons)}"
                if op.note:
                    line += f" [{op.note}]"
                if line not in failures:
                    failures.append(line)
        charged.append(row)
    return charged, failures, correct


def op_report(i) -> str:
    return str(OUT / "work" / "reports" / f"op{i}.json")


def end_to_end(charged, setup, maxrss_kb) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples), from untraced passes.  Each op's time
    is its median over the passes; a failed op is charged at least its
    budget.  The samples column counts ops for the op statistics and passes
    for wall_s."""
    per_op = [statistics.median(p[i]["seconds"] for p in charged) for i in range(len(charged[0]))]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (sum(per_op), "s", len(charged)),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms", len(per_op)),
    }
    if len(per_op) >= P90_MIN_OPS:
        metrics["op_p90_ms"] = (statistics.quantiles(per_op, n=10)[-1] * 1e3, "ms", len(per_op))
    metrics["max_op_s"] = (max(per_op), "s", len(per_op))
    metrics["peak_rss_mb"] = (maxrss_kb / 1024, "MB", 1)
    samples = [s["failed"] for p in charged for s in p]
    metrics["failed_ratio"] = (sum(samples) / len(samples), "ratio", len(samples))
    return metrics


def run_workload(name, seed, seconds, trace, deadline) -> tuple[dict, list[str]]:
    shutil.rmtree(OUT / "work", ignore_errors=True)
    (OUT / "work" / "reports").mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng, Inputs(OUT / "work" / "inputs"))
    env = child_env()
    setup = measure_setup(env, SETUP_TRIALS)
    plan = {
        "work": str(OUT / "work"),
        "seconds": seconds,
        "trace": bool(trace),
        "trace_pass": None,
        "ops": [
            {"argv": op.argv + ["--json", op_report(i)], "report": op_report(i), "budget_s": op.budget_s,
             "isolate": op.isolate, "address_space_mb": PROBE_ADDRESS_SPACE_MB}
            for i, op in enumerate(ops)
        ],
    }
    plan_path = OUT / "work" / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result_path = OUT / "work" / "result.json"
    # its own session, so that a timeout also ends an isolated op it started
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)], env=env,
                              start_new_session=True)
    try:
        worker.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise
    if worker.returncode:
        raise RuntimeError(f"worker exited with {worker.returncode}")
    setup += measure_setup(env, SETUP_TRIALS)
    result = json.loads(result_path.read_text())
    with open(OUT / "work" / "passes.jsonl") as lines:
        passes = [json.loads(line) for line in lines]
    untraced = result["untraced_passes"]
    charged, failures, correct = judge(ops, passes, untraced if trace else 0)
    e2e = end_to_end(charged[:untraced], setup, result["maxrss_kb"])
    layers = {}
    if trace:
        commands = [op.argv[0] for op in ops]
        scale = {(k, i): CAL_REFERENCE_S / s["cal"] for k, p in enumerate(passes) for i, s in enumerate(p)}
        layers = layer_metrics(result["spans"], result["counts"], commands, charged[untraced:], charged[:untraced],
                               scale)
    env_record = environment(name, seed, ops)
    env_record["passes"] = {"untraced": untraced, "traced": len(passes) - untraced}
    attempted = sum(len(p) for p in charged)
    failed = sum(s["failed"] for p in charged for s in p)

    lines = [f"== workload {name}, seed {seed}, {seconds:g} s, trace {trace}"]
    lines += [f"   {k}: {v}" for k, v in env_record.items()]
    lines.append(f"   {'metric':<34}{'value':>16}  {'unit':<6}{'samples':>8}")
    for metric, (value, unit, samples) in e2e.items():
        lines.append(f"   {metric:<34}{value:>16.6g}  {unit:<6}{samples:>8}")
    if "op_p90_ms" not in e2e:
        lines.append(f"   {'op_p90_ms':<34}{'absent':>16}  {'ms':<6}  (fewer than {P90_MIN_OPS} ops per pass)")
    for metric, (value, unit) in layers.items():
        lines.append(f"   {metric:<34}{value:>16.6g}  {unit:<6}{len(passes) - untraced:>8}")
    lines += [f"   failed: {f}" for f in failures]
    lines.append(f"   correct: {correct}, attempted {attempted}, failed {failed}")

    if trace:
        # one file per workload, overwritten by each traced run, to bound disk use
        (OUT / f"{name}-spans.json").write_text(
            json.dumps({"seed": seed, "fields": ["pass", "op", "name", "start", "end", "parent"], "ops": commands,
                        "spans": result["spans"]})
        )
    shown = {k: (v[0], v[1]) for k, v in (layers.items() if trace else e2e.items()) if k != "failed_ratio"}
    if not trace:
        shown.pop("op_p90_ms", None)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    record = {"environment": env_record, "end_to_end": e2e, "per_layer": layers, "failures": failures, "result": line}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    return line, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/involift/cli.py").is_file():
        print("error: run from the root of an involift checkout (src/involift/cli.py not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        results[name], lines = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        print("\n".join(lines), flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
