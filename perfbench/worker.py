"""Child process that runs one workload's ops through ``involift.cli.main``.

    python3 perfbench/worker.py PLAN RESULT
    python3 perfbench/worker.py --isolated PLAN OP PASS RESULT

It is a closed loop with one client: each op starts after the previous one
returns.  Passes over the op list repeat while another pass still fits in
the phase's time; a traced phase follows the untraced one when the plan
asks for tracing.  Ops marked ``isolate`` run in their own child (the
``--isolated`` form) under a wall budget and an address-space limit.
Every op's report is hashed after it returns, outside the timed region.
The run must start from the root of a checkout with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing


def call_main(argv):
    """Time one in-process call; returns (seconds, exit code, error text)."""
    main = importlib.import_module("involift.cli").main  # the traced wrapper once installed
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        seconds = perf_counter() - start
    if error is None and "Traceback" in err.getvalue():
        error = err.getvalue()
    return seconds, rc, error


def report_record(op, seconds, rc, error):
    path = Path(op["report"])
    data = path.read_bytes() if path.exists() else b""
    return {
        "seconds": seconds,
        "rc": rc,
        "error": error,
        "digest": hashlib.sha256(data).hexdigest() if data else None,
        "bytes": len(data),
    }


def run_isolated(plan_path, index, pass_index, result_path, tracer):
    """Run op ``index`` in a child under the plan's budgets."""
    op = json.loads(Path(plan_path).read_text())["ops"][index]
    Path(result_path).unlink(missing_ok=True)
    log = Path(result_path).with_suffix(".log")
    start = perf_counter()
    with open(log, "wb") as sink:
        child = subprocess.Popen(
            [sys.executable, __file__, "--isolated", plan_path, str(index), str(pass_index), result_path],
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
        try:
            child.wait(timeout=op["budget_s"])
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    wall = perf_counter() - start
    if not Path(result_path).exists():
        error = f"no result within {op['budget_s']} s wall and {op['address_space_mb']} MB address space"
        error += f" (exit {child.returncode}): " + log.read_text(errors="replace")[-2000:]
        return {**report_record(op, max(wall, op["budget_s"]), None, error), "budget": True}
    result = json.loads(Path(result_path).read_text())
    if tracer is not None:
        tracer.add(result["spans"], result["counts"])
    return report_record(op, result["seconds"], result["rc"], result["error"])


def isolated_child(plan_path, index, pass_index, result_path):
    plan = json.loads(Path(plan_path).read_text())
    op = plan["ops"][index]
    limit = op["address_space_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    importlib.import_module("involift.cli")
    tracer = None
    if plan["trace_pass"] is not None and pass_index >= plan["trace_pass"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.pass_index, tracer.op = pass_index, index
    seconds, rc, error = call_main(op["argv"])
    result = {"seconds": seconds, "rc": rc, "error": error, "spans": [], "counts": {}}
    if tracer is not None:
        result["spans"], result["counts"] = tracer.spans, dict(tracer.counts)
    Path(result_path).write_text(json.dumps(result))


# Host speed drifts by tens of percent over tens of seconds on shared
# machines, so op times are scaled to the speed at which one pass of this
# loop takes CAL_REFERENCE_S.
CAL_INTERVAL_S = 0.1
CAL_REFERENCE_S = 0.002


def calibrate() -> float:
    """Median seconds of three passes of a fixed pure-Python loop with the
    program's kinds of work: tuples built from generators, dict lookups on
    them, hex formatting."""
    times = []
    for _ in range(3):
        start = perf_counter()
        mapping = list(range(64))
        seen = {}
        for i in range(400):
            seen[tuple(mapping[v ^ (i & 63)] for v in mapping)] = format(i, "x")
        times.append(perf_counter() - start)
    return sorted(times)[1]


class Calibration:
    """Samples a fixed pure-Python loop at least every CAL_INTERVAL_S, between
    ops; each op record gets the mean of the samples just before and after it."""

    def __init__(self):
        self.last = calibrate()
        self.at = perf_counter()
        self.pending = []

    def before(self):
        if perf_counter() - self.at >= CAL_INTERVAL_S:
            self.sample()
        return self.last

    def after(self, record, before):
        record["cal_before"] = before
        self.pending.append(record)

    def sample(self):
        self.last = calibrate()
        self.at = perf_counter()
        for r in self.pending:
            r["cal"] = (r["cal_before"] + self.last) / 2
        self.pending = []


def run_phase(plan, plan_path, seconds, sink, first, tracer) -> int:
    """Repeat passes over the op list while the next one still fits.  Each
    pass goes to ``sink`` as one JSON line, so memory does not grow with the
    number of passes.  Passes are numbered from ``first``; returns the next
    number."""
    start = perf_counter()
    cal = Calibration()
    index = first
    while True:
        began = perf_counter()
        records = []
        for i, op in enumerate(plan["ops"]):
            Path(op["report"]).unlink(missing_ok=True)
            if tracer is not None:
                tracer.pass_index, tracer.op = index, i
            before = cal.before()
            if op["isolate"]:
                result = str(Path(plan["work"]) / "isolated.json")
                records.append(run_isolated(plan_path, i, index, result, tracer))
            else:
                records.append(report_record(op, *call_main(op["argv"])))
            cal.after(records[-1], before)
        cal.sample()
        sink.write(json.dumps(records) + "\n")
        index += 1
        took = perf_counter() - began
        if perf_counter() - start + took > seconds:
            return index


def own_peak_rss_kb() -> int:
    """Peak RSS of this process since it started.  ru_maxrss would also count
    the memory of the parent at spawn time."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    if argv[0] == "--isolated":
        isolated_child(argv[1], int(argv[2]), int(argv[3]), argv[4])
        return
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text())
    importlib.import_module("involift.cli")
    tracer = None
    with open(Path(plan["work"]) / "passes.jsonl", "w") as sink:
        untraced = run_phase(plan, plan_path, plan["seconds"] / (2 if plan["trace"] else 1), sink, 0, None)
        if plan["trace"]:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            plan["trace_pass"] = untraced
            Path(plan_path).write_text(json.dumps(plan))  # isolated children read it
            run_phase(plan, plan_path, plan["seconds"] / 2, sink, untraced, tracer)
    result = {
        "untraced_passes": untraced,
        # a child's ru_maxrss counts this process's memory at the spawn, which
        # is at most our own peak, so the maximum of the two is still exact
        "maxrss_kb": max(own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
