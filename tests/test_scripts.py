"""The scripts run end to end, each started as its own process the way a
reader runs it, against the package the tests import."""

import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import involift

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_survey_two_step_smoke():
    search = [str(Path(involift.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "survey_two_step.py"), "--pipelines", "20", "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == "pipelines: 20 (seed 0, widths 1..3)"
    rows = takewhile(lambda line: line.startswith("  "), lines[lines.index("closure orders:") + 1 :])
    orders = {int(order): int(count) for order, count in (row.split(":") for row in rows)}
    assert sum(orders.values()) == 20
    # two involutions generate a dihedral group, so order 8 is exactly the dihedral case
    dihedral = re.fullmatch(r"dihedral of order 8: (\d+) \(\d+\.\d%\)", lines[1])
    assert dihedral is not None and int(dihedral[1]) == orders.get(8, 0)
