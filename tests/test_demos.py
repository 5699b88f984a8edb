"""Every narrative script in demos/ and the README's library tour run to
completion, and the tour prints what its comments say."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_tour_prints_what_it_says(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split()
    comments = [ln.split("#", 1)[1] for ln in block.splitlines() if ln.startswith("print(")]
    assert len(printed) == len(comments) == 4
    # Every number a comment quotes as "digits..." starts the printed line.
    for out, comment in zip(printed, comments):
        quoted = re.match(r"\s*(\d\.\d+)\.\.\.", comment)
        if quoted:
            assert out.startswith(quoted.group(1)), (out, comment)
    value, residual, bound = map(float, printed[:3])
    optimum = (2 + math.sqrt(3)) / 8
    assert optimum - 1e-6 <= value <= optimum <= bound
    assert bound - value <= 1e-6 * (1 + value)
    assert residual < 1e-14
    assert printed[3] == "True"
