"""Every example runs: exit status 0, and nothing left behind in the tree.

The examples are the package's front door and the main users of the
multiprocess executor's result, so each ``examples/*.py`` runs as a user
would run it -- a fresh interpreter, default arguments, ``src`` on
``PYTHONPATH`` -- and must leave ``git status`` as it found it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Examples that start worker processes.
MULTIPROCESS = {"real_parallel_join.py"}


def _tree_status() -> "str | None":
    """``git status`` of the checkout, or ``None`` outside a git checkout."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.parametrize(
    "example",
    [
        pytest.param(
            path,
            id=path.name,
            marks=[pytest.mark.multiprocess] if path.name in MULTIPROCESS else [],
        )
        for path in EXAMPLES
    ],
)
def test_example_runs_and_leaves_the_tree_clean(example):
    before = _tree_status()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip(), "an example prints what it shows"
    assert _tree_status() == before


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 7
