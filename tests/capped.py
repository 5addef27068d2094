"""Run Python source in a child process with its address space capped.

The tests of the enumeration caps go through here.  Without the caps their
inputs list millions of sets; under a 1 GiB address-space limit and a
timeout, a regression ends the child with MemoryError or a timeout and
fails one test, instead of growing until the system kills the whole run.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

MEMORY_CAP = 1 << 30
SRC = str(Path(__file__).resolve().parents[1] / "src")
BUDGET_ERROR = "alcuin.errors.BudgetExceededError: "


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_capped(source: str, *args: str, timeout: float = 30) -> subprocess.CompletedProcess:
    """``python -c source *args`` with the package importable, under the cap."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    return subprocess.run(
        [sys.executable, "-c", source, *args],
        env=env,
        preexec_fn=_cap_memory,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def budget_error(source: str) -> str:
    """The message of the BudgetExceededError that source ends with, run
    under the cap; an assertion error if it ends any other way."""
    done = run_capped(source)
    last = done.stderr.splitlines()[-1] if done.stderr else ""
    assert last.startswith(BUDGET_ERROR), done.stderr[-2000:] or done.stdout[-2000:]
    return last[len(BUDGET_ERROR) :]
