"""Test helpers that run hyperfield in a fresh interpreter: a script, or a
command whose peak RSS is measured."""

import os
import subprocess
import sys

import hyperfield


def run_child(script, *args) -> subprocess.CompletedProcess:
    """Run ``script`` with ``args`` in a fresh interpreter that imports this hyperfield."""
    src = os.path.dirname(os.path.dirname(hyperfield.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )


# Runs the hyperfield command in argv and prints its exit code and peak
# RSS (KiB on Linux). It is started from this small interpreter because a
# child's ru_maxrss also counts the memory of the process that forked it.
_PEAK = """\
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "hyperfield.cli", *sys.argv[1:]])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def command_peak(*argv) -> int:
    """Peak RSS in bytes of the command ``hyperfield argv``, which must exit
    0, run in a fresh interpreter; the figure holds on Linux only."""
    result = run_child(_PEAK, *argv)
    assert result.returncode == 0, result.stderr
    code, peak_kib = map(int, result.stdout.split())
    assert code == 0, result.stderr
    return peak_kib * 1024
