"""The environment a result was measured in, and the one children run in.

Both commits of a comparison must run with the same record: the same
core count, libraries and BLAS thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict[str, str]:
    """Thread caps for every BLAS/OpenMP pool: no more threads than cores."""
    n = str(nproc())
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git failed)"


def record(root: Path) -> dict:
    """nproc, CPU, memory, library versions, BLAS threads and commit.

    Call after ``thread_env()`` is in ``os.environ``, so OpenBLAS
    reports the thread count the children get.
    """
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e6),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": thread_env(),
        "git_commit": _git_commit(root),
    }
