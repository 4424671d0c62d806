"""The machine and software a result was measured on (read-only probes)."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

import numpy as np
import scipy

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg():
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(git, ref))
    if loose:
        return loose.strip()
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _blas_threads():
    """Thread count reported by the BLAS library numpy loaded."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if ".so" in line and "blas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"library_file": os.path.basename(lib), "threads": fn()}
    return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def record(root, load_start):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }
