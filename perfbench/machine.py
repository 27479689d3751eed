"""What the numbers were measured on: interpreter, numpy, BLAS, cores and CPU."""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import platform

import numpy as np


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib, name: str, restype):
    """Call OpenBLAS's ``name`` under the prefixes and suffixes its builds use."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def record() -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    lib = _openblas()
    core = _blas_call(lib, "get_corename", ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core.decode() if core else None,
        "blas_threads": _blas_call(lib, "get_num_threads", ctypes.c_int),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
