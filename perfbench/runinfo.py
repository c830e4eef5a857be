"""Run metadata recorded with every result: machine, toolchain, commit, inputs."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np


def inputs_digest(root: Path) -> str:
    """sha256 over every generated input file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(repo: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a checkout."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _ram_gb() -> float:
    try:
        return round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2)
    except (ValueError, OSError):
        return -1.0


def _openblas_library():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            return ctypes.CDLL(str(path))  # already loaded by numpy: same handle
        except OSError:
            continue
    return None


def blas_info() -> dict:
    """BLAS name, version and thread count as numpy sees them; nothing is changed."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"blas": f"{blas.get('name')} {blas.get('version')}"}
    except (AttributeError, KeyError, TypeError):
        info = {"blas": "unknown"}
    lib = _openblas_library()
    threads = None
    if lib is not None:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    info["blas_threads"] = threads if threads is not None else "unknown"
    return info


def collect(repo: Path, **run) -> dict:
    """Everything needed to tell whether two results may be compared."""
    return {
        **run,
        "git_commit": git_commit(repo),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_gb": _ram_gb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
    }
