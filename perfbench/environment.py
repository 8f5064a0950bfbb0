"""The run's environment, recorded next to its results."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

def _commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _caches() -> dict[str, str]:
    """Data and unified cache sizes of cpu0 by level, from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if (idx / "type").read_text().strip() == "Instruction":
                continue
            level = (idx / "level").read_text().strip()
            out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _src_lines(root: Path) -> int:
    return sum(
        len(p.read_text().splitlines()) for p in (root / "src" / "nilmag").glob("*.py")
    )


def environment(root: Path, thread_vars: tuple[str, ...]) -> dict:
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "thread_vars": {v: os.environ.get(v) for v in thread_vars},
        "src_nilmag_lines": _src_lines(root),
    }
