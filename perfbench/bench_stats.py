"""Order statistics and provenance for the benchmark's reports.

Percentiles use linear interpolation between closest ranks.  A tail
percentile is only reported when at least :data:`MIN_TAIL_SAMPLES` samples
lie beyond it; :func:`tail_percentile` returns ``None`` otherwise, so a
report never quotes a p99 that rests on one or two samples.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from pathlib import Path
from typing import Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of *samples*, *q* in ``[0, 1]``."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (position - lower) * (ordered[upper] - ordered[lower])


def median(samples: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 0.5)


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of *n_samples* ranked samples lie strictly above quantile *q*."""
    return n_samples - 1 - math.floor((n_samples - 1) * q)


def tail_percentile(samples: Sequence[float], q: float) -> float | None:
    """Percentile *q*, or ``None`` when fewer than ten samples lie beyond it."""
    if samples_beyond(len(samples), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(samples, q)


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, **run: object) -> dict:
    """Where a result came from: code identity, machine, toolchain, run knobs.

    A checkout without ``.git`` reports ``git_sha`` and ``git_dirty`` as
    ``None``; ``src_sha256`` identifies the code either way.
    """
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        **run,
    }
