"""Shared plumbing for the benchmark: statistics, results, checks, host facts.

Nothing here imports ``repro``; the phases import it after ``run.py`` has put
the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sqlite3
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Percentiles a tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0)

#: How many samples must lie beyond the percentile a tail metric reports.
TAIL_MIN_BEYOND = 10


class CheckError(Exception):
    """A correctness check failed: the run's outputs are wrong."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckError(message)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail_percentile(expected_samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Chosen from the number of samples the run is *planned* to take, so it is
    the same on every run of a workload at a given run length.
    """
    for pct in TAIL_LADDER:
        if expected_samples * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class RouteCounts:
    """sent / succeeded / failed for one phase or route."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.sent += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1

    def to_dict(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded, "failed": self.failed}


@dataclass
class PhaseResult:
    """What one phase hands back: metric values plus the record."""

    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, RouteCounts] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    #: Per-layer values the phase measures itself (traced runs only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds of each traced/untraced operation.
    op_seconds: List[float] = field(default_factory=list)

    def route(self, name: str) -> RouteCounts:
        return self.counts.setdefault(name, RouteCounts())

    @property
    def attempted(self) -> int:
        return sum(c.sent for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.counts.values())


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: Path) -> int:
    return sum(
        (Path(dirpath) / name).stat().st_size
        for dirpath, _dirs, files in os.walk(root)
        for name in files
    )


def host_facts(checkout: Path) -> dict:
    import numpy

    commit: Optional[str] = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=checkout,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def pin(pid: int, cpu: int) -> None:
    """Keep process ``pid`` (0: this one) on ``cpu`` when there are two or more CPUs."""
    if (os.cpu_count() or 1) >= 2:
        os.sched_setaffinity(pid, {cpu})


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


#: Seed of every generated input graph.  The graphs are the same on every
#: run (their cost differs from graph to graph far more than run-to-run noise,
#: so one median must not depend on which graphs a seed drew); ``--seed``
#: drives everything the program does with them: noise and specialization
#: draws, mutation batches, request schedules.
GRAPH_SEED = 20170605


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit sub-seed for ``label``, a pure function of ``(seed, label)``."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big") >> 1


def emit(line: object) -> None:
    """Print one line (JSON for dicts) and flush, so a cut run keeps its log."""
    print(json.dumps(line, sort_keys=True) if isinstance(line, dict) else line, flush=True)


def eprint(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)
