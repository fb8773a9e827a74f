"""The one stamp every benchmark output carries: host, commit, seed, params.

This is the schema ROADMAP asks all ``BENCH_*.json`` files to converge on:
``benchmark, host, commit, seed, params, workloads{metrics, samples}``.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _filesystem_of(path: Path) -> str | None:
    """Filesystem type of the mount that holds ``path`` (Linux only)."""
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            mounts = [line.split()[1:3] for line in handle]
    except OSError:
        return None
    resolved = str(path.resolve())
    best = max(
        (mount for mount in mounts if resolved == mount[0] or resolved.startswith(mount[0].rstrip("/") + "/")),
        key=lambda mount: len(mount[0]),
        default=None,
    )
    return best[1] if best else None


def host_stamp(journal_dir: Path) -> dict[str, Any]:
    """Where the numbers were measured."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "journal_filesystem": _filesystem_of(journal_dir),
    }


def commit_stamp(repo: Path) -> dict[str, Any]:
    """``git rev-parse HEAD`` and whether the tree was dirty; nulls outside git."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(repo), *args],
                capture_output=True,
                text=True,
                timeout=30,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"rev": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def envelope(
    benchmark: str,
    repo: Path,
    journal_dir: Path,
    seed: int,
    params: dict[str, Any],
    workloads: dict[str, Any],
) -> dict[str, Any]:
    """Assemble one output document."""
    return {
        "benchmark": benchmark,
        "host": host_stamp(journal_dir),
        "commit": commit_stamp(repo),
        "seed": seed,
        "params": params,
        "workloads": workloads,
        # This benchmark is the yardstick; it claims no gain itself.
        "summary": {"claim": None},
    }
