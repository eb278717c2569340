"""Hardware and build fingerprint printed with every result."""

from __future__ import annotations

import os
import platform
import statistics
import time
import typing


def _git_sha(root: str) -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); ``unknown``
    in a checkout that is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def fsync_latency_us(directory: str, repeats: int = 41) -> float:
    """Median wall time of one small append + ``fsync`` in
    ``directory`` (where the workload's WAL lives), in microseconds."""
    path = os.path.join(directory, "fsync-probe")
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        for _ in range(repeats):
            os.write(fd, b"x" * 64)
            started = time.perf_counter()
            os.fsync(fd)
            samples.append(time.perf_counter() - started)
    finally:
        os.close(fd)
        os.unlink(path)
    return statistics.median(samples) * 1e6


def fingerprint(root: str, directory: str) -> typing.Dict[str, typing.Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "fsync_us": round(fsync_latency_us(directory), 1),
    }
