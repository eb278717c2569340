"""What one workload run hands back to :mod:`run`."""

from __future__ import annotations

import dataclasses
import resource
import typing

#: (name, unit) of the gated end-to-end metrics, in report order: the
#: JSON result line of an untraced run carries exactly these, and
#: ``BENCHMARK.json`` bounds each.  Every workload reports them and none
#: is ever 0.
END_TO_END = (
    ("setup_s", "s"),
    ("committed_txn_s", "1/s"),
    ("cpu_us_per_txn", "us"),
    ("peak_rss_mb", "MB"),
)

#: End-to-end metrics printed on every run but not gated.  Over ten
#: seeds on a shared 2-core host the latencies spread more than any
#: allowed bound (quartile distance / median: p50 0.17-0.26, p99 up to
#: 0.8, propagation p95 up to 1.8, against at most 0.25), and the
#: failure counts are 0 on most runs.
REPORTED = (
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("propagation_p95_ms", "ms"),
    ("failed_share", "ratio"),
    ("oracle_violations", "count"),
)


@dataclasses.dataclass
class RunResult:
    correct: bool = True
    #: Transactions submitted / failed (aborted + unknown + errored).
    attempted: int = 0
    failed: int = 0
    #: Metric name -> value; units come from the metric tables.
    metrics: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: Human-readable report lines, printed before the JSON line.
    report: typing.List[str] = dataclasses.field(default_factory=list)

    def note(self, line: str) -> None:
        self.report.append(line)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PropagationProbe:
    """System observer: wall-clock commit-to-last-replica delays and the
    count of secondary commits, for the simulator and the in-process
    live cluster alike (both notify ``primary_commit`` /
    ``replica_commit``).  Records only while ``active``."""

    def __init__(self, clock: typing.Callable[[], float]):
        self.clock = clock
        self.active = False
        self.delays: typing.List[float] = []
        self.secondaries = 0
        self._pending: typing.Dict[typing.Any, typing.Tuple[
            float, typing.Set[int]]] = {}

    def on_primary_commit(self, gid, site, time, expected_replicas):
        if self.active and expected_replicas:
            self._pending[gid] = (self.clock(), set(expected_replicas))

    def on_replica_commit(self, gid, site, time):
        if not self.active:
            return
        self.secondaries += 1
        pending = self._pending.get(gid)
        if pending is None:
            return
        started, remaining = pending
        remaining.discard(site)
        if not remaining:
            del self._pending[gid]
            self.delays.append(self.clock() - started)
