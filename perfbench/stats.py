"""Accounting helpers shared by every workload of the benchmark.

Everything here is pure: percentiles with their sample counts, the
failure share, the open-loop schedule and the stretch-by-stretch
measurement of a window.  The tests in ``perfbench/tests`` pin each of them.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import typing


@dataclasses.dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the sample it was taken from.

    ``beyond`` is how many samples lie strictly above the reported
    value; a tail percentile is trustworthy when at least ten do.
    """

    pct: float
    value: float
    samples: int
    beyond: int


def percentile(samples: typing.Sequence[float], pct: float) -> Percentile:
    """Nearest-rank ``pct``-th percentile of ``samples``.

    The nearest-rank value is always an observed sample (no
    interpolation), so a latency percentile is a latency some
    transaction actually saw.  An empty sample yields ``value`` 0 with
    ``samples`` 0, never an exception: callers print the count next to
    the value.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile {} outside [0, 100]".format(pct))
    if not samples:
        return Percentile(pct, 0.0, 0, 0)
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    value = ordered[rank - 1]
    beyond = sum(1 for sample in ordered[rank:] if sample > value)
    return Percentile(pct, value, len(ordered), beyond)


def failed_share(submitted: int, aborted: int, unknown: int,
                 errored: int) -> float:
    """(aborted + unknown-outcome + errored) / submitted.

    Every transaction the benchmark handed to the system counts in the
    denominator, so a refused or lost transaction can never improve the
    share.  Raises on inconsistent counts rather than clamping them.
    """
    failed = aborted + unknown + errored
    if min(submitted, aborted, unknown, errored) < 0:
        raise ValueError("negative transaction count")
    if failed > submitted:
        raise ValueError("{} failed of only {} submitted".format(
            failed, submitted))
    if submitted == 0:
        return 0.0
    return failed / submitted


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One scheduled open-loop send: due ``offset`` seconds after the
    window opens, at origin site ``site``."""

    offset: float
    site: int


def poisson_schedule(seed: int, rate: float, seconds: float,
                     n_sites: int) -> typing.List[Arrival]:
    """Seeded Poisson arrivals at ``rate`` per second over ``seconds``.

    Inter-arrival gaps are exponential with mean ``1/rate``; each
    arrival's origin site is uniform.  The same seed always gives the
    same schedule, independent of how fast the system answers.
    """
    if rate <= 0 or seconds <= 0 or n_sites < 1:
        raise ValueError("rate, seconds and n_sites must be positive")
    rng = random.Random("schedule/{}".format(seed))
    arrivals: typing.List[Arrival] = []
    now = rng.expovariate(rate)
    while now < seconds:
        arrivals.append(Arrival(now, rng.randrange(n_sites)))
        now += rng.expovariate(rate)
    return arrivals


@dataclasses.dataclass(frozen=True)
class Slice:
    """Throughput, CPU per commit and median latency of the commits that
    completed within one stretch of the measured window."""

    rate: float
    cpu_us_per_txn: float
    p50: float
    commits: int


def window_slices(ticks: typing.Sequence[typing.Tuple[float, float]],
                  completions: typing.Sequence[typing.Tuple[float, float]]
                  ) -> typing.List[Slice]:
    """Cut a window at ``ticks`` — ``(wall, cpu)`` readings in time
    order, the first at the window's start and the last at its end —
    and measure each stretch from the ``(wall_done, latency)`` of the
    commits that completed in it.  A stretch without commits is
    skipped.  Reporting the median over stretches keeps a short burst
    of interference on a shared host from setting a run's figure."""
    done = sorted(completions)
    slices: typing.List[Slice] = []
    index = 0
    for (wall_a, cpu_a), (wall_b, cpu_b) in zip(ticks, ticks[1:]):
        while index < len(done) and done[index][0] <= wall_a:
            index += 1
        latencies = []
        while index < len(done) and done[index][0] <= wall_b:
            latencies.append(done[index][1])
            index += 1
        if latencies and wall_b > wall_a:
            slices.append(Slice(
                rate=len(latencies) / (wall_b - wall_a),
                cpu_us_per_txn=(cpu_b - cpu_a) / len(latencies) * 1e6,
                p50=percentile(latencies, 50.0).value,
                commits=len(latencies)))
    return slices


def slice_medians(slices: typing.Sequence[Slice]
                  ) -> typing.Dict[str, float]:
    """Median over stretches of each per-stretch figure."""
    if not slices:
        raise ValueError("no stretch of the window committed anything")
    return {
        "committed_txn_s": statistics.median(s.rate for s in slices),
        "cpu_us_per_txn": statistics.median(
            s.cpu_us_per_txn for s in slices),
        "commit_p50_ms": statistics.median(s.p50 for s in slices) * 1e3,
    }
