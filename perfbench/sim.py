"""``sim-paper``: the discrete-event simulator running BackEdge at the
paper's Table 1 defaults (9 sites, 200 items, r=0.2, b=0.2, 3 closed-loop
clients per site), driven through ``run_experiment``.

The measured window runs whole experiments of 5,400 transactions back
to back, each seeded from ``--seed``, until ``--seconds`` have passed.
Timing is wall-clock: simulated transactions per wall second, process
CPU per committed transaction, and the wall-clock latency a simulated
client's transaction takes from issue to commit.  The virtual-time
results are deterministic per seed and printed as a digest, so a change
to simulated behaviour is visible.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import typing

from layers import LayerInputs
from result import PropagationProbe, RunResult, peak_rss_mb
from stats import (
    failed_share,
    percentile,
    slice_medians,
    window_slices,
)

from repro.errors import SerializabilityViolation
from repro.harness.runner import (
    ExperimentConfig,
    build_system,
    run_experiment,
)
from repro.workload.generator import TransactionGenerator
from repro.workload.params import WorkloadParams

PROTOCOL = "backedge"
TXNS_PER_THREAD = 200
SETUP_REPEATS = 15


def experiment_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=PROTOCOL,
        params=WorkloadParams(transactions_per_thread=TXNS_PER_THREAD),
        seed=seed)


def virtual_digest(result) -> typing.Dict[str, typing.Any]:
    """The deterministic virtual-time fingerprint of one experiment."""
    fields = {
        "seed": result.config.seed,
        "committed": result.committed,
        "aborted": result.aborted,
        "duration": result.duration,
        "throughput": result.average_throughput,
        "response": result.mean_response_time,
        "abort_rate": result.abort_rate,
        "propagation": result.mean_propagation_delay,
        "messages": dict(sorted(result.messages_by_type.items())),
    }
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    fields["digest"] = hashlib.sha256(blob).hexdigest()[:16]
    return fields


class _IssueProbe:
    """Wall-clock issue-to-commit latency of simulated transactions.

    ``run_experiment``'s client threads pull each transaction from the
    generator right before running it, so the generator call is the
    issue time; the protocol's ``primary_commit`` notification is the
    commit.  Aborted transactions never commit and are dropped."""

    def __init__(self) -> None:
        self.issued: typing.Dict[typing.Any, float] = {}
        #: ``(wall_done, latency)`` of every commit.
        self.completions: typing.List[typing.Tuple[float, float]] = []
        self.clock = time.perf_counter
        self._original = TransactionGenerator.__dict__["make_transaction"]

    def __enter__(self) -> "_IssueProbe":
        original, issued, clock = self._original, self.issued, self.clock

        def make_transaction(generator, site, rng):
            spec = original(generator, site, rng)
            issued[spec.gid] = clock()
            return spec

        TransactionGenerator.make_transaction = make_transaction
        return self

    def __exit__(self, *exc) -> None:
        TransactionGenerator.make_transaction = self._original

    def on_primary_commit(self, gid, site, time, expected_replicas):
        started = self.issued.pop(gid, None)
        if started is not None:
            now = self.clock()
            self.completions.append((now, now - started))


def run(seed: int, seconds: float, tracer=None
        ) -> typing.Tuple[RunResult, typing.Optional[LayerInputs]]:
    out = RunResult()
    params = experiment_config(seed).params
    total_per_run = (params.n_sites * params.threads_per_site
                     * params.transactions_per_thread)

    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build_system(experiment_config(seed))
        setups.append(time.perf_counter() - started)

    probe = PropagationProbe(time.perf_counter)
    committed = aborted = violations = 0
    digests = []
    with _IssueProbe() as issue:
        probe.active = True
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        cpu_started = time.process_time()
        ticks = [(started, cpu_started)]
        index = 0
        while True:
            config = experiment_config(seed * 1000 + index)
            config.extra_observers = [probe, issue]
            issue.issued.clear()
            index += 1
            try:
                result = run_experiment(config)
            except SerializabilityViolation as exc:
                violations += 1
                out.note("DSG CYCLE in experiment seed {}: {}".format(
                    config.seed, exc))
            else:
                committed += result.committed
                aborted += result.aborted
                if result.committed + result.aborted != total_per_run:
                    out.correct = False
                    out.note("ACCOUNTING: experiment seed {} decided {} "
                             "of {} transactions".format(
                                 config.seed,
                                 result.committed + result.aborted,
                                 total_per_run))
                digests.append(virtual_digest(result))
            ticks.append((time.perf_counter(), time.process_time()))
            if time.perf_counter() - started >= seconds:
                break
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        probe.active = False
        if tracer is not None:
            tracer.active = False

    if violations:
        out.correct = False
    out.attempted = index * total_per_run
    out.failed = out.attempted - committed
    latencies = [latency for _done, latency in issue.completions]
    p50 = percentile(latencies, 50.0)
    p99 = percentile(latencies, 99.0)
    prop = percentile(probe.delays, 95.0)
    # One stretch per experiment; throughput, CPU and p50 are medians
    # over them.
    slices = window_slices(ticks, issue.completions)
    out.metrics = {
        "setup_s": statistics.median(setups),
        **slice_medians(slices),
        "commit_p99_ms": p99.value * 1e3,
        "propagation_p95_ms": prop.value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": failed_share(out.attempted, aborted, 0,
                                     out.failed - aborted),
        "oracle_violations": float(violations),
        "loadgen.sched_lag_p99_ms": 0.0,
    }
    out.note("window: {} experiment(s) x {} txns in {:.2f} s wall, "
             "{:.2f} s CPU: {:.1f} txn/s, {:.1f} CPU-us/txn, p50 {:.3f} ms "
             "overall (the table gives medians over experiments)".format(
                 index, total_per_run, elapsed, cpu, committed / elapsed,
                 cpu / committed * 1e6, p50.value * 1e3))
    out.note("per experiment: txn/s {} CPU-us/txn {}".format(
        " ".join("{:.0f}".format(s.rate) for s in slices),
        " ".join("{:.0f}".format(s.cpu_us_per_txn) for s in slices)))
    out.note("commit latency (wall, issue to commit): p50 n={} p99 n={} "
             "({} beyond)".format(p50.samples, p99.samples, p99.beyond))
    out.note("propagation (wall, commit to last replica): n={}".format(
        prop.samples))
    out.note("outcomes: {} committed, {} aborted, {} lost to DSG "
             "violations, of {} submitted".format(
                 committed, aborted, out.failed - aborted, out.attempted))
    combined = hashlib.sha256("".join(
        entry["digest"] for entry in digests).encode()).hexdigest()[:16]
    for entry in digests:
        out.note("virtual: seed {seed} committed {committed} aborted "
                 "{aborted} thr {throughput:.4f} txn/s/site resp "
                 "{response:.6f} s abort {abort_rate:.3f}% prop "
                 "{propagation:.6f} s msgs {total} digest {digest}".format(
                     total=sum(entry["messages"].values()), **entry))
    out.note("virtual digest: {}".format(combined))
    layer_inputs = None
    if tracer is not None:
        layer_inputs = LayerInputs(committed=committed, cpu_s=cpu,
                                   secondaries=probe.secondaries)
    return out, layer_inputs
