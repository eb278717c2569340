"""The repository's benchmark: one command, every workload, checked.

Run from the repository root::

    python3 perfbench/run.py --workload live-write --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads:

- ``sim-paper``: the simulator, BackEdge at the paper's Table 1
  defaults (:mod:`sim`);
- ``live-write``: the live 3-site DAG(WT) cluster, closed loop,
  write-heavy (:mod:`live`);
- ``live-open-read``: the same cluster, open loop on a seeded Poisson
  schedule, half read-only (:mod:`live`).

``BENCHMARK.json`` gates the two live workloads and says why each was
chosen.  ``sim-paper`` is run by hand, interleaved with the parent
commit: on a shared host its CPU-bound figures drifted by up to 28 %
between two sets of ten runs a quarter of an hour apart, more than any
bound a gate may use.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` first
makes the same untraced measurement, then a second one with every layer
entry point wrapped (:mod:`layers`) and prints the per-layer metrics
plus the tracing overhead (traced minus untraced CPU per transaction).
Each run checks the program's outputs with the repository's own oracles.

Human-readable report lines come first, including the hardware
fingerprint; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs each workload in its own process and prints each one's
report and JSON line.

The benchmark builds nothing: it imports the program from ``src/`` of
the directory it runs in, and exits with status 2 when that is missing.
All files it writes live in a temporary directory under
``.perfbench-tmp/`` there, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOAD_NAMES = ("sim-paper", "live-write", "live-open-read")


def _bootstrap() -> None:
    """Import the program from ``./src``, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program source at {} (run from the "
              "repository root)".format(os.path.join(src, "repro")),
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("perfbench: imported repro from {}, not {}".format(
            repro.__file__, src), file=sys.stderr)
        sys.exit(2)


def _measure(name: str, seed: int, seconds: float, scratch: str,
             tracer=None):
    if name == "sim-paper":
        import sim

        return sim.run(seed, seconds, tracer)
    import live

    return live.run(name, seed, seconds, scratch, tracer)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _bootstrap()
    from fingerprint import fingerprint
    from layers import PER_LAYER, install, layer_metrics
    from result import END_TO_END, REPORTED
    from spans import Tracer

    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        print("perfbench {} seed {} seconds {} trace {}".format(
            name, seed, seconds, int(trace)))
        print("fingerprint: " + json.dumps(fingerprint(ROOT, scratch),
                                           sort_keys=True))
        plain, _ = _measure(name, seed, seconds, scratch)
        results = [plain]
        units = dict(END_TO_END)
        metrics = dict(plain.metrics)
        if trace:
            tracer = Tracer()
            install(tracer)
            try:
                traced, inputs = _measure(name, seed, seconds, scratch,
                                          tracer)
            finally:
                tracer.restore()
            # Report the untraced run's generator lag: it validates the
            # latencies that run printed, and tracing would inflate it.
            inputs.sched_lag_p99_ms = plain.metrics[
                "loadgen.sched_lag_p99_ms"]
            inputs.overhead_cpu_us_per_txn = (
                traced.metrics["cpu_us_per_txn"]
                - plain.metrics["cpu_us_per_txn"])
            results.append(traced)
            units = dict(PER_LAYER)
            metrics = layer_metrics(tracer, inputs)
            print("traced run: {} spans recorded".format(len(tracer)))
        for label, result in zip(("untraced", "traced"), results):
            print("-- {} run".format(label))
            for line in result.report:
                print(line)
            for metric, unit in END_TO_END + REPORTED:
                print("{:<22} {:>14.4f} {:<6} {}".format(
                    metric, result.metrics[metric], unit,
                    "gated" if (metric, unit) in END_TO_END
                    else "reported"))
        if trace:
            print("-- per-layer metrics (traced run)")
            for metric, unit in PER_LAYER:
                print("{:<40} {:>14.4f} {}".format(
                    metric, metrics[metric], unit))
        print(json.dumps({
            "correct": all(result.correct for result in results),
            "attempted": sum(result.attempted for result in results),
            "failed": sum(result.failed for result in results),
            "metrics": {metric: {"value": metrics[metric],
                                 "unit": units[metric]}
                        for metric in units},
        }))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so CPU and RSS are its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, check=False)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
