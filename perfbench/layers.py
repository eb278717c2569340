"""Which layer entry points the traced run wraps, and the per-layer
metrics computed from the spans and counters they leave.

Every wrapped callable is a public function or method of the program;
the wrapping happens here, in the benchmark's own files, and is undone
when the traced run ends.  Span names are ``<layer>.<entry>``; spans of
one layer nested inside each other (a ``WireCodec`` delegating to the
JSON encoder) count once, at the outermost call.
"""

from __future__ import annotations

import dataclasses
import typing

from spans import Tracer

#: Every message type the protocols can send, one per-type metric each.
MESSAGE_TYPES = (
    "secondary", "dummy", "backedge", "special", "lock-request",
    "lock-grant", "lock-denied", "lock-release", "prepare", "vote",
    "decision", "abort-subtxn", "eager-write", "eager-write-done",
    "wound", "catchup-request", "catchup-reply", "reconfig",
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("codec.frames_per_txn", "count/txn"),
    ("codec.encode_us_per_frame", "us"),
    ("codec.decode_us_per_frame", "us"),
    ("codec.bytes_per_txn", "B/txn"),
    ("transport.msgs_per_txn", "count/txn"),
    ("transport.msgs_per_frame", "count/frame"),
    ("wal.syncs_per_txn", "count/txn"),
    ("wal.sync_us", "us"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_txn", "B/txn"),
    ("server.submit_us", "us"),
    ("server.apply_queue_hwm", "count"),
    ("sim.events_per_txn", "count/txn"),
    ("sim.step_us", "us"),
    ("sim.resource_uses_per_txn", "count/txn"),
    ("storage.lock_acquires_per_txn", "count/txn"),
    ("storage.lock_waits_per_txn", "count/txn"),
    ("storage.commit_us", "us"),
    ("storage.aborts_per_txn", "count/txn"),
    ("core.secondaries_per_txn", "count/txn"),
    ("network.msgs_per_txn", "count/txn"),
) + tuple(("network.msgs_per_txn." + kind, "count/txn")
          for kind in MESSAGE_TYPES) + (
    ("obs.spans_per_txn", "count/txn"),
    ("obs.emit_us", "us"),
    ("obs.instrument_calls_per_txn", "count/txn"),
    ("obs.cpu_share", "ratio"),
    ("harness.verify_s", "s"),
    ("loadgen.sched_lag_p99_ms", "ms"),
    ("trace.overhead_cpu_us_per_txn", "us"),
)


def _gid_arg(index: int):
    """``gid_of`` for calls whose ``index``-th argument has ``.gid``."""

    def gid_of(args, kwargs):
        return args[index].gid if len(args) > index else None

    return gid_of


def _spec_gid(args, kwargs):
    return args[1].gid


def _kw_gid(args, kwargs):
    return kwargs.get("gid")


def _result_len(args, kwargs, result):
    return len(result)


def _body_len(args, kwargs, result):
    return len(args[-1])


def _waited(args, kwargs, result):
    # LockManager.acquire returns an event already triggered when the
    # lock was granted at once; anything else waited in the queue.
    return 0 if result.triggered else 1


def _msg_type(args, kwargs):
    return "network." + args[1].value


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (idempotent per tracer)."""
    from repro.cluster import codec, server, transport, wal
    from repro.harness import runner
    from repro.network import network
    from repro.obs import registry, trace
    from repro.sim import environment, resources
    from repro.storage import engine, locks

    def wrap(owner, attr, name, **hooks):
        tracer.patch(owner, attr, tracer.traced(
            name, owner.__dict__[attr], **hooks))

    # cluster.codec: the JSON module functions plus the per-connection
    # codec and the binary coder it delegates to.
    wrap(codec, "encode_frame", "codec.encode", size_of=_result_len)
    wrap(codec, "decode_frame_body", "codec.decode", size_of=_body_len)
    wrap(codec.WireCodec, "encode_frame", "codec.encode",
         size_of=_result_len)
    wrap(codec.WireCodec, "decode_body", "codec.decode",
         size_of=_body_len)
    wrap(codec.BinaryEncoder, "encode_frame", "codec.encode",
         size_of=_result_len)
    wrap(codec.BinaryDecoder, "decode_body", "codec.decode",
         size_of=_body_len)
    # cluster.transport and the simulated network share the send
    # contract; both count messages by type.
    wrap(transport.LiveTransport, "send", "transport.send",
         count_key=_msg_type)
    wrap(network.Network, "send", "network.send", count_key=_msg_type)
    # cluster.wal
    for cls in (wal.FileWal, wal.MessageJournal):
        wrap(cls, "append", "wal.append")
        wrap(cls, "sync", "wal.sync")
    # cluster.server
    wrap(server.SiteServer, "submit_transaction", "server.submit",
         gid_of=_spec_gid)
    # sim kernel
    wrap(environment.Environment, "step", "sim.step")
    tracer.patch(resources.Resource, "use", tracer.counted(
        "sim.resource_use", resources.Resource.__dict__["use"]))
    # storage
    wrap(locks.LockManager, "acquire", "storage.lock_acquire",
         gid_of=_gid_arg(1), size_of=_waited)
    wrap(engine.StorageEngine, "commit", "storage.commit",
         gid_of=_gid_arg(1))
    wrap(engine.StorageEngine, "abort", "storage.abort",
         gid_of=_gid_arg(1))
    # obs
    wrap(trace.TraceSink, "emit", "obs.emit", gid_of=_kw_gid)
    wrap(registry.Counter, "inc", "obs.instrument")
    wrap(registry.Gauge, "set", "obs.instrument")
    wrap(registry.Histogram, "observe", "obs.instrument")
    # harness: the simulator's serializability check
    wrap(runner, "check_serializable", "harness.verify")


@dataclasses.dataclass
class LayerInputs:
    """What a workload hands over besides the spans."""

    committed: int
    #: Process CPU seconds over the traced interval (window + drain).
    cpu_s: float
    #: Program counters over the same interval (live workloads).
    messages: int = 0
    frames: int = 0
    syncs: int = 0
    sync_seconds: float = 0.0
    log_bytes: int = 0
    apply_queue_hwm: int = 0
    secondaries: int = 0
    #: Verification wall seconds (live: quiesce + statuses + oracles).
    verify_s: typing.Optional[float] = None
    sched_lag_p99_ms: float = 0.0
    overhead_cpu_us_per_txn: float = 0.0


def layer_metrics(tracer: Tracer, inputs: LayerInputs
                  ) -> typing.Dict[str, float]:
    """Per-layer metrics from one traced interval."""
    stats = tracer.summary()
    per_txn = 1.0 / inputs.committed if inputs.committed else 0.0

    def count(name):
        entry = stats.get(name)
        return entry.count if entry else 0

    def mean_us(name, attr="total", outer=False):
        entry = stats.get(name)
        if not entry:
            return 0.0
        n = entry.outer if outer else entry.count
        return getattr(entry, attr) / n * 1e6 if n else 0.0

    encode = stats.get("codec.encode")
    frames = encode.outer if encode else 0
    # Nested codec spans have only codec children, so the self time of
    # all of them is exactly the outermost calls' inclusive time.
    obs_self = sum(entry.self_total for name, entry in stats.items()
                   if name.startswith("obs."))
    counts = tracer.counts
    instrument_calls = count("obs.instrument")
    sends = sum(counts["network." + kind] for kind in MESSAGE_TYPES)
    metrics = {
        "codec.frames_per_txn": frames * per_txn,
        "codec.encode_us_per_frame": mean_us(
            "codec.encode", "self_total", outer=True),
        "codec.decode_us_per_frame": mean_us(
            "codec.decode", "self_total", outer=True),
        "codec.bytes_per_txn": (encode.outer_size if encode else 0)
        * per_txn,
        "transport.msgs_per_txn": inputs.messages * per_txn,
        "transport.msgs_per_frame": (inputs.messages / inputs.frames
                                     if inputs.frames else 0.0),
        "wal.syncs_per_txn": inputs.syncs * per_txn,
        "wal.sync_us": (inputs.sync_seconds / inputs.syncs * 1e6
                        if inputs.syncs else 0.0),
        "wal.append_us": mean_us("wal.append"),
        "wal.bytes_per_txn": inputs.log_bytes * per_txn,
        "server.submit_us": mean_us("server.submit", "self_total"),
        "server.apply_queue_hwm": float(inputs.apply_queue_hwm),
        "sim.events_per_txn": count("sim.step") * per_txn,
        "sim.step_us": mean_us("sim.step", "self_total"),
        "sim.resource_uses_per_txn": counts["sim.resource_use"] * per_txn,
        "storage.lock_acquires_per_txn":
            count("storage.lock_acquire") * per_txn,
        "storage.lock_waits_per_txn":
            (stats["storage.lock_acquire"].size
             if "storage.lock_acquire" in stats else 0) * per_txn,
        "storage.commit_us": mean_us("storage.commit"),
        "storage.aborts_per_txn": count("storage.abort") * per_txn,
        "core.secondaries_per_txn": inputs.secondaries * per_txn,
        "network.msgs_per_txn": sends * per_txn,
        "obs.spans_per_txn": count("obs.emit") * per_txn,
        "obs.emit_us": mean_us("obs.emit", "self_total"),
        "obs.instrument_calls_per_txn": instrument_calls * per_txn,
        "obs.cpu_share": obs_self / inputs.cpu_s if inputs.cpu_s else 0.0,
        "harness.verify_s": (inputs.verify_s if inputs.verify_s
                             is not None else
                             mean_us("harness.verify") / 1e6),
        "loadgen.sched_lag_p99_ms": inputs.sched_lag_p99_ms,
        "trace.overhead_cpu_us_per_txn": inputs.overhead_cpu_us_per_txn,
    }
    for kind in MESSAGE_TYPES:
        metrics["network.msgs_per_txn." + kind] = \
            counts["network." + kind] * per_txn
    return metrics
