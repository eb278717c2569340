"""In-memory span recorder for the traced benchmark run.

The traced run wraps public entry points of the program's layers from
the outside (:mod:`layers` says which).  Every wrapped call records one
span: name, start, end, parent span and the transaction gid it works
for.  Spans are kept per thread in compact typed arrays until the run
ends, then analysed: a span's *self time* is its duration minus the
part of it that its child spans cover.

Nothing is recorded while :attr:`Tracer.active` is false, so set-up
and verification traffic stay out of the per-transaction figures.
"""

from __future__ import annotations

import array
import collections
import dataclasses
import threading
import time
import typing

_clock = time.perf_counter


class _ThreadLog:
    """Span columns of one thread (appended only by that thread)."""

    def __init__(self) -> None:
        self.names = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("l")
        self.gids = array.array("l")
        self.sizes = array.array("q")
        self.stack: typing.List[int] = []


@dataclasses.dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    gid: typing.Any
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class NameStats:
    """Aggregate of every span with one name."""

    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    size: int = 0
    #: Spans whose parent does not belong to the same group (the
    #: outermost call of a nested layer, e.g. one codec frame).
    outer: int = 0
    outer_size: int = 0


class Tracer:
    """Wraps callables, records spans while active, restores on close."""

    def __init__(self) -> None:
        self.active = False
        #: Plain call counts from count-only wrappers and ``count_key``.
        self.counts: typing.Counter[str] = collections.Counter()
        self._names: typing.List[str] = []
        self._name_ids: typing.Dict[str, int] = {}
        self._groups: typing.List[str] = []
        self._gids: typing.List[typing.Any] = []
        self._gid_ids: typing.Dict[typing.Any, int] = {}
        self._logs: typing.List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._local = threading.local()
        self._patches: typing.List[typing.Tuple[typing.Any, str,
                                                typing.Any]] = []

    # -- recording -----------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
            self._groups.append(name.split(".", 1)[0])
        return name_id

    def _gid_id(self, gid: typing.Any) -> int:
        gid_id = self._gid_ids.get(gid)
        if gid_id is None:
            with self._logs_lock:
                gid_id = self._gid_ids.get(gid)
                if gid_id is None:
                    gid_id = self._gid_ids[gid] = len(self._gids)
                    self._gids.append(gid)
        return gid_id

    def traced(self, name: str, fn: typing.Callable,
               gid_of: typing.Optional[typing.Callable] = None,
               size_of: typing.Optional[typing.Callable] = None,
               count_key: typing.Optional[typing.Callable] = None
               ) -> typing.Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        ``gid_of(args, kwargs)`` names the transaction (else the span
        inherits its parent's); ``size_of(args, kwargs, result)`` stores
        a size with the span (bytes, or 1 for "waited");
        ``count_key(args, kwargs)`` names a counter to bump.
        """
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            log = tracer._log()
            stack = log.stack
            parent = stack[-1] if stack else -1
            gid = gid_of(args, kwargs) if gid_of is not None else None
            if gid is not None:
                gid_id = tracer._gid_id(gid)
            else:
                gid_id = log.gids[parent] if parent >= 0 else -1
            if count_key is not None:
                tracer.counts[count_key(args, kwargs)] += 1
            index = len(log.starts)
            log.names.append(name_id)
            log.parents.append(parent)
            log.gids.append(gid_id)
            log.sizes.append(0)
            log.ends.append(0.0)
            stack.append(index)
            log.starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[index] = _clock()
                stack.pop()
            if size_of is not None:
                log.sizes[index] = size_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: typing.Callable) -> typing.Callable:
        """Return ``fn`` wrapped to count calls only (no span): for
        generator functions, whose call returns before the work runs."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: typing.Any, attr: str,
              wrapper: typing.Callable) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def spans(self) -> typing.List[Span]:
        """Every recorded span; ``parent`` indexes this list."""
        out: typing.List[Span] = []
        for log in self._logs:
            base = len(out)
            for i in range(len(log.starts)):
                parent = log.parents[i]
                gid = log.gids[i]
                out.append(Span(self._names[log.names[i]],
                                log.starts[i], log.ends[i],
                                parent + base if parent >= 0 else -1,
                                self._gids[gid] if gid >= 0 else None,
                                log.sizes[i]))
        return out

    def __len__(self) -> int:
        return sum(len(log.starts) for log in self._logs)

    def summary(self) -> typing.Dict[str, NameStats]:
        """Per-name counts, total and self time, sizes.

        Works on the columns directly: a traced run holds millions of
        spans.  Spans of one thread nest strictly (they follow its call
        stack), so a span's children run one after another inside it
        and the time they cover is the sum of their durations — what
        :func:`self_times` computes in general."""
        stats = [NameStats() for _ in self._names]
        groups = self._groups
        for log in self._logs:
            names, starts, ends = log.names, log.starts, log.ends
            parents, sizes = log.parents, log.sizes
            covered = array.array("d", [0.0]) * len(starts)
            for index in range(len(starts)):
                parent = parents[index]
                if parent >= 0:
                    covered[parent] += ends[index] - starts[index]
            for index in range(len(starts)):
                name_id = names[index]
                entry = stats[name_id]
                duration = ends[index] - starts[index]
                entry.count += 1
                entry.total += duration
                entry.self_total += duration - covered[index]
                entry.size += sizes[index]
                parent = parents[index]
                if parent < 0 or groups[names[parent]] != groups[name_id]:
                    entry.outer += 1
                    entry.outer_size += sizes[index]
        return {name: entry for name, entry in zip(self._names, stats)
                if entry.count}


def self_times(spans: typing.Sequence[Span]) -> typing.List[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: typing.Dict[int, typing.List[typing.Tuple[float, float]]] = \
        collections.defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        kids = children.get(index)
        if kids:
            kids.sort()
            run_start, run_end = None, None
            for start, end in kids:
                start, end = max(start, span.start), min(end, span.end)
                if end <= start:
                    continue
                if run_end is None or start > run_end:
                    if run_end is not None:
                        covered += run_end - run_start
                    run_start, run_end = start, end
                elif end > run_end:
                    run_end = end
            if run_end is not None:
                covered += run_end - run_start
        result.append(span.duration - covered)
    return result
