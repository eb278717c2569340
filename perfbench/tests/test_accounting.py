"""The benchmark's own accounting: percentiles with their sample counts,
the failure share, the open-loop schedule and span self time.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pytest

from layers import LayerInputs, layer_metrics
from spans import Span, Tracer, self_times
from stats import (
    failed_share,
    percentile,
    poisson_schedule,
    slice_medians,
    window_slices,
)


# -- percentile with sample count ----------------------------------------

def test_percentile_is_nearest_rank_with_counts():
    samples = list(range(1, 101))  # 1..100
    p50 = percentile(samples, 50.0)
    assert (p50.value, p50.samples, p50.beyond) == (50, 100, 50)
    p99 = percentile(samples, 99.0)
    assert (p99.value, p99.samples, p99.beyond) == (99, 100, 1)


def test_percentile_is_an_observed_sample_and_order_free():
    samples = [0.030, 0.010, 0.020, 0.040]
    assert percentile(samples, 50.0).value == 0.020
    assert percentile(samples, 100.0).value == 0.040
    assert percentile(samples, 0.0).value == 0.010


def test_percentile_counts_ties_as_not_beyond():
    p90 = percentile([1, 5, 5, 5, 5, 5, 5, 5, 5, 5], 90.0)
    assert p90.value == 5 and p90.beyond == 0


def test_percentile_of_nothing_reports_zero_samples():
    empty = percentile([], 99.0)
    assert (empty.value, empty.samples, empty.beyond) == (0.0, 0, 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


# -- failed share --------------------------------------------------------

def test_failed_share_counts_every_kind_of_failure():
    assert failed_share(200, 10, 4, 6) == pytest.approx(0.1)
    assert failed_share(50, 0, 0, 0) == 0.0
    assert failed_share(0, 0, 0, 0) == 0.0


def test_failed_share_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        failed_share(5, 3, 2, 1)
    with pytest.raises(ValueError):
        failed_share(5, -1, 0, 0)


# -- open-loop schedule --------------------------------------------------

def test_schedule_is_a_function_of_the_seed():
    first = poisson_schedule(7, 200.0, 5.0, 3)
    assert first == poisson_schedule(7, 200.0, 5.0, 3)
    assert first != poisson_schedule(8, 200.0, 5.0, 3)


def test_schedule_has_the_offered_rate_and_stays_in_window():
    arrivals = poisson_schedule(1, 200.0, 30.0, 3)
    # 6000 expected; a Poisson count's sd is ~77, so 5 sd is ~6.5 %.
    assert abs(len(arrivals) - 6000) < 400
    offsets = [arrival.offset for arrival in arrivals]
    assert offsets == sorted(offsets)
    assert 0.0 < offsets[0] and offsets[-1] < 30.0
    sites = {arrival.site for arrival in arrivals}
    assert sites == {0, 1, 2}
    per_site = [sum(1 for a in arrivals if a.site == site)
                for site in range(3)]
    assert max(per_site) - min(per_site) < 0.1 * len(arrivals)


# -- span self time ------------------------------------------------------

def _span(start, end, parent=-1, name="x"):
    return Span(name, float(start), float(end), parent, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 10),            # 0: root
        _span(1, 3, parent=0),   # 1: overlaps 2
        _span(2, 5, parent=0),   # 2
        _span(8, 12, parent=0),  # 3: runs past its parent's end
        _span(2, 4, parent=2),   # 4: grandchild, only its parent's
    ]
    # Root: children cover [1, 5] and [8, 10] -> 6 of its 10.
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 4.0, 2.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([_span(3, 7)]) == [4.0]


def test_tracer_records_nesting_parents_and_gids():
    tracer = Tracer()

    def inner(value):
        return value + 1

    def outer(txn, value):
        return traced_inner(value) * 2

    traced_inner = tracer.traced("layer.inner", inner)
    traced_outer = tracer.traced("layer.outer", outer,
                                 gid_of=lambda args, kwargs: args[0])
    assert traced_outer("T1", 1) == 4
    assert len(tracer) == 0  # inactive: nothing recorded
    tracer.active = True
    traced_outer("T1", 1)
    traced_inner(5)
    tracer.active = False
    spans = tracer.spans()
    assert [span.name for span in spans] == [
        "layer.outer", "layer.inner", "layer.inner"]
    assert spans[1].parent == 0 and spans[0].parent == -1
    assert spans[1].gid == "T1" and spans[2].gid is None
    own = self_times(spans)
    assert 0.0 <= own[0] <= spans[0].duration - spans[1].duration + 1e-9
    summary = tracer.summary()
    # Nested spans of one layer count once, at the outermost call.
    assert summary["layer.inner"].count == 2
    assert summary["layer.inner"].outer == 1


def test_tracer_patch_is_undone_by_restore():
    class Box:
        def get(self):
            return 1

    original = Box.__dict__["get"]
    tracer = Tracer()
    tracer.patch(Box, "get", tracer.traced("box.get", original))
    assert Box.__dict__["get"] is not original and Box().get() == 1
    tracer.restore()
    assert Box.__dict__["get"] is original


def test_layer_metrics_divide_by_committed_transactions():
    tracer = Tracer()

    def encode(obj):
        return b"x" * 10

    wrapper = tracer.traced("codec.encode", encode,
                            size_of=lambda a, k, r: len(r))
    tracer.active = True
    for _ in range(8):
        wrapper({})
    tracer.active = False
    metrics = layer_metrics(tracer, LayerInputs(
        committed=4, cpu_s=1.0, messages=6, frames=3, syncs=2,
        sync_seconds=0.002, log_bytes=400))
    assert metrics["codec.frames_per_txn"] == 2.0
    assert metrics["codec.bytes_per_txn"] == 20.0
    assert metrics["transport.msgs_per_txn"] == 1.5
    assert metrics["transport.msgs_per_frame"] == 2.0
    assert metrics["wal.syncs_per_txn"] == 0.5
    assert metrics["wal.sync_us"] == pytest.approx(1000.0)
    assert metrics["wal.bytes_per_txn"] == 100.0


# -- window slices -------------------------------------------------------

def test_window_slices_measure_each_stretch_from_its_commits():
    ticks = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.6), (3.0, 0.7)]
    completions = [(0.5, 0.010), (0.9, 0.030), (1.0, 0.020),
                   (1.5, 0.040), (2.5, 0.050), (2.6, 0.070),
                   (2.7, 0.060), (3.5, 1.0)]  # the last is after the end
    slices = window_slices(ticks, completions)
    assert [s.commits for s in slices] == [3, 1, 3]
    assert [s.rate for s in slices] == [3.0, 1.0, 3.0]
    assert slices[0].cpu_us_per_txn == pytest.approx(0.5 / 3 * 1e6)
    assert [s.p50 for s in slices] == [0.020, 0.040, 0.060]
    medians = slice_medians(slices)
    assert medians["committed_txn_s"] == 3.0
    assert medians["commit_p50_ms"] == pytest.approx(40.0)


def test_window_slices_skip_a_stretch_without_commits():
    slices = window_slices([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
                           [(1.5, 0.1)])
    assert len(slices) == 1 and slices[0].commits == 1
    with pytest.raises(ValueError):
        slice_medians([])


def test_tracer_summary_agrees_with_self_times():
    tracer = Tracer()

    def leaf():
        return sum(range(200))

    def middle():
        return traced_leaf() + traced_leaf()

    def top():
        return traced_middle() + traced_leaf()

    traced_leaf = tracer.traced("a.leaf", leaf)
    traced_middle = tracer.traced("b.middle", middle)
    traced_top = tracer.traced("c.top", top)
    tracer.active = True
    for _ in range(5):
        traced_top()
    tracer.active = False
    spans = tracer.spans()
    own = self_times(spans)
    summary = tracer.summary()
    for name in ("a.leaf", "b.middle", "c.top"):
        expected = sum(value for span, value in zip(spans, own)
                       if span.name == name)
        assert summary[name].self_total == pytest.approx(expected)
    assert summary["a.leaf"].count == 15
    assert summary["c.top"].outer == 5
