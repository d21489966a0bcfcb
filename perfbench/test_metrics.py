"""Tests of the benchmark's own arithmetic and span recording.

    python3 -m pytest perfbench/test_metrics.py -q
"""

import threading

import pytest

import metrics
from spans import Tracer


# ----------------------------------------------------------------------
# Percentile rule: the highest percentile with >= 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (9, None),
        (19, None),
        (20, "50"),
        (99, "50"),
        (100, "90"),
        (999, "90"),
        (1000, "99"),
        (9999, "99"),
        (10000, "99.9"),
        (100000, "99.99"),
    ],
)
def test_supported_percentile(n, expected):
    assert metrics.supported_percentile(n) == expected


def test_supported_percentile_respects_ceiling():
    assert metrics.supported_percentile(100000, ceiling="99") == "99"
    assert metrics.supported_percentile(100000, ceiling="90") == "90"


def test_samples_beyond_is_exact_at_the_boundary():
    # 0.9 * 100 in floating point is 90.00000000000001; the rule must
    # still count exactly 10 samples beyond p90.
    assert metrics.samples_beyond(100, "90") == 10
    assert metrics.samples_beyond(1000, "99") == 10
    assert metrics.samples_beyond(999, "99") == 9


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # order must not matter
    assert metrics.percentile(values, "50") == 50
    assert metrics.percentile(values, "90") == 90
    assert metrics.percentile(values, "99") == 99
    assert metrics.percentile([7.0], "99") == 7.0


def test_tail_reports_percentile_and_sample_count():
    values = [float(i) for i in range(1000)]
    assert metrics.tail(values, "99.9") == {"p": "99", "value": 989.0, "n": 1000}
    small = [3.0, 1.0, 2.0]
    assert metrics.tail(small, "99") == {"p": None, "value": 3.0, "n": 3}


def test_window_percentiles_take_each_full_window():
    values = [1.0] * 20 + [5.0] * 20 + [9.0] * 7  # trailing 7 dropped
    assert metrics.window_percentiles(values, 20, "50") == [1.0, 5.0]


def test_window_percentiles_refuse_unsupported_windows():
    with pytest.raises(ValueError):
        metrics.window_percentiles([1.0] * 500, 50, "99")
    with pytest.raises(ValueError):
        metrics.window_percentiles([1.0] * 10, 20, "50")


def test_good_quartile_takes_the_good_side():
    windows = [float(v) for v in range(1, 9)]  # 1..8
    assert metrics.good_quartile(windows, "lower") == 2.0
    assert metrics.good_quartile(windows, "higher") == 6.0
    with pytest.raises(ValueError):
        metrics.good_quartile(windows, "sideways")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_without_children_is_the_duration():
    assert metrics.self_time(2.0, 5.0, []) == 3.0


def test_self_time_subtracts_disjoint_children():
    assert metrics.self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # Children from two threads may overlap in time: [1,4] and [3,6]
    # cover 5 units, not 6.
    assert metrics.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    # A child nested inside another child adds nothing.
    assert metrics.self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    assert metrics.self_time(0.0, 10.0, [(-5.0, 1.0), (9.0, 15.0)]) == pytest.approx(8.0)
    assert metrics.self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)


def test_self_time_fully_covered_is_zero():
    assert metrics.self_time(0.0, 4.0, [(0.0, 2.0), (2.0, 4.0)]) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Open-loop latency
# ----------------------------------------------------------------------
def test_due_time_latency_charges_the_generator_lateness():
    # Due at t=100 s, sent (and admitted) 5 ms late, served in 2 ms:
    # the caller waited 7 ms from when the request was due.
    assert metrics.due_time_latency_ms(100.0, 100.005, 2.0) == pytest.approx(7.0)


def test_due_time_latency_of_an_on_time_request_is_its_service_time():
    assert metrics.due_time_latency_ms(50.0, 50.0, 3.25) == pytest.approx(3.25)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class Layer:
    def outer(self, items):
        return self.inner(items) + 1

    def inner(self, items):
        return len(items)

    @classmethod
    def build(cls, value):
        return cls, value

    def batches(self, n):
        yield from range(n)


def test_wrapped_methods_record_nested_spans_and_counts():
    tracer = Tracer()
    layer = Layer()
    with tracer:
        tracer.wrap(Layer, "outer", "outer", lambda args, kwargs: len(args[1]))
        tracer.wrap(Layer, "inner", "inner")
        tracer.request = 42
        assert layer.outer([1, 2, 3]) == 4
    inner, outer = tracer.spans
    assert (outer.name, outer.parent, outer.request, outer.n) == ("outer", None, 42, 3)
    assert (inner.name, inner.parent, inner.request) == ("inner", outer.id, 42)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert metrics.self_time(outer.start, outer.end, [(inner.start, inner.end)]) >= 0.0


def test_restore_puts_the_originals_back():
    original_outer = Layer.__dict__["outer"]
    original_build = Layer.__dict__["build"]
    tracer = Tracer()
    with tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "build", "build")
        assert Layer.build(5) == (Layer, 5)
    assert Layer.__dict__["outer"] is original_outer
    assert Layer.__dict__["build"] is original_build
    Layer().outer([1])
    assert [span.name for span in tracer.spans] == ["build"]


def test_wrap_iterator_times_each_next():
    tracer = Tracer()
    with tracer:
        tracer.wrap_iterator(Layer, "batches", "next")
        assert list(Layer().batches(3)) == [0, 1, 2]
    # Three items plus the call that found the iterator exhausted.
    assert [span.name for span in tracer.spans] == ["next"] * 4


def test_spans_keep_per_thread_parents():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(request):
        tracer.request = request
        barrier.wait(timeout=5)
        Layer().outer([0] * request)

    with tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        threads = [threading.Thread(target=work, args=(r,)) for r in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    by_id = {span.id: span for span in tracer.spans}
    inners = [span for span in tracer.spans if span.name == "inner"]
    assert len(inners) == 2
    for inner in inners:
        assert by_id[inner.parent].request == inner.request
