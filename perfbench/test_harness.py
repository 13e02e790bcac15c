"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import math

import pytest

from harness import (LOG_ROUNDING_MS, MIN_BEYOND, Sample, Span, covered,
                     join_access_log, lateness, midmean, percentile,
                     percentile_or_max, recorder_children, samples_beyond,
                     self_time, spread)


def test_percentile_interpolates_like_numpy():
    values = list(range(1, 1001))
    assert percentile(values, 0.5) == pytest.approx(500.5)
    assert percentile(values, 0.99) == pytest.approx(990.01)
    assert percentile([3.0], 0.5) == 3.0


def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(199, 0.95) == 9
    percentile(range(200), 0.95)
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        percentile(range(199), 0.95)
    with pytest.raises(ValueError):
        percentile(range(999), 0.99)
    percentile(range(1000), 0.99)
    assert MIN_BEYOND == 10


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_midmean_averages_the_middle_half():
    assert midmean([1, 2, 3, 4]) == 2.5
    assert midmean([0, 10, 10, 10, 10, 10, 10, 1000]) == 10
    # Two modes trading places at the middle rank move the median by
    # the whole gap between them, the midmean by a fraction of it.
    low = [1.0] * 51 + [3.0] * 49
    high = [1.0] * 49 + [3.0] * 51
    assert percentile(high, 0.5) - percentile(low, 0.5) == 2.0
    assert midmean(high) - midmean(low) == pytest.approx(0.08)
    with pytest.raises(ValueError):
        midmean([1, 2, 3])


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    values = [9, 10, 10, 10, 10, 10, 10, 10, 10, 11]
    assert spread(values) == pytest.approx(0.0)
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


def _one_connection(dues, service_s):
    """What the open-loop client records when every request goes over
    one connection: each is sent at its due time or when the previous
    one finishes, whichever is later."""
    samples, free = [], -math.inf
    for i, (due, service) in enumerate(zip(dues, service_s)):
        idle = free <= due
        sent = max(due, free)
        free = sent + service
        samples.append(Sample(f"r{i}", "/", due=due, sent=sent, done=free,
                              idle=idle))
    return samples


def test_due_time_accounting_charges_a_stall_to_later_requests():
    dues = [0.0, 0.01, 0.02, 0.03, 0.5]
    service = [0.2, 0.001, 0.001, 0.001, 0.001]   # the first one stalls
    samples = _one_connection(dues, service)
    # Requests due during the stall wait for it: from due time they see
    # the stall, from send time they would look fast.
    assert samples[1].queue_ms == pytest.approx(190.0)
    assert samples[1].latency_ms == pytest.approx(191.0)
    assert samples[3].latency_ms == pytest.approx(173.0)
    assert (samples[3].done - samples[3].sent) * 1e3 == pytest.approx(1.0)
    # The generator itself was never late: queued requests are not
    # counted as lateness, idle ones sent on time are zero.
    assert lateness(samples) == [0.0, 0.0]
    assert samples[4].latency_ms == pytest.approx(1.0)


def test_lateness_counts_only_idle_connections():
    late = Sample("x", "/", due=1.0, sent=1.004, done=1.01, idle=True)
    queued = Sample("y", "/", due=1.0, sent=1.05, done=1.06, idle=False)
    assert lateness([late, queued]) == [pytest.approx(4.0)]


def _record(rid, path, latency_ms):
    return {"request_id": rid, "endpoint": path.rsplit("/", 1)[-1],
            "path": path, "latency_ms": latency_ms}


def test_access_log_join_splits_latency():
    samples = [Sample("c-0", "/v1/cdf?as=1", due=0.0, sent=0.002,
                      done=0.050),
               Sample("c-1", "/v1/map", due=0.1, sent=0.1, done=0.103),
               Sample("c-2", "/v1/map", due=0.2, sent=0.2, done=0.21)]
    records = [_record("c-0", "/v1/cdf", 1.5), _record("c-1", "/v1/map", 0.5),
               _record("other", "/v1/map", 9.0)]
    splits, problems = join_access_log(samples, records)
    assert list(problems) == ["c-2"]
    assert "0 access-log records" in problems["c-2"]
    first = splits[0]
    assert first.endpoint == "cdf"
    assert first.queue_ms == pytest.approx(2.0)
    assert first.handler_ms == 1.5
    assert first.transport_ms == pytest.approx(46.5)
    assert splits[1].transport_ms == pytest.approx(2.5)


def test_access_log_join_rejects_duplicate_ids():
    samples = [Sample("dup", "/v1/map", due=0.0, sent=0.0, done=0.01)]
    records = [_record("dup", "/v1/map", 1), _record("dup", "/v1/map", 2)]
    splits, problems = join_access_log(samples, records)
    assert splits == [] and list(problems) == ["dup"]


def test_access_log_join_rejects_a_record_for_another_query():
    samples = [Sample("a", "/v1/outage?asn=7", due=0.0, sent=0.0,
                      done=0.01),
               Sample("b", "/v1/anycast?service=x&prefix=1", due=0.0,
                      sent=0.0, done=0.01)]
    records = [_record("a", "/v1/cdf", 1.0),
               {"request_id": "b", "endpoint": "other",
                "path": "/v1/anycast", "latency_ms": 1.0}]
    splits, problems = join_access_log(samples, records)
    assert splits == [] and sorted(problems) == ["a", "b"]


def test_access_log_join_rejects_a_handler_longer_than_the_round_trip():
    # Sent at 1 ms, done at 3 ms: the handler may take up to 2 ms, plus
    # the access log's rounding to a microsecond.
    sample = Sample("r", "/v1/map", due=0.0, sent=0.001, done=0.003)
    fits = join_access_log([sample], [_record("r", "/v1/map", 2.0004)])
    assert fits[1] == {} and fits[0][0].transport_ms == pytest.approx(
        -0.0004)
    assert LOG_ROUNDING_MS == 0.0005
    splits, problems = join_access_log([sample],
                                       [_record("r", "/v1/map", 2.001)])
    assert splits == [] and "exceeds" in problems["r"]


def test_percentile_or_max_falls_back_on_a_thin_tail():
    assert percentile_or_max(range(200), 0.95) == (percentile(range(200),
                                                              0.95), True)
    assert percentile_or_max([5.0, 1.0, 3.0], 0.9) == (5.0, False)
    assert percentile_or_max([], 0.5) == (0.0, False)


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 2), (1, 3), (1.5, 2.5)]) == 3
    assert covered([(0, 5), (1, 2)]) == 5


def test_self_time_subtracts_covered_child_time_once():
    spans = [Span("parent", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 5.0, parent=0),      # overlaps a (threads)
             Span("grandchild", 1.0, 2.0, parent=1),
             Span("c", 9.0, 12.0, parent=0)]     # clipped to the parent
    assert self_time(spans, 0) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(spans, 1) == pytest.approx(2.0)
    assert self_time(spans, 3) == pytest.approx(1.0)


def test_recorder_children_allow_dotted_labels():
    paths = ["build", "build.users", "build.users.fusion",
             "build.services", "build.services.measure.tls-scan",
             "build.services.measure.ecs-mapping",
             "build.services.measure.ecs-mapping.par.ecs-mapping"]
    assert recorder_children(paths, "build.services") == [
        "build.services.measure.tls-scan",
        "build.services.measure.ecs-mapping"]
    assert recorder_children(paths, "build") == ["build.users",
                                                 "build.services"]
