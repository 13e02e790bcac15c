"""Pure arithmetic of the benchmark: percentiles, due-time accounting,
the access-log join and span self time.

Nothing here touches a process, a socket or the clock, so every rule the
benchmark's numbers rest on is unit-tested in ``test_harness.py``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

#: A percentile is reported only when at least this many samples lie
#: beyond it (the choosing-metrics rule), so p95 needs 200 samples and
#: p99 needs 1000.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ordered samples lie above the ``q``-quantile."""
    return n - math.ceil(q * n - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation between
    order statistics (numpy's default method).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: such a tail is one or two outliers, not a percentile.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    if q > 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} needs {MIN_BEYOND} samples beyond "
                         f"it; {n} samples leave "
                         f"{samples_beyond(n, q)}")
    position = q * (n - 1)
    lower = int(position)
    upper = min(n - 1, lower + 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) \
        * (position - lower)


def percentile_or_max(values: Sequence[float], q: float
                      ) -> Tuple[float, bool]:
    """``(percentile(values, q), True)`` when the tail is well sampled;
    otherwise ``(max(values), False)``, or ``(0.0, False)`` for no
    values, so a run with too few samples still reports a number and
    the caller decides whether that is a failure."""
    try:
        return percentile(values, q), True
    except ValueError:
        return max(values, default=0.0), False


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    Unlike the median it moves smoothly when two modes of a latency
    mixture trade places around the middle rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 4:
        raise ValueError("midmean needs at least 4 samples")
    middle = ordered[n // 4: n - n // 4]
    return sum(middle) / len(middle)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass
class Sample:
    """One client request, timed on the client's monotonic clock.

    ``due`` is when the schedule wanted it sent (for a closed loop, when
    the connection became free), ``sent`` when the request left and
    ``done`` when the whole body had arrived. ``idle`` is true when a
    connection was free before ``due``, so any gap between ``due`` and
    ``sent`` is the generator's own lateness, not queueing.
    """

    request_id: str
    path: str
    due: float
    sent: float
    done: float
    idle: bool = False
    status: int = 0
    digest: str = ""
    body: bytes = b""
    ok: bool = False

    @property
    def latency_ms(self) -> float:
        """Client latency, counted from when the request was due."""
        return (self.done - self.due) * 1e3

    @property
    def queue_ms(self) -> float:
        """Time the request waited, due to sent."""
        return (self.sent - self.due) * 1e3

    @property
    def late_ms(self) -> Optional[float]:
        """Generator lateness; None when the request waited for a
        connection (that wait is queueing, charged to the system)."""
        return self.queue_ms if self.idle else None


def lateness(samples: Iterable[Sample]) -> List[float]:
    """Lateness of every request the generator sent on an idle
    connection."""
    return [s.late_ms for s in samples if s.late_ms is not None]


#: The access log rounds server latency to a microsecond, so a handler
#: time may exceed the client's round trip by up to half of one.
LOG_ROUNDING_MS = 0.0005


@dataclass(frozen=True)
class Split:
    """A traced request's latency in three parts. Transport is defined
    as the remainder, so the parts sum to the latency by construction;
    what can fail is the join that produces them (see
    :func:`join_access_log`)."""

    request_id: str
    endpoint: str
    latency_ms: float
    queue_ms: float
    handler_ms: float

    @property
    def transport_ms(self) -> float:
        """What neither the client queue nor the handler explains: the
        server reading and parsing the request line, encoding the answer
        as JSON (the access log's time stops before it), sockets, HTTP
        framing and TCP acknowledgement timers."""
        return self.latency_ms - self.queue_ms - self.handler_ms


def join_access_log(samples: Iterable[Sample],
                    records: Iterable[Dict[str, object]]
                    ) -> Tuple[List[Split], Dict[str, str]]:
    """Join client samples to server access-log records on
    ``X-Request-Id``.

    Returns the splits of the samples that joined cleanly, and for every
    other sample its id and what went wrong: no record, several records,
    a record for another endpoint or path, or a handler time longer than
    the client's send-to-done time. A caller counts those rather than
    silently dropping them.
    """
    by_id: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        by_id.setdefault(str(record.get("request_id")), []).append(record)
    splits: List[Split] = []
    problems: Dict[str, str] = {}
    for sample in samples:
        rid = sample.request_id
        found = by_id.get(rid, [])
        if len(found) != 1:
            problems[rid] = (f"{len(found)} access-log records for "
                             f"{sample.path}")
            continue
        record = found[0]
        path = urlsplit(sample.path).path
        if record.get("path") != path \
                or record.get("endpoint") != path.rsplit("/", 1)[-1]:
            problems[rid] = (f"access-log record for {sample.path} names "
                             f"{record.get('endpoint')} "
                             f"{record.get('path')}")
            continue
        split = Split(request_id=rid, endpoint=str(record["endpoint"]),
                      latency_ms=sample.latency_ms,
                      queue_ms=sample.queue_ms,
                      handler_ms=float(record["latency_ms"]))
        if split.transport_ms < -LOG_ROUNDING_MS:
            problems[rid] = (f"handler time of {sample.path} exceeds the "
                             f"client's round trip")
            continue
        splits.append(split)
    return splits, problems


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span in
    the same trace (None at top level)."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request_id: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(spans: Sequence[Span], index: int) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children are clipped to the parent, and overlapping children (from
    threads) are counted once.
    """
    parent = spans[index]
    clipped = [(max(s.start, parent.start), min(s.end, parent.end))
               for s in spans if s.parent == index]
    return parent.duration - covered((a, b) for a, b in clipped if b > a)


def recorder_children(paths: Iterable[str], parent: str) -> List[str]:
    """Direct children of a recorder span path. Span labels may hold
    dots themselves (``measure.tls-scan``), so a child is a path under
    ``parent`` with no other recorded path between them."""
    under = [p for p in paths if p.startswith(parent + ".")]
    return [p for p in under
            if not any(p.startswith(q + ".") for q in under if q != p)]
