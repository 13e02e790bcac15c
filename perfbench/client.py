"""Keep-alive HTTP load generator: one process, a few connections.

Each connection is a ``http.client.HTTPConnection`` owned by one thread,
so a request waits for a free connection exactly as a caller with a
bounded connection pool would. :func:`closed_loop` sends the next request
as soon as a connection is free; :func:`open_loop` sends on a fixed
schedule and times every request from when it was due.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from harness import Sample

#: Seconds a request may take before it counts as failed.
TIMEOUT_S = 30.0


class Connection:
    """One keep-alive connection, reopened after a failure."""

    def __init__(self, port: int, timeout: float = TIMEOUT_S) -> None:
        self._port = port
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str, request_id: str) -> Tuple[int, str, bytes]:
        """``(status, X-Map-Digest, body)`` of ``GET path``."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=self._timeout)
        try:
            self._conn.request("GET", path,
                               headers={"X-Request-Id": request_id})
            response = self._conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, response.getheader("X-Map-Digest", ""), \
            body

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(conn: Connection, sample: Sample) -> Sample:
    sample.sent = time.perf_counter()
    try:
        sample.status, sample.digest, sample.body = conn.get(
            sample.path, sample.request_id)
    except (OSError, http.client.HTTPException):
        sample.status = 0
    sample.done = time.perf_counter()
    return sample


def _run_workers(conns: Sequence[Connection],
                 work: Callable[[Connection], None]) -> None:
    threads = [threading.Thread(target=work, args=(conn,))
               for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(conns: Sequence[Connection], paths: Iterator[str],
                prefix: str, seconds: Optional[float] = None
                ) -> Tuple[List[Sample], float]:
    """Send ``paths`` over ``conns``, each request as soon as a
    connection is free, until the paths run out or ``seconds`` pass.
    Returns the samples and the loop's wall time."""
    lock = threading.Lock()
    counter = itertools.count()
    samples: List[Sample] = []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def work(conn: Connection) -> None:
        while deadline is None or time.perf_counter() < deadline:
            with lock:
                path = next(paths, None)
                index = next(counter)
            if path is None:
                return
            now = time.perf_counter()
            sample = _send(conn, Sample(f"{prefix}-{index}", path,
                                        due=now, sent=now, done=now))
            with lock:
                samples.append(sample)

    _run_workers(conns, work)
    return samples, time.perf_counter() - start


def open_loop(conns: Sequence[Connection],
              schedule: Sequence[Tuple[float, str]], prefix: str
              ) -> Tuple[List[Sample], float]:
    """Send each ``(offset_s, path)`` at its offset from now, on the
    first free connection. Returns the samples (in schedule order) and
    the loop's start time on the ``time.perf_counter`` clock."""
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    samples: List[Optional[Sample]] = [None] * len(schedule)
    start = time.perf_counter() + 0.05

    def work(conn: Connection) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, path = schedule[index]
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            samples[index] = _send(conn, Sample(
                f"{prefix}-{index}", path, due=due, sent=due, done=due,
                idle=wait > 0))

    _run_workers(conns, work)
    return samples, start  # type: ignore[return-value]
