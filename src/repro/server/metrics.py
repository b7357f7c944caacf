"""Per-endpoint observability for the HTTP front end.

Latency is part of the serving contract (``python -m repro bench compare``
judges the ``serve-mixed`` workload's read and write latencies between
revisions), so the server measures itself from the start rather than
bolting counters on later.  The model is deliberately
Prometheus-shaped without the dependency:

* one :class:`LatencyHistogram` per endpoint — fixed log-spaced bucket
  bounds, cumulative counts, exact count/sum/max, and percentile *estimates*
  read off the bucket upper bounds (the standard histogram-quantile
  approximation: cheap, mergeable, and bounded error set by the bucket
  resolution);
* per-endpoint status-code counters;
* where ``POST /resistance`` reads were answered: on the event loop (the
  published snapshot already held the solver) or on a worker thread;
* accepted connections, so requests per connection show whether clients
  keep their connections alive;
* point-in-time gauges (ingest-queue depth, epoch) merged in by the app at
  scrape time.

Everything is exposed as one JSON document at ``GET /metrics``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

#: Histogram bucket upper bounds in milliseconds (log-spaced, +inf implied).
DEFAULT_BUCKET_BOUNDS_MS: Sequence[float] = (
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates.

    Not thread-safe on its own — :class:`ServerMetrics` serialises access.
    """

    def __init__(self, bounds_ms: Sequence[float] = DEFAULT_BUCKET_BOUNDS_MS) -> None:
        self._bounds_ms: List[float] = sorted(float(b) for b in bounds_ms)
        self._counts: List[int] = [0] * (len(self._bounds_ms) + 1)  # +1: overflow
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = float(seconds) * 1e3
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        for index, bound in enumerate(self._bounds_ms):
            if ms <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def quantile_ms(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile in ms (bucket upper bound; ``None`` if empty).

        The overflow bucket reports the exact observed maximum — better than
        pretending +inf.
        """
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for index, bound in enumerate(self._bounds_ms):
            seen += self._counts[index]
            if seen >= rank:
                return bound
        return self.max_ms

    def snapshot(self) -> Dict:
        return {
            "count": self.count,
            "sum_ms": self.sum_ms,
            "mean_ms": self.sum_ms / self.count if self.count else None,
            "max_ms": self.max_ms,
            "p50_ms": self.quantile_ms(0.50),
            "p99_ms": self.quantile_ms(0.99),
            "buckets_ms": {repr(bound): self._counts[index]
                           for index, bound in enumerate(self._bounds_ms)},
            "overflow": self._counts[-1],
        }


class ServerMetrics:
    """Thread-safe per-endpoint latency + status accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyHistogram] = {}
        self._statuses: Dict[str, Dict[str, int]] = {}
        self._rejected_writes = 0
        self._timeouts = 0
        self._reads_on_loop = 0
        self._reads_on_worker = 0
        self._connections = 0

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one handled request (called once per response)."""
        with self._lock:
            histogram = self._latency.get(endpoint)
            if histogram is None:
                histogram = self._latency[endpoint] = LatencyHistogram()
            histogram.observe(seconds)
            statuses = self._statuses.setdefault(endpoint, {})
            key = str(int(status))
            statuses[key] = statuses.get(key, 0) + 1
            if status == 429:
                self._rejected_writes += 1
            elif status in (408, 504):
                self._timeouts += 1

    def observe_read(self, *, on_loop: bool) -> None:
        """Count one ``POST /resistance`` read by where it is answered."""
        with self._lock:
            if on_loop:
                self._reads_on_loop += 1
            else:
                self._reads_on_worker += 1

    def observe_connection(self) -> None:
        """Count one accepted connection."""
        with self._lock:
            self._connections += 1

    def snapshot(self, **gauges) -> Dict:
        """JSON-ready scrape; keyword arguments land under ``"gauges"``."""
        with self._lock:
            endpoints = {
                name: {"latency": histogram.snapshot(),
                       "statuses": dict(self._statuses.get(name, {}))}
                for name, histogram in sorted(self._latency.items())
            }
            return {
                "endpoints": endpoints,
                "requests_total": sum(h.count for h in self._latency.values()),
                "rejected_writes_total": self._rejected_writes,
                "timeouts_total": self._timeouts,
                "reads_on_loop_total": self._reads_on_loop,
                "reads_on_worker_total": self._reads_on_worker,
                "connections_total": self._connections,
                "gauges": dict(gauges),
            }
