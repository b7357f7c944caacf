"""Single-writer / many-reader service around the incremental sparsifier.

:class:`SparsifierService` is the concurrency shell the async front end (and
any embedding application) drives:

* **one writer** — :meth:`apply` feeds the update stream through the
  wrapped driver's :meth:`~repro.core.incremental.InGrassSparsifier.apply_batch`,
  one batch at a time, and :meth:`refresh` forces a setup refresh (an
  internal lock serialises overlapping writers);
* **many readers** — :meth:`snapshot` hands out the
  :class:`~repro.snapshot.SparsifierSnapshot` of the current version epoch.
  The handout is O(1) (the snapshot per epoch is created once and cached) and
  the lock is held only for the handout itself — every actual query
  (resistance lookups, PCG solves, κ) runs lock-free against the immutable
  snapshot, so readers never stall the update pipeline and vice versa.

Snapshots of past epochs are retained in a bounded LRU (``max_snapshots``),
so a slow reader can keep querying the epoch it started with while the writer
races ahead.

Typical usage::

    from repro.api import SparsifierService

    service = SparsifierService(config)
    service.setup(graph)                       # builds H(0) + the hierarchy
    ...
    service.apply(batch)                       # writer thread
    snap = service.snapshot()                  # any reader thread
    snap.effective_resistance(u, v)            # lock-free reads
    snap.solve(b)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import List, Optional

from repro.core.config import InGrassConfig
from repro.core.incremental import InGrassSparsifier, MixedUpdateResult, UpdateBatch
from repro.core.setup import SetupResult
from repro.graphs.graph import Graph
from repro.snapshot import SparsifierSnapshot


class SparsifierService:
    """Thread-safe facade serving versioned reads against a live sparsifier.

    Parameters
    ----------
    config:
        Driver configuration (``None`` means defaults).  Ignored when
        ``driver`` is given.
    driver:
        An existing driver to wrap (e.g. one that already ran ``setup``).
    max_snapshots:
        Bound on retained per-epoch snapshots.  The most recent epochs win;
        evicted snapshots stay fully usable for readers still holding them —
        eviction only drops the service's own reference.
    """

    def __init__(self, config: Optional[InGrassConfig] = None, *,
                 driver: Optional[InGrassSparsifier] = None,
                 max_snapshots: int = 8) -> None:
        if max_snapshots < 1:
            raise ValueError("max_snapshots must be at least 1")
        self._driver = driver if driver is not None else InGrassSparsifier(config)
        self._lock = threading.RLock()
        self._snapshots: "OrderedDict[int, SparsifierSnapshot]" = OrderedDict()
        self._max_snapshots = max_snapshots
        self._applied_batches = 0
        # Per-operation write accounting, surfaced by the HTTP front end's
        # /metrics endpoint: {kind: [count, seconds]}.
        self._write_stats: dict = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def driver(self) -> InGrassSparsifier:
        """The wrapped driver — for configuration and history introspection.

        Treat it as read-only: route mutations through the service so the
        write lock and snapshot cache stay coherent.
        """
        return self._driver

    @property
    def latest_version(self) -> int:
        """The writer's current version epoch (see
        :attr:`InGrassSparsifier.latest_version`)."""
        return self._driver.latest_version

    @property
    def applied_batches(self) -> int:
        """Number of write batches applied through this service."""
        return self._applied_batches

    @property
    def retained_versions(self) -> List[int]:
        """Versions with a retained snapshot, oldest first."""
        with self._lock:
            return list(self._snapshots.keys())

    @property
    def write_stats(self) -> dict:
        """Per-operation write accounting: ``{kind: {count, seconds}}``.

        Covers every write routed through this service (``update`` /
        ``refresh`` / ``checkpoint``) — the numbers behind the HTTP
        ``/metrics`` endpoint's writer gauges.
        """
        with self._lock:
            return {kind: {"count": count, "seconds": seconds}
                    for kind, (count, seconds) in sorted(self._write_stats.items())}

    def _record_write(self, kind: str, seconds: float) -> None:
        entry = self._write_stats.setdefault(kind, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # ------------------------------------------------------------------ #
    # Writer path
    # ------------------------------------------------------------------ #
    def setup(self, graph: Graph, sparsifier: Optional[Graph] = None,
              **kwargs) -> SetupResult:
        """Run the one-time setup phase (see :meth:`InGrassSparsifier.setup`)."""
        with self._lock:
            return self._driver.setup(graph, sparsifier, **kwargs)

    def apply(self, batch: UpdateBatch) -> MixedUpdateResult:
        """Apply one update batch (insertions or a ``MixedBatch``) — the write path.

        See :meth:`InGrassSparsifier.apply_batch`; a rejected batch raises
        before it changes anything and is not counted.
        """
        with self._lock:
            begin = time.perf_counter()
            result = self._driver.apply_batch(batch)
            self._record_write("update", time.perf_counter() - begin)
            self._applied_batches += 1
            return result

    def refresh(self) -> SetupResult:
        """Force a full setup refresh (see :meth:`InGrassSparsifier.refresh_setup`)."""
        with self._lock:
            begin = time.perf_counter()
            result = self._driver.refresh_setup()
            self._record_write("refresh", time.perf_counter() - begin)
            return result

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path) -> None:
        """Persist the wrapped driver's state (see :mod:`repro.checkpoint`).

        Takes the write lock, so the checkpoint always captures a
        batch-consistent state — never the middle of an update.
        """
        with self._lock:
            begin = time.perf_counter()
            self._driver.save_checkpoint(path)
            self._record_write("checkpoint", time.perf_counter() - begin)

    @classmethod
    def restore(cls, path, *, max_snapshots: int = 8) -> "SparsifierService":
        """Build a service around the driver restored from ``path``.

        The restored service resumes at the saved version epoch: the next
        applied batch continues the stream exactly where the checkpointed
        process left off.
        """
        driver = InGrassSparsifier.load_checkpoint(path)
        return cls(driver=driver, max_snapshots=max_snapshots)

    # ------------------------------------------------------------------ #
    # Reader path
    # ------------------------------------------------------------------ #
    def snapshot(self, version: Optional[int] = None) -> SparsifierSnapshot:
        """Return the snapshot of the current epoch (or a retained past one).

        The current epoch's snapshot is captured at most once and cached —
        concurrent readers at the same epoch share one snapshot object (its
        query caches, e.g. the Laplacian factorisation, are thread-safe).
        Passing ``version`` fetches a retained older epoch and raises
        :class:`KeyError` when it has been evicted (or never captured).
        """
        with self._lock:
            if version is not None:
                snap = self._snapshots.get(version)
                if snap is None:
                    raise KeyError(
                        f"no retained snapshot for version {version} "
                        f"(retained: {list(self._snapshots.keys())})"
                    )
                self._snapshots.move_to_end(version)
                return snap
            current = self._driver.latest_version
            snap = self._snapshots.get(current)
            if snap is None:
                snap = self._driver.snapshot()
                self._snapshots[current] = snap
                while len(self._snapshots) > self._max_snapshots:
                    self._snapshots.popitem(last=False)
            else:
                self._snapshots.move_to_end(current)
            return snap

    def describe(self) -> dict:
        """JSON-ready service summary (current epoch, retention, config)."""
        with self._lock:
            snap = self.snapshot()
            return {
                "latest_version": self._driver.latest_version,
                "applied_batches": self._applied_batches,
                "retained_versions": list(self._snapshots.keys()),
                "max_snapshots": self._max_snapshots,
                "hierarchy_mode": self._driver.config.hierarchy_mode,
                "write_stats": self.write_stats,
                "snapshot": snap.describe(),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SparsifierService(version={self._driver.latest_version}, "
                f"batches={self._applied_batches}, "
                f"retained={len(self._snapshots)})")
