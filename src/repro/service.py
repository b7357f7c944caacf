"""Single-writer / many-reader service around the incremental sparsifier.

:class:`SparsifierService` is the concurrency shell the async front end (and
any embedding application) drives:

* **one writer** — :meth:`apply` feeds the update stream through the
  wrapped driver's :meth:`~repro.core.incremental.InGrassSparsifier.apply_batch`,
  one batch at a time, and :meth:`refresh` forces a setup refresh (an
  internal lock serialises overlapping writers);
* **many readers** — :meth:`snapshot` hands out the
  :class:`~repro.snapshot.SparsifierSnapshot` of the current version epoch.
  The writer *publishes* each epoch it makes: at the end of :meth:`setup`,
  :meth:`apply` and :meth:`refresh` (and at construction around a driver
  that is already set up) it captures the epoch's snapshot under the write
  lock it already holds.  The current-epoch handout reads that published
  reference and takes no lock, so a reader never waits for a batch in
  flight: it gets the last published epoch.  Every query (resistance
  lookups, PCG solves, κ) then runs against the immutable snapshot.  Two
  calls still take the write lock and so wait for a write in flight: a
  versioned handout (``snapshot(version)``) and the retention and
  accounting properties (:attr:`retained_versions`, :attr:`write_stats`).

Published snapshots are retained in a bounded LRU (``max_snapshots``): the
most recent epochs the writer made, read or not, plus any older one a
versioned handout touched since.  A slow reader can keep querying the epoch
it started with while the writer races ahead.

Every snapshot the service publishes solves through the same two
:class:`~repro.spectral.solvers.SolverLineage` objects (one per graph): the
retained epochs share one kept factorisation per graph, and each epoch's
first query corrects it for the edges that changed instead of factoring.
Every write advances the lineages, so the epochs at which they factor again
follow the write stream, not the epochs readers happened to ask for.

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
from repro.spectral.condition import fresh_lineages


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
        #: The current epoch's snapshot; the writer replaces it under the
        #: lock, readers read the reference without it.
        self._published: Optional[SparsifierSnapshot] = None
        self._applied_batches = 0
        # Per-operation write accounting, surfaced by the HTTP front end's
        # /metrics endpoint: {kind: [count, seconds]}.
        self._write_stats: dict = {}
        self._lineages = fresh_lineages()
        if self._driver.latest_version:  # already set up, e.g. restored
            self._publish()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def driver(self) -> InGrassSparsifier:
        """The wrapped driver — for configuration and history introspection.

        Treat it as read-only: route mutations through the service, which
        publishes every epoch it makes; a mutation made on the driver itself
        is never published.
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
        """Versions with a retained snapshot, least recently published or
        handed out by version first; takes the write lock."""
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

    def _publish(self) -> None:
        """Advance the lineages to the driver's epoch and publish its snapshot.

        Called under the write lock for every version the writer makes,
        whether or not anyone reads it.  The lineages' ``advance`` compacts
        the edge arrays the capture then shares.
        """
        self._lineages["graph"].advance(self._driver.graph)
        self._lineages["sparsifier"].advance(self._driver.sparsifier)
        snap = SparsifierSnapshot.capture(self._driver, lineages=self._lineages)
        # Versions only grow, so the new entry is the LRU's newest.
        self._snapshots[snap.version] = snap
        while len(self._snapshots) > self._max_snapshots:
            self._snapshots.popitem(last=False)
        self._published = snap

    # ------------------------------------------------------------------ #
    # Writer path
    # ------------------------------------------------------------------ #
    def setup(self, graph: Graph, sparsifier: Optional[Graph] = None,
              **kwargs) -> SetupResult:
        """Run the one-time setup phase (see :meth:`InGrassSparsifier.setup`)."""
        with self._lock:
            result = self._driver.setup(graph, sparsifier, **kwargs)
            self._publish()
            return result

    def apply(self, batch: UpdateBatch) -> MixedUpdateResult:
        """Apply one update batch (insertions or a ``MixedBatch``) — the write path.

        See :meth:`InGrassSparsifier.apply_batch`; a rejected batch raises
        before it changes anything, is not counted and publishes nothing.
        """
        with self._lock:
            begin = time.perf_counter()
            result = self._driver.apply_batch(batch)
            self._publish()
            self._record_write("update", time.perf_counter() - begin)
            self._applied_batches += 1
            return result

    def refresh(self) -> SetupResult:
        """Force a full setup refresh (see :meth:`InGrassSparsifier.refresh_setup`)."""
        with self._lock:
            begin = time.perf_counter()
            result = self._driver.refresh_setup()
            self._publish()
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

        Without ``version``, the snapshot the writer last published: one
        object per epoch, shared by every reader of it (its query caches,
        e.g. the sparsifier's solver, are thread-safe).  This handout takes
        no lock, so it never waits for a write in flight; it answers the
        epoch before that write until the write publishes.  Passing
        ``version`` fetches a retained epoch under the write lock, so it
        waits for a write in flight, and raises :class:`KeyError` when that
        epoch has been evicted (or never made).
        """
        if version is None:
            snap = self._published
            if snap is None:
                raise RuntimeError("call setup() before reading the service")
            return snap
        with self._lock:
            snap = self._snapshots.get(version)
            if snap is None:
                raise KeyError(
                    f"no retained snapshot for version {version} "
                    f"(retained: {list(self._snapshots.keys())})"
                )
            self._snapshots.move_to_end(version)
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
                "write_stats": self.write_stats,
                "snapshot": snap.describe(),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SparsifierService(version={self._driver.latest_version}, "
                f"batches={self._applied_batches}, "
                f"retained={len(self._snapshots)})")
