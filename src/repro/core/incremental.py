"""The :class:`InGrassSparsifier` driver — the library's main public entry point.

It bundles the paper's Algorithm 1 — extended to fully dynamic streams — into
a convenient object:

* :meth:`setup` runs the one-time setup phase on the initial sparsifier
  ``H(0)`` (and can build ``H(0)`` itself via the GRASS-style baseline when
  the caller only has the graph);
* :meth:`apply_batch` is the one write path: it consumes one batch of
  streamed updates — either a plain sequence of new edges (the paper's
  insertion-only protocol) or a :class:`~repro.streams.edge_stream.MixedBatch`
  of deletions, weight changes and insertions — validates the whole batch
  before touching anything, keeps both the internal copy of the original
  graph ``G(k)`` and the sparsifier ``H(k)`` in sync, and records
  per-iteration statistics;
* :meth:`condition_number` / :meth:`report` evaluate the current quality;
* :meth:`refresh_setup` rebuilds the LRD hierarchy from the current
  sparsifier (scheduled automatically after
  ``config.resetup_after_removals`` sparsifier-edge deletions).

The driver is the one owner of the update engine's state.  Each setup,
refresh and checkpoint restore fixes the similarity filtering level (Section
III-C-2: from the hierarchy and the target κ; a restore keeps the saved
level) and builds the :class:`~repro.core.filtering.SimilarityFilter` and, in
``hierarchy_mode="maintain"``, the
:class:`~repro.core.maintenance.HierarchyMaintainer`; the stage functions of
:mod:`repro.core.update` receive both on every call and keep nothing.

Typical usage::

    from repro import InGrassSparsifier, InGrassConfig

    ingrass = InGrassSparsifier(InGrassConfig())
    ingrass.setup(graph, sparsifier)              # one-time, O(N log N)
    for batch in edge_stream:                     # each batch: O(log N) per edge
        result = ingrass.apply_batch(batch)       # insertions or MixedBatch
    print(ingrass.report())
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import InGrassConfig
from repro.core.filtering import SimilarityFilter
from repro.core.maintenance import HierarchyMaintainer, MaintenanceStats
from repro.core.setup import SetupResult, run_setup
from repro.core.update import (
    KappaGuardReport,
    RemovalResult,
    UpdateResult,
    run_kappa_guard,
    run_removal,
    run_update,
)
from repro.graphs.graph import Graph, canonical_edge, coerce_edge_triple_arrays
from repro.graphs.validation import (
    GraphValidationError,
    removals_keep_connected,
    validate_removals,
    validate_sparsifier_support,
)
from repro.sparsify.metrics import SparsifierReport, evaluate_sparsifier, offtree_density
from repro.spectral.condition import DENSE_LIMIT_DEFAULT, SpectralContext, relative_condition_number
from repro.streams.edge_stream import MixedBatch
from repro.utils.timing import Timer

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]
UpdateBatch = Union[MixedBatch, Iterable[WeightedEdge]]


@dataclass
class IterationRecord:
    """Statistics of one incremental update iteration."""

    iteration: int
    streamed_edges: int
    added_edges: int
    merged_edges: int
    redistributed_edges: int
    dropped_edges: int
    filtering_level: int
    update_seconds: float
    sparsifier_edges: int
    offtree_density: float
    removed_edges: int = 0
    repair_edges: int = 0
    reweighted_edges: int = 0


@dataclass
class ReweightResult:
    """Outcome of a batch's weight-change phase (pure conductance increases)."""

    #: ``(u, v, delta)`` events applied to the tracked graph.
    applied: List[WeightedEdge]
    #: Events whose edge the sparsifier carries directly (weight bumped there).
    direct: int = 0
    #: Events folded onto the surviving cluster-pair support (the edge itself
    #: was absorbed by an earlier merge/redistribute decision).
    reassigned: int = 0
    #: Events that had no surviving support and were admitted as new
    #: sparsifier edges carrying just the delta.
    admitted: int = 0
    reweight_seconds: float = 0.0


@dataclass
class MixedUpdateResult:
    """Outcome of one :meth:`InGrassSparsifier.apply_batch` call.

    A phase the batch did not carry is ``None``; a plain insertion list
    always sets :attr:`insertion`.
    """

    removal: Optional[RemovalResult]
    insertion: Optional[UpdateResult]
    #: κ-guard pass run after the whole batch (when the guard is configured).
    kappa_guard: Optional[KappaGuardReport] = None
    #: Weight-change phase (when the batch carried re-weighting events).
    reweight: Optional[ReweightResult] = None

    @property
    def seconds(self) -> float:
        """Combined wall-clock cost of all phases of the batch."""
        total = 0.0
        if self.removal is not None:
            total += self.removal.removal_seconds
        if self.reweight is not None:
            total += self.reweight.reweight_seconds
        if self.insertion is not None:
            total += self.insertion.update_seconds
        if self.kappa_guard is not None:
            total += self.kappa_guard.guard_seconds
        return total


class InGrassSparsifier:
    """Incremental spectral sparsifier maintaining ``H(k)`` under edge insertions and deletions."""

    def __init__(self, config: Optional[InGrassConfig] = None) -> None:
        self.config = config if config is not None else InGrassConfig()
        self._graph: Optional[Graph] = None
        self._sparsifier: Optional[Graph] = None
        self._setup: Optional[SetupResult] = None
        self._filter: Optional[SimilarityFilter] = None
        self._maintainer: Optional[HierarchyMaintainer] = None
        self._target_condition: Optional[float] = self.config.target_condition_number
        self._history: List[IterationRecord] = []
        self._total_update_seconds = 0.0
        self._full_resetups = 0
        self._resetup_seconds = 0.0
        # The κ guard's warm-start state, one per setup.  Reads (κ queries,
        # snapshots, checkpoints) never touch it, so asking for κ cannot
        # perturb the writer's trajectory; a restored driver starts cold.
        self._spectral = SpectralContext()
        # Version epoch: bumped once per mutating public operation (setup,
        # apply_batch, refresh_setup).  The anchor the snapshot read layer
        # keys on.
        self._version = 0

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The tracked original graph ``G(k)`` (including streamed edges).

        .. warning:: This is the **live** object the update pipeline mutates
           in place — not a copy.  Mutating it behind the driver's back (or
           reading it from another thread mid-update) corrupts the engine's
           invariants.  For read-only access — especially concurrent access —
           go through :meth:`snapshot`, whose graphs are immutable views.
        """
        self._require_setup()
        return self._graph  # type: ignore[return-value]

    @property
    def sparsifier(self) -> Graph:
        """The current sparsifier ``H(k)``.

        .. warning:: Live object, same contract as :attr:`graph`: never
           mutate it directly, and use :meth:`snapshot` for concurrent or
           read-only access.
        """
        self._require_setup()
        return self._sparsifier  # type: ignore[return-value]

    @property
    def setup_result(self) -> SetupResult:
        """Artifacts of the setup phase (hierarchy, timing)."""
        self._require_setup()
        return self._setup  # type: ignore[return-value]

    @property
    def setup_seconds(self) -> float:
        """Wall-clock cost of the setup phase."""
        self._require_setup()
        return self._setup.setup_seconds  # type: ignore[union-attr]

    @property
    def total_update_seconds(self) -> float:
        """Accumulated wall-clock cost of all update iterations."""
        return self._total_update_seconds

    @property
    def history(self) -> List[IterationRecord]:
        """Per-iteration statistics, in call order."""
        return list(self._history)

    @property
    def target_condition_number(self) -> Optional[float]:
        """Target κ used to choose the similarity filtering level."""
        return self._target_condition

    @property
    def filtering_level(self) -> int:
        """The similarity filtering level fixed for the current setup."""
        self._require_setup()
        return self._filter.filtering_level  # type: ignore[union-attr]

    @property
    def removals_since_setup(self) -> int:
        """Sparsifier-edge deletions absorbed since the last (re)setup.

        Delegates to the hierarchy's staleness counter — the single source of
        truth, bumped by :func:`repro.core.update.run_removal` per removed
        sparsifier edge and reset when a fresh hierarchy is built.
        """
        self._require_setup()
        assert self._setup is not None
        return self._setup.hierarchy.noted_removals

    @property
    def full_resetups(self) -> int:
        """Number of full setup refreshes performed since :meth:`setup`."""
        return self._full_resetups

    @property
    def resetup_seconds(self) -> float:
        """Accumulated wall-clock cost of full setup refreshes."""
        return self._resetup_seconds

    @property
    def latest_version(self) -> int:
        """The current version epoch.

        Starts at 0, becomes 1 after :meth:`setup` and then increases by
        exactly one per applied :meth:`apply_batch` (a rejected batch leaves
        it unchanged) plus one for every :meth:`refresh_setup` — including
        the automatic rebuild-mode re-setups, which keeps the version
        sequence deterministic for a given operation stream.  :class:`~repro.snapshot.SparsifierSnapshot` anchors
        on this counter.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    def snapshot(self) -> "SparsifierSnapshot":
        """Capture the current state as an immutable, queryable snapshot.

        O(1) amortised and copy-free (see
        :class:`~repro.snapshot.SparsifierSnapshot`).  Not safe to call
        concurrently with a mutating call on this driver — serialise capture
        against writes, as :class:`repro.service.SparsifierService` does.
        """
        from repro.snapshot import SparsifierSnapshot

        return SparsifierSnapshot.capture(self)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path) -> None:
        """Persist the driver's full state to ``path`` (a directory).

        The checkpoint is a versioned, self-describing artifact —
        ``manifest.json`` plus an arrays file — from which
        :meth:`load_checkpoint` rebuilds a driver whose continuation is
        byte-identical to this one's (same sparsifier edges including
        insertion order, same filter decisions, same κ trajectory).  See
        :mod:`repro.checkpoint` for the format contract.
        """
        from repro.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @classmethod
    def load_checkpoint(cls, path) -> "InGrassSparsifier":
        """Rebuild a driver from a checkpoint written by :meth:`save_checkpoint`."""
        from repro.checkpoint import load_checkpoint

        return load_checkpoint(path)

    def _checkpoint_runtime_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Checkpoint extras: (JSON-able dict, named arrays).

        The driver's only runtime state beyond the core arrays is the
        maintain-mode maintainer: its lifetime counters and the spliced-node
        neighbourhood pending re-examination.  The similarity filter is
        deliberately *not* serialised — its cluster-pair map is a pure
        function of (sparsifier edges, hierarchy labels) and is rebuilt
        decision-identically on first use after restore.
        """
        extra: dict = {}
        arrays: Dict[str, np.ndarray] = {}
        maintainer = self._maintainer
        if maintainer is not None:
            extra["maintainer_stats"] = asdict(maintainer.stats)
            pending = sorted(maintainer._splice_neighbourhood.keys())
            arrays["pending_splices"] = np.asarray(pending, dtype=np.int64)
        return extra, arrays

    def _restore_runtime_state(self, extra: dict,
                               arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`_checkpoint_runtime_state` on a rebuilt driver."""
        maintainer = self._maintainer
        if maintainer is None:
            return
        stats = extra.get("maintainer_stats")
        if stats is not None:
            maintainer.stats = MaintenanceStats(**stats)
        pending = arrays.get("pending_splices")
        if pending is not None and pending.size:
            maintainer.note_spliced_nodes(pending.tolist())

    @property
    def maintainer(self) -> Optional[HierarchyMaintainer]:
        """The hierarchy maintainer (``hierarchy_mode="maintain"`` only)."""
        return self._maintainer

    @property
    def maintenance_stats(self) -> MaintenanceStats:
        """Lifetime counters of the maintenance layer (zeros in rebuild mode)."""
        if self._maintainer is None:
            return MaintenanceStats()
        return self._maintainer.stats

    def _require_setup(self) -> None:
        if self._setup is None:
            raise RuntimeError("call setup() before using the sparsifier")

    def _bind_engine(self, filtering_level: int) -> None:
        """Build the similarity filter at ``filtering_level`` and, in maintain
        mode, the hierarchy maintainer, both bound to the current setup.

        The filtering level is a *setup-time* choice (Section III-C-2 derives
        it from the hierarchy the setup phase built) and the whole
        cluster-pair map is keyed by that level's labels, so it stays fixed
        until the next (re)setup even when maintain-mode splices and merges
        change the cluster sizes it was derived from.
        """
        assert self._setup is not None and self._sparsifier is not None
        hierarchy = self._setup.hierarchy
        self._filter = SimilarityFilter(self._sparsifier, hierarchy, filtering_level)
        self._maintainer = (HierarchyMaintainer(hierarchy, self._sparsifier,
                                                lrd_config=self.config.lrd)
                            if self.config.hierarchy_mode == "maintain" else None)

    def _level_for_target(self) -> int:
        assert self._setup is not None and self._target_condition is not None
        return self._setup.hierarchy.filtering_level_for_condition(
            self._target_condition, self.config.filtering_size_divisor)

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def setup(self, graph: Graph, sparsifier: Optional[Graph] = None, *,
              target_condition_number: Optional[float] = None,
              initial_offtree_density: float = 0.10) -> SetupResult:
        """Run the one-time setup phase.

        Parameters
        ----------
        graph:
            The original graph ``G(0)``.
        sparsifier:
            The initial sparsifier ``H(0)``.  When omitted, a GRASS-style
            sparsifier with ``initial_offtree_density`` off-tree edges per
            node is built from ``graph``.
        target_condition_number:
            Target κ for the similarity filter.  When omitted and not present
            in the configuration, the measured κ(G(0), H(0)) is used — i.e.
            "keep the quality the initial sparsifier had", which is the
            protocol of the paper's Table II.
        initial_offtree_density:
            Density of the automatically built sparsifier (ignored when
            ``sparsifier`` is given).
        """
        if sparsifier is None:
            from repro.sparsify.grass import GrassConfig, GrassSparsifier

            grass_config = GrassConfig(target_offtree_density=initial_offtree_density,
                                       seed=self.config.seed)
            sparsifier = GrassSparsifier(grass_config).sparsify(graph).sparsifier
        validate_sparsifier_support(graph, sparsifier, allow_new_edges=True)
        graph, sparsifier = graph.copy(), sparsifier.copy()
        setup = run_setup(sparsifier, self.config)
        if target_condition_number is None:
            target_condition_number = self.config.target_condition_number
        if target_condition_number is None:
            # Derive the target from the measured initial quality.
            target_condition_number = relative_condition_number(graph, sparsifier)
        # Nothing above touched the driver: a failed setup leaves it as it was.
        self._graph, self._sparsifier, self._setup = graph, sparsifier, setup
        self._target_condition = target_condition_number
        self._history = []
        self._total_update_seconds = 0.0
        self._full_resetups = 0
        self._resetup_seconds = 0.0
        self._spectral = SpectralContext()
        self._bind_engine(self._level_for_target())
        self._bump_version()
        return setup

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #
    def _record_iteration(self, *, streamed: int, removed: int, repairs: int,
                          insertion: Optional[UpdateResult],
                          removal: Optional[RemovalResult], seconds: float,
                          reweighted: int) -> None:
        assert self._sparsifier is not None
        summary = insertion.summary if insertion is not None else None
        if insertion is not None:
            level = insertion.filtering_level
        elif removal is not None:
            level = removal.filtering_level
        else:
            level = self.filtering_level
        self._history.append(
            IterationRecord(
                iteration=len(self._history) + 1,
                streamed_edges=streamed,
                added_edges=summary.added if summary else 0,
                merged_edges=summary.merged if summary else 0,
                redistributed_edges=summary.redistributed if summary else 0,
                dropped_edges=summary.dropped if summary else 0,
                filtering_level=level,
                update_seconds=seconds,
                sparsifier_edges=self._sparsifier.num_edges,
                offtree_density=offtree_density(self._sparsifier),
                removed_edges=removed,
                repair_edges=repairs,
                reweighted_edges=reweighted,
            )
        )

    def _apply_insertions(self, new_edges: Sequence[WeightedEdge]) -> UpdateResult:
        """Insertion phase: add to ``G(k)`` unconditionally, filter into ``H(k)``."""
        graph, sparsifier = self._graph, self._sparsifier
        assert graph is not None and sparsifier is not None and self._setup is not None
        graph.add_edges(new_edges, merge="add")
        return run_update(sparsifier, new_edges, self.config,
                          similarity_filter=self._filter, maintainer=self._maintainer)

    def _validate_batch(self, batch: MixedBatch) -> Tuple[List[Edge], List[WeightedEdge]]:
        """Check every event of ``batch`` before the first mutation.

        Returns the canonical deletion pairs and the weight changes as
        ``(u, v, delta)`` Python scalars.  Deletions must exist and keep
        ``G(k)`` connected; a weight change must target an edge still present
        after the batch's deletions, with a positive, finite delta; every
        insertion must pass the per-event rules of
        :func:`~repro.graphs.validation.validate_new_edge_arrays`.  Raises
        :class:`GraphValidationError` on the first violation.
        """
        graph = self._graph
        assert graph is not None
        pairs: List[Edge] = []
        if batch.deletions:
            pairs = validate_removals(graph, batch.deletions, missing="error")
            if not removals_keep_connected(graph, pairs):
                raise GraphValidationError(
                    "deletion batch would disconnect the tracked graph; a disconnected "
                    "graph has no spectral sparsifier (unbounded condition number)"
                )
        deleted = set(pairs)
        changes = [(int(u), int(v), float(delta)) for u, v, delta in batch.weight_changes]
        for u, v, delta in changes:
            if not graph.has_edge(u, v) or canonical_edge(u, v) in deleted:
                raise GraphValidationError(
                    f"weight change ({u}, {v}) targets an edge the tracked graph "
                    "does not carry after the batch's deletions"
                )
            if not (math.isfinite(delta) and delta > 0):
                raise GraphValidationError(
                    f"weight change ({u}, {v}) must have a positive, finite delta, got {delta}"
                )
        coerce_edge_triple_arrays(batch.insertions, graph.num_nodes,
                                  error_cls=GraphValidationError)
        return pairs, changes

    def _apply_removals(self, pairs: Sequence[Edge]) -> RemovalResult:
        """Deletion phase: drop validated pairs from ``G(k)``, then repair ``H(k)``."""
        graph, sparsifier = self._graph, self._sparsifier
        assert graph is not None and sparsifier is not None and self._setup is not None
        # Capture the physical weights while removing so run_removal can
        # re-home conductance that merges parked on removed sparsifier edges.
        removed_with_weights = graph.remove_edges(pairs)
        result = run_removal(sparsifier, removed_with_weights,
                             graph=graph, config=self.config,
                             similarity_filter=self._filter, maintainer=self._maintainer)
        # The periodic full re-setup is a rebuild-mode fallback: the
        # maintenance mode keeps the hierarchy structurally accurate, so it
        # never pays the O(m log n) refresh.
        threshold = self.config.resetup_after_removals
        if (self.config.hierarchy_mode == "rebuild" and threshold is not None
                and self._setup.hierarchy.needs_refresh(threshold)):
            self.refresh_setup()
        return result

    def _apply_weight_changes(self, applied: List[WeightedEdge]) -> ReweightResult:
        """Weight-change phase: bump conductances in place, no repair needed.

        Added conductance can only lower effective resistances, so every
        cached resistance upper bound (hierarchy diameters, filter map) stays
        valid without invalidation — this is what makes the direct path
        strictly cheaper than the delete+insert round trip it replaces.
        """
        graph, sparsifier = self._graph, self._sparsifier
        assert graph is not None and sparsifier is not None
        timer = Timer().start()
        result = ReweightResult(applied=applied)
        graph.increase_weights([(u, v) for u, v, _ in applied],
                               [delta for _, _, delta in applied])
        similarity_filter, maintainer = self._filter, self._maintainer
        assert similarity_filter is not None
        admitted: List[WeightedEdge] = []
        for u, v, delta in applied:
            if sparsifier.has_edge(u, v):
                sparsifier.increase_weight(u, v, delta)
                result.direct += 1
            elif similarity_filter.reassign_weight(u, v, delta):
                # The physical edge was absorbed by an earlier merge or
                # redistribution; its reinforcement follows the same route.
                result.reassigned += 1
            else:
                sparsifier.add_edge(u, v, delta, merge="add")
                similarity_filter.notify_edge_added(u, v)
                admitted.append((u, v, delta))
                result.admitted += 1
        if maintainer is not None and admitted:
            maintainer.note_insertions(admitted, similarity_filter=similarity_filter)
        timer.stop()
        result.reweight_seconds = timer.elapsed
        return result

    def _run_guard(self) -> Optional[KappaGuardReport]:
        """Run a κ-guard pass when configured (after a whole batch).

        Running at batch granularity lets the guard see the combined effect
        of deletions, repairs and insertions, so the quality contract covers
        insertion-only batches of a churn stream too.
        """
        if self.config.kappa_guard_factor is None:
            return None
        assert self._graph is not None and self._sparsifier is not None
        assert self._target_condition is not None and self._filter is not None
        return run_kappa_guard(self._sparsifier, graph=self._graph, config=self.config,
                               target_condition_number=self._target_condition,
                               similarity_filter=self._filter, maintainer=self._maintainer,
                               context=self._spectral)

    def apply_batch(self, batch: UpdateBatch) -> MixedUpdateResult:
        """Apply one batch of streamed updates as one iteration — the only write path.

        ``batch`` is either a :class:`~repro.streams.edge_stream.MixedBatch`,
        whose deletions apply first, then its weight changes, then its
        insertions, or a plain iterable of ``(u, v, weight)`` insertions (the
        paper's protocol; generators are materialised once).  The whole batch
        is validated before anything changes: a rejected batch raises
        :class:`~repro.graphs.validation.GraphValidationError` and leaves
        ``G(k)``, ``H(k)``, :attr:`history` and :attr:`latest_version`
        untouched.  When configured, one κ-guard pass runs after a non-empty
        batch, so it sees the combined effect of all three phases.

        Insertions are added to the tracked original graph unconditionally
        (the physical network really did change) and to the sparsifier
        selectively through distortion ranking and similarity filtering;
        deletions always leave both, with the sparsifier repaired as needed.
        """
        self._require_setup()
        # A plain list is the paper's insertion-only protocol: its insertion
        # phase runs even when the list is empty.
        plain = not isinstance(batch, MixedBatch)
        if plain:
            batch = MixedBatch(insertions=list(batch))
        pairs, changes = self._validate_batch(batch)
        # A relabel of the filtering level the filter was not told about
        # shows up as a label-version mismatch; resync rebuilds its map once.
        self._filter.resync()  # type: ignore[union-attr]
        removal = self._apply_removals(pairs) if pairs else None
        reweight = self._apply_weight_changes(changes) if changes else None
        insertion = (self._apply_insertions(batch.insertions)
                     if batch.insertions or plain else None)
        guard = self._run_guard() if batch else None
        result = MixedUpdateResult(removal=removal, insertion=insertion, kappa_guard=guard,
                                   reweight=reweight)
        self._total_update_seconds += result.seconds
        repairs = removal.num_repairs if removal else 0
        if guard is not None:
            repairs += len(guard.added_edges)
        self._record_iteration(
            streamed=len(batch.insertions),
            removed=len(removal.requested) if removal else 0,
            repairs=repairs,
            insertion=insertion, removal=removal, seconds=result.seconds,
            reweighted=len(changes),
        )
        self._bump_version()
        return result

    def refresh_setup(self) -> SetupResult:
        """Re-run the setup phase on the current sparsifier.

        Rebuilds the LRD hierarchy, the filtering level, the similarity
        filter and the maintainer from ``H(k)`` as it stands — the
        coarse-grained refresh that restores estimate accuracy after many
        deletions in rebuild mode (the maintenance mode keeps the hierarchy
        accurate in place and only reaches here when a caller forces it).
        The accumulated history and the tracked graph are preserved.
        """
        self._require_setup()
        assert self._sparsifier is not None
        with Timer() as timer:
            self._setup = run_setup(self._sparsifier, self.config)
        self._bind_engine(self._level_for_target())
        self._full_resetups += 1
        self._resetup_seconds += timer.elapsed
        self._bump_version()
        return self._setup

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def condition_number(self, *, dense_limit: int = DENSE_LIMIT_DEFAULT) -> float:
        """Return κ(L_G(k), L_H(k)) for the current state."""
        self._require_setup()
        return relative_condition_number(self._graph, self._sparsifier, dense_limit=dense_limit)

    def report(self, *, compute_condition: bool = True, dense_limit: int = DENSE_LIMIT_DEFAULT) -> SparsifierReport:
        """Return a full quality report of the current sparsifier."""
        self._require_setup()
        return evaluate_sparsifier(self._graph, self._sparsifier,
                                   compute_condition=compute_condition, dense_limit=dense_limit)
