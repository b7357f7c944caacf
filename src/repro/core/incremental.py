"""The :class:`InGrassSparsifier` driver — the library's main public entry point.

It bundles the paper's Algorithm 1 — extended to fully dynamic streams — into
a convenient object:

* :meth:`setup` runs the one-time setup phase on the initial sparsifier
  ``H(0)`` (and can build ``H(0)`` itself via the GRASS-style baseline when
  the caller only has the graph);
* :meth:`update` consumes one batch of streamed updates — either a plain
  sequence of new edges (the paper's insertion-only protocol) or a
  :class:`~repro.streams.edge_stream.MixedBatch` of interleaved deletions and
  insertions — keeping both the internal copy of the original graph ``G(k)``
  and the sparsifier ``H(k)`` in sync, and recording per-iteration statistics;
* :meth:`remove` consumes a pure deletion batch;
* :meth:`condition_number` / :meth:`report` evaluate the current quality;
* :meth:`refresh_setup` rebuilds the LRD hierarchy/embedding from the current
  sparsifier (scheduled automatically after
  ``config.resetup_after_removals`` sparsifier-edge deletions).

Typical usage::

    from repro import InGrassSparsifier, InGrassConfig

    ingrass = InGrassSparsifier(InGrassConfig())
    ingrass.setup(graph, sparsifier)              # one-time, O(N log N)
    for batch in edge_stream:                     # each batch: O(log N) per edge
        result = ingrass.update(batch)            # insertions or MixedBatch
    print(ingrass.report())
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
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
    _select_filtering_level,
    run_kappa_guard,
    run_removal,
    run_update,
)
from repro.graphs.graph import Graph
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
    """Outcome of one weight-change batch (pure conductance increases)."""

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
    """Outcome of one mixed insert/delete batch (any part may be ``None``)."""

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

    @classmethod
    def from_config(cls, config: Optional[InGrassConfig] = None) -> "InGrassSparsifier":
        """Build a driver for ``config`` (``None`` means defaults)."""
        return cls(config)

    def __init__(self, config: Optional[InGrassConfig] = None) -> None:
        self.config = config if config is not None else InGrassConfig()
        self._graph: Optional[Graph] = None
        self._sparsifier: Optional[Graph] = None
        self._setup: Optional[SetupResult] = None
        self._filter: Optional[SimilarityFilter] = None
        self._maintainer: Optional[HierarchyMaintainer] = None
        self._target_condition: Optional[float] = self.config.target_condition_number
        self._pinned_config: Optional[InGrassConfig] = None
        self._history: List[IterationRecord] = []
        self._total_update_seconds = 0.0
        self._full_resetups = 0
        self._resetup_seconds = 0.0
        # The κ guard's warm-start state, one per setup.  Reads (κ queries,
        # snapshots, checkpoints) never touch it, so asking for κ cannot
        # perturb the writer's trajectory; a restored driver starts cold.
        self._spectral = SpectralContext()
        # Version epoch: bumped once per mutating public operation (setup,
        # update/apply_batch, remove, reweight, refresh_setup).  The anchor
        # the snapshot read layer keys on.
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
        """Artifacts of the setup phase (hierarchy, embedding, timing)."""
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
        exactly one per mutating public call (:meth:`update` /
        :meth:`apply_batch`, :meth:`remove`, :meth:`reweight`) plus one for
        every :meth:`refresh_setup` — including the automatic rebuild-mode
        re-setups, which keeps the version sequence deterministic for a given
        operation stream.  :class:`~repro.snapshot.SparsifierSnapshot` anchors
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
        ``manifest.json`` plus ``arrays.npz`` — from which
        :meth:`load_checkpoint` rebuilds a driver whose continuation is
        byte-identical to this one's (same sparsifier edge dict including
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
        if self.config.hierarchy_mode == "maintain":
            maintainer = self._ensure_maintainer()
            if maintainer is not None:
                extra["maintainer_stats"] = asdict(maintainer.stats)
                pending = sorted(maintainer._splice_neighbourhood.keys())
                arrays["pending_splices"] = np.asarray(pending, dtype=np.int64)
        return extra, arrays

    def _restore_runtime_state(self, extra: dict,
                               arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`_checkpoint_runtime_state` on a rebuilt driver."""
        if self.config.hierarchy_mode != "maintain":
            return
        maintainer = self._ensure_maintainer()
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

    def _resolved_config(self) -> InGrassConfig:
        """The configuration with the filtering level pinned for this setup.

        The similarity filtering level is a *setup-time* choice (Section
        III-C-2 derives it from the hierarchy the setup phase built): the
        whole cluster-pair map is keyed by that level's labels.  Re-deriving
        the level on every call would let maintain-mode splices/merges drift
        it mid-stream, silently invalidating the level-keyed filter map (the
        engine would build throwaway filters per batch and lose their
        registrations), so the first resolution after a (re)setup is frozen
        into the config every pipeline call receives.
        """
        self._require_setup()
        if self._pinned_config is None:
            assert self._setup is not None
            level = _select_filtering_level(self._setup, self.config, self._target_condition)
            self._pinned_config = (self.config if self.config.filtering_level == level
                                   else replace(self.config, filtering_level=level))
        return self._pinned_config

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
        self._graph = graph.copy()
        self._sparsifier = sparsifier.copy()
        self._setup = run_setup(self._sparsifier, self.config)
        self._filter = None
        self._maintainer = None
        self._pinned_config = None
        self._history = []
        self._total_update_seconds = 0.0
        self._full_resetups = 0
        self._resetup_seconds = 0.0
        self._spectral = SpectralContext()

        if target_condition_number is not None:
            self._target_condition = target_condition_number
        elif self.config.target_condition_number is not None:
            self._target_condition = self.config.target_condition_number
        elif self.config.filtering_level is None:
            # Derive the target from the measured initial quality.
            self._target_condition = relative_condition_number(self._graph, self._sparsifier)
        self._bump_version()
        return self._setup

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #
    def _ensure_filter(self) -> SimilarityFilter:
        """Build (once) the stateful similarity filter bound to the sparsifier."""
        assert self._setup is not None and self._sparsifier is not None
        if self._filter is None:
            level = _select_filtering_level(self._setup, self._resolved_config(),
                                            self._target_condition)
            self._filter = SimilarityFilter(self._sparsifier, self._setup.hierarchy, level)
        return self._filter

    def _ensure_maintainer(self) -> Optional[HierarchyMaintainer]:
        """Build (once per setup) the hierarchy maintainer in maintain mode."""
        if self.config.hierarchy_mode != "maintain":
            return None
        assert self._setup is not None and self._sparsifier is not None
        if self._maintainer is None or self._maintainer.hierarchy is not self._setup.hierarchy:
            self._maintainer = self._setup.make_maintainer(self._sparsifier, self.config)
        return self._maintainer

    def _record_iteration(self, *, streamed: int, removed: int, repairs: int,
                          insertion: Optional[UpdateResult],
                          removal: Optional[RemovalResult], seconds: float,
                          reweighted: int = 0) -> None:
        assert self._sparsifier is not None
        summary = insertion.summary if insertion is not None else None
        if insertion is not None:
            level = insertion.filtering_level
        elif removal is not None:
            level = removal.filtering_level
        else:
            level = self._filter.filtering_level if self._filter is not None else 0
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
        return run_update(
            sparsifier, self._setup, new_edges, self._resolved_config(),
            target_condition_number=self._target_condition,
            similarity_filter=self._ensure_filter(),
            maintainer=self._ensure_maintainer(),
        )

    def _apply_removals(self, deletions: Sequence[Edge]) -> RemovalResult:
        """Deletion phase: drop from ``G(k)``, then repair ``H(k)``."""
        graph, sparsifier = self._graph, self._sparsifier
        assert graph is not None and sparsifier is not None and self._setup is not None
        pairs = validate_removals(graph, deletions, missing="error")
        if not removals_keep_connected(graph, pairs):
            raise GraphValidationError(
                "deletion batch would disconnect the tracked graph; a disconnected "
                "graph has no spectral sparsifier (unbounded condition number)"
            )
        # Capture the physical weights while removing so run_removal can
        # re-home conductance that merges parked on removed sparsifier edges.
        removed_with_weights = graph.remove_edges(pairs)
        result = run_removal(
            sparsifier, self._setup, removed_with_weights,
            graph=graph, config=self._resolved_config(),
            target_condition_number=self._target_condition,
            similarity_filter=self._ensure_filter(),
            maintainer=self._ensure_maintainer(),
        )
        # The periodic full re-setup is a rebuild-mode fallback: the
        # maintenance mode keeps the hierarchy structurally accurate, so it
        # never pays the O(m log n) refresh.
        threshold = self.config.resetup_after_removals
        if (self.config.hierarchy_mode == "rebuild" and threshold is not None
                and self._setup.hierarchy.needs_refresh(threshold)):
            self.refresh_setup()
        return result

    def _apply_weight_changes(self, changes: Sequence[WeightedEdge]) -> ReweightResult:
        """Weight-change phase: bump conductances in place, no repair needed.

        Added conductance can only lower effective resistances, so every
        cached resistance upper bound (hierarchy diameters, filter map) stays
        valid without invalidation — this is what makes the direct path
        strictly cheaper than the delete+insert round trip it replaces.
        """
        graph, sparsifier = self._graph, self._sparsifier
        assert graph is not None and sparsifier is not None
        timer = Timer().start()
        applied = [(int(u), int(v), float(delta)) for u, v, delta in changes]
        for u, v, delta in applied:
            if not graph.has_edge(u, v):
                raise GraphValidationError(
                    f"weight change ({u}, {v}) targets an edge the tracked graph "
                    "does not carry"
                )
            if delta <= 0:
                raise GraphValidationError(
                    f"weight change ({u}, {v}) must have a positive delta, got {delta}"
                )
        result = ReweightResult(applied=applied)
        if applied:
            graph.increase_weights([(u, v) for u, v, _ in applied],
                                   [delta for _, _, delta in applied])
            similarity_filter = self._ensure_filter()
            maintainer = self._ensure_maintainer()
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
        if self.config.kappa_guard_factor is None or self._target_condition is None:
            return None
        assert self._graph is not None and self._sparsifier is not None and self._setup is not None
        return run_kappa_guard(
            self._sparsifier, self._setup, graph=self._graph,
            config=self._resolved_config(),
            target_condition_number=self._target_condition,
            similarity_filter=self._ensure_filter(),
            maintainer=self._ensure_maintainer(),
            context=self._spectral,
        )

    def update(self, batch: UpdateBatch) -> Union[UpdateResult, MixedUpdateResult]:
        """Apply one batch of streamed updates.

        ``batch`` is either a plain iterable of ``(u, v, weight)`` insertions
        (the paper's protocol; generators are accepted and materialised once)
        or a :class:`~repro.streams.edge_stream.MixedBatch`, whose deletions
        are applied before its insertions.

        Insertions are added to the tracked original graph unconditionally
        (the physical network really did change) and to the sparsifier
        selectively through distortion ranking and similarity filtering;
        deletions always leave both, with the sparsifier repaired as needed.
        """
        self._require_setup()
        if isinstance(batch, MixedBatch):
            return self.apply_batch(batch)
        # Materialise exactly once: callers may pass a generator, and the
        # edges are consumed twice (graph insertion + distortion ranking).
        new_edges = list(batch)
        result = self._apply_insertions(new_edges)
        # Run the κ guard exactly as a MixedBatch holding the same insertions
        # would, so update_many histories are identical regardless of how a
        # batch was packaged; guard time and additions land in the same
        # record columns as the apply_batch path uses.
        result.kappa_guard = self._run_guard() if new_edges else None
        seconds = result.update_seconds
        repairs = 0
        if result.kappa_guard is not None:
            seconds += result.kappa_guard.guard_seconds
            repairs = len(result.kappa_guard.added_edges)
        self._total_update_seconds += seconds
        self._record_iteration(streamed=len(new_edges), removed=0, repairs=repairs,
                               insertion=result, removal=None,
                               seconds=seconds)
        self._bump_version()
        return result

    def remove(self, deletions: Iterable[Edge]) -> RemovalResult:
        """Apply one batch of pure edge deletions (``(u, v)`` pairs)."""
        self._require_setup()
        result = self._apply_removals(list(deletions))
        result.kappa_guard = self._run_guard()
        seconds = result.removal_seconds
        if result.kappa_guard is not None:
            seconds += result.kappa_guard.guard_seconds
        self._total_update_seconds += seconds
        self._record_iteration(streamed=0, removed=len(result.requested),
                               repairs=result.num_repairs,
                               insertion=None, removal=result,
                               seconds=seconds)
        self._bump_version()
        return result

    def reweight(self, changes: Iterable[WeightedEdge]) -> ReweightResult:
        """Apply one batch of pure weight increases (``(u, v, delta)`` triples).

        The direct :class:`~repro.streams.edge_stream.WeightChangeEvent` path:
        the tracked graph's conductances are bumped through
        :meth:`repro.graphs.graph.Graph.increase_weights`, and the sparsifier
        follows — directly when it carries the edge, through the similarity
        filter's weight re-homing when an earlier decision absorbed it — with
        no repair, no hierarchy invalidation and no delete+insert round trip.
        """
        self._require_setup()
        result = self._apply_weight_changes(list(changes))
        self._total_update_seconds += result.reweight_seconds
        self._record_iteration(streamed=0, removed=0, repairs=0,
                               insertion=None, removal=None,
                               seconds=result.reweight_seconds,
                               reweighted=len(result.applied))
        self._bump_version()
        return result

    def apply_batch(self, batch: MixedBatch) -> MixedUpdateResult:
        """Apply one mixed batch (deletions, then weight changes, then
        insertions) as one iteration."""
        self._require_setup()
        removal = self._apply_removals(batch.deletions) if batch.deletions else None
        reweight = (self._apply_weight_changes(batch.weight_changes)
                    if batch.weight_changes else None)
        insertion = self._apply_insertions(list(batch.insertions)) if batch.insertions else None
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
            reweighted=len(batch.weight_changes),
        )
        self._bump_version()
        return result

    def update_many(self, batches: Sequence[UpdateBatch]) -> List[Union[UpdateResult, MixedUpdateResult]]:
        """Apply several batches in order (the 10-iteration protocol of Table II)."""
        return [self.update(batch) for batch in batches]

    def refresh_setup(self) -> SetupResult:
        """Re-run the setup phase on the current sparsifier.

        Rebuilds the LRD hierarchy, the resistance embedding and the
        similarity filter from ``H(k)`` as it stands — the coarse-grained
        refresh that restores estimate accuracy after many deletions in
        rebuild mode (the maintenance mode keeps the hierarchy accurate in
        place and only reaches here when a caller forces it).  The
        accumulated history and the tracked graph are preserved.
        """
        self._require_setup()
        assert self._sparsifier is not None
        with Timer() as timer:
            self._setup = run_setup(self._sparsifier, self.config)
        self._filter = None
        self._maintainer = None
        self._pinned_config = None
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
