"""Configuration dataclasses for the inGRASS core algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive, check_positive_int


@dataclass
class LRDConfig:
    """Parameters of the multilevel low-resistance-diameter decomposition.

    Attributes
    ----------
    initial_diameter:
        Resistance-diameter threshold of the first level.  ``None`` picks the
        median edge resistance of the initial sparsifier, which contracts
        roughly half of the edges at level 0 — the behaviour the paper's
        Figure 2 sketches.
    growth_factor:
        Multiplicative growth of the diameter threshold per level; the paper
        doubles it (clusters roughly double in radius each level), giving the
        ``O(log N)`` level count.
    max_levels:
        Hard cap on the number of levels (and therefore on the embedding
        dimension).
    min_clusters:
        Decomposition stops once the coarsest level has at most this many
        clusters.
    resistance_method:
        How edge effective resistances of the (contracted) sparsifier are
        estimated at every level: ``"jl"`` (accurate, solver-based),
        ``"krylov"`` (solver-free surrogate, the paper's equation (3)) or
        ``"exact"`` (tests only).
    resistance_order:
        Embedding dimension / Krylov order for the approximate methods.
    seed:
        Seed for the stochastic pieces (random probes, tie-breaking).
    """

    initial_diameter: Optional[float] = None
    growth_factor: float = 2.0
    max_levels: int = 40
    min_clusters: int = 1
    resistance_method: str = "jl"
    resistance_order: Optional[int] = None
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.initial_diameter is not None:
            check_positive(self.initial_diameter, "initial_diameter")
        check_positive(self.growth_factor, "growth_factor")
        if self.growth_factor <= 1.0:
            raise ValueError(f"growth_factor must exceed 1, got {self.growth_factor}")
        check_positive_int(self.max_levels, "max_levels")
        check_positive_int(self.min_clusters, "min_clusters")
        if self.resistance_method not in ("jl", "krylov", "exact"):
            raise ValueError(f"unknown resistance_method {self.resistance_method!r}")


@dataclass
class InGrassConfig:
    """Parameters of the full inGRASS incremental sparsifier.

    Attributes
    ----------
    target_condition_number:
        Target κ(L_G, L_H) used to pick the similarity filtering level
        (Section III-C-2: the level whose largest cluster holds at most
        ``target_condition_number / 2`` nodes).  ``None`` defers the choice to
        :meth:`InGrassSparsifier.setup` callers, which typically pass the
        measured condition number of the initial sparsifier.
    lrd:
        LRD decomposition parameters for the setup phase.
    filtering_level:
        Explicit filtering level override (mainly for tests and the ablation
        benches); ``None`` derives it from ``target_condition_number``.
    filtering_size_divisor:
        The filtering level is the coarsest level whose largest cluster holds
        at most ``target_condition_number / filtering_size_divisor`` nodes.
        The paper uses 2; larger values pick a finer level, which admits more
        edges but tracks the target condition number more tightly (see the
        filtering-level ablation bench).
    distortion_threshold:
        New edges whose estimated spectral distortion falls below this value
        are dropped outright (they cannot meaningfully improve κ).  Expressed
        relative to the median estimated distortion of the batch; ``0``
        disables the cut.
    redistribute_intra_cluster_weight:
        Whether the weight of a discarded intra-cluster edge is spread over
        the sparsifier edges inside that cluster (Section III-C-2).  Disabling
        it simply drops the edge; exposed for the ablation bench.
    max_fill_fraction:
        Upper bound on how many of the streamed edges may be added per update
        call, as a fraction of the batch (safety valve; 1.0 = unlimited).
    max_repair_edges_per_removal:
        Deletion path: cap on how many replacement edges the local repair
        step may admit per sparsifier edge removed (connectivity repair is
        exempt — the sparsifier is always reconnected).
    removal_diameter_inflation:
        Deletion path: multiplicative inflation applied to the cached cluster
        diameters containing both endpoints of a removed sparsifier edge
        (resistances can only grow under removals, so the cached upper bounds
        must be stretched to stay conservative).
    kappa_guard_factor:
        Deletion path: when set, after a removal batch the driver measures
        κ(G, H) and keeps admitting the most-distorting off-sparsifier edges
        until κ <= ``kappa_guard_factor * target`` (or the round budget runs
        out).  ``None`` disables the guard (pure O(log N) updates).
    kappa_guard_max_rounds:
        Maximum guard iterations per removal batch.
    kappa_guard_batch:
        Edges admitted per guard round.
    kappa_guard_dense_limit:
        Node-count threshold below which the guard uses the dense eigensolver.
    resetup_after_removals:
        When set, the incremental driver re-runs the setup phase (fresh LRD
        hierarchy + embedding) once this many sparsifier edges have been
        removed since the last setup — the coarse-grained refresh that keeps
        long deletion streams accurate.  ``None`` never refreshes.  Only
        honoured in ``hierarchy_mode="rebuild"``: the maintenance mode keeps
        the hierarchy accurate structurally and never pays a full re-setup.
    hierarchy_mode:
        How the LRD hierarchy tracks sparsifier mutations.  ``"maintain"``
        (default) splices clusters in place through
        :class:`repro.core.maintenance.HierarchyMaintainer` — splitting
        clusters whose interior lost connectivity, recomputing diameters
        locally and fusing clusters joined by admitted edges — so long churn
        streams never pay a full ``O(m log n)`` re-setup and the resistance
        bounds stay tight between batches.  ``"rebuild"`` (the PR 1
        behaviour, default through PR 8) inflates cluster diameters per
        removal and relies on ``resetup_after_removals`` to periodically
        rebuild the whole hierarchy; pin it for streams whose per-batch
        removal volume is so large that structural splices cost more than a
        periodic re-setup.
    maintenance_exact_limit:
        Maintenance mode: cluster size up to which splices run a localized
        re-decomposition with exact fragment diameters; larger clusters use
        the connectivity split plus the spanning-tree diameter bound.
    batch_mode:
        How streamed batches are scored and filtered: ``"vectorized"`` uses
        the numpy batch engine (one-shot distortion kernels, group-resolved
        similarity filtering), ``"scalar"`` keeps the per-edge reference path
        (the oracle the equivalence suite compares against), and ``"auto"``
        (default) picks vectorized once a batch reaches
        ``batch_mode_threshold`` edges.  Both modes produce identical filter
        decisions and sparsifier edge sets.
    batch_mode_threshold:
        Batch size at which ``batch_mode="auto"`` switches to the vectorized
        engine (below it, numpy dispatch overhead exceeds the win).
    seed:
        Seed for stochastic components.
    """

    target_condition_number: Optional[float] = None
    lrd: LRDConfig = field(default_factory=LRDConfig)
    filtering_level: Optional[int] = None
    filtering_size_divisor: float = 2.0
    distortion_threshold: float = 0.0
    redistribute_intra_cluster_weight: bool = True
    max_fill_fraction: float = 1.0
    max_repair_edges_per_removal: int = 2
    removal_diameter_inflation: float = 1.25
    kappa_guard_factor: Optional[float] = None
    kappa_guard_max_rounds: int = 6
    kappa_guard_batch: int = 8
    kappa_guard_dense_limit: int = 1500
    resetup_after_removals: Optional[int] = None
    hierarchy_mode: str = "maintain"
    maintenance_exact_limit: int = 64
    batch_mode: str = "auto"
    batch_mode_threshold: int = 32
    seed: SeedLike = 0

    def use_vectorized(self, batch_size: int) -> bool:
        """Resolve the batch-engine choice for a batch of ``batch_size`` edges."""
        if self.batch_mode == "vectorized":
            return True
        if self.batch_mode == "scalar":
            return False
        return batch_size >= self.batch_mode_threshold

    def __post_init__(self) -> None:
        if self.target_condition_number is not None:
            check_positive(self.target_condition_number, "target_condition_number")
        if self.filtering_level is not None and self.filtering_level < 0:
            raise ValueError("filtering_level must be non-negative")
        check_positive(self.filtering_size_divisor, "filtering_size_divisor")
        if self.distortion_threshold < 0:
            raise ValueError("distortion_threshold must be non-negative")
        if not 0.0 < self.max_fill_fraction <= 1.0:
            raise ValueError("max_fill_fraction must lie in (0, 1]")
        if self.max_repair_edges_per_removal < 0:
            raise ValueError("max_repair_edges_per_removal must be non-negative")
        if self.removal_diameter_inflation < 1.0:
            raise ValueError("removal_diameter_inflation must be >= 1")
        if self.kappa_guard_factor is not None:
            check_positive(self.kappa_guard_factor, "kappa_guard_factor")
            if self.kappa_guard_factor < 1.0:
                raise ValueError("kappa_guard_factor must be >= 1")
        check_positive_int(self.kappa_guard_max_rounds, "kappa_guard_max_rounds")
        check_positive_int(self.kappa_guard_batch, "kappa_guard_batch")
        check_positive_int(self.kappa_guard_dense_limit, "kappa_guard_dense_limit")
        if self.resetup_after_removals is not None:
            check_positive_int(self.resetup_after_removals, "resetup_after_removals")
        if self.hierarchy_mode not in ("rebuild", "maintain"):
            raise ValueError(f"unknown hierarchy_mode {self.hierarchy_mode!r}; "
                             "expected 'rebuild' or 'maintain'")
        check_positive_int(self.maintenance_exact_limit, "maintenance_exact_limit")
        if self.maintenance_exact_limit < 2:
            raise ValueError("maintenance_exact_limit must be at least 2")
        if self.batch_mode not in ("auto", "vectorized", "scalar"):
            raise ValueError(f"unknown batch_mode {self.batch_mode!r}; "
                             "expected 'auto', 'vectorized' or 'scalar'")
        if self.batch_mode_threshold < 0:
            raise ValueError("batch_mode_threshold must be non-negative")
