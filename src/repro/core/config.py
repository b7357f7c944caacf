"""Configuration dataclasses for the inGRASS core algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.spectral.condition import DENSE_LIMIT_DEFAULT
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
    resistance_method:
        How edge effective resistances of the (contracted) sparsifier are
        estimated at every level: ``"jl"`` (accurate, solver-based),
        ``"krylov"`` (solver-free surrogate, the paper's equation (3)) or
        ``"exact"`` (tests only).
    seed:
        Seed for the stochastic pieces (random probes, tie-breaking).
    """

    initial_diameter: Optional[float] = None
    growth_factor: float = 2.0
    resistance_method: str = "jl"
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.initial_diameter is not None:
            check_positive(self.initial_diameter, "initial_diameter")
        check_positive(self.growth_factor, "growth_factor")
        if self.growth_factor <= 1.0:
            raise ValueError(f"growth_factor must exceed 1, got {self.growth_factor}")
        if self.resistance_method not in ("jl", "krylov", "exact"):
            raise ValueError(f"unknown resistance_method {self.resistance_method!r}")


@dataclass
class InGrassConfig:
    """Parameters of the full inGRASS incremental sparsifier.

    The target κ(L_G, L_H), which picks the similarity filtering level and
    scales the κ guard's bound, is an argument of
    :meth:`InGrassSparsifier.setup` (by default the κ measured on the initial
    sparsifier).

    Attributes
    ----------
    lrd:
        LRD decomposition parameters for the setup phase.
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
    kappa_guard_factor:
        Deletion path: when set, after a removal batch the driver measures
        κ(G, H) and keeps admitting the most-distorting off-sparsifier edges
        until κ <= ``kappa_guard_factor * target`` (or the round budget runs
        out).  ``None`` disables the guard (pure O(log N) updates).
    kappa_guard_dense_limit:
        Node-count threshold below which the guard uses the dense eigensolver.
    seed:
        Seed for stochastic components.
    """

    lrd: LRDConfig = field(default_factory=LRDConfig)
    filtering_size_divisor: float = 2.0
    distortion_threshold: float = 0.0
    kappa_guard_factor: Optional[float] = None
    kappa_guard_dense_limit: int = DENSE_LIMIT_DEFAULT
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_positive(self.filtering_size_divisor, "filtering_size_divisor")
        if self.distortion_threshold < 0:
            raise ValueError("distortion_threshold must be non-negative")
        if self.kappa_guard_factor is not None:
            check_positive(self.kappa_guard_factor, "kappa_guard_factor")
            if self.kappa_guard_factor < 1.0:
                raise ValueError("kappa_guard_factor must be >= 1")
        check_positive_int(self.kappa_guard_dense_limit, "kappa_guard_dense_limit")
