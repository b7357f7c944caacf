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

    The threshold schedule is the paper's and is not configurable: level 0
    contracts up to the median edge resistance of the initial sparsifier
    (roughly half of the edges, as the paper's Figure 2 sketches) and every
    further level doubles it, giving the ``O(log N)`` level count.

    Attributes
    ----------
    resistance_method:
        How edge effective resistances of the (contracted) sparsifier are
        estimated at every level: ``"jl"`` (accurate, solver-based),
        ``"krylov"`` (solver-free surrogate, the paper's equation (3)) or
        ``"exact"`` (tests only).
    seed:
        Seed for the stochastic pieces (random probes, tie-breaking).
    """

    resistance_method: str = "jl"
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.resistance_method not in ("jl", "krylov", "exact"):
            raise ValueError(f"unknown resistance_method {self.resistance_method!r}")


@dataclass
class InGrassConfig:
    """Parameters of the full inGRASS incremental sparsifier.

    The target κ(L_G, L_H), which picks the similarity filtering level and
    scales the κ guard's bound, is an argument of
    :meth:`InGrassSparsifier.setup` (by default the κ measured on the initial
    sparsifier).  The filtering level is the paper's: the coarsest level
    whose largest cluster holds at most half the target κ in nodes.

    Attributes
    ----------
    lrd:
        LRD decomposition parameters for the setup phase.
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
    distortion_threshold: float = 0.0
    kappa_guard_factor: Optional[float] = None
    kappa_guard_dense_limit: int = DENSE_LIMIT_DEFAULT
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.distortion_threshold < 0:
            raise ValueError("distortion_threshold must be non-negative")
        if self.kappa_guard_factor is not None:
            check_positive(self.kappa_guard_factor, "kappa_guard_factor")
            if self.kappa_guard_factor < 1.0:
                raise ValueError("kappa_guard_factor must be >= 1")
        check_positive_int(self.kappa_guard_dense_limit, "kappa_guard_dense_limit")
