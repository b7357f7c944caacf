"""Result records produced by the benchmark harness (one dataclass per table)."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class Table1Record:
    """One row of Table I: GRASS from-scratch time vs inGRASS setup time."""

    case: str
    paper_case: str
    num_nodes: int
    num_edges: int
    grass_seconds: float
    ingrass_setup_seconds: float
    num_levels: int

    @property
    def setup_ratio(self) -> float:
        """inGRASS setup time relative to one GRASS run (paper: usually < 1)."""
        if self.grass_seconds <= 0:
            return float("inf")
        return self.ingrass_setup_seconds / self.grass_seconds

    def as_dict(self) -> dict:
        data = asdict(self)
        data["setup_ratio"] = self.setup_ratio
        return data


@dataclass
class Table2Record:
    """One row of Table II: 10-iteration incremental comparison."""

    case: str
    paper_case: str
    num_nodes: int
    num_edges: int
    initial_offtree_density: float
    final_offtree_density_all_edges: float
    initial_condition_number: float
    degraded_condition_number: float
    grass_density: float
    ingrass_density: float
    random_density: float
    grass_condition_number: float
    ingrass_condition_number: float
    random_condition_number: float
    grass_seconds: float
    ingrass_seconds: float
    ingrass_setup_seconds: float

    @property
    def speedup(self) -> float:
        """GRASS-T / inGRASS-T — the headline speedup column."""
        if self.ingrass_seconds <= 0:
            return float("inf")
        return self.grass_seconds / self.ingrass_seconds

    @property
    def speedup_including_setup(self) -> float:
        """Speedup when the one-time setup is charged to inGRASS."""
        denominator = self.ingrass_seconds + self.ingrass_setup_seconds
        if denominator <= 0:
            return float("inf")
        return self.grass_seconds / denominator

    def as_dict(self) -> dict:
        data = asdict(self)
        data["speedup"] = self.speedup
        data["speedup_including_setup"] = self.speedup_including_setup
        return data


@dataclass
class Table3Record:
    """One row of Table III: robustness across initial sparsifier densities."""

    initial_offtree_density: float
    final_offtree_density_all_edges: float
    initial_condition_number: float
    degraded_condition_number: float
    grass_density: float
    ingrass_density: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Figure4Record:
    """One point of Figure 4: runtime scalability vs graph size."""

    case: str
    num_nodes: int
    num_edges: int
    grass_seconds: float
    ingrass_update_seconds: float
    ingrass_total_seconds: float  # updates + one-time setup

    @property
    def speedup(self) -> float:
        if self.ingrass_update_seconds <= 0:
            return float("inf")
        return self.grass_seconds / self.ingrass_update_seconds

    def as_dict(self) -> dict:
        data = asdict(self)
        data["speedup"] = self.speedup
        return data


@dataclass
class ChurnRecord:
    """One row of the churn benchmark: fully dynamic insert/delete streams.

    This goes beyond the paper: the stream mixes edge deletions into the
    Table II protocol and measures whether the maintained sparsifier stays
    connected and within a κ bound at *every* iteration, not just at the end.
    """

    case: str
    paper_case: str
    num_nodes: int
    num_edges: int
    deletion_fraction: float
    num_iterations: int
    insertions: int
    deletions: int
    sparsifier_removals: int
    repair_edges: int
    target_condition_number: float
    max_condition_number: float
    final_condition_number: float
    final_offtree_density: float
    stayed_connected: bool
    ingrass_seconds: float
    ingrass_setup_seconds: float
    #: Wall-clock spent inside the hierarchy maintainer.
    maintenance_seconds: float = 0.0
    #: Wall-clock spent in κ-guard passes (summed ``KappaGuardReport.guard_seconds``),
    #: a part of ``ingrass_seconds``.
    guard_seconds: float = 0.0

    @property
    def kappa_ratio(self) -> float:
        """Worst per-iteration κ relative to the target (acceptance: <= 2)."""
        if self.target_condition_number <= 0:
            return float("inf")
        return self.max_condition_number / self.target_condition_number

    def as_dict(self) -> dict:
        data = asdict(self)
        data["kappa_ratio"] = self.kappa_ratio
        return data
