"""Benchmark dataset registry: synthetic analogues of the paper's test cases.

The paper evaluates on SuiteSparse matrices that cannot be downloaded in this
offline environment, so every test case is replaced by a synthetic graph of
the same structural family (see DESIGN.md §2).  Each entry scales with a
``scale`` factor so the same registry serves the quick CI benchmarks
(``scale="small"``) and the fuller standalone runs (``scale="large"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.graphs.generators import (
    airfoil_mesh,
    barabasi_albert_graph,
    delaunay_graph,
    fe_mesh_2d,
    fe_mesh_3d,
    grid_circuit_2d,
    grid_circuit_3d,
    sphere_mesh,
    watts_strogatz_graph,
)
from repro.graphs.graph import Graph

#: Node-count multipliers for the two benchmark scales.
SCALE_FACTORS = {"small": 1.0, "medium": 2.5, "large": 6.0}


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark test case.

    Attributes
    ----------
    name:
        Registry key (also used in printed tables).
    paper_name:
        Name of the SuiteSparse matrix this case substitutes for.
    family:
        Structural family: ``"circuit"``, ``"fe"``, ``"delaunay"``, ``"mesh"``
        or ``"social"``.
    builder:
        Callable ``(scale_factor, seed) -> Graph``.
    base_nodes:
        Approximate node count at ``scale="small"``.
    """

    name: str
    paper_name: str
    family: str
    builder: Callable[[float, int], Graph]
    base_nodes: int

    def build(self, scale: str = "small", seed: int = 0) -> Graph:
        """Construct the graph at the requested scale."""
        if scale not in SCALE_FACTORS:
            raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALE_FACTORS)}")
        return self.builder(SCALE_FACTORS[scale], seed)


def _grid2d(base_side: int):
    def build(factor: float, seed: int) -> Graph:
        side = max(8, int(round(base_side * factor**0.5)))
        return grid_circuit_2d(side, seed=seed)

    return build


def _grid3d(base_side: int, layers: int):
    def build(factor: float, seed: int) -> Graph:
        side = max(6, int(round(base_side * factor**0.5)))
        return grid_circuit_3d(side, side, layers, seed=seed)

    return build


def _delaunay(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return delaunay_graph(max(64, int(round(base_nodes * factor))), seed=seed)

    return build


def _fe2d(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return fe_mesh_2d(max(64, int(round(base_nodes * factor))), seed=seed)

    return build


def _fe3d(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return fe_mesh_3d(max(64, int(round(base_nodes * factor))), seed=seed)

    return build


def _sphere(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return sphere_mesh(max(64, int(round(base_nodes * factor))), seed=seed)

    return build


def _airfoil(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return airfoil_mesh(max(64, int(round(base_nodes * factor))), seed=seed)

    return build


def _watts(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return watts_strogatz_graph(max(64, int(round(base_nodes * factor))), k=6,
                                    rewire_probability=0.1, seed=seed)

    return build


def _barabasi(base_nodes: int):
    def build(factor: float, seed: int) -> Graph:
        return barabasi_albert_graph(max(64, int(round(base_nodes * factor))), attachment=3, seed=seed)

    return build


#: Registry of benchmark cases, keyed by name, mirroring Table I/II of the paper.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec("g2_circuit", "G2_circuit", "circuit", _grid2d(36), 1296),
        DatasetSpec("g3_circuit", "G3_circuit", "circuit", _grid3d(20, 4), 1600),
        DatasetSpec("fe_4elt2", "fe_4elt2", "fe", _fe2d(1100), 1100),
        DatasetSpec("fe_ocean", "fe_ocean", "fe", _fe3d(900), 900),
        DatasetSpec("fe_sphere", "fe_sphere", "fe", _sphere(1200), 1200),
        DatasetSpec("delaunay_n10", "delaunay_n18", "delaunay", _delaunay(1024), 1024),
        DatasetSpec("delaunay_n11", "delaunay_n19", "delaunay", _delaunay(2048), 2048),
        DatasetSpec("delaunay_n12", "delaunay_n20", "delaunay", _delaunay(4096), 4096),
        DatasetSpec("delaunay_n13", "delaunay_n21", "delaunay", _delaunay(8192), 8192),
        DatasetSpec("m6_mesh", "M6", "mesh", _fe2d(2500), 2500),
        DatasetSpec("sp333", "333SP", "mesh", _delaunay(3000), 3000),
        DatasetSpec("as365", "AS365", "mesh", _fe2d(3000), 3000),
        DatasetSpec("naca15", "NACA0015", "mesh", _airfoil(2000), 2000),
        DatasetSpec("social_ws", "(social network)", "social", _watts(1500), 1500),
        DatasetSpec("social_ba", "(social network)", "social", _barabasi(1500), 1500),
    ]
}

#: Subset used by the tests under ``benchmarks/`` (kept small so CI stays fast).
QUICK_CASES: List[str] = ["g2_circuit", "fe_4elt2", "delaunay_n10", "social_ws"]

#: Cases used for the full standalone table reproductions.
TABLE_CASES: List[str] = [
    "g3_circuit", "g2_circuit", "fe_4elt2", "fe_ocean", "fe_sphere",
    "delaunay_n10", "delaunay_n11", "delaunay_n12", "delaunay_n13",
    "m6_mesh", "sp333", "as365", "naca15",
]

#: Cases used for the Figure 4 scalability sweep (increasing size).
SCALABILITY_CASES: List[str] = ["delaunay_n10", "delaunay_n11", "delaunay_n12", "delaunay_n13"]


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    return DATASETS[name]


def build_dataset(name: str, scale: str = "small", seed: int = 0) -> Graph:
    """Build the graph for a registered dataset."""
    return get_dataset(name).build(scale=scale, seed=seed)
