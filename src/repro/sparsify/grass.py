"""GRASS-style spectral sparsification (the from-scratch baseline).

The paper benchmarks against GRASS [Feng, TCAD 2020], a spectral-perturbation
sparsifier whose published recipe is:

1. extract a spanning-tree backbone of the input graph (a maximum-weight or
   shortest-path spanning tree);
2. rank the off-tree edges by their **spectral distortion** — the product of
   the edge weight and the effective resistance between its endpoints in the
   current sparsifier;
3. recover the top-ranked off-tree edges into the sparsifier, in rounds,
   until either a target relative condition number or a target edge budget is
   met.

The original binary is not redistributable, so :class:`GrassSparsifier`
re-implements that recipe on top of this library's spectral substrate.  It is
the baseline the benchmark harness re-runs from scratch at every incremental
update iteration, exactly as Tables I/II of the paper do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.validation import validate_sparsifier_support
from repro.spectral.condition import DENSE_LIMIT_DEFAULT, relative_condition_number
from repro.spectral.effective_resistance import make_resistance_calculator
from repro.sparsify.spanning_tree import maximum_weight_spanning_tree, off_tree_edges, shortest_path_tree
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer
from repro.utils.validation import check_positive, check_positive_int

WeightedEdge = Tuple[int, int, float]

#: When an edge budget is set, it is filled in this many rounds with the
#: spectral-distortion ranking recomputed on the growing sparsifier between
#: rounds.  Re-ranking diversifies the recovered edges (an admitted edge
#: kills the distortion of its parallel neighbours), which improves the
#: condition number markedly on meshes.
RECOVERY_ROUNDS_FOR_BUDGET = 6


@dataclass
class GrassConfig:
    """Tuning knobs of the GRASS-style sparsifier.

    Attributes
    ----------
    tree_method:
        Backbone spanning tree, one of two: ``"max_weight"`` (default, best
        for weighted circuit graphs) or ``"shortest_path"``
        (resistance-metric Dijkstra tree from a central node — the best
        backbone for unit-weight meshes).
    target_condition_number:
        Stop recovering edges once κ(L_G, L_H) drops below this value.
        ``None`` disables the condition-number stopping rule (edge budget
        only).
    target_relative_density:
        Edge budget expressed as a fraction of the input graph's edges.
        ``None`` disables the budget.
    target_offtree_density:
        Edge budget expressed as *off-tree* edges per node: the sparsifier may
        keep ``(N - 1) + target_offtree_density * N`` edges.  This is the
        density measure of the paper's tables ("D = 10 %" means the sparsifier
        carries ~0.1 off-tree edges per node on top of its spanning tree).
        When set it takes precedence over ``target_relative_density``.
    recovery_batch_fraction:
        Fraction of remaining off-tree edges recovered per round before the
        condition number is re-estimated.
    max_rounds:
        Safety cap on recovery rounds.
    resistance_method:
        Resistance estimate used to rank off-tree edges: ``"jl"`` (accurate,
        solver-based), ``"krylov"`` (solver-free surrogate of the paper) or
        ``"exact"`` (small graphs / tests).
    condition_dense_limit:
        Forwarded to the condition-number estimator.
    seed:
        Seed for the stochastic resistance estimates.
    """

    tree_method: str = "max_weight"
    target_condition_number: Optional[float] = None
    target_relative_density: Optional[float] = 0.10
    target_offtree_density: Optional[float] = None
    recovery_batch_fraction: float = 0.25
    max_rounds: int = 20
    resistance_method: str = "jl"
    condition_dense_limit: int = DENSE_LIMIT_DEFAULT
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.tree_method not in ("max_weight", "shortest_path"):
            raise ValueError(f"unknown tree_method {self.tree_method!r}")
        if self.target_condition_number is not None:
            check_positive(self.target_condition_number, "target_condition_number")
        if self.target_relative_density is not None:
            check_positive(self.target_relative_density, "target_relative_density")
        if self.target_offtree_density is not None and self.target_offtree_density < 0:
            raise ValueError("target_offtree_density must be non-negative")
        check_positive(self.recovery_batch_fraction, "recovery_batch_fraction")
        check_positive_int(self.max_rounds, "max_rounds")


@dataclass
class GrassResult:
    """Outcome of a from-scratch GRASS-style sparsification run."""

    sparsifier: Graph
    condition_number: Optional[float]
    relative_density: float
    rounds: int
    runtime_seconds: float
    recovered_edges: int


class GrassSparsifier:
    """From-scratch spectral sparsifier in the GRASS style.

    Example
    -------
    >>> from repro.graphs import grid_circuit_2d
    >>> graph = grid_circuit_2d(12, seed=1)
    >>> result = GrassSparsifier(GrassConfig(target_relative_density=0.4)).sparsify(graph)
    >>> result.sparsifier.num_edges <= graph.num_edges
    True
    """

    def __init__(self, config: Optional[GrassConfig] = None) -> None:
        self.config = config if config is not None else GrassConfig()

    # ------------------------------------------------------------------ #
    def _spanning_tree(self, graph: Graph) -> Graph:
        if self.config.tree_method == "shortest_path":
            # Root at the node of largest weighted degree (an electrically
            # central node), which keeps the tree radius small.
            degrees = graph.weighted_degrees()
            root = int(np.argmax(degrees)) if degrees.size else 0
            return shortest_path_tree(graph, root=root)
        return maximum_weight_spanning_tree(graph)

    def _rank_off_tree_edges(self, sparsifier: Graph, candidates: Sequence[WeightedEdge]) -> np.ndarray:
        """Return candidate indices sorted by decreasing spectral distortion."""
        if not candidates:
            return np.zeros(0, dtype=np.int64)
        pairs = [(u, v) for u, v, _ in candidates]
        weights = np.array([w for _, _, w in candidates], dtype=float)
        calculator = make_resistance_calculator(sparsifier, self.config.resistance_method,
                                                seed=self.config.seed)
        distortions = weights * calculator.resistances(pairs)
        return np.argsort(-distortions, kind="stable")

    def _edge_budget(self, graph: Graph) -> Optional[int]:
        if self.config.target_offtree_density is not None:
            extra = int(round(self.config.target_offtree_density * graph.num_nodes))
            return min(graph.num_edges, graph.num_nodes - 1 + extra)
        if self.config.target_relative_density is None:
            return None
        return max(graph.num_nodes - 1, int(round(self.config.target_relative_density * graph.num_edges)))

    def _condition(self, graph: Graph, sparsifier: Graph) -> float:
        return relative_condition_number(graph, sparsifier, dense_limit=self.config.condition_dense_limit)

    # ------------------------------------------------------------------ #
    def sparsify(self, graph: Graph, *, evaluate_condition: Optional[bool] = None) -> GrassResult:
        """Sparsify ``graph`` from scratch.

        Parameters
        ----------
        graph:
            Connected weighted input graph.
        evaluate_condition:
            Force evaluation (or skipping) of κ at each round.  Default:
            evaluate only when a target condition number is configured, plus a
            single final evaluation when the graph is small enough for the
            dense path.
        """
        timer = Timer().start()
        config = self.config
        tree = self._spanning_tree(graph)
        sparsifier = tree.copy()
        candidates = off_tree_edges(graph, tree)
        budget = self._edge_budget(graph)
        track_condition = (
            evaluate_condition if evaluate_condition is not None else config.target_condition_number is not None
        )

        rounds = 0
        recovered = 0
        condition: Optional[float] = None
        while rounds < config.max_rounds and candidates:
            rounds += 1
            if budget is not None and sparsifier.num_edges >= budget:
                break
            if track_condition and config.target_condition_number is not None:
                condition = self._condition(graph, sparsifier)
                if condition <= config.target_condition_number:
                    break
            order = self._rank_off_tree_edges(sparsifier, candidates)
            batch_size = max(1, int(np.ceil(config.recovery_batch_fraction * len(candidates))))
            if budget is not None:
                remaining = max(0, budget - sparsifier.num_edges)
                if remaining == 0:
                    break
                # Fill the budget over several re-ranked rounds rather than in
                # one shot: re-ranking on the growing sparsifier spreads the
                # recovered edges instead of stacking parallel ones.
                per_round = max(1, int(np.ceil((budget - tree.num_edges) / RECOVERY_ROUNDS_FOR_BUDGET)))
                batch_size = min(batch_size, per_round, remaining)
            selected = order[:batch_size]
            selected_set = set(int(i) for i in selected)
            for index in selected:
                u, v, w = candidates[int(index)]
                sparsifier.add_edge(u, v, w, merge="replace")
                recovered += 1
            candidates = [edge for i, edge in enumerate(candidates) if i not in selected_set]

        if track_condition or (graph.num_nodes <= config.condition_dense_limit):
            condition = self._condition(graph, sparsifier)
        timer.stop()
        validate_sparsifier_support(graph, sparsifier, allow_new_edges=False)
        return GrassResult(
            sparsifier=sparsifier,
            condition_number=condition,
            relative_density=sparsifier.num_edges / graph.num_edges,
            rounds=rounds,
            runtime_seconds=timer.elapsed,
            recovered_edges=recovered,
        )

    def sparsify_to_condition(self, graph: Graph, target_condition_number: float,
                              *, max_density: float = 1.0) -> GrassResult:
        """Find the sparsest distortion-ranked sparsifier with κ <= target.

        This is the protocol behind the "GRASS-D" columns of Tables II/III:
        the sparsifier keeps the spanning-tree backbone plus the smallest
        prefix of off-tree edges (ranked by spectral distortion) that brings
        the relative condition number below ``target_condition_number``.  The
        prefix length is located with a binary search, so the number of
        (expensive) condition-number evaluations is logarithmic in the number
        of off-tree candidates.

        Parameters
        ----------
        graph:
            Input graph ``G``.
        target_condition_number:
            Quality target κ.
        max_density:
            Cap on the relative density ``|E_H| / |E_G|`` (1.0 = no cap).
        """
        check_positive(target_condition_number, "target_condition_number")
        check_positive(max_density, "max_density")
        # Small recovery batches (a few percent of |V| per round) with the
        # distortion ranking recomputed on the growing sparsifier: each round
        # costs one condition-number evaluation, and the final density lands
        # within one batch of the minimum needed for the target.
        batch_edges = max(8, int(round(0.025 * graph.num_nodes)))
        total_candidates = max(graph.num_edges - (graph.num_nodes - 1), 1)
        config = replace(
            self.config,
            target_condition_number=target_condition_number,
            target_relative_density=max_density,
            target_offtree_density=None,
            recovery_batch_fraction=min(1.0, batch_edges / total_candidates),
            max_rounds=200,
        )
        return GrassSparsifier(config).sparsify(graph, evaluate_condition=True)
