"""End-to-end incremental-update scenarios reproducing the paper's protocol.

Table II of the paper follows one protocol per test case:

1. sparsify ``G(0)`` down to an initial off-tree density (≈ 10 %) → ``H(0)``;
2. measure the initial condition number κ0 = κ(G(0), H(0)) and set it as the
   quality target for all methods;
3. stream a set of new edges (enough to raise the sparsifier's density to
   ≈ 34 % if they were all blindly included), split into 10 batches;
4. after all batches, compare how much density each method needed to get back
   to κ0 and how long it took.

:class:`IncrementalScenario` packages steps 1-3 so the Table II/III/Figure 4
benches and the example scripts all run the identical protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.sparsify.grass import GrassConfig, GrassSparsifier
from repro.sparsify.metrics import offtree_density
from repro.spectral.condition import DENSE_LIMIT_DEFAULT, relative_condition_number
from repro.streams.edge_stream import (
    MixedBatch,
    mixed_edges,
    removable_edges,
    split_into_batches,
)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive, check_positive_int, check_probability

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]


@dataclass
class ScenarioConfig:
    """Parameters of the incremental-update protocol."""

    initial_offtree_density: float = 0.10
    final_offtree_density: float = 0.34
    num_iterations: int = 10
    long_range_fraction: float = 0.15
    locality_hops: int = 2
    condition_dense_limit: int = DENSE_LIMIT_DEFAULT
    grass_tree_method: str = "shortest_path"
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_positive(self.initial_offtree_density, "initial_offtree_density")
        check_positive(self.final_offtree_density, "final_offtree_density")
        if self.final_offtree_density <= self.initial_offtree_density:
            raise ValueError("final_offtree_density must exceed initial_offtree_density")
        check_positive_int(self.num_iterations, "num_iterations")


@dataclass
class IncrementalScenario:
    """A fully prepared incremental experiment.

    Attributes
    ----------
    graph:
        The original graph ``G(0)``.
    initial_sparsifier:
        The GRASS-built initial sparsifier ``H(0)``.
    initial_condition_number:
        κ(G(0), H(0)) — the quality target every method must reach after the
        updates (the "κ → ..." column of Table II shows how it degrades when
        nothing is done).
    batches:
        The streamed edges, split into ``num_iterations`` batches.
    config:
        The protocol parameters used to build the scenario.
    """

    graph: Graph
    initial_sparsifier: Graph
    initial_condition_number: float
    batches: List[List[WeightedEdge]]
    config: ScenarioConfig

    @property
    def all_new_edges(self) -> List[WeightedEdge]:
        """The full stream, flattened."""
        return [edge for batch in self.batches for edge in batch]

    @property
    def final_graph(self) -> Graph:
        """``G`` with every streamed edge included."""
        return self.graph.union_with_edges(self.all_new_edges)

    def initial_offtree_density(self) -> float:
        """Off-tree density of ``H(0)``."""
        return offtree_density(self.initial_sparsifier)

    def degraded_condition_number(self) -> float:
        """κ(G(final), H(0)) — quality if the sparsifier is never updated.

        This is the second number of the "κ(L_G, L_H)" column of Table II
        (e.g. "88 → 353" for G3_circuit): it motivates why the sparsifier
        must be updated at all.
        """
        return relative_condition_number(self.final_graph, self.initial_sparsifier,
                                         dense_limit=self.config.condition_dense_limit)


def build_scenario(graph: Graph, config: Optional[ScenarioConfig] = None,
                   *, initial_sparsifier: Optional[Graph] = None) -> IncrementalScenario:
    """Prepare the paper's incremental protocol for ``graph``.

    Parameters
    ----------
    graph:
        Original graph ``G(0)``.
    config:
        Protocol parameters.
    initial_sparsifier:
        Optional pre-built ``H(0)``; by default a GRASS-style sparsifier at
        ``config.initial_offtree_density`` is constructed.
    """
    config = config if config is not None else ScenarioConfig()
    rng = as_rng(config.seed)

    if initial_sparsifier is None:
        grass_config = GrassConfig(target_offtree_density=config.initial_offtree_density,
                                   tree_method=config.grass_tree_method,
                                   seed=config.seed)
        initial_sparsifier = GrassSparsifier(grass_config).sparsify(graph, evaluate_condition=False).sparsifier

    initial_condition = relative_condition_number(graph, initial_sparsifier,
                                                  dense_limit=config.condition_dense_limit)

    # Stream size: enough new edges to push the sparsifier's off-tree density
    # from the initial value to the "all edges included" value of the paper.
    num_new_edges = int(round((config.final_offtree_density - config.initial_offtree_density)
                              * graph.num_nodes))
    num_new_edges = max(num_new_edges, config.num_iterations)
    stream = mixed_edges(graph, num_new_edges, long_range_fraction=config.long_range_fraction,
                         hops=config.locality_hops, seed=rng)
    batches = split_into_batches(stream, config.num_iterations)
    return IncrementalScenario(
        graph=graph,
        initial_sparsifier=initial_sparsifier,
        initial_condition_number=initial_condition,
        batches=batches,
        config=config,
    )


# --------------------------------------------------------------------------- #
# Fully dynamic scenarios (insertions + deletions)
# --------------------------------------------------------------------------- #
@dataclass
class DynamicScenarioConfig:
    """Parameters of the fully dynamic (mixed insert/delete) protocol.

    The stream size follows the same accounting as :class:`ScenarioConfig`
    (enough *events* to move the off-tree density between the two bounds if
    every insertion were blindly included), but a configurable fraction of
    the events are edge deletions drawn from the evolving graph.
    """

    initial_offtree_density: float = 0.10
    final_offtree_density: float = 0.34
    num_iterations: int = 10
    deletion_fraction: float = 0.35
    long_range_fraction: float = 0.15
    locality_hops: int = 2
    condition_dense_limit: int = DENSE_LIMIT_DEFAULT
    grass_tree_method: str = "shortest_path"
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_positive(self.initial_offtree_density, "initial_offtree_density")
        check_positive(self.final_offtree_density, "final_offtree_density")
        if self.final_offtree_density <= self.initial_offtree_density:
            raise ValueError("final_offtree_density must exceed initial_offtree_density")
        check_positive_int(self.num_iterations, "num_iterations")
        check_probability(self.deletion_fraction, "deletion_fraction")


@dataclass
class DynamicScenario:
    """A fully prepared mixed insert/delete experiment.

    Attributes
    ----------
    graph:
        The original graph ``G(0)``.
    initial_sparsifier:
        The GRASS-built initial sparsifier ``H(0)``.
    initial_condition_number:
        κ(G(0), H(0)) — the quality target the dynamic sparsifier must hold.
    batches:
        The event stream split into ``num_iterations`` :class:`MixedBatch`
        objects; each batch applies deletions before insertions, and the
        deletions were chosen so the tracked graph stays connected throughout.
    config:
        The protocol parameters used to build the scenario.
    """

    graph: Graph
    initial_sparsifier: Graph
    initial_condition_number: float
    batches: List[MixedBatch]
    config: DynamicScenarioConfig

    @property
    def all_insertions(self) -> List[WeightedEdge]:
        """Every streamed insertion, flattened in application order."""
        return [edge for batch in self.batches for edge in batch.insertions]

    @property
    def all_deletions(self) -> List[Edge]:
        """Every streamed deletion, flattened in application order."""
        return [edge for batch in self.batches for edge in batch.deletions]

    @property
    def num_events(self) -> int:
        """Total event count of the stream."""
        return sum(batch.num_events for batch in self.batches)

    @property
    def deletion_fraction(self) -> float:
        """Realised fraction of deletion events across the whole stream."""
        events = self.num_events
        if events == 0:
            return 0.0
        return len(self.all_deletions) / events

    @property
    def final_graph(self) -> Graph:
        """``G`` after the full stream: all batches applied in order."""
        working = self.graph.copy()
        for batch in self.batches:
            for u, v in batch.deletions:
                working.remove_edge(u, v)
            working.add_edges(batch.insertions, merge="add")
        return working

    def initial_offtree_density(self) -> float:
        """Off-tree density of ``H(0)``."""
        return offtree_density(self.initial_sparsifier)

    def degraded_condition_number(self) -> float:
        """κ(G(final), H(0)) — quality if the sparsifier is never maintained."""
        return relative_condition_number(self.final_graph, self.initial_sparsifier,
                                         dense_limit=self.config.condition_dense_limit)


def _tree_protected_sampler(graph: Graph, rng: np.random.Generator):
    """Deletion sampler that protects one spanning tree of ``graph``.

    Any set of *non-tree* edges can be removed — in any order, in bulk —
    without disconnecting the graph, because the protected tree keeps
    spanning it.  That turns deletion sampling into O(1) swap-pops from a
    candidate pool instead of one connectivity sweep per pick, which is what
    makes 10⁵-event stream generation feasible (the Tarjan-validated
    :func:`~repro.streams.edge_stream.removable_edges` path costs minutes at
    that scale).  The trade-off: tree edges of the *initial* graph are never
    deleted, so the stream models off-tree churn (new straps added and
    removed) rather than backbone rewiring.

    Returns ``(sample, register)``: ``sample(k)`` pops up to ``k`` deletable
    pairs, ``register(edges)`` adds freshly inserted edges to the pool.
    """
    import scipy.sparse.csgraph as csgraph

    tree = csgraph.minimum_spanning_tree(graph.adjacency_matrix()).tocoo()
    protected = {(int(u), int(v)) if u <= v else (int(v), int(u))
                 for u, v in zip(tree.row, tree.col)}
    pool: List[Edge] = [edge for edge in graph.edges() if edge not in protected]

    def sample(count: int) -> List[Edge]:
        chosen: List[Edge] = []
        for _ in range(min(count, len(pool))):
            index = int(rng.integers(0, len(pool)))
            pool[index], pool[-1] = pool[-1], pool[index]
            chosen.append(pool.pop())
        return chosen

    def register(edges: List[WeightedEdge]) -> None:
        pool.extend((u, v) for u, v, _ in edges)

    return sample, register


def simulate_event_stream(graph: Graph, num_events: int, num_batches: int, *,
                          deletion_fraction: float = 0.35,
                          long_range_fraction: float = 0.15,
                          locality_hops: int = 2,
                          protect_spanning_tree: bool = False,
                          seed: SeedLike = None) -> List[MixedBatch]:
    """Generate a mixed insert/delete stream with an explicit event budget.

    The building block behind :func:`build_dynamic_scenario`, exposed for
    benchmarks that size their stream in events rather than in off-tree
    density deltas (the nightly soak streams 10⁴–10⁵ events over
    arbitrarily many batches).  The stream is simulated
    on a scratch copy of ``graph``, which guarantees every deletion targets
    an edge that still exists (possibly one inserted by an earlier batch) and
    never disconnects the graph, and every insertion is genuinely new at the
    moment it streams in.

    With ``protect_spanning_tree`` the deletions are drawn uniformly from the
    non-tree edges of the evolving graph (O(1) per pick, see
    :func:`_tree_protected_sampler`); the default runs the Tarjan-validated
    :func:`~repro.streams.edge_stream.removable_edges` sampler, which can
    also delete backbone edges but pays a connectivity check per pick.
    """
    check_positive_int(num_batches, "num_batches")
    check_probability(deletion_fraction, "deletion_fraction")
    rng = as_rng(seed)
    # Near-equal split of the event budget over the iterations.
    boundaries = np.linspace(0, max(int(num_events), 0), num_batches + 1).astype(int)
    working = graph.copy()
    sample_deletions = register_insertions = None
    if protect_spanning_tree:
        sample_deletions, register_insertions = _tree_protected_sampler(working, rng)
    batches: List[MixedBatch] = []
    deletion_debt = 0.0  # carries fractional deletion quota across batches
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        size = int(end - start)
        if size <= 0:
            batches.append(MixedBatch())
            continue
        deletion_debt += deletion_fraction * size
        num_deletions = min(int(deletion_debt), size)
        if sample_deletions is not None:
            deletions = sample_deletions(num_deletions)
        else:
            deletions = removable_edges(working, num_deletions, seed=rng)
        # Only count what was actually deletable: when the graph runs low on
        # cycle edges the shortfall stays owed, so later batches (enriched by
        # fresh insertions) can catch the realised fraction back up.
        deletion_debt -= len(deletions)
        for u, v in deletions:
            working.remove_edge(u, v)
        num_insertions = size - len(deletions)
        insertions = (mixed_edges(working, num_insertions,
                                  long_range_fraction=long_range_fraction,
                                  hops=locality_hops, seed=rng)
                      if num_insertions else [])
        working.add_edges(insertions, merge="add")
        if register_insertions is not None:
            register_insertions(insertions)
        batches.append(MixedBatch(insertions=insertions, deletions=deletions))
    return batches


def _simulate_dynamic_stream(graph: Graph, config: DynamicScenarioConfig,
                             rng: np.random.Generator) -> List[MixedBatch]:
    """Generate the density-accounted event stream of a dynamic scenario."""
    num_events = int(round((config.final_offtree_density - config.initial_offtree_density)
                           * graph.num_nodes))
    num_events = max(num_events, config.num_iterations)
    return simulate_event_stream(
        graph, num_events, config.num_iterations,
        deletion_fraction=config.deletion_fraction,
        long_range_fraction=config.long_range_fraction,
        locality_hops=config.locality_hops,
        seed=rng,
    )


def build_dynamic_scenario(graph: Graph, config: Optional[DynamicScenarioConfig] = None,
                           *, initial_sparsifier: Optional[Graph] = None) -> DynamicScenario:
    """Prepare a fully dynamic (mixed insert/delete) experiment for ``graph``.

    Parameters
    ----------
    graph:
        Original graph ``G(0)``; must be connected.
    config:
        Protocol parameters (deletion fraction, batch count, densities).
    initial_sparsifier:
        Optional pre-built ``H(0)``; by default a GRASS-style sparsifier at
        ``config.initial_offtree_density`` is constructed.
    """
    config = config if config is not None else DynamicScenarioConfig()
    rng = as_rng(config.seed)

    if initial_sparsifier is None:
        grass_config = GrassConfig(target_offtree_density=config.initial_offtree_density,
                                   tree_method=config.grass_tree_method,
                                   seed=config.seed)
        initial_sparsifier = GrassSparsifier(grass_config).sparsify(
            graph, evaluate_condition=False).sparsifier

    initial_condition = relative_condition_number(graph, initial_sparsifier,
                                                  dense_limit=config.condition_dense_limit)
    batches = _simulate_dynamic_stream(graph, config, rng)
    return DynamicScenario(
        graph=graph,
        initial_sparsifier=initial_sparsifier,
        initial_condition_number=initial_condition,
        batches=batches,
        config=config,
    )


def build_churn_scenario(graph: Graph, config: Optional[DynamicScenarioConfig] = None,
                         *, initial_sparsifier: Optional[Graph] = None) -> DynamicScenario:
    """Churn workload: a substantial share of events (default 35 %) delete edges.

    Models power-grid reconfiguration — switches open while new straps are
    added — which is the acceptance scenario for the fully dynamic driver.
    """
    if config is None:
        config = DynamicScenarioConfig(deletion_fraction=0.35)
    return build_dynamic_scenario(graph, config, initial_sparsifier=initial_sparsifier)


def build_deletion_scenario(graph: Graph, config: Optional[DynamicScenarioConfig] = None,
                            *, initial_sparsifier: Optional[Graph] = None) -> DynamicScenario:
    """Deletion-heavy workload: most events (default 75 %) remove edges.

    Models staged decommissioning / FEM mesh coarsening, where the sparsifier
    must keep shedding support without losing connectivity.
    """
    if config is None:
        config = DynamicScenarioConfig(deletion_fraction=0.75)
    return build_dynamic_scenario(graph, config, initial_sparsifier=initial_sparsifier)
