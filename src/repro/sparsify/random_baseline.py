"""Random edge-selection baselines (the "Random" columns of Table II).

Two random policies are used by the paper's evaluation:

* :class:`RandomSparsifier` — build a sparsifier by keeping a random subset of
  the graph's edges (on top of a spanning tree so the result stays connected).
* :class:`RandomIncrementalUpdater` — the incremental baseline: when new edges
  stream in, add them to the sparsifier in random order until the target
  condition number is reached.  Because random selection has no notion of
  spectral importance, it needs far more edges than GRASS/inGRASS to reach the
  same κ, which is exactly the "Random-D" column's message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


from repro.graphs.graph import Graph
from repro.graphs.unionfind import UnionFind
from repro.spectral.condition import DENSE_LIMIT_DEFAULT, relative_condition_number
from repro.utils.rng import SeedLike, as_rng
from repro.utils.timing import Timer
from repro.utils.validation import check_positive

WeightedEdge = Tuple[int, int, float]


@dataclass
class RandomSparsifierResult:
    """Outcome of the random subset sparsifier."""

    sparsifier: Graph
    relative_density: float
    runtime_seconds: float


class RandomSparsifier:
    """Keep a random subset of edges (plus a spanning tree for connectivity).

    ``target_offtree_density`` (off-tree edges per node, the paper's density
    measure) takes precedence over ``target_relative_density`` when set.
    """

    def __init__(self, target_relative_density: float = 0.10, *, target_offtree_density: Optional[float] = None,
                 seed: SeedLike = 0) -> None:
        self.target_relative_density = check_positive(target_relative_density, "target_relative_density")
        if target_offtree_density is not None and target_offtree_density < 0:
            raise ValueError("target_offtree_density must be non-negative")
        self.target_offtree_density = target_offtree_density
        self.seed = seed

    def sparsify(self, graph: Graph) -> RandomSparsifierResult:
        timer = Timer().start()
        rng = as_rng(self.seed)
        us, vs, ws = graph.edge_arrays()
        m = graph.num_edges
        if self.target_offtree_density is not None:
            budget = graph.num_nodes - 1 + int(round(self.target_offtree_density * graph.num_nodes))
        else:
            budget = max(graph.num_nodes - 1, int(round(self.target_relative_density * m)))
        budget = min(budget, m)

        sparsifier = Graph(graph.num_nodes)
        uf = UnionFind(graph.num_nodes)
        # Random spanning tree first (random edge order Kruskal).
        order = rng.permutation(m)
        for index in order:
            u, v, w = int(us[index]), int(vs[index]), float(ws[index])
            if uf.union(u, v):
                sparsifier.add_edge(u, v, w)
            if uf.num_sets == 1:
                break
        # Random fill to the budget.
        for index in order:
            if sparsifier.num_edges >= budget:
                break
            u, v, w = int(us[index]), int(vs[index]), float(ws[index])
            if not sparsifier.has_edge(u, v):
                sparsifier.add_edge(u, v, w)
        timer.stop()
        return RandomSparsifierResult(
            sparsifier=sparsifier,
            relative_density=sparsifier.num_edges / graph.num_edges,
            runtime_seconds=timer.elapsed,
        )


@dataclass
class RandomUpdateResult:
    """Outcome of one random incremental update iteration."""

    sparsifier: Graph
    added_edges: int
    condition_number: Optional[float]
    runtime_seconds: float


class RandomIncrementalUpdater:
    """Incremental baseline: insert streamed edges in random order until κ <= target.

    Parameters
    ----------
    target_condition_number:
        Update goal; ``None`` means "add a fixed fraction of the stream"
        (``acceptance_fraction``).
    acceptance_fraction:
        Fraction of streamed edges added when no condition target is given.
    condition_check_stride:
        Number of edges added between condition-number re-evaluations (the
        evaluation is the expensive part, so it is amortised over several
        insertions just like a practical implementation would).
    """

    def __init__(self, target_condition_number: Optional[float] = None, *,
                 acceptance_fraction: float = 0.75, condition_check_stride: int = 8,
                 condition_dense_limit: int = DENSE_LIMIT_DEFAULT, seed: SeedLike = 0) -> None:
        if target_condition_number is not None:
            check_positive(target_condition_number, "target_condition_number")
        check_positive(acceptance_fraction, "acceptance_fraction")
        if condition_check_stride < 1:
            raise ValueError("condition_check_stride must be >= 1")
        self.target_condition_number = target_condition_number
        self.acceptance_fraction = acceptance_fraction
        self.condition_check_stride = condition_check_stride
        self.condition_dense_limit = condition_dense_limit
        self.seed = seed

    def update(self, graph_after: Graph, sparsifier: Graph,
               new_edges: Sequence[WeightedEdge]) -> RandomUpdateResult:
        """Insert ``new_edges`` (randomly ordered) into a copy of ``sparsifier``.

        ``graph_after`` is the original graph *including* the new edges, needed
        to evaluate the condition number target.
        """
        timer = Timer().start()
        rng = as_rng(self.seed)
        updated = sparsifier.copy()
        order = rng.permutation(len(new_edges))
        added = 0
        condition: Optional[float] = None
        if self.target_condition_number is None:
            limit = int(round(self.acceptance_fraction * len(new_edges)))
            for index in order[:limit]:
                u, v, w = new_edges[int(index)]
                updated.add_edge(u, v, w, merge="add")
                added += 1
        else:
            for position, index in enumerate(order):
                u, v, w = new_edges[int(index)]
                updated.add_edge(u, v, w, merge="add")
                added += 1
                if (position + 1) % self.condition_check_stride == 0:
                    condition = relative_condition_number(
                        graph_after, updated, dense_limit=self.condition_dense_limit
                    )
                    if condition <= self.target_condition_number:
                        break
            if condition is None or condition > self.target_condition_number:
                condition = relative_condition_number(
                    graph_after, updated, dense_limit=self.condition_dense_limit
                )
        timer.stop()
        return RandomUpdateResult(
            sparsifier=updated,
            added_edges=added,
            condition_number=condition,
            runtime_seconds=timer.elapsed,
        )


def random_sparsify(graph: Graph, *, relative_density: float = 0.10, seed: SeedLike = 0) -> Graph:
    """Convenience wrapper returning just the random sparsifier."""
    return RandomSparsifier(relative_density, seed=seed).sparsify(graph).sparsifier
