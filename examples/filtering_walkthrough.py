"""Walkthrough of the similarity-filtering decisions (the paper's Figure 3).

Figure 3 of the paper follows three newly introduced edges through the update
phase: one is merged into an existing edge between the same pair of clusters,
one falls inside a single cluster and is discarded with its weight spread over
the cluster's edges, and one creates a genuinely new cluster connection and is
admitted.  This script replays the same three decision kinds on the 14-node
example graph and prints what happened to every edge and to the sparsifier's
weights.

Run with::

    python examples/filtering_walkthrough.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    LRDConfig,
    SimilarityFilter,
    lrd_decompose,
    score_edges,
)
from repro.graphs import paper_figure2_graph


def main() -> None:
    sparsifier = paper_figure2_graph()
    hierarchy = lrd_decompose(sparsifier, LRDConfig(resistance_method="exact", seed=0))

    # Use the coarsest level that still separates the two halves of the graph,
    # mirroring the filtering level L = (b) chosen in the paper's example.
    level = 0
    for index in range(hierarchy.num_levels - 1, -1, -1):
        if hierarchy.level(index).labels[0] != hierarchy.level(index).labels[9]:
            level = index
            break
    labels = hierarchy.level(level).labels
    print(f"filtering level: {level} "
          f"({hierarchy.level(level).num_clusters} clusters, "
          f"largest {hierarchy.level(level).max_cluster_size()} nodes)")
    print("cluster of every node:", labels.tolist(), "\n")

    # Three streamed edges chosen to trigger the three decision kinds.
    def first_missing_pair(nodes_a, nodes_b):
        for p in nodes_a:
            for q in nodes_b:
                if p != q and not sparsifier.has_edge(int(p), int(q)):
                    return int(p), int(q)
        raise RuntimeError("no candidate pair found")

    cluster_of_0 = np.flatnonzero(labels == labels[0])
    cluster_of_9 = np.flatnonzero(labels == labels[9])
    intra = first_missing_pair(cluster_of_0, cluster_of_0)          # same cluster -> redistribute
    merged = first_missing_pair(cluster_of_0, cluster_of_9)          # same cluster pair as bridge -> merge
    new_edges = [
        (merged[0], merged[1], 1.0),
        (intra[0], intra[1], 1.0),
    ]
    print("streamed edges:", new_edges, "\n")

    bridge_weight_before = sparsifier.weight(3, 9)
    similarity_filter = SimilarityFilter(sparsifier, hierarchy, level)
    batch = score_edges(hierarchy, new_edges).sort()
    decisions, summary = similarity_filter.apply_batch(batch)

    for decision in decisions:
        p, q, w = decision.edge
        line = f"edge ({p:2d}, {q:2d}, w={w}) -> {decision.action.value}"
        if decision.target_edge is not None:
            line += f" (weight folded into sparsifier edge {decision.target_edge})"
        print(line)
    print(f"\nsummary: added={summary.added}, merged={summary.merged}, "
          f"redistributed={summary.redistributed}")
    print(f"bridge edge (3, 9) weight: {bridge_weight_before:.2f} -> {sparsifier.weight(3, 9):.2f}")
    print("\nThese are the three outcomes illustrated in Figure 3 of the paper: redundant")
    print("edges are folded into the sparsifier's existing structure, and only edges that")
    print("connect previously unconnected clusters are admitted.")


if __name__ == "__main__":
    main()
