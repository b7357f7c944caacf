"""Quickstart: maintain a spectral sparsifier under edge insertions with inGRASS.

The script builds a synthetic power-grid style graph, sparsifies it once with
the GRASS-style baseline, runs the one-time inGRASS setup, then streams three
batches of new edges through the O(log N)-per-edge update phase and reports
how the sparsifier's density and condition number evolve.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import (
    GrassConfig,
    GrassSparsifier,
    InGrassConfig,
    InGrassSparsifier,
    grid_circuit_2d,
    mixed_edges,
    offtree_density,
    relative_condition_number,
    split_into_batches,
)


def main() -> None:
    # 1. The original graph G(0): a 30x30 resistor grid (900 nodes).
    graph = grid_circuit_2d(30, seed=0)
    print(f"original graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    # 2. An initial sparsifier H(0) at ~10 % off-tree density (GRASS-style).
    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.10, tree_method="shortest_path", seed=0))
    sparsifier = grass.sparsify(graph, evaluate_condition=False).sparsifier
    kappa0 = relative_condition_number(graph, sparsifier)
    print(f"initial sparsifier: {sparsifier.num_edges} edges "
          f"(off-tree density {offtree_density(sparsifier):.1%}), kappa = {kappa0:.1f}")

    # 3. One-time inGRASS setup: resistance embedding + LRD decomposition.
    ingrass = InGrassSparsifier(InGrassConfig())
    ingrass.setup(graph, sparsifier, target_condition_number=kappa0)
    print(f"setup: {ingrass.setup_result.hierarchy.num_levels} LRD levels in {ingrass.setup_seconds*1e3:.1f} ms")

    # 4. Stream new edges (e.g. new metal straps added to the power grid).
    stream = mixed_edges(graph, int(0.2 * graph.num_nodes), long_range_fraction=0.2, seed=1)
    batches = split_into_batches(stream, 3)
    for index, batch in enumerate(batches, start=1):
        result = ingrass.apply_batch(batch).insertion
        print(f"iteration {index}: streamed {len(batch):3d} edges -> "
              f"added {result.summary.added}, merged {result.summary.merged}, "
              f"redistributed {result.summary.redistributed} "
              f"({result.update_seconds*1e3:.2f} ms)")

    # 5. Final quality report.
    kappa = ingrass.condition_number()
    print(f"final sparsifier: {ingrass.sparsifier.num_edges} edges "
          f"(off-tree density {offtree_density(ingrass.sparsifier):.1%}), kappa = {kappa:.1f}")
    print(f"total update time: {ingrass.total_update_seconds*1e3:.1f} ms "
          f"(vs one-time setup {ingrass.setup_seconds*1e3:.1f} ms)")


if __name__ == "__main__":
    main()
