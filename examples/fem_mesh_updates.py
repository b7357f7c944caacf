"""Finite-element mesh refinement scenario.

Adaptive mesh refinement adds new elements — and therefore new graph edges —
to a finite-element stiffness graph between solver calls.  This example keeps
a spectral sparsifier of a 2-D FE mesh up to date through several refinement
rounds with inGRASS and shows what each refinement did to the sparsifier
(edges admitted vs merged vs redistributed), plus the final spectral quality.

Run with::

    python examples/fem_mesh_updates.py [--nodes 1500]
"""

from __future__ import annotations

import argparse

from repro.api import (
    GrassConfig,
    GrassSparsifier,
    InGrassConfig,
    InGrassSparsifier,
    fe_mesh_2d,
    mixed_edges,
    offtree_density,
    relative_condition_number,
    split_into_batches,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1500, help="approximate mesh size")
    parser.add_argument("--refinements", type=int, default=5, help="number of refinement rounds")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    mesh = fe_mesh_2d(args.nodes, seed=args.seed)
    print(f"FE mesh: {mesh.num_nodes} nodes, {mesh.num_edges} edges")

    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.10, tree_method="shortest_path",
                                        seed=args.seed))
    sparsifier = grass.sparsify(mesh, evaluate_condition=False).sparsifier
    kappa0 = relative_condition_number(mesh, sparsifier, dense_limit=600)
    print(f"initial sparsifier: off-tree density {offtree_density(sparsifier):.1%}, kappa = {kappa0:.1f}")

    ingrass = InGrassSparsifier(InGrassConfig())
    ingrass.setup(mesh, sparsifier, target_condition_number=kappa0)
    print(f"setup: {ingrass.setup_result.hierarchy.num_levels} LRD levels in {ingrass.setup_seconds*1e3:.1f} ms\n")

    # Refinement edges are overwhelmingly local (new elements subdivide
    # existing ones), with the occasional longer-range constraint edge.
    refinement_edges = mixed_edges(mesh, int(0.2 * mesh.num_nodes),
                                   long_range_fraction=0.1, hops=2, seed=args.seed + 1)
    rounds = split_into_batches(refinement_edges, args.refinements)

    print(f"{'round':>5} {'new edges':>10} {'added':>7} {'merged':>7} {'redist.':>8} "
          f"{'density':>9} {'ms':>8}")
    for index, batch in enumerate(rounds, start=1):
        ingrass.apply_batch(batch)
        record = ingrass.history[-1]
        print(f"{index:>5} {len(batch):>10} {record.added_edges:>7} {record.merged_edges:>7} "
              f"{record.redistributed_edges:>8} {record.offtree_density:>8.1%} "
              f"{record.update_seconds*1e3:>8.2f}")

    final_kappa = ingrass.condition_number(dense_limit=600)
    degraded = relative_condition_number(ingrass.graph, sparsifier, dense_limit=600)
    print(f"\nkappa after refinements: {final_kappa:.1f} "
          f"(target {kappa0:.1f}; never updating would give {degraded:.1f})")
    print(f"final off-tree density: {offtree_density(ingrass.sparsifier):.1%} "
          f"(including every refinement edge would give "
          f"{offtree_density(sparsifier.union_with_edges(refinement_edges)):.1%})")


if __name__ == "__main__":
    main()
