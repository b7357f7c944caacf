"""Power-grid reconfiguration: fully dynamic sparsification under churn.

This example goes beyond the paper's insertion-only protocol.  A power grid
under reconfiguration both *adds* straps and *opens* switches — edges appear
and disappear.  The script streams ten mixed insert/delete batches (35 %
deletions by default) through the fully dynamic :class:`InGrassSparsifier`:

* every deletion leaves the tracked graph and, when the sparsifier carried
  the edge, triggers the repair path (connectivity restoration + local
  re-admission of the best surviving replacement edges);
* the κ guard re-measures κ(G(k), H(k)) after each batch and surgically adds
  the edges the dominant generalized eigenvector identifies as the current
  bottleneck whenever quality degrades past 1.8x the target.

The per-iteration table shows the sparsifier holding the quality bound while
staying sparse — compare the "never updated" κ column to see what churn does
to a static sparsifier.

Run with::

    python examples/power_grid_reconfiguration.py [--nodes-side 14]
                                                  [--deletion-fraction 0.35]
"""

from __future__ import annotations

import argparse

from repro.api import (
    DynamicScenarioConfig,
    InGrassConfig,
    InGrassSparsifier,
    LRDConfig,
    build_dynamic_scenario,
    grid_circuit_3d,
    is_connected,
    offtree_density,
)

DENSE_LIMIT = 500


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes-side", type=int, default=14, help="side length of each metal layer")
    parser.add_argument("--layers", type=int, default=3, help="number of metal layers")
    parser.add_argument("--deletion-fraction", type=float, default=0.35,
                        help="fraction of streamed events that open switches (delete edges)")
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graph = grid_circuit_3d(args.nodes_side, args.nodes_side, args.layers, seed=args.seed)
    print(f"power grid: {graph.num_nodes} nodes, {graph.num_edges} edges "
          f"({args.layers} metal layers)")

    scenario = build_dynamic_scenario(
        graph,
        DynamicScenarioConfig(
            initial_offtree_density=0.10,
            final_offtree_density=0.34,
            num_iterations=args.iterations,
            deletion_fraction=args.deletion_fraction,
            condition_dense_limit=DENSE_LIMIT,
            seed=args.seed,
        ),
    )
    target = scenario.initial_condition_number
    print(f"stream: {len(scenario.all_insertions)} insertions, "
          f"{len(scenario.all_deletions)} deletions over {args.iterations} batches "
          f"({scenario.deletion_fraction:.0%} churn)")
    print(f"target condition number: {target:.1f} (guard bound: {1.8 * target:.1f})\n")

    ingrass = InGrassSparsifier(
        InGrassConfig(
            lrd=LRDConfig(seed=args.seed),
            kappa_guard_factor=1.8,
            kappa_guard_dense_limit=DENSE_LIMIT,
            seed=args.seed,
        )
    )
    ingrass.setup(scenario.graph, scenario.initial_sparsifier, target_condition_number=target)

    header = (f"{'iter':>4}  {'+ins':>4}  {'-del':>4}  {'H-rm':>4}  {'repair':>6}  "
              f"{'guard':>5}  {'kappa':>7}  {'density':>7}  {'conn':>4}")
    print(header)
    print("-" * len(header))
    for index, batch in enumerate(scenario.batches, start=1):
        result = ingrass.apply_batch(batch)
        removal = result.removal
        removed = len(removal.removed_from_sparsifier) if removal else 0
        repairs = removal.num_repairs if removal else 0
        guard_adds = len(result.kappa_guard.added_edges) if result.kappa_guard else 0
        kappa = ingrass.condition_number(dense_limit=DENSE_LIMIT)
        print(f"{index:>4}  {len(batch.insertions):>4}  {len(batch.deletions):>4}  "
              f"{removed:>4}  {repairs:>6}  {guard_adds:>5}  {kappa:>7.1f}  "
              f"{offtree_density(ingrass.sparsifier):>6.1%}  "
              f"{'yes' if is_connected(ingrass.sparsifier) else 'NO':>4}")

    never_updated = scenario.degraded_condition_number()
    print(f"\nfinal kappa (maintained): "
          f"{ingrass.condition_number(dense_limit=DENSE_LIMIT):.1f}  "
          f"vs never-updated H(0): {never_updated:.1f}")
    print(f"total update time: {ingrass.total_update_seconds:.3f}s "
          f"(setup: {ingrass.setup_seconds:.3f}s)")


if __name__ == "__main__":
    main()
