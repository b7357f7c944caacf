"""Downstream application: sparsifier-preconditioned conjugate gradient.

Spectral sparsifiers exist to accelerate linear solves: a sparsifier with a
small relative condition number is an excellent preconditioner for the
original graph Laplacian.  This example solves ``L_G x = b`` with plain CG,
with Jacobi-preconditioned CG, and with PCG preconditioned by (a) the initial
sparsifier and (b) the inGRASS-maintained sparsifier after a stream of edge
insertions — demonstrating that keeping the sparsifier up to date preserves
the iteration count that a stale sparsifier loses.

Run with::

    python examples/preconditioner_quality.py
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    GrassConfig,
    GrassSparsifier,
    InGrassConfig,
    InGrassSparsifier,
    PCGSolver,
    conjugate_gradient,
    grid_circuit_2d,
    jacobi_preconditioner,
    mixed_edges,
    relative_condition_number,
)


def iteration_count(graph, preconditioner_graph, b):
    solver = PCGSolver(graph, preconditioner_graph, tol=1e-8)
    report = solver.solve(b)
    return report.iterations, report.converged


def main() -> None:
    rng = np.random.default_rng(0)
    graph = grid_circuit_2d(30, seed=0)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.15, tree_method="shortest_path", seed=0))
    sparsifier0 = grass.sparsify(graph, evaluate_condition=False).sparsifier
    kappa0 = relative_condition_number(graph, sparsifier0)
    print(f"initial sparsifier: kappa = {kappa0:.1f}")

    # Stream new edges into the graph (the system being simulated changed).
    new_edges = mixed_edges(graph, int(0.25 * graph.num_nodes), long_range_fraction=0.3, seed=1)
    updated_graph = graph.union_with_edges(new_edges)

    # Maintain the sparsifier with inGRASS.
    ingrass = InGrassSparsifier(InGrassConfig())
    ingrass.setup(graph, sparsifier0, target_condition_number=kappa0)
    ingrass.apply_batch(new_edges)
    maintained = ingrass.sparsifier

    b = rng.standard_normal(graph.num_nodes)
    b -= b.mean()

    laplacian = updated_graph.laplacian_matrix()
    plain = conjugate_gradient(lambda x: laplacian @ x, b, tol=1e-8)
    jacobi = conjugate_gradient(lambda x: laplacian @ x, b,
                                preconditioner=jacobi_preconditioner(laplacian), tol=1e-8)
    stale_iters, stale_ok = iteration_count(updated_graph, sparsifier0, b)
    fresh_iters, fresh_ok = iteration_count(updated_graph, maintained, b)

    print(f"\nCG iterations to solve L_G x = b on the UPDATED graph (tol 1e-8):")
    print(f"  plain CG                         : {plain.iterations}")
    print(f"  Jacobi-preconditioned CG         : {jacobi.iterations}")
    print(f"  PCG with stale sparsifier H(0)   : {stale_iters} (converged={stale_ok})")
    print(f"  PCG with inGRASS-maintained H    : {fresh_iters} (converged={fresh_ok})")

    stale_kappa = relative_condition_number(updated_graph, sparsifier0)
    fresh_kappa = relative_condition_number(updated_graph, maintained)
    print(f"\nkappa(updated G, stale H)      = {stale_kappa:.1f}")
    print(f"kappa(updated G, maintained H) = {fresh_kappa:.1f}")
    print("\nKeeping the sparsifier current with inGRASS preserves the preconditioner")
    print("quality without ever re-running the from-scratch sparsifier.")


if __name__ == "__main__":
    main()
