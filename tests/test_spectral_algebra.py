"""Tests for Laplacian algebra: solvers, eigen utilities, condition numbers
and sampled spectral similarity."""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, complete_graph, grid_circuit_2d, path_graph
from repro.graphs.laplacian import (
    grounded_laplacian,
    is_laplacian,
    laplacian_from_edges,
)
from repro.spectral import (
    GroundedSolver,
    PCGSolver,
    condition_estimate,
    conjugate_gradient,
    dense_laplacian_spectrum,
    jacobi_preconditioner,
    project_out_constant,
    relative_condition_number,
    sample_similarity,
    smallest_nonzero_eigenvalues,
)
from repro.spectral.solvers import free_orphaned_factors


class TestLaplacianHelpers:
    def test_laplacian_from_edges_matches_graph(self, small_grid):
        us, vs, ws = small_grid.edge_arrays()
        direct = laplacian_from_edges(small_grid.num_nodes, us, vs, ws)
        assert abs(direct - small_grid.laplacian_matrix()).max() < 1e-12

    def test_laplacian_from_edges_length_mismatch(self):
        with pytest.raises(ValueError):
            laplacian_from_edges(3, [0], [1, 2], [1.0])

    def test_grounded_laplacian_spd(self, small_grid):
        reduced, keep = grounded_laplacian(small_grid.laplacian_matrix(), ground=0)
        assert reduced.shape == (small_grid.num_nodes - 1, small_grid.num_nodes - 1)
        assert 0 not in keep
        eigenvalues = np.linalg.eigvalsh(reduced.toarray())
        assert eigenvalues.min() > 0

    def test_grounded_laplacian_bad_ground(self, small_grid):
        with pytest.raises(ValueError):
            grounded_laplacian(small_grid.laplacian_matrix(), ground=10**6)

    def test_is_laplacian(self, small_grid):
        assert is_laplacian(small_grid.laplacian_matrix())
        assert not is_laplacian(small_grid.adjacency_matrix())


class TestGroundedSolver:
    def test_solution_satisfies_system(self, small_grid, rng):
        solver = GroundedSolver.from_graph(small_grid)
        b = rng.standard_normal(small_grid.num_nodes)
        b -= b.mean()
        x = solver.solve(b)
        residual = small_grid.laplacian_matrix() @ x - b
        assert np.linalg.norm(residual) < 1e-6 * max(np.linalg.norm(b), 1.0)
        assert abs(x.mean()) < 1e-9

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            GroundedSolver.from_graph(Graph(1))

    def test_wrong_rhs_length(self, small_grid):
        solver = GroundedSolver.from_graph(small_grid)
        with pytest.raises(ValueError):
            solver.solve(np.zeros(3))

    def test_factor_dropped_on_another_thread_is_freed_on_its_own(self, allocated):
        # SciPy frees SuperLU storage only on the thread that factored it: a
        # solver dropped elsewhere used to leak its factor (20 of them here).
        laplacian = grid_circuit_2d(40, seed=0).laplacian_matrix()
        with ThreadPoolExecutor(1) as factoring, ThreadPoolExecutor(1) as dropping:
            before = allocated()
            held = [factoring.submit(GroundedSolver, laplacian).result()]
            one_factor = allocated() - before
            dropping.submit(held.clear).result()
            start = allocated()
            for _ in range(20):
                held = [factoring.submit(GroundedSolver, laplacian).result()]
                dropping.submit(held.clear).result()
            growth = allocated() - start
        # At most the last factor still waits for its thread.
        assert one_factor > 1 << 20
        assert growth < 2 * one_factor

    def test_a_thread_that_factors_no_more_frees_its_orphans_when_asked(self, allocated):
        laplacian = grid_circuit_2d(40, seed=0).laplacian_matrix()
        with ThreadPoolExecutor(1) as making, ThreadPoolExecutor(1) as dropping:
            before = allocated()
            held = [making.submit(GroundedSolver, laplacian).result() for _ in range(3)]
            made = allocated() - before
            dropping.submit(held.clear).result()
            waiting = allocated() - before
            making.submit(free_orphaned_factors).result()
            left = allocated() - before
        assert made > 3 << 20
        assert waiting > 0.9 * made  # dropped elsewhere: nothing freed yet
        assert left < 0.1 * made


@pytest.fixture
def allocated():
    """glibc's total allocation in bytes (``mallinfo2``: heap in use plus
    mapped blocks), as a function; skips under another C library."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("reads glibc's mallinfo2")

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]

    libc.mallinfo2.argtypes = ()
    libc.mallinfo2.restype = MallInfo2

    def total() -> int:
        info = libc.mallinfo2()
        return info.uordblks + info.hblkhd
    return total


class TestConjugateGradient:
    def test_unpreconditioned_converges(self, small_grid, rng):
        laplacian = small_grid.laplacian_matrix()
        b = rng.standard_normal(small_grid.num_nodes)
        report = conjugate_gradient(lambda x: laplacian @ x, b, tol=1e-8)
        assert report.converged
        assert np.linalg.norm(laplacian @ report.solution - project_out_constant(b)) < 1e-5

    def test_jacobi_preconditioner_reduces_iterations(self, medium_grid, rng):
        laplacian = medium_grid.laplacian_matrix()
        b = rng.standard_normal(medium_grid.num_nodes)
        plain = conjugate_gradient(lambda x: laplacian @ x, b, tol=1e-8)
        preconditioned = conjugate_gradient(
            lambda x: laplacian @ x, b, preconditioner=jacobi_preconditioner(laplacian), tol=1e-8
        )
        assert preconditioned.converged
        assert preconditioned.iterations <= plain.iterations + 5

    def test_sparsifier_preconditioner_beats_plain(self, grid_with_sparsifier, rng):
        graph, sparsifier = grid_with_sparsifier
        b = rng.standard_normal(graph.num_nodes)
        plain = PCGSolver(graph).solve(b)
        preconditioned = PCGSolver(graph, sparsifier).solve(b)
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations

    def test_zero_rhs(self, small_grid):
        laplacian = small_grid.laplacian_matrix()
        report = conjugate_gradient(lambda x: laplacian @ x, np.zeros(small_grid.num_nodes))
        assert report.converged
        assert report.iterations == 0


class TestEigen:
    def test_path_fiedler_value(self):
        # Path Laplacian eigenvalues are 2 - 2 cos(pi k / n).
        n = 10
        graph = path_graph(n)
        lam2 = smallest_nonzero_eigenvalues(graph, k=1)[0]
        assert lam2 == pytest.approx(2 - 2 * np.cos(np.pi / n), rel=1e-6)

    def test_complete_graph_spectrum(self):
        graph = complete_graph(6)
        eigenvalues, _ = dense_laplacian_spectrum(graph)
        assert eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(eigenvalues[1:], 6.0)


class TestConditionNumber:
    def test_identity_sparsifier(self, small_grid):
        assert relative_condition_number(small_grid, small_grid) == pytest.approx(1.0, rel=1e-6)

    def test_scaled_sparsifier(self, small_grid):
        scaled = Graph(small_grid.num_nodes, [(u, v, 2.0 * w) for u, v, w in small_grid.weighted_edges()])
        # Uniform scaling by 2 gives lambda in {0.5}, so kappa stays 1.
        assert relative_condition_number(small_grid, scaled) == pytest.approx(1.0, rel=1e-6)

    def test_subgraph_sparsifier_at_least_one(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        kappa = relative_condition_number(graph, sparsifier)
        assert kappa >= 1.0 - 1e-9

    def test_tree_worse_than_denser_sparsifier(self, medium_grid):
        from repro.sparsify import GrassConfig, GrassSparsifier, maximum_weight_spanning_tree

        tree = maximum_weight_spanning_tree(medium_grid)
        denser = GrassSparsifier(GrassConfig(target_offtree_density=0.3, seed=0)).sparsify(
            medium_grid, evaluate_condition=False
        ).sparsifier
        assert relative_condition_number(medium_grid, tree) > relative_condition_number(medium_grid, denser)

    def test_dense_and_lanczos_paths_agree(self, medium_grid, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        dense = condition_estimate(graph, sparsifier, dense_limit=10**6)
        iterative = condition_estimate(graph, sparsifier, dense_limit=1)
        assert iterative.condition_number == pytest.approx(dense.condition_number, rel=0.05)

    def test_node_mismatch_raises(self, small_grid):
        with pytest.raises(ValueError):
            relative_condition_number(small_grid, Graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))


class TestQuadraticForms:
    def test_sample_similarity_lower_bounds_condition(self, grid_with_sparsifier):
        graph, sparsifier = grid_with_sparsifier
        kappa = relative_condition_number(graph, sparsifier)
        sample = sample_similarity(graph, sparsifier, num_probes=16, seed=0)
        assert sample.empirical_condition_number <= kappa * 1.05
        assert sample.min_ratio > 0

    def test_sample_similarity_node_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            sample_similarity(small_grid, Graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))


class TestConditionProperties:
    @given(st.integers(min_value=6, max_value=14), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_adding_edges_to_sparsifier_never_hurts(self, size, seed):
        """Adding a graph edge (with its graph weight) to a subgraph sparsifier
        cannot increase the relative condition number's lambda_max and keeps
        kappa finite."""
        rng = np.random.default_rng(seed)
        graph = grid_circuit_2d(size, seed=seed)
        from repro.sparsify import maximum_weight_spanning_tree, off_tree_edges

        tree = maximum_weight_spanning_tree(graph)
        candidates = off_tree_edges(graph, tree)
        if not candidates:
            return
        kappa_tree = relative_condition_number(graph, tree)
        augmented = tree.copy()
        u, v, w = candidates[int(rng.integers(0, len(candidates)))]
        augmented.add_edge(u, v, w)
        kappa_aug = relative_condition_number(graph, augmented)
        assert kappa_aug <= kappa_tree * (1 + 1e-6)
