"""Cross-module integration tests.

These tests exercise the public API the way the examples and the benchmark
harness do, checking the invariants that hold across module boundaries:
consistency between the incremental driver and the standalone phases, the
downstream preconditioner payoff, and the runnability of the example scripts.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from repro import (
    InGrassConfig,
    InGrassSparsifier,
    build_scenario,
    relative_condition_number,
)
from repro.core import run_setup, run_update
from repro.graphs import grid_circuit_2d, is_connected
from repro.sparsify import GrassConfig, GrassSparsifier, offtree_density
from repro.spectral import PCGSolver
from repro.streams import ScenarioConfig, mixed_edges

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestDriverConsistency:
    def test_driver_matches_standalone_phases(self, stage_engine):
        """InGrassSparsifier.apply_batch must produce the same sparsifier as calling
        run_setup + run_update manually with the same inputs."""
        graph = grid_circuit_2d(12, seed=0)
        sparsifier = GrassSparsifier(GrassConfig(target_offtree_density=0.15, seed=0)).sparsify(
            graph, evaluate_condition=False).sparsifier
        target = relative_condition_number(graph, sparsifier)
        stream = mixed_edges(graph, 30, long_range_fraction=0.3, seed=1)

        driver = InGrassSparsifier(InGrassConfig())
        driver.setup(graph, sparsifier, target_condition_number=target)
        driver.apply_batch(stream)

        manual = sparsifier.copy()
        config = InGrassConfig()
        hierarchy = run_setup(manual, config).hierarchy
        similarity_filter, maintainer = stage_engine(manual, hierarchy, config, target)
        run_update(manual, stream, config,
                   similarity_filter=similarity_filter, maintainer=maintainer)

        assert driver.sparsifier == manual

    def test_graph_tracking_matches_union(self):
        graph = grid_circuit_2d(10, seed=1)
        driver = InGrassSparsifier(InGrassConfig())
        driver.setup(graph, initial_offtree_density=0.1)
        stream = mixed_edges(graph, 20, seed=2)
        driver.apply_batch(stream)
        assert driver.graph == graph.union_with_edges(stream)

    def test_scenario_protocol_end_to_end(self):
        """The Table II protocol in miniature: inGRASS stays connected, stays
        sparse, and beats the never-update baseline on condition number."""
        graph = grid_circuit_2d(14, seed=3)
        scenario = build_scenario(graph, ScenarioConfig(num_iterations=4, condition_dense_limit=400, seed=3))
        driver = InGrassSparsifier(InGrassConfig())
        driver.setup(scenario.graph, scenario.initial_sparsifier,
                     target_condition_number=scenario.initial_condition_number)
        for batch in scenario.batches:
            driver.apply_batch(batch)
        assert is_connected(driver.sparsifier)
        blind = offtree_density(scenario.initial_sparsifier.union_with_edges(scenario.all_new_edges))
        assert offtree_density(driver.sparsifier) <= blind
        never_updated = relative_condition_number(scenario.final_graph, scenario.initial_sparsifier,
                                                  dense_limit=400)
        updated = relative_condition_number(scenario.final_graph, driver.sparsifier, dense_limit=400)
        assert updated <= never_updated * 1.2


class TestDownstreamPreconditioner:
    def test_maintained_sparsifier_is_a_good_preconditioner(self, rng):
        graph = grid_circuit_2d(16, seed=4)
        sparsifier = GrassSparsifier(GrassConfig(target_offtree_density=0.15, seed=0)).sparsify(
            graph, evaluate_condition=False).sparsifier
        kappa0 = relative_condition_number(graph, sparsifier)

        stream = mixed_edges(graph, int(0.2 * graph.num_nodes), long_range_fraction=0.3, seed=5)
        driver = InGrassSparsifier(InGrassConfig())
        driver.setup(graph, sparsifier, target_condition_number=kappa0)
        driver.apply_batch(stream)
        updated_graph = driver.graph

        b = rng.standard_normal(graph.num_nodes)
        plain = PCGSolver(updated_graph).solve(b)
        preconditioned = PCGSolver(updated_graph, driver.sparsifier).solve(b)
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations


class TestExamplesRun:
    """Smoke-run the lightweight example scripts end to end."""

    @pytest.mark.parametrize("script", ["lrd_walkthrough.py", "filtering_walkthrough.py"])
    def test_walkthrough_examples(self, script, capsys):
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
        output = capsys.readouterr().out
        assert "level" in output.lower()

    @pytest.mark.slow
    def test_quickstart_example(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
        output = capsys.readouterr().out
        assert "final sparsifier" in output

    @pytest.mark.slow
    def test_fem_example_with_small_args(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fem_mesh_updates.py", "--nodes", "300", "--refinements", "2"])
        runpy.run_path(str(EXAMPLES_DIR / "fem_mesh_updates.py"), run_name="__main__")
        output = capsys.readouterr().out
        assert "kappa after refinements" in output
