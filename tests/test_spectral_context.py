"""Tests of the κ guard's spectral context (``repro.spectral.condition``).

The contract: on the Lanczos path the guard corrects one kept factorisation
each of ``L_G`` and ``L_H`` for the edges ``G`` and ``H`` changed
(re-factoring past a rank cap) without changing the trajectory, warm-starts
ARPACK from the previous pass, ranks candidates without a second eigensolve,
and still reports the κ a cold dense solve would — deterministically, with
bounded fallbacks and without letting reads perturb the writer.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro.graphs.graph as graph_module
import repro.spectral.condition as condition
import repro.spectral.eigen as eigen
import repro.spectral.solvers as solvers
from repro.core import InGrassConfig, LRDConfig
from repro.core.incremental import InGrassSparsifier
from repro.graphs import Graph, grid_circuit_2d
from repro.graphs.components import is_connected
from repro.service import SparsifierService
from repro.spectral.condition import (
    SpectralContext,
    SpectralSolveError,
    condition_estimate,
    dominant_generalized_eigenvector,
)
from repro.spectral.solvers import CorrectedSolver, GroundedSolver
from repro.streams.scenarios import DynamicScenarioConfig, build_dynamic_scenario

#: Below the stream's 225 nodes, so every guard estimate takes the Lanczos path.
GUARD_DENSE_LIMIT = 100
DENSE = 10 ** 6


@pytest.fixture(scope="module")
def stream():
    """A churn stream whose guard admits edges in several passes."""
    graph = grid_circuit_2d(15, seed=4)
    return build_dynamic_scenario(graph, DynamicScenarioConfig(
        initial_offtree_density=0.10, final_offtree_density=0.40, num_iterations=8,
        deletion_fraction=0.4, condition_dense_limit=600, seed=0))


def start_driver(stream):
    driver = InGrassSparsifier(InGrassConfig(
        lrd=LRDConfig(seed=0), kappa_guard_factor=1.2,
        kappa_guard_dense_limit=GUARD_DENSE_LIMIT, seed=0))
    driver.setup(stream.graph, stream.initial_sparsifier,
                 target_condition_number=stream.initial_condition_number)
    return driver


def guard_kappas(driver, batches, read_between=False):
    kappas = []
    for batch in batches:
        guard = driver.apply_batch(batch).kappa_guard
        kappas.append((guard.kappa_before, guard.kappa_after, len(guard.added_edges)))
        if read_between:
            driver.condition_number(dense_limit=GUARD_DENSE_LIMIT)
            driver.snapshot().condition_number(dense_limit=GUARD_DENSE_LIMIT)
    return kappas


class _Counter:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestGuardPasses:
    def test_two_fresh_drivers_report_bit_identical_kappa(self, stream):
        first = guard_kappas(start_driver(stream), stream.batches)
        second = guard_kappas(start_driver(stream), stream.batches)
        assert any(added for _, _, added in first), "the stream must trip the guard"
        assert first == second

    def test_seeded_without_scipys_rng_keyword(self, stream, monkeypatch):
        # SciPy releases before ARPACK's C rewrite have no ``rng`` keyword;
        # the seeded ``v0`` alone must keep κ deterministic there.
        real_eigsh = spla.eigsh
        cold_starts = []

        def eigsh_without_rng(*args, **kwargs):
            if "rng" in kwargs:
                raise TypeError("eigsh() got an unexpected keyword argument 'rng'")
            assert kwargs["v0"] is not None
            if kwargs.get("ncv") is None:
                cold_starts.append(kwargs["v0"])
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(eigen, "_EIGSH_TAKES_RNG", False)
        monkeypatch.setattr(spla, "eigsh", eigsh_without_rng)
        first = guard_kappas(start_driver(stream), stream.batches)
        assert first == guard_kappas(start_driver(stream), stream.batches)
        assert cold_starts and all(np.array_equal(v0, cold_starts[0]) for v0 in cold_starts)

    def test_reads_leave_the_guard_trajectory_alone(self, stream):
        quiet = start_driver(stream)
        busy = start_driver(stream)
        assert guard_kappas(busy, stream.batches, read_between=True) == \
            guard_kappas(quiet, stream.batches)
        assert busy.sparsifier.edge_list() == quiet.sparsifier.edge_list()

    def test_every_pass_matches_the_dense_reference(self, stream, monkeypatch):
        pairs = []
        original = condition.relative_condition_number

        def recording(graph, sparsifier, **kwargs):
            value = original(graph, sparsifier, **kwargs)
            pairs.append((value, condition_estimate(graph, sparsifier,
                                                    dense_limit=DENSE).condition_number))
            return value

        monkeypatch.setattr(condition, "relative_condition_number", recording)
        guard_kappas(start_driver(stream), stream.batches)
        assert len(pairs) > len(stream.batches)
        for value, dense in pairs:
            assert value == pytest.approx(dense, rel=1e-6)

    def test_admitting_rounds_solve_no_second_eigenproblem(self, stream, monkeypatch):
        eigsh = _Counter(spla.eigsh)
        monkeypatch.setattr(spla, "eigsh", eigsh)
        estimates = _Counter(condition.relative_condition_number)
        monkeypatch.setattr(condition, "relative_condition_number", estimates)
        driver = start_driver(stream)
        kappas = guard_kappas(driver, stream.batches)
        assert any(added for _, _, added in kappas)
        # Two Lanczos runs (λ_max and λ_min) per estimate and nothing else.
        assert eigsh.calls == 2 * estimates.calls

    def test_restored_driver_ends_with_the_same_edge_map(self, stream, tmp_path):
        uninterrupted = start_driver(stream)
        guard_kappas(uninterrupted, stream.batches)
        saved = start_driver(stream)
        guard_kappas(saved, stream.batches[:3])
        saved.save_checkpoint(tmp_path / "ckpt")
        restored = InGrassSparsifier.load_checkpoint(tmp_path / "ckpt")
        guard_kappas(restored, stream.batches[3:])
        assert restored.sparsifier.edge_list() == uninterrupted.sparsifier.edge_list()
        assert restored.graph.edge_list() == uninterrupted.graph.edge_list()


def weak_region_pencil(side, regions):
    """A unit-weight grid ``G`` and ``H = G`` with the edges inside each square
    region ``((row, col, size), factor)`` scaled by ``factor``.

    The pencil's eigenvectors with λ ≠ 1 live inside the regions, so the
    weakest region owns λ_max and a mode in one region has no component in
    another.
    """
    graph, sparsifier = Graph(side * side), Graph(side * side)

    def factor(r, c):
        for (r0, c0, size), scale in regions:
            if r0 <= r < r0 + size and c0 <= c < c0 + size:
                return scale
        return None

    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    u, v = r * side + c, r2 * side + c2
                    graph.add_edge(u, v, 1.0)
                    a, b = factor(r, c), factor(r2, c2)
                    sparsifier.add_edge(u, v, a if a is not None and a == b else 1.0)
    return graph, sparsifier


class TestWarmStart:
    def test_warm_start_follows_a_mode_jump(self, monkeypatch):
        # Region A is weak, then region B becomes weaker and overtakes it.
        # The context last solved the old pencil exactly (its Lanczos runs
        # failed and the dense fallback answered), so the old λ_max vector is
        # an exact eigenvector of the new pencil too.  Started from it alone,
        # ARPACK stops at the old λ_max (10 instead of 20); the blended
        # random component finds the new mode.
        side, size = 30, 7
        region_a, region_b = (2, side - size - 2, size), (side - size - 2, 2, size)
        graph, before = weak_region_pencil(side, [(region_a, 0.1)])
        _, after = weak_region_pencil(side, [(region_a, 0.1), (region_b, 0.05)])

        context = SpectralContext()
        real_eigsh = spla.eigsh

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        assert context.estimate(graph, before, dense_limit=1).method == "dense-fallback"
        monkeypatch.setattr(spla, "eigsh", real_eigsh)

        warm = context.estimate(graph, after, dense_limit=1)
        dense = condition_estimate(graph, after, dense_limit=DENSE)
        assert warm.method == "lanczos"
        assert dense.lambda_max == pytest.approx(20.0)
        assert warm.lambda_max == pytest.approx(dense.lambda_max, rel=1e-6)
        assert warm.condition_number == pytest.approx(dense.condition_number, rel=1e-6)

    def test_dominant_eigenvector_reuses_the_last_estimate(self, grid_with_sparsifier, monkeypatch):
        graph, sparsifier = grid_with_sparsifier
        context = SpectralContext()
        estimate = context.estimate(graph, sparsifier, dense_limit=1)
        eigsh = _Counter(spla.eigsh)
        monkeypatch.setattr(spla, "eigsh", eigsh)
        value, vector = dominant_generalized_eigenvector(graph, sparsifier, dense_limit=1,
                                                         context=context)
        assert eigsh.calls == 0
        assert value == estimate.lambda_max
        _, dense_vector = dominant_generalized_eigenvector(graph, sparsifier, dense_limit=DENSE)
        assert abs(float(vector @ dense_vector)) == pytest.approx(1.0, abs=1e-6)
        # A new sparsifier version is solved again.
        changed = sparsifier.copy()
        u, v, w = next(iter(graph.weighted_edges()))
        changed.add_edge(u, v, w, merge="add")
        dominant_generalized_eigenvector(graph, changed, dense_limit=1, context=context)
        assert eigsh.calls == 1

    def test_factor_lifetimes(self, grid_with_sparsifier, monkeypatch):
        graph, sparsifier = grid_with_sparsifier
        splu = _Counter(spla.splu)
        monkeypatch.setattr(spla, "splu", splu)
        context = SpectralContext()
        context.estimate(graph, sparsifier, dense_limit=1)
        context.estimate(graph, sparsifier, dense_limit=1)
        # L_G once and L_H once: each side's lineage keeps its factorisation...
        assert splu.calls == 2
        context.release()
        context.estimate(graph, sparsifier, dense_limit=1)
        # ...across release().
        assert splu.calls == 2
        # A G and an H up to the rank cap away are corrected, not factored
        # again...
        edges = graph.edge_list()
        changed, changed_sparsifier = graph.copy(), sparsifier.copy()
        for u, v, w in edges[:solvers.CORRECTION_RANK_CAP]:
            changed.add_edge(u, v, w, merge="add")
            changed_sparsifier.add_edge(u, v, w, merge="add")
        context.release()
        context.estimate(changed, changed_sparsifier, dense_limit=1)
        assert splu.calls == 2
        # ...and one edge past it is, side by side.
        u, v, w = edges[solvers.CORRECTION_RANK_CAP]
        changed.add_edge(u, v, w, merge="add")
        context.estimate(changed, changed_sparsifier, dense_limit=1)
        assert splu.calls == 3
        changed_sparsifier.add_edge(u, v, w, merge="add")
        context.estimate(changed, changed_sparsifier, dense_limit=1)
        assert splu.calls == 4


def random_mixed_batch(graph, rng):
    """Mutate ``graph`` by 1–3 random events: an insertion (at ground node 0
    one time in four), a deletion that keeps it connected, or a weight
    increase."""
    n = graph.num_nodes
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(3)
        if kind == 0:
            u = 0 if rng.random() < 0.25 else int(rng.integers(n))
            v = int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, float(rng.uniform(0.1, 2.0)))
        elif kind == 1:
            u, v, w = graph.edge_list()[int(rng.integers(graph.num_edges))]
            graph.remove_edge(u, v)
            if not is_connected(graph):
                graph.add_edge(u, v, w)
        else:
            u, v, _ = graph.edge_list()[int(rng.integers(graph.num_edges))]
            graph.add_edge(u, v, float(rng.uniform(0.1, 2.0)), merge="add")


def changed_edges(before, after):
    """Edges whose weight differs between two edge lists (absent weighs 0)."""
    old = {(u, v): w for u, v, w in before}
    new = {(u, v): w for u, v, w in after}
    return sum(old.get(key, 0.0) != new.get(key, 0.0) for key in old.keys() | new.keys())


class TestCorrectedFactor:
    """``L_G``'s solver across graph versions: a correction of the kept base
    factorisation while at most the rank cap of edges changed, a new base
    past it; either way the system a fresh factorisation solves."""

    def test_corrected_solves_match_a_fresh_factorisation(self, monkeypatch):
        rng = np.random.default_rng(7)
        graph = grid_circuit_2d(8, seed=3)
        factored = []
        factor = GroundedSolver.from_graph
        monkeypatch.setattr(GroundedSolver, "from_graph",
                            lambda g: factored.append(g.edge_list()) or factor(g))
        context = SpectralContext()
        context._solver("graph", graph)
        corrected = 0
        for _ in range(1000):
            random_mixed_batch(graph, rng)
            base = factored[-1]
            solver = context._solver("graph", graph)
            refactored = factored[-1] is not base
            assert refactored == (changed_edges(base, graph.edge_list())
                                  > solvers.CORRECTION_RANK_CAP)
            corrected += isinstance(solver, CorrectedSolver)
            fresh = GroundedSolver(graph.laplacian_matrix())
            assert (solver.reduced != fresh.reduced).nnz == 0
            b = rng.standard_normal(graph.num_nodes - 1)
            expected = fresh.solve_reduced(b)
            error = np.linalg.norm(solver.solve_reduced(b) - expected) / np.linalg.norm(expected)
            assert error <= 1e-10
            context.release()
        # Both regimes ran many times (53 factorisations, 947 corrections).
        assert len(factored) >= 40 and corrected >= 800

    def test_ill_conditioned_capacitance_falls_back_to_a_factorisation(self, monkeypatch):
        graph = grid_circuit_2d(8, seed=3)
        factors = _Counter(GroundedSolver.from_graph)
        monkeypatch.setattr(GroundedSolver, "from_graph", factors)
        context = SpectralContext()
        context._solver("graph", graph)
        changed = graph.copy()
        changed.add_edge(0, 9, 0.5)
        changed.add_edge(3, 4, 1.0, merge="add")
        assert isinstance(context._solver("graph", changed), CorrectedSolver)
        assert factors.calls == 1
        monkeypatch.setattr(solvers, "CAPACITANCE_CONDITION_LIMIT", 1.0)
        changed.add_edge(5, 40, 0.25)
        solver = context._solver("graph", changed)
        assert factors.calls == 2
        assert isinstance(solver, GroundedSolver)
        b = np.random.default_rng(0).standard_normal(graph.num_nodes - 1)
        assert np.array_equal(solver.solve_reduced(b),
                              GroundedSolver.from_graph(changed).solve_reduced(b))


class TestCorrectionsKeepTheTrajectory:
    def test_corrections_never_change_a_trajectory(self, stream, monkeypatch):
        # At a rank cap of 0 every version of G and H is factored afresh; at
        # the default, the guard corrects kept factorisations instead.
        kappas = []
        estimate = condition.relative_condition_number

        def recording(*args, **kwargs):
            kappas.append(estimate(*args, **kwargs))
            return kappas[-1]

        monkeypatch.setattr(condition, "relative_condition_number", recording)
        splu = _Counter(spla.splu)
        monkeypatch.setattr(spla, "splu", splu)

        def run():
            kappas.clear()
            splu.calls = 0
            driver = start_driver(stream)
            steps = []
            for batch in stream.batches:
                added = driver.apply_batch(batch).kappa_guard.added_edges
                steps.append((driver.graph.edge_arrays() + driver.sparsifier.edge_arrays(), added))
            return steps, list(kappas), splu.calls

        corrected, corrected_kappas, corrected_factors = run()
        monkeypatch.setattr(solvers, "CORRECTION_RANK_CAP", 0)
        fresh, fresh_kappas, fresh_factors = run()
        assert len(corrected) == len(fresh) == len(stream.batches)
        assert any(added for _, added in corrected), "the stream must trip the guard"
        for (arrays, added), (fresh_arrays, fresh_added) in zip(corrected, fresh):
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in fresh_arrays]
            assert added == fresh_added
        assert len(corrected_kappas) == len(fresh_kappas) > len(stream.batches)
        np.testing.assert_allclose(corrected_kappas, fresh_kappas, rtol=1e-12, atol=0.0)
        assert corrected_factors < fresh_factors


class TestBoundedFallback:
    @staticmethod
    def _failing_eigsh(monkeypatch, error):
        calls = []

        def eigsh(*args, **kwargs):
            # A cold start runs at ARPACK's default Krylov size.
            calls.append(kwargs.get("ncv") is None)
            raise error

        monkeypatch.setattr(spla, "eigsh", eigsh)
        return calls

    def test_below_the_cap_the_dense_path_answers(self, grid_with_sparsifier, monkeypatch):
        graph, sparsifier = grid_with_sparsifier
        context = SpectralContext()
        context.estimate(graph, sparsifier, dense_limit=1)
        changed = sparsifier.copy()
        u, v, w = next(iter(graph.weighted_edges()))
        changed.add_edge(u, v, w, merge="add")
        calls = self._failing_eigsh(
            monkeypatch, spla.ArpackNoConvergence("no", np.zeros(0), np.zeros((0, 0))))
        estimate = context.estimate(graph, changed, dense_limit=1)
        # Per side: one warm attempt, then one cold retry.
        assert calls == [False, True, False, True]
        assert estimate.method == "dense-fallback"
        dense = condition_estimate(graph, changed, dense_limit=DENSE)
        assert estimate.condition_number == pytest.approx(dense.condition_number, rel=1e-9)

    def test_above_the_cap_a_typed_error_is_raised(self, grid_with_sparsifier, monkeypatch):
        graph, sparsifier = grid_with_sparsifier
        monkeypatch.setattr(condition, "DENSE_FALLBACK_LIMIT", graph.num_nodes - 1)
        calls = self._failing_eigsh(monkeypatch, spla.ArpackError(-9999))
        with pytest.raises(SpectralSolveError) as raised:
            condition_estimate(graph, sparsifier, dense_limit=1)
        assert calls == [True]
        error = raised.value
        assert error.num_nodes == graph.num_nodes
        assert error.side == "max"
        assert "-9999" in error.info
        assert str(graph.num_nodes) in str(error)

    def test_other_errors_are_not_swallowed(self, grid_with_sparsifier, monkeypatch):
        graph, sparsifier = grid_with_sparsifier
        self._failing_eigsh(monkeypatch, ValueError("bad input"))
        with pytest.raises(ValueError, match="bad input"):
            condition_estimate(graph, sparsifier, dense_limit=1)


def test_snapshot_reads_share_one_factor_per_graph(stream, monkeypatch):
    driver = start_driver(stream)
    driver.apply_batch(stream.batches[0])
    snap = driver.snapshot()
    splu = _Counter(spla.splu)
    monkeypatch.setattr(spla, "splu", splu)
    snap.effective_resistance(0, 1)
    b = np.zeros(snap.num_nodes)
    b[0], b[-1] = 1.0, -1.0
    assert snap.solve(b).converged
    kappa = snap.condition_number(dense_limit=1)
    assert splu.calls == 2
    assert kappa == pytest.approx(snap.condition_number(dense_limit=DENSE), rel=1e-6)


def test_snapshot_and_driver_agree_on_kappa(stream):
    driver = start_driver(stream)
    driver.apply_batch(stream.batches[0])
    # Same pencil, same shift, same seeded start: bit-identical.
    assert driver.snapshot().condition_number(dense_limit=1) == driver.condition_number(dense_limit=1)


def test_service_snapshots_agree_with_the_driver_within_rounding(stream):
    # A service snapshot solves through the service's shared lineages
    # (corrections of an earlier epoch's factorisation): its κ is the
    # driver's to 1e-12, not bit for bit.
    service = SparsifierService(driver=start_driver(stream))
    for batch in stream.batches[:4]:
        service.apply(batch)
        snap = service.snapshot()
        assert snap.condition_number(dense_limit=1) == pytest.approx(
            service.driver.condition_number(dense_limit=1), rel=1e-12, abs=0.0)


def test_snapshot_solves_share_one_graph_laplacian(stream, monkeypatch):
    snap = start_driver(stream).snapshot()
    builds = _Counter(graph_module.laplacian_from_edges)
    monkeypatch.setattr(graph_module, "laplacian_from_edges", builds)
    b = np.zeros(snap.num_nodes)
    b[0], b[-1] = 1.0, -1.0
    for tol in (1e-8, 1e-6, 1e-10):
        assert snap.solve(b, tol=tol).converged
    # L_G once for the matvecs, L_H once for its factorisation.
    assert builds.calls == 2
