"""Benchmark driver for the grouped batch filter of the update path.

Times :func:`repro.core.run_update` with the grouped batch filter
(``vectorized``) and with the per-edge reference filter (``scalar``) at
growing batch sizes, and asserts the headline property of the grouped
filter: a large streamed batch is filtered several times faster per edge
with an *identical* resulting sparsifier edge set.
Run the full sweep (10² – 10⁵ edges), which writes ``BENCH_batch.json`` and
checks that both filters leave identical edge sets at every size, with
``python -m repro bench batch``.
"""

from __future__ import annotations

import pytest

from repro.bench.batch import TARGET_CONDITION, _timed_update
from repro.core import InGrassConfig, LRDConfig, run_setup
from repro.sparsify import GrassConfig, GrassSparsifier
from repro.streams import mixed_edges


@pytest.fixture(scope="module")
def batch_setup(request):
    """(graph, initial sparsifier, LRD hierarchy, filtering level) on the primary case."""
    primary_graph = request.getfixturevalue("primary_graph")
    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.10,
                                        tree_method="shortest_path", seed=0))
    sparsifier = grass.sparsify(primary_graph, evaluate_condition=False).sparsifier
    config = InGrassConfig(lrd=LRDConfig(seed=0), seed=0)
    hierarchy = run_setup(sparsifier.copy(), config).hierarchy
    level = hierarchy.filtering_level_for_condition(TARGET_CONDITION, config.filtering_size_divisor)
    return primary_graph, sparsifier, hierarchy, level


CONFIG = InGrassConfig(lrd=LRDConfig(seed=0), seed=0)


@pytest.mark.smoke
@pytest.mark.parametrize("mode", ["scalar", "vectorized"])
def test_update_batch_2000(benchmark, batch_setup, mode):
    """Time one 2000-edge update batch under each filter (CI smoke subset)."""
    graph, sparsifier, hierarchy, level = batch_setup
    stream = mixed_edges(graph, 2000, long_range_fraction=0.5, seed=5)

    def run():
        return _timed_update(sparsifier, hierarchy, stream, CONFIG, level,
                             reference=mode == "scalar")

    _, working, result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.summary.total == len(stream)
    assert working.num_edges >= sparsifier.num_edges


@pytest.mark.smoke
def test_vectorized_beats_scalar_on_large_batch(batch_setup):
    """The acceptance property at the 10⁴-edge batch size.

    ``python -m repro bench batch`` read 3.8x at 10⁴ edges on a 2-CPU
    host; the bound here is 2x so a loaded CI machine cannot flake the
    tier-1 suite.  Timing regressions are judged end to end by
    ``python -m repro bench compare`` in CI's ``bench-compare`` job, not
    here.  Pinned to rebuild mode, like
    ``python -m repro bench batch``: maintain mode adds the same hierarchy
    splice work to both arms, which dilutes the ratio this test measures.
    """
    graph, sparsifier, hierarchy, level = batch_setup
    stream = mixed_edges(graph, 10_000, long_range_fraction=0.5, seed=7)
    config = InGrassConfig(lrd=LRDConfig(seed=0), hierarchy_mode="rebuild", seed=0)
    seconds = {}
    edge_sets = {}
    for mode in ("scalar", "vectorized"):
        best = float("inf")
        for _ in range(2):
            elapsed, working, _ = _timed_update(sparsifier, hierarchy, stream, config, level,
                                                reference=mode == "scalar")
            best = min(best, elapsed)
        seconds[mode] = best
        edge_sets[mode] = set(working.edges())
    assert edge_sets["scalar"] == edge_sets["vectorized"]
    assert seconds["vectorized"] * 2.0 < seconds["scalar"], (
        f"grouped batch filter not faster: {seconds}")


def test_per_edge_cost_stays_flat_with_batch_size(batch_setup):
    """The grouped filter's per-edge cost must not blow up from 10³ to 10⁵ edges.

    The per-edge reference's constant is flat but huge; the grouped filter must not
    reintroduce superlinear per-edge behaviour at paper-scale batches.  The
    reference trajectory is ~0.8x (per-edge cost *falls* with batch size);
    best-of-3 timings and a 4x allowance keep a noisy CI machine from
    flaking the tier-1 suite while still catching an O(m²) regression,
    which shows up as ~100x.
    """
    graph, sparsifier, hierarchy, level = batch_setup
    per_edge = {}
    for size in (1000, 100_000):
        stream = mixed_edges(graph, size, long_range_fraction=0.5, seed=9)
        best = float("inf")
        for _ in range(3):
            elapsed, _, _ = _timed_update(sparsifier, hierarchy, stream, CONFIG, level)
            best = min(best, elapsed)
        per_edge[size] = best / size
    assert per_edge[100_000] < 4.0 * per_edge[1000], per_edge
