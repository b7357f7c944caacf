"""Batch-scaling checks for the grouped batch filter of the update path.

Runs :func:`repro.core.run_update` with the grouped batch filter
(``vectorized``, the update path's engine) and with the per-edge reference
filter (``scalar``) at batch sizes from 10² to 10⁵ edges.  Both must leave
an *identical* sparsifier edge set at every size, and the grouped filter
must stay several times faster per edge on a large batch, without its
per-edge cost growing with the batch.  The two timing checks have wide
margins: they catch complexity blow-ups, which perfbench's small batches
cannot see.  Timing verdicts come from ``python -m repro bench compare``.

Timing suspends the cyclic garbage collector (as :mod:`timeit` does): the
update path allocates one decision record per edge, and GC pauses at 10⁵
objects would otherwise dominate the signal being measured.
"""

from __future__ import annotations

import copy
import gc
import time
from typing import Sequence

import pytest

from repro.core import (
    HierarchyMaintainer,
    InGrassConfig,
    LRDConfig,
    SimilarityFilter,
    run_setup,
    run_update,
)
from repro.core.hierarchy import ClusterHierarchy
from repro.graphs import Graph
from repro.sparsify import GrassConfig, GrassSparsifier
from repro.streams import mixed_edges

#: Target condition number handed to filtering-level selection; the cost per
#: edge is insensitive to the exact value, it only has to be fixed.
TARGET_CONDITION = 64.0

CONFIG = InGrassConfig(lrd=LRDConfig(seed=0), seed=0)


class _ReferenceFilter(SimilarityFilter):
    """Routes :func:`run_update`'s filter stage through the per-edge reference."""

    def apply_batch(self, batch):
        return self.apply(batch)


class _NoMerges:
    """A maintainer that fuses nothing.  It isolates the batch insertion
    engine: a real maintainer would add the same cluster merges to both
    filters' timings and dilute their difference."""

    def note_insertions(self, edges, *, similarity_filter) -> int:
        return 0


def _timed_update(sparsifier: Graph, hierarchy: ClusterHierarchy, stream: Sequence,
                  filtering_level: int, *, reference: bool = False, merges: bool = True,
                  ) -> tuple[float, Graph, object]:
    """One run_update call on a fresh sparsifier copy; returns (seconds, H, result).

    ``reference`` swaps the grouped batch filter for the per-edge reference
    loop.  With ``merges`` a maintainer fuses clusters after the batch, as
    the driver's does, and the timing includes those merges; without, the
    timing covers validation, scoring and the filter.  Merges mutate the
    hierarchy in place, so it is deep-copied first: repeated timings, and the
    filters being compared, start from identical state.
    """
    hierarchy = copy.deepcopy(hierarchy)
    working = sparsifier.copy()
    filter_class = _ReferenceFilter if reference else SimilarityFilter
    similarity_filter = filter_class(working, hierarchy, filtering_level)
    maintainer = (HierarchyMaintainer(hierarchy, working, lrd_config=CONFIG.lrd)
                  if merges else _NoMerges())
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_update(working, stream, CONFIG,
                            similarity_filter=similarity_filter, maintainer=maintainer)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed, working, result


@pytest.fixture(scope="module")
def batch_setup(request):
    """(graph, initial sparsifier, LRD hierarchy, filtering level) on the primary case."""
    primary_graph = request.getfixturevalue("primary_graph")
    grass = GrassSparsifier(GrassConfig(target_offtree_density=0.10,
                                        tree_method="shortest_path", seed=0))
    sparsifier = grass.sparsify(primary_graph, evaluate_condition=False).sparsifier
    hierarchy = run_setup(sparsifier.copy(), CONFIG).hierarchy
    level = hierarchy.filtering_level_for_condition(TARGET_CONDITION, CONFIG.filtering_size_divisor)
    return primary_graph, sparsifier, hierarchy, level


@pytest.mark.smoke
@pytest.mark.parametrize("mode", ["scalar", "vectorized"])
def test_update_batch_2000(batch_setup, mode):
    """One 2000-edge update batch under each filter (CI smoke subset)."""
    graph, sparsifier, hierarchy, level = batch_setup
    stream = mixed_edges(graph, 2000, long_range_fraction=0.5, seed=5)
    _, working, result = _timed_update(sparsifier, hierarchy, stream, level,
                                       reference=mode == "scalar")
    assert result.summary.total == len(stream)
    assert working.num_edges >= sparsifier.num_edges


@pytest.mark.parametrize("size", [100, 1000, 10_000, 100_000])
def test_filters_leave_identical_edge_sets(batch_setup, size):
    """Both filters leave the same sparsifier edge set at every batch size.

    Each size streams its own half long-range, half locality-biased batch
    (stream seed = size) into a fresh copy of the initial sparsifier.
    """
    graph, sparsifier, hierarchy, level = batch_setup
    stream = mixed_edges(graph, size, long_range_fraction=0.5, seed=size)
    scalar, vectorized = (
        set(_timed_update(sparsifier, hierarchy, stream, level, reference=reference,
                          merges=False)[1].edges())
        for reference in (True, False))
    assert scalar == vectorized


@pytest.mark.smoke
def test_vectorized_beats_scalar_on_large_batch(batch_setup):
    """The acceptance property at the 10⁴-edge batch size.

    The grouped filter read about 3.8x the per-edge reference's speed at
    10⁴ edges on a 2-CPU host; the bound here is 2x so a loaded CI machine
    cannot flake the tier-1 suite.
    """
    graph, sparsifier, hierarchy, level = batch_setup
    stream = mixed_edges(graph, 10_000, long_range_fraction=0.5, seed=7)
    seconds = {}
    edge_sets = {}
    for mode in ("scalar", "vectorized"):
        best = float("inf")
        for _ in range(2):
            elapsed, working, _ = _timed_update(sparsifier, hierarchy, stream, level,
                                                reference=mode == "scalar", merges=False)
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
            elapsed, _, _ = _timed_update(sparsifier, hierarchy, stream, level)
            best = min(best, elapsed)
        per_edge[size] = best / size
    assert per_edge[100_000] < 4.0 * per_edge[1000], per_edge
