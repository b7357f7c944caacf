"""inGRASS setup phase (Algorithm 1, steps 1-3).

The setup phase is a one-time investment on the initial sparsifier ``H(0)``:

1. estimate the effective resistances of the sparsifier's edges with a
   scalable embedding (Krylov surrogate or Johnson–Lindenstrauss solves);
2. run the multilevel LRD decomposition, assigning every node an
   ``O(log N)``-dimensional vector of cluster indices;
3. materialise the multilevel sparse data structure (the cluster hierarchy
   plus the cluster-pair connectivity used by the similarity filter).

Its cost is ``O(N log N)`` and is amortised over arbitrarily many update
iterations, which is the core economics the paper's Table I/Figure 4 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import InGrassConfig
from repro.core.hierarchy import ClusterHierarchy
from repro.core.lrd import lrd_decompose
from repro.graphs.components import is_connected
from repro.graphs.graph import Graph
from repro.utils.timing import Timer


@dataclass
class SetupResult:
    """Artifacts of the setup phase consumed by every subsequent update.

    The hierarchy *is* the paper's node embedding: row ``i`` of
    :meth:`~repro.core.hierarchy.ClusterHierarchy.embedding_matrix` holds
    node ``i``'s cluster index per level, and the hierarchy answers the
    resistance-bound queries the update phase scores edges with.
    """

    hierarchy: ClusterHierarchy
    setup_seconds: float


def run_setup(sparsifier: Graph, config: Optional[InGrassConfig] = None) -> SetupResult:
    """Execute the inGRASS setup phase on the initial sparsifier ``H(0)``.

    Parameters
    ----------
    sparsifier:
        The initial sparsifier.  It must be connected: a disconnected
        sparsifier has unbounded condition number and the resistance
        embedding would be meaningless.
    config:
        Full inGRASS configuration; only its ``lrd`` sub-config is used here.
    """
    config = config if config is not None else InGrassConfig()
    if sparsifier.num_nodes == 0:
        raise ValueError("cannot set up inGRASS on an empty sparsifier")
    if sparsifier.num_nodes > 1 and not is_connected(sparsifier):
        raise ValueError("the initial sparsifier must be connected")
    timer = Timer().start()
    hierarchy = lrd_decompose(sparsifier, config.lrd)
    timer.stop()
    return SetupResult(hierarchy=hierarchy, setup_seconds=timer.elapsed)
