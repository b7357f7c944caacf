"""Structural validation helpers for graphs and sparsifiers."""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.graphs.components import is_connected
from repro.graphs.graph import Graph, coerce_edge_triple_arrays


class GraphValidationError(ValueError):
    """Raised when a graph fails a structural requirement."""


def validate_sparsifier_support(graph: Graph, sparsifier: Graph, allow_new_edges: bool = True) -> None:
    """Check that ``sparsifier`` is a valid sparsifier candidate for ``graph``.

    The node sets must match and the sparsifier must be connected (a
    disconnected sparsifier has an unbounded relative condition number).
    When ``allow_new_edges`` is ``False``, every sparsifier edge must also
    exist in the original graph.
    """
    if graph.num_nodes != sparsifier.num_nodes:
        raise GraphValidationError(
            f"node count mismatch: graph has {graph.num_nodes}, sparsifier has {sparsifier.num_nodes}"
        )
    if sparsifier.num_nodes and not is_connected(sparsifier):
        raise GraphValidationError("sparsifier must be connected")
    if not allow_new_edges:
        missing = [edge for edge in sparsifier.edges() if not graph.has_edge(*edge)]
        if missing:
            raise GraphValidationError(
                f"sparsifier contains {len(missing)} edges absent from the graph, e.g. {missing[:3]}"
            )


def validate_new_edge_arrays(graph: Graph,
                             new_edges: Iterable[Tuple[int, int, float]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-native :func:`validate_new_edges`: one numpy pass over the batch.

    Returns parallel ``(us, vs, ws)`` arrays of the cleaned batch —
    canonically oriented, deduplicated (weights of within-batch parallel
    edges summed, first-occurrence order preserved) — without any per-edge
    Python validation chain.  The per-edge rules are shared with
    :meth:`Graph.add_edges` via
    :func:`repro.graphs.graph.coerce_edge_triple_arrays`.
    """
    lo, hi, ws = coerce_edge_triple_arrays(new_edges, graph.num_nodes,
                                           error_cls=GraphValidationError)
    if lo.size == 0:
        return lo, hi, ws
    keys = lo * np.int64(graph.num_nodes) + hi
    unique_keys, first_index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if unique_keys.shape[0] == keys.shape[0]:
        return lo, hi, ws
    # Parallel edges within the batch: sum their weights onto the first
    # occurrence, keeping first-occurrence order (what the scalar dict did).
    order = np.argsort(first_index, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    summed = np.bincount(rank[inverse], weights=ws, minlength=order.shape[0])
    kept = first_index[order]
    return lo[kept], hi[kept], summed


def validate_new_edges(graph: Graph, new_edges: Iterable[Tuple[int, int, float]]) -> List[Tuple[int, int, float]]:
    """Validate a batch of candidate edge insertions.

    Returns the cleaned list.  Endpoints must be valid distinct nodes and
    weights must be positive; duplicate edges within the batch are merged by
    summing weights (parallel conductors).
    """
    us, vs, ws = validate_new_edge_arrays(graph, new_edges)
    return list(zip(us.tolist(), vs.tolist(), ws.tolist()))


def canonicalize_edge_pairs(pairs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Canonicalize ``(u, v[, ...])`` items into sorted pairs, collapsing duplicates.

    Extra tuple elements (e.g. weights) are ignored; self-loops are rejected.
    Shared by deletion validation here and by the removal path in
    :mod:`repro.core.update` so the normalization semantics stay identical.
    """
    cleaned: dict[tuple[int, int], None] = {}
    for item in pairs:
        u, v = int(item[0]), int(item[1])
        if u == v:
            raise GraphValidationError(f"self-loop removal ({u}, {v}) is not allowed")
        cleaned[(u, v) if u < v else (v, u)] = None
    return list(cleaned.keys())


def validate_removals(graph: Graph, removals: Iterable[Tuple[int, int]], *,
                      missing: str = "error") -> List[Tuple[int, int]]:
    """Validate a batch of candidate edge deletions against ``graph``.

    Accepts ``(u, v)`` pairs or ``(u, v, weight)`` triples (the weight is
    ignored — a deletion removes the whole edge).  Returns the cleaned list of
    canonical pairs with duplicates collapsed.

    Parameters
    ----------
    missing:
        Policy for edges absent from ``graph``: ``"error"`` raises,
        ``"skip"`` silently drops them from the returned list.
    """
    if missing not in ("error", "skip"):
        raise ValueError(f"unknown missing policy {missing!r}")
    cleaned: List[Tuple[int, int]] = []
    for u, v in canonicalize_edge_pairs(removals):
        if u < 0 or v < 0 or u >= graph.num_nodes or v >= graph.num_nodes:
            raise GraphValidationError(f"removal ({u}, {v}) references a node outside the graph")
        if not graph.has_edge(u, v):
            if missing == "error":
                raise GraphValidationError(f"cannot remove edge ({u}, {v}): not present in the graph")
            continue
        cleaned.append((u, v))
    return cleaned


def removals_keep_connected(graph: Graph, removals: Iterable[Tuple[int, int]]) -> bool:
    """Return ``True`` when deleting ``removals`` leaves ``graph`` connected.

    Runs one vectorised component sweep over the surviving edges without
    mutating ``graph``; the incremental driver uses it as a pre-flight check
    so a disconnecting deletion batch is rejected before any state changes.
    The removed pairs are masked out of the cached edge arrays with one
    ``isin`` pass, so the cost is a few numpy passes over ``E`` rather than
    ``E`` Python-level union-find calls per deletion batch.
    """
    from repro.graphs.components import connected_components_arrays

    if graph.num_nodes == 0:
        return True
    removed = canonicalize_edge_pairs(removals)
    us, vs, _ = graph.edge_arrays()
    if removed:
        n = np.int64(graph.num_nodes)
        keys = us * n + vs
        removed_keys = np.fromiter((u * int(n) + v for u, v in removed),
                                   dtype=np.int64, count=len(removed))
        survivors = ~np.isin(keys, removed_keys)
        us, vs = us[survivors], vs[survivors]
    labels = connected_components_arrays(graph.num_nodes, us, vs)
    return labels.size == 0 or int(labels.max()) == 0


def assert_positive_weights(graph: Graph) -> None:
    """Raise when any edge weight is non-positive or non-finite."""
    for u, v, w in graph.weighted_edges():
        if not np.isfinite(w) or w <= 0:
            raise GraphValidationError(f"edge ({u}, {v}) has invalid weight {w}")
