"""Laplacian and related matrix constructions.

:func:`laplacian_from_edges` is the package's one Laplacian builder:
:meth:`repro.graphs.Graph.laplacian_matrix`, a snapshot's PCG matvec and every
:class:`~repro.spectral.solvers.GroundedSolver` factorisation go through it,
straight from a graph's edge arrays.  :func:`grounded_laplacian` is the
grounding step the solvers and the condition-number routines apply to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - typing only (graph.py imports this module)
    from repro.graphs.graph import Graph


def adjacency_matrix(graph: "Graph") -> sp.csr_matrix:
    """Return the symmetric weighted adjacency matrix of ``graph``."""
    return graph.adjacency_matrix()


def laplacian_matrix(graph: "Graph") -> sp.csr_matrix:
    """Return the combinatorial Laplacian ``L = D - A`` of ``graph``."""
    return graph.laplacian_matrix()


def laplacian_from_edges(
    num_nodes: int,
    us: Sequence[int],
    vs: Sequence[int],
    weights: Sequence[float],
) -> sp.csr_matrix:
    """Build the Laplacian ``L = D - A`` in CSR form directly from edge arrays.

    The floats are fixed by construction: ``A`` is the canonical CSR of both
    orientations of every edge, each degree is the row sum scipy computes on
    that CSR (in column order), and ``L`` is assembled from ``-A``'s entries
    plus the non-zero degrees without further arithmetic.  So ``L`` holds
    exactly ``-w`` off the diagonal and ``deg`` on it, with sorted indices —
    the same bits as ``diags(deg) - A``.  Repeated edges accumulate, matching
    the parallel-conductor convention used by :class:`Graph`.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if not (us.shape == vs.shape == weights.shape):
        raise ValueError("us, vs and weights must have the same length")
    shape = (num_nodes, num_nodes)
    adjacency = sp.csr_matrix((np.concatenate([weights, weights]),
                               (np.concatenate([us, vs]), np.concatenate([vs, us]))), shape=shape)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    rows = np.repeat(np.arange(num_nodes), np.diff(adjacency.indptr))
    loaded = np.flatnonzero(degrees)
    return sp.csr_matrix((np.concatenate([-adjacency.data, degrees[loaded]]),
                          (np.concatenate([rows, loaded]),
                           np.concatenate([adjacency.indices, loaded]))), shape=shape)


def grounded_laplacian(
    laplacian: sp.spmatrix, ground: int = 0
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Remove row/column 0 from a Laplacian.

    Grounding one node of a connected graph turns the singular Laplacian into
    a symmetric positive-definite matrix; the second return value maps reduced
    indices back to the original node numbering.  Every solver grounds node
    0, so ``ground`` must be 0; the reduction is a ``[1:, 1:]`` slice.
    """
    n = laplacian.shape[0]
    if n == 0:
        raise ValueError("cannot ground an empty Laplacian")
    if ground != 0:
        raise ValueError(f"only node 0 can be grounded, got {ground}")
    return sp.csr_matrix(laplacian)[1:, 1:], np.arange(1, n, dtype=np.int64)


def is_laplacian(matrix: sp.spmatrix, tol: float = 1e-9) -> bool:
    """Check whether ``matrix`` looks like a combinatorial Laplacian.

    The test verifies symmetry, non-positive off-diagonal entries and (near)
    zero row sums.
    """
    matrix = sp.csr_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        return False
    asymmetry = abs(matrix - matrix.T)
    if asymmetry.nnz and asymmetry.max() > tol:
        return False
    coo = matrix.tocoo()
    off_diagonal = coo.data[coo.row != coo.col]
    if off_diagonal.size and np.any(off_diagonal > tol):
        return False
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    return bool(np.all(np.abs(row_sums) <= tol * max(1.0, abs(matrix).max())))
