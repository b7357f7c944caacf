"""Laplacian and related matrix constructions.

Most algorithms in the library operate on scipy CSR matrices built from a
:class:`repro.graphs.Graph`.  This module gathers the matrix builders plus the
grounding transformation that the spectral solvers and condition-number
routines rely on.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph


def adjacency_matrix(graph: Graph) -> sp.csr_matrix:
    """Return the symmetric weighted adjacency matrix of ``graph``."""
    return graph.adjacency_matrix()


def laplacian_matrix(graph: Graph) -> sp.csr_matrix:
    """Return the combinatorial Laplacian ``L = D - A`` of ``graph``."""
    return graph.laplacian_matrix()


def laplacian_from_edges(
    num_nodes: int,
    us: Sequence[int],
    vs: Sequence[int],
    weights: Sequence[float],
) -> sp.csr_matrix:
    """Build a Laplacian directly from edge arrays without a :class:`Graph`.

    Repeated edges simply accumulate, matching the parallel-conductor
    convention used by :class:`Graph`.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if not (us.shape == vs.shape == weights.shape):
        raise ValueError("us, vs and weights must have the same length")
    rows = np.concatenate([us, vs, us, vs])
    cols = np.concatenate([vs, us, us, vs])
    vals = np.concatenate([-weights, -weights, weights, weights])
    return sp.csr_matrix((vals, (rows, cols)), shape=(num_nodes, num_nodes))


def grounded_laplacian(
    laplacian: sp.spmatrix, ground: int = 0
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Remove row/column ``ground`` from a Laplacian.

    Grounding one node of a connected graph turns the singular Laplacian into
    a symmetric positive-definite matrix; the second return value maps reduced
    indices back to the original node numbering.
    """
    n = laplacian.shape[0]
    if n == 0:
        raise ValueError("cannot ground an empty Laplacian")
    if ground < 0 or ground >= n:
        raise ValueError(f"ground node {ground} out of range for size {n}")
    keep = np.array([i for i in range(n) if i != ground], dtype=np.int64)
    reduced = sp.csr_matrix(laplacian)[keep][:, keep]
    return reduced.tocsr(), keep


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
