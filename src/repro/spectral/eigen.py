"""Laplacian eigenvalue/eigenvector utilities.

Thin wrappers around dense and sparse symmetric eigensolvers, with the
grounding/projection details needed for singular Laplacians handled once here
instead of in every caller.
"""

from __future__ import annotations

import inspect
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import Graph

#: Seed of every ARPACK start vector in ``repro.spectral``, so no eigensolve
#: reads OS entropy and reruns reproduce bit for bit.
ARPACK_SEED = 0
#: Newer SciPy releases give ``eigsh`` an ``rng`` keyword, which also draws
#: the vectors ARPACK asks for on a restart; older ones have no such keyword
#: and restart from ARPACK's own fixed-seed generator.
_EIGSH_TAKES_RNG = "rng" in inspect.signature(spla.eigsh).parameters


def arpack_rng() -> np.random.Generator:
    """A fresh generator seeded by :data:`ARPACK_SEED`."""
    return np.random.default_rng(ARPACK_SEED)


def seeded_eigsh(a: sp.spmatrix, *, v0: Optional[np.ndarray] = None, **kwargs):
    """:func:`scipy.sparse.linalg.eigsh` with a seeded start.

    A cold start (``v0=None``) draws its start vector from :func:`arpack_rng`
    instead of letting ARPACK draw one from OS entropy.  Where ``eigsh`` takes
    ``rng``, it gets the same generator for its restarts.
    """
    rng = arpack_rng()
    if v0 is None:
        v0 = rng.uniform(-1.0, 1.0, a.shape[0])
    if _EIGSH_TAKES_RNG:
        kwargs["rng"] = rng
    return spla.eigsh(a, v0=v0, **kwargs)


def dense_laplacian_spectrum(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Full eigen-decomposition of the Laplacian (small graphs only).

    Returns ``(eigenvalues, eigenvectors)`` sorted ascending; the first
    eigenvalue is ~0 with the constant eigenvector.
    """
    laplacian = graph.laplacian_matrix().toarray()
    laplacian = 0.5 * (laplacian + laplacian.T)
    eigenvalues, eigenvectors = scipy.linalg.eigh(laplacian)
    return eigenvalues, eigenvectors


def smallest_nonzero_eigenvalues(graph: Graph, k: int = 2, *, dense_limit: int = 2000,
                                 tol: float = 1e-8) -> np.ndarray:
    """Return the ``k`` smallest non-zero Laplacian eigenvalues.

    The algebraic connectivity (Fiedler value) is ``result[0]``.
    """
    n = graph.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes")
    k = min(k, n - 1)
    if n <= dense_limit:
        eigenvalues, _ = dense_laplacian_spectrum(graph)
        nonzero = eigenvalues[np.abs(eigenvalues) > max(tol, 1e-9 * max(eigenvalues.max(), 1.0))]
        nonzero = np.sort(nonzero)
        if nonzero.size < k:
            # Pad defensively; callers treat the result as approximate anyway.
            nonzero = np.concatenate([nonzero, np.full(k - nonzero.size, nonzero[-1] if nonzero.size else 0.0)])
        return nonzero[:k]
    laplacian = graph.laplacian_matrix()
    # Shift-invert around sigma=0 targets the small end of the spectrum; ask
    # for one extra eigenvalue to discard the zero mode.
    values = seeded_eigsh(laplacian + 1e-10 * sp.identity(n), k=k + 1, sigma=0, which="LM",
                          return_eigenvectors=False, tol=tol)
    values = np.sort(np.asarray(values, dtype=float))
    return values[1:k + 1]
