"""Relative condition number ``κ(L_G, L_H)`` between a graph and its sparsifier.

The paper's quality metric is the relative condition number of the pencil
``(L_G, L_H)``: the ratio of the largest to the smallest non-trivial
generalized eigenvalue of ``L_G u = λ L_H u``.  A sparsifier with small κ is
spectrally similar to the original graph (equation (1) of the paper with
``ε ≈ sqrt(κ)``), and κ directly bounds the iteration count of a
sparsifier-preconditioned CG solve.

Both Laplacians are singular (their null space is the constant vector), so the
pencil is reduced by grounding node 0, which leaves exactly the non-trivial
eigenvalues.  Two computation paths are provided:

* a **dense** path (``scipy.linalg.eigh`` on the reduced pencil) — exact, used
  for graphs up to a few thousand nodes and inside tests;
* a **Lanczos** path for larger graphs: ARPACK in generalized mode on each
  side of the pencil, the other side's grounded Laplacian factored once
  through :class:`~repro.spectral.solvers.GroundedSolver`.

A :class:`SpectralContext` carries the Lanczos path's state from one estimate
to the next — see its docstring.  :func:`condition_estimate`,
:func:`relative_condition_number` and :func:`dominant_generalized_eigenvector`
are thin wrappers over a context; called without one they start cold.  Every
ARPACK run is seeded, so an estimate is a pure function of its inputs and of
the context's history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian
from repro.spectral.eigen import arpack_rng, seeded_eigsh
from repro.spectral.solvers import GroundedSolver

EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class ConditionEstimate:
    """Result of a condition-number computation."""

    lambda_max: float
    lambda_min: float
    method: str

    @property
    def condition_number(self) -> float:
        """κ = λ_max / λ_min (infinite when λ_min is numerically zero)."""
        if self.lambda_min <= 0:
            return float("inf")
        return self.lambda_max / self.lambda_min


#: Default node count up to which κ is computed by the exact dense path.
DENSE_LIMIT_DEFAULT = 1500
#: Largest node count the dense fallback takes on once Lanczos failed from a
#: cold start; above it the failure raises :class:`SpectralSolveError`.
DENSE_FALLBACK_LIMIT = 2000
#: Krylov subspace size of a warm-started Lanczos run.  At ARPACK's default
#: size (20) a warm start saves little over a cold one.
WARM_NCV = 6
#: Norm of the seeded random component blended into a warm start, relative
#: to the unit previous eigenvector.  Started from the bare previous vector,
#: ARPACK can return the *previous* dominant mode after another one overtook
#: it, underestimating κ.  Every extra percent costs iterations: on the
#: churn gate's λ_min side a warm run took 10 solves bare, 20 at 1% and 33
#: at 10%.
WARM_BLEND = 0.01


class SpectralSolveError(RuntimeError):
    """Lanczos failed on a pencil too large for the dense fallback."""

    def __init__(self, num_nodes: int, side: str, info: str) -> None:
        super().__init__(f"Lanczos failed on the {side} side of an n={num_nodes} pencil ({info}); "
                         f"the dense fallback is capped at n={DENSE_FALLBACK_LIMIT}")
        self.num_nodes = num_nodes
        self.side = side
        self.info = info


def _check_pair(graph: Graph, sparsifier: Graph) -> None:
    if graph.num_nodes != sparsifier.num_nodes:
        raise ValueError("graph and sparsifier must share the same node set")
    if graph.num_nodes < 2:
        raise ValueError("condition number needs at least two nodes")


def _use_dense(num_nodes: int, dense_limit: int) -> bool:
    # eigsh needs k = 1 below the reduced size n - 1.
    return num_nodes <= max(dense_limit, 2)


def _reduced_pencil(graph: Graph, sparsifier: Graph) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """Return the grounded (SPD) pencil matrices ``(A, B)`` for ``(L_G, L_H)``."""
    reduced_g, _ = grounded_laplacian(graph.laplacian_matrix())
    reduced_h, _ = grounded_laplacian(sparsifier.laplacian_matrix())
    return reduced_g, reduced_h


def _dense_pencil(a: sp.spmatrix, b: sp.spmatrix, *, vectors: bool):
    """Dense generalized eigenvalues (ascending), with eigenvectors if asked."""
    a = a.toarray()
    b = b.toarray()
    # Symmetrise to wash out round-off asymmetry before LAPACK.
    a = 0.5 * (a + a.T)
    b = 0.5 * (b + b.T)
    return scipy.linalg.eigh(a, b, eigvals_only=not vectors)


def _dense_extreme_eigenvalues(reduced_g: sp.csr_matrix, reduced_h: sp.csr_matrix) -> Tuple[float, float]:
    """Dense generalized eigenvalues of the reduced pencil (exact path)."""
    eigenvalues = np.asarray(_dense_pencil(reduced_g, reduced_h, vectors=False), dtype=float)
    positive = eigenvalues[eigenvalues > 0]
    if positive.size == 0:
        raise RuntimeError("no positive generalized eigenvalues found")
    return float(positive.max()), float(positive.min())


def _full_unit_vector(reduced_vector: np.ndarray) -> np.ndarray:
    """Re-expand a reduced vector (ground node 0 carries 0), unit Euclidean norm."""
    full = np.zeros(reduced_vector.shape[0] + 1)
    full[1:] = reduced_vector
    norm = float(np.linalg.norm(full))
    if norm > 0:
        full /= norm
    return full


def _factor_graph(side: str, graph: Graph) -> GroundedSolver:
    return GroundedSolver.from_graph(graph)


class _Dominant(NamedTuple):
    """The λ_max eigenpair of one pair of graph versions."""

    graph_arrays: EdgeArrays
    sparsifier_arrays: EdgeArrays
    value: float
    #: Indexed by node id, ground node 0 carries 0, unit Euclidean norm.
    vector: np.ndarray
    method: str


class SpectralContext:
    """State of the Lanczos path of one pencil ``(L_G, L_H)`` across estimates.

    * **One factorisation per graph version.**  Each grounded Laplacian is
      factored once through ``factor(side, graph)`` (``side`` is ``"graph"``
      or ``"sparsifier"``; default :meth:`GroundedSolver.from_graph`, which
      grounds node 0), keyed on the identity of the graph's cached
      :meth:`~repro.graphs.graph.Graph.edge_arrays` tuple — a mutation
      replaces that tuple.  The sparsifier's factor lives for one estimate,
      because the κ guard changes ``H`` before the next one; the graph's
      lives until :meth:`release`.
    * **Warm starts.**  Each side's Lanczos run starts from that side's last
      eigenvector blended with a seeded random component
      (:data:`WARM_BLEND`), in a :data:`WARM_NCV`-vector Krylov space.  These
      two vectors are all that survives :meth:`release`.
    * **No second eigensolve.**  The λ_max eigenvector of the last estimate
      is kept, so :meth:`dominant_eigenvector` on the same graph versions
      returns it without solving again.

    A failed warm run is retried once from a cold seeded start at ARPACK's
    default Krylov size.  If that fails too, the side is solved densely up to
    :data:`DENSE_FALLBACK_LIMIT` nodes, and :class:`SpectralSolveError` is
    raised above it.  Not thread-safe: give each writer and each reader its
    own context.
    """

    def __init__(self, factor: Optional[Callable[[str, Graph], GroundedSolver]] = None) -> None:
        self._factor = factor if factor is not None else _factor_graph
        self._factors: Dict[str, Tuple[EdgeArrays, GroundedSolver]] = {}
        #: Last eigenvector (reduced coordinates) of each side: ``"max"`` is
        #: ``L_G x = λ L_H x``, ``"min"`` the swapped pencil (largest = 1/λ_min).
        self._vectors: Dict[str, np.ndarray] = {}
        self._dominant: Optional[_Dominant] = None

    def release(self) -> None:
        """Drop every factorisation; the warm-start vectors stay."""
        self._factors.clear()

    def estimate(self, graph: Graph, sparsifier: Graph, *, dense_limit: int = DENSE_LIMIT_DEFAULT,
                 tol: float = 1e-6, maxiter: Optional[int] = None) -> ConditionEstimate:
        """λ_max, λ_min and κ of the pencil ``(L_G, L_H)``."""
        _check_pair(graph, sparsifier)
        if _use_dense(graph.num_nodes, dense_limit):
            lambda_max, lambda_min = _dense_extreme_eigenvalues(*_reduced_pencil(graph, sparsifier))
            return ConditionEstimate(lambda_max=lambda_max, lambda_min=lambda_min, method="dense")
        try:
            dominant = self._dominant_pair(graph, sparsifier, tol, maxiter)
            # Largest eigenvalue of the swapped pencil = 1 / smallest of the original.
            swapped_max, _, min_method = self._largest(
                "min", self._solver("sparsifier", sparsifier), self._solver("graph", graph),
                tol, maxiter)
        finally:
            self._factors.pop("sparsifier", None)
        lambda_min = 1.0 / swapped_max if swapped_max > 0 else 0.0
        method = "lanczos" if dominant.method == min_method == "lanczos" else "dense-fallback"
        return ConditionEstimate(lambda_max=dominant.value, lambda_min=lambda_min, method=method)

    def dominant_eigenvector(self, graph: Graph, sparsifier: Graph, *,
                             dense_limit: int = DENSE_LIMIT_DEFAULT, tol: float = 1e-6,
                             maxiter: Optional[int] = None) -> Tuple[float, np.ndarray]:
        """``(λ_max, x)``; reuses the last estimate's eigenvector when the
        graph versions match (see :func:`dominant_generalized_eigenvector`)."""
        _check_pair(graph, sparsifier)
        if _use_dense(graph.num_nodes, dense_limit):
            eigenvalues, eigenvectors = _dense_pencil(*_reduced_pencil(graph, sparsifier), vectors=True)
            return float(eigenvalues[-1]), _full_unit_vector(np.asarray(eigenvectors[:, -1], dtype=float))
        try:
            dominant = self._dominant_pair(graph, sparsifier, tol, maxiter)
        finally:
            self._factors.pop("sparsifier", None)
        return dominant.value, dominant.vector.copy()

    def _dominant_pair(self, graph: Graph, sparsifier: Graph, tol: float,
                       maxiter: Optional[int]) -> _Dominant:
        """The λ_max eigenpair of the current graph versions, solved once per pair."""
        graph_arrays, sparsifier_arrays = graph.edge_arrays(), sparsifier.edge_arrays()
        cached = self._dominant
        if (cached is None or cached.graph_arrays is not graph_arrays
                or cached.sparsifier_arrays is not sparsifier_arrays):
            value, vector, method = self._largest(
                "max", self._solver("graph", graph), self._solver("sparsifier", sparsifier),
                tol, maxiter)
            cached = self._dominant = _Dominant(graph_arrays, sparsifier_arrays, value,
                                                _full_unit_vector(vector), method)
        return cached

    def _solver(self, side: str, graph: Graph) -> GroundedSolver:
        arrays = graph.edge_arrays()
        cached = self._factors.get(side)
        if cached is None or cached[0] is not arrays:
            cached = self._factors[side] = (arrays, self._factor(side, graph))
        return cached[1]

    def _largest(self, side: str, a_solver: GroundedSolver, b_solver: GroundedSolver,
                 tol: float, maxiter: Optional[int]) -> Tuple[float, np.ndarray, str]:
        """Largest eigenpair of ``A x = θ B x`` on the grounded matrices."""
        a, b = a_solver.reduced, b_solver.reduced
        size = a.shape[0]
        b_inverse = spla.LinearOperator((size, size), matvec=b_solver.solve_reduced, dtype=float)
        starts = [(None, None)]
        previous = self._vectors.get(side)
        if previous is not None and previous.shape[0] == size:
            noise = arpack_rng().uniform(-1.0, 1.0, size)
            blended = previous / np.linalg.norm(previous) + WARM_BLEND * noise / np.linalg.norm(noise)
            starts.insert(0, (blended, min(WARM_NCV, size)))
        failure: Optional[Exception] = None
        for v0, ncv in starts:
            try:
                values, vectors = seeded_eigsh(a, M=b, Minv=b_inverse, k=1, which="LM", v0=v0,
                                               ncv=ncv, tol=tol, maxiter=maxiter)
            except spla.ArpackError as exc:  # ArpackNoConvergence included
                failure = exc
                continue
            self._vectors[side] = vectors[:, 0].copy()
            return float(values[0]), vectors[:, 0], "lanczos"
        if size + 1 > DENSE_FALLBACK_LIMIT:
            raise SpectralSolveError(size + 1, side, str(failure)) from failure
        eigenvalues, eigenvectors = _dense_pencil(a, b, vectors=True)
        # A copy: a view would keep eigh's whole (n-1)² matrix alive.
        self._vectors[side] = eigenvectors[:, -1].copy()
        return float(eigenvalues[-1]), eigenvectors[:, -1], "dense-fallback"


def condition_estimate(graph: Graph, sparsifier: Graph, *, dense_limit: int = DENSE_LIMIT_DEFAULT,
                       tol: float = 1e-6, maxiter: Optional[int] = None,
                       context: Optional[SpectralContext] = None) -> ConditionEstimate:
    """Estimate λ_max, λ_min and κ of the pencil ``(L_G, L_H)``.

    Parameters
    ----------
    graph, sparsifier:
        Graphs on the same node set; the sparsifier must be connected.
    dense_limit:
        Node-count threshold below which the exact dense path is used.
    tol, maxiter:
        Lanczos parameters for the iterative path.
    context:
        Spectral state to reuse and update (factorisations, warm starts);
        ``None`` starts cold.
    """
    context = context if context is not None else SpectralContext()
    return context.estimate(graph, sparsifier, dense_limit=dense_limit, tol=tol, maxiter=maxiter)


def dominant_generalized_eigenvector(graph: Graph, sparsifier: Graph, *,
                                     dense_limit: int = DENSE_LIMIT_DEFAULT,
                                     tol: float = 1e-6,
                                     maxiter: Optional[int] = None,
                                     context: Optional[SpectralContext] = None) -> Tuple[float, np.ndarray]:
    """Return ``(λ_max, x)`` for the pencil ``L_G x = λ L_H x``.

    The eigenvector of the largest generalized eigenvalue is the mode the
    sparsifier supports *worst*: by first-order perturbation, adding a graph
    edge ``(p, q, w)`` to ``H`` reduces λ_max proportionally to
    ``w · (x_p - x_q)²``.  The fully dynamic κ guard uses exactly that score
    to pick surgical replacement edges after deletions instead of trusting
    the (post-removal, possibly stale) LRD distortion estimates.  With a
    ``context`` whose last estimate saw the same graph versions, nothing is
    solved.

    The returned vector is indexed by original node ids (the grounded node
    carries 0) and normalised to unit Euclidean norm.
    """
    context = context if context is not None else SpectralContext()
    return context.dominant_eigenvector(graph, sparsifier, dense_limit=dense_limit, tol=tol,
                                        maxiter=maxiter)


def relative_condition_number(graph: Graph, sparsifier: Graph, *, dense_limit: int = DENSE_LIMIT_DEFAULT,
                              tol: float = 1e-6, maxiter: Optional[int] = None,
                              context: Optional[SpectralContext] = None) -> float:
    """Return κ(L_G, L_H) — the headline quality metric of the paper's tables."""
    return condition_estimate(graph, sparsifier, dense_limit=dense_limit, tol=tol, maxiter=maxiter,
                              context=context).condition_number
