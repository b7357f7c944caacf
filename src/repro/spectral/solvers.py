"""Laplacian linear-system solvers.

A connected graph's Laplacian is symmetric positive semi-definite with a
one-dimensional null space spanned by the constant vector.  Solving
``L x = b`` for ``b`` orthogonal to the null space is the workhorse behind
exact effective resistances, the condition-number estimator and the
preconditioned-CG example.  Two solver families are provided:

* :class:`GroundedSolver` — direct factorisation of the Laplacian with one
  node grounded (removed).  Exact, best for small/medium graphs and repeated
  solves against the same matrix.
* :func:`conjugate_gradient` / :class:`PCGSolver` — matrix-free CG with an
  optional preconditioner, used to demonstrate sparsifier-preconditioned
  solves (the downstream application motivating GRASS-style sparsifiers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian


def project_out_constant(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` with its mean removed (orthogonal to the ones vector)."""
    vector = np.asarray(vector, dtype=float)
    return vector - vector.mean()


#: Absolute diagonal shift of every grounded factorisation.  It guards
#: against numerically singular reductions when the graph is *nearly*
#: disconnected, and being the same for every solver, resistances, PCG and κ
#: all see one matrix per graph.
DIAGONAL_SHIFT = 1e-12


def _shifted_csc(reduced: sp.csr_matrix, shift: float) -> sp.csc_matrix:
    """``reduced + shift * I`` in CSC form, bit for bit what adding a scaled
    identity gives: each stored diagonal entry becomes ``d + shift`` (in
    place, as every row of a connected graph's grounded Laplacian has one),
    a missing one ``shift``."""
    shifted = reduced.copy()
    shifted.setdiag(reduced.diagonal() + shift)
    return shifted.tocsc()


class GroundedSolver:
    """Direct solver for ``L x = b`` on a connected graph via grounding.

    Row and column 0 are removed, the reduced SPD system is factorised once
    with ``splu``, and solutions are re-expanded with the grounded entry set
    to zero before being re-centred to have zero mean — i.e. the solver
    returns the minimum-norm (pseudo-inverse) solution.

    The reduced system is SPD, so SuperLU runs in symmetric mode: a minimum
    degree ordering of ``A + Aᵀ`` and no pivoting.  On the ``g2_circuit``
    medium graph that roughly halves the fill of the default COLAMD ordering
    with partial pivoting (262k → 142k entries).  This is the package's only
    ``splu`` call; the condition-number code factors through it too.
    """

    def __init__(self, laplacian: sp.spmatrix) -> None:
        laplacian = sp.csr_matrix(laplacian)
        self._n = laplacian.shape[0]
        if self._n < 2:
            raise ValueError("GroundedSolver requires at least two nodes")
        reduced, keep = grounded_laplacian(laplacian)
        self._keep = keep
        self._reduced = reduced
        self._lu = spla.splu(_shifted_csc(reduced, DIAGONAL_SHIFT),
                             permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._n)

    @property
    def reduced(self) -> sp.csr_matrix:
        """The grounded (SPD) Laplacian this solver factored, without the shift."""
        return self._reduced

    def solve_reduced(self, b: np.ndarray) -> np.ndarray:
        """Solve the grounded system for a right-hand side in reduced coordinates."""
        return self._lu.solve(np.asarray(b, dtype=float))

    @classmethod
    def from_graph(cls, graph: Graph) -> "GroundedSolver":
        """Build a solver from a :class:`Graph`'s edge arrays
        (:meth:`~repro.graphs.graph.Graph.laplacian_matrix`)."""
        return cls(graph.laplacian_matrix())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return the zero-mean solution of ``L x = b``.

        ``b`` is first projected onto the range of ``L`` (mean removed), so
        callers may pass any right-hand side.
        """
        b = project_out_constant(np.asarray(b, dtype=float))
        if b.shape[0] != self._n:
            raise ValueError(f"right-hand side has length {b.shape[0]}, expected {self._n}")
        x = np.zeros(self._n)
        x[self._keep] = self._lu.solve(b[self._keep])
        return project_out_constant(x)

    def solve_many(self, b_matrix: np.ndarray) -> np.ndarray:
        """Solve for every column of ``b_matrix``; returns a matrix of solutions."""
        b_matrix = np.asarray(b_matrix, dtype=float)
        if b_matrix.ndim == 1:
            return self.solve(b_matrix)
        return np.column_stack([self.solve(b_matrix[:, j]) for j in range(b_matrix.shape[1])])

    def as_linear_operator(self) -> spla.LinearOperator:
        """Expose the pseudo-inverse action as a scipy ``LinearOperator``."""
        return spla.LinearOperator(self.shape, matvec=self.solve, dtype=float)


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def conjugate_gradient(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    *,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-8,
    max_iterations: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    project_constant: bool = True,
) -> SolveReport:
    """Preconditioned conjugate gradient for SPSD systems.

    Parameters
    ----------
    matvec:
        Function applying the system matrix.
    b:
        Right-hand side.
    preconditioner:
        Function applying an approximation of the inverse (e.g. a sparsifier
        Laplacian solve).  ``None`` means un-preconditioned CG.
    tol:
        Relative residual tolerance ``||r|| <= tol * ||b||``.
    max_iterations:
        Iteration cap (default ``10 * n``).
    project_constant:
        Keep iterates orthogonal to the all-ones vector (required when the
        matrix is a Laplacian).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if project_constant:
        b = project_out_constant(b)
    if max_iterations is None:
        max_iterations = 10 * n
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if project_constant:
        x = project_out_constant(x)
    r = b - matvec(x)
    if project_constant:
        r = project_out_constant(r)
    z = preconditioner(r) if preconditioner is not None else r
    if project_constant:
        z = project_out_constant(z)
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveReport(solution=x, iterations=0, residual_norm=0.0, converged=True)
    iterations = 0
    residual_norm = float(np.linalg.norm(r))
    while iterations < max_iterations and residual_norm > tol * b_norm:
        ap = matvec(p)
        if project_constant:
            ap = project_out_constant(ap)
        denom = float(p @ ap)
        if denom <= 0.0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        residual_norm = float(np.linalg.norm(r))
        z = preconditioner(r) if preconditioner is not None else r
        if project_constant:
            z = project_out_constant(z)
        rz_next = float(r @ z)
        beta = rz_next / rz if rz != 0.0 else 0.0
        p = z + beta * p
        rz = rz_next
        iterations += 1
    converged = residual_norm <= tol * b_norm
    return SolveReport(solution=x, iterations=iterations, residual_norm=residual_norm, converged=converged)


class PCGSolver:
    """Preconditioned CG solver for a graph Laplacian.

    The preconditioner is another graph (typically a sparsifier) whose
    Laplacian is factorised once via :class:`GroundedSolver`.  Comparing
    iteration counts with and without the sparsifier preconditioner is the
    classic downstream use of spectral sparsification in circuit simulation.
    """

    def __init__(self, graph: Graph, preconditioner_graph: Optional[Graph] = None,
                 *, tol: float = 1e-8, max_iterations: Optional[int] = None) -> None:
        self._laplacian = graph.laplacian_matrix()
        self._tol = tol
        self._max_iterations = max_iterations
        self._preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None
        if preconditioner_graph is not None:
            solver = GroundedSolver.from_graph(preconditioner_graph)
            self._preconditioner = solver.solve

    def solve(self, b: np.ndarray) -> SolveReport:
        """Solve ``L x = b`` and report iterations/residual."""
        return conjugate_gradient(
            lambda x: self._laplacian @ x,
            b,
            preconditioner=self._preconditioner,
            tol=self._tol,
            max_iterations=self._max_iterations,
        )


def jacobi_preconditioner(laplacian: sp.spmatrix, eps: float = 1e-12) -> Callable[[np.ndarray], np.ndarray]:
    """Return a diagonal (Jacobi) preconditioner callable for ``laplacian``."""
    diag = np.asarray(sp.csr_matrix(laplacian).diagonal(), dtype=float)
    inv_diag = np.where(diag > eps, 1.0 / np.maximum(diag, eps), 0.0)

    def apply(vector: np.ndarray) -> np.ndarray:
        return inv_diag * np.asarray(vector, dtype=float)

    return apply
