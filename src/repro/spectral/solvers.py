"""Laplacian linear-system solvers.

A connected graph's Laplacian is symmetric positive semi-definite with a
one-dimensional null space spanned by the constant vector.  Solving
``L x = b`` for ``b`` orthogonal to the null space is the workhorse behind
exact effective resistances, the condition-number estimator and the
preconditioned-CG example.  Three solver families are provided:

* :class:`GroundedSolver` — direct factorisation of the Laplacian with one
  node grounded (removed).  Exact, best for small/medium graphs and repeated
  solves against the same matrix.
* :class:`CorrectedSolver` — a graph a few edges away from one a
  :class:`GroundedSolver` factored, solved by a low-rank (Woodbury)
  correction of that factorisation instead of a new one.
* :func:`conjugate_gradient` / :class:`PCGSolver` — matrix-free CG with an
  optional preconditioner, used to demonstrate sparsifier-preconditioned
  solves (the downstream application motivating GRASS-style sparsifiers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import Graph
from repro.graphs.laplacian import grounded_laplacian


def project_out_constant(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` with its mean removed (orthogonal to the ones vector)."""
    vector = np.asarray(vector, dtype=float)
    return vector - vector.mean()


EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

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


#: Most changed edges a :class:`CorrectedSolver` corrects its base for; past
#: it the base is factored again, which bounds the kept columns and each
#: solve's extra ``O(n·k)`` work.
CORRECTION_RANK_CAP = 32
#: Largest condition number of a correction's capacitance matrix; past it the
#: correction could lose digits a fresh factorisation keeps.
CAPACITANCE_CONDITION_LIMIT = 1e8


def _edge_delta(before: EdgeArrays, after: EdgeArrays, num_nodes: int) -> EdgeArrays:
    """``(p, q, Δw)`` of every edge whose weight differs between two graphs'
    edge arrays, an absent edge weighing 0, in ascending key order
    ``p·n + q``.  ``Δw`` is ``w_after - w_before`` to the bit."""
    keys = np.concatenate([before[0] * num_nodes + before[1], after[0] * num_nodes + after[1]])
    unique, inverse = np.unique(keys, return_inverse=True)
    change = np.bincount(inverse, weights=np.concatenate([-before[2], after[2]]),
                         minlength=unique.size)
    changed = np.flatnonzero(change)
    return unique[changed] // num_nodes, unique[changed] % num_nodes, change[changed]


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
        #: Edge key ``p·n + q`` -> its column of :meth:`edge_columns`.
        self._columns: Dict[int, np.ndarray] = {}

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

    def edge_columns(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``A⁻¹u_e`` for each edge ``e = (p, q)``, ``p < q``, as the columns of
        one matrix.

        ``A`` is the shifted grounded matrix this solver factored and ``u_e``
        the edge's grounded incidence vector: ``e_p - e_q`` without the ground
        node's entry, so a single entry for an edge at node 0.  A column is
        solved once and kept as long as each call asks for its edge again.
        """
        kept, self._columns = self._columns, {}
        for p_node, q_node in zip(p.tolist(), q.tolist()):
            key = p_node * self._n + q_node
            column = kept.get(key)
            if column is None:
                rhs = np.zeros(self._n - 1)
                if p_node:
                    rhs[p_node - 1] = 1.0
                rhs[q_node - 1] = -1.0
                column = self._lu.solve(rhs)
            self._columns[key] = column
        # Column-major: a product with the matrix reads each column once.
        return np.array(list(self._columns.values())).reshape(-1, self._n - 1).T

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


class CorrectedSolver:
    """Solver of a graph's grounded system from the factorisation of a graph a
    few edges away.

    With ``A₀`` the shifted grounded Laplacian the base :class:`GroundedSolver`
    factored, the current graph's is ``A = A₀ + U diag(Δw) Uᵀ``, ``U`` holding
    the changed edges' grounded incidence vectors.  Sherman–Morrison–Woodbury
    gives ``A⁻¹b = y - Z S⁻¹(Uᵀy)`` with ``y = A₀⁻¹b``, ``Z = A₀⁻¹U``
    (:meth:`GroundedSolver.edge_columns`) and the capacitance
    ``S = diag(1/Δw) + UᵀZ``: the system a fresh factorisation of the
    current graph would solve, for one base solve and a rank-``k`` product
    per right-hand side.  ``S⁻¹`` is kept as a ``k × k`` matrix, so a build
    costs no ``O(n k²)`` product.  It offers the reduced-coordinate
    interface the condition-number code uses; :attr:`reduced` is the current
    graph's grounded Laplacian.
    """

    def __init__(self, base: GroundedSolver, reduced: sp.csr_matrix, p: np.ndarray,
                 q: np.ndarray, columns: np.ndarray, capacitance_inverse: np.ndarray) -> None:
        self._base = base
        self._reduced = reduced
        self._p = p
        self._q = q
        self._columns = columns
        self._capacitance_inverse = capacitance_inverse

    @classmethod
    def build(cls, base: GroundedSolver, base_arrays: EdgeArrays,
              graph: Graph) -> Optional["CorrectedSolver"]:
        """``graph``'s solver as a correction of ``base``, which factored the
        graph of ``base_arrays``; ``None`` when more than
        :data:`CORRECTION_RANK_CAP` edges changed or the capacitance's
        condition number exceeds :data:`CAPACITANCE_CONDITION_LIMIT`."""
        num_nodes = graph.num_nodes
        if base.shape[0] != num_nodes:
            return None
        p, q, delta = _edge_delta(base_arrays, graph.edge_arrays(), num_nodes)
        if p.size > CORRECTION_RANK_CAP:
            return None
        columns = base.edge_columns(p, q)
        # Row i of the padded matrix is node i's entry (the ground's is 0).
        padded = np.vstack([np.zeros((1, p.size)), columns])
        capacitance = np.diag(1.0 / delta) + (padded[p] - padded[q])
        if p.size and np.linalg.cond(capacitance) > CAPACITANCE_CONDITION_LIMIT:
            return None
        reduced, _ = grounded_laplacian(graph.laplacian_matrix())
        return cls(base, reduced, p, q, columns, np.linalg.inv(capacitance))

    @property
    def reduced(self) -> sp.csr_matrix:
        """The current graph's grounded Laplacian, without the shift."""
        return self._reduced

    def solve_reduced(self, b: np.ndarray) -> np.ndarray:
        """Solve the current graph's grounded system (reduced coordinates)."""
        y = self._base.solve_reduced(b)
        padded = np.concatenate(([0.0], y))
        return y - self._columns @ (self._capacitance_inverse @ (padded[self._p] - padded[self._q]))


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
