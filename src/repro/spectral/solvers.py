"""Laplacian linear-system solvers.

A connected graph's Laplacian is symmetric positive semi-definite with a
one-dimensional null space spanned by the constant vector.  Solving
``L x = b`` for ``b`` orthogonal to the null space is the workhorse behind
exact effective resistances, the condition-number estimator and the
preconditioned-CG example.  Three solver families are provided:

* :class:`GroundedSolver` — direct factorisation of the Laplacian with one
  node grounded (removed).  Exact, best for small/medium graphs and repeated
  solves against the same matrix.
* :class:`SolverLineage` — the solvers of one graph's successive versions:
  one kept :class:`GroundedSolver` base, and for a version a few edges away
  from it a :class:`CorrectedSolver`, a low-rank (Woodbury) correction of
  that base instead of a new factorisation.
* :func:`conjugate_gradient` / :class:`PCGSolver` — matrix-free CG with an
  optional preconditioner, used to demonstrate sparsifier-preconditioned
  solves (the downstream application motivating GRASS-style sparsifiers).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import FrozenGraph, Graph
from repro.graphs.laplacian import grounded_laplacian, laplacian_from_edges


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


def _edge_delta(keys: np.ndarray, weights: np.ndarray, after: EdgeArrays,
                num_nodes: int) -> EdgeArrays:
    """``(p, q, Δw)`` of every edge whose weight differs between a base
    version, given as its edge keys ``p·n + q`` in ascending order with their
    weights, and the edge arrays ``after``, an absent edge weighing 0, in
    ascending key order.  ``Δw`` is ``w_after - w_base`` to the bit."""
    after_keys = after[0] * num_nodes + after[1]
    slot = np.searchsorted(keys, after_keys)
    shared = slot < keys.size
    shared[shared] = keys[slot[shared]] == after_keys[shared]
    change = after[2].copy()
    change[shared] -= weights[slot[shared]]
    gone = np.ones(keys.size, dtype=bool)
    gone[slot[shared]] = False
    all_keys = np.concatenate([after_keys, keys[gone]])
    all_change = np.concatenate([change, -weights[gone]])
    changed = np.flatnonzero(all_change)
    order = np.argsort(all_keys[changed])
    changed_keys = all_keys[changed][order]
    return changed_keys // num_nodes, changed_keys % num_nodes, all_change[changed][order]


class _GroundedSystem:
    """Full-coordinate solves of ``L x = b`` on top of a subclass's
    ``solve_reduced``, the solve of the system grounded at node 0."""

    _n: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return the zero-mean solution of ``L x = b``.

        ``b`` is first projected onto the range of ``L`` (mean removed), so
        callers may pass any right-hand side.
        """
        b = project_out_constant(np.asarray(b, dtype=float))
        if b.shape[0] != self._n:
            raise ValueError(f"right-hand side has length {b.shape[0]}, expected {self._n}")
        x = np.zeros(self._n)
        x[1:] = self.solve_reduced(b[1:])
        return project_out_constant(x)


class GroundedSolver(_GroundedSystem):
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
        self._reduced, _ = grounded_laplacian(laplacian)
        self._lu = spla.splu(_shifted_csc(self._reduced, DIAGONAL_SHIFT),
                             permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})

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


class CorrectedSolver(_GroundedSystem):
    """Solver of a graph version's grounded system from the factorisation of
    a version a few edges away; built by :meth:`SolverLineage.solver`.

    With ``A₀`` the shifted grounded Laplacian the base :class:`GroundedSolver`
    factored, the current version's is ``A = A₀ + U diag(Δw) Uᵀ``, ``U``
    holding the changed edges' grounded incidence vectors.
    Sherman–Morrison–Woodbury gives ``A⁻¹b = y - Z S⁻¹(Uᵀy)`` with
    ``y = A₀⁻¹b``, ``Z = A₀⁻¹U`` and the capacitance ``S = diag(1/Δw) + UᵀZ``:
    the system a fresh factorisation of the current version would solve, for
    one base solve and a rank-``k`` product per right-hand side.  ``S⁻¹`` is
    kept as a ``k × k`` matrix, so a build costs no ``O(n k²)`` product.  It
    never writes to its base, so any number of threads and versions share
    one.  :attr:`reduced` is assembled only when asked for: an eigensolve
    needs the matrix, a read only solves.
    """

    def __init__(self, base: GroundedSolver, arrays: EdgeArrays, p: np.ndarray,
                 q: np.ndarray, columns: np.ndarray, capacitance_inverse: np.ndarray) -> None:
        self._n = base.shape[0]
        self._base = base
        self._arrays = arrays
        self._p = p
        self._q = q
        self._columns = columns
        self._capacitance_inverse = capacitance_inverse
        self._reduced: Optional[sp.csr_matrix] = None

    @property
    def reduced(self) -> sp.csr_matrix:
        """The current version's grounded Laplacian, without the shift."""
        if self._reduced is None:
            self._reduced, _ = grounded_laplacian(laplacian_from_edges(self._n, *self._arrays))
        return self._reduced

    def solve_reduced(self, b: np.ndarray) -> np.ndarray:
        """Solve the current version's grounded system (reduced coordinates)."""
        y = self._base.solve_reduced(b)
        padded = np.concatenate(([0.0], y))
        return y - self._columns @ (self._capacitance_inverse @ (padded[self._p] - padded[self._q]))


#: What an eigensolve or a read needs of a graph version's solver.
Solver = Union[GroundedSolver, CorrectedSolver]


class SolverLineage:
    """The solvers of one graph's successive versions, sharing one base
    factorisation.

    It holds a *base version* of the graph (its edge arrays), its
    :class:`GroundedSolver`, factored when first needed, and the solved
    columns ``A₀⁻¹u_e`` of the edges later versions changed.
    :meth:`solver` answers a version with

    * the base itself, when the version has the base's edges and weights;
    * a :class:`CorrectedSolver` of the base, when at most
      :data:`CORRECTION_RANK_CAP` edges changed and the correction's
      capacitance is conditioned within :data:`CAPACITANCE_CONDITION_LIMIT`;
    * otherwise a factorisation of the version, which becomes the new base,
      the old one dropped first (solvers handed out earlier keep theirs).

    :meth:`advance` moves the base along a stream of versions without
    factoring anything: past the cap, the version becomes the base, to be
    factored on first use.  A writer that advances the lineage with every
    version it makes ties the base versions, and so the answers, to its
    stream instead of to the versions readers happen to ask for; only a
    version past the cap of the base, or an ill-conditioned correction,
    still makes a reader's version the base.

    Thread-safe: one lock guards the base and the columns, and the solvers
    handed out never write to either.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._num_nodes = 0
        self._arrays: Optional[EdgeArrays] = None
        #: The base version's edge keys ``p·n + q``, ascending, and their weights.
        self._keys = np.zeros(0, dtype=np.int64)
        self._weights = np.zeros(0)
        self._base: Optional[GroundedSolver] = None
        #: Edge key -> its column ``A₀⁻¹u_e``.
        self._columns: Dict[int, np.ndarray] = {}

    def advance(self, graph: Graph) -> None:
        """Make ``graph``'s version the base when it is past the cap of the
        current base (or there is none), without factoring it."""
        arrays = graph.edge_arrays()
        with self._lock:
            delta = self._delta(graph.num_nodes, arrays)
            if delta is None or delta[0].size > CORRECTION_RANK_CAP:
                self._rebase(graph.num_nodes, arrays)

    def solver(self, graph: Graph) -> Solver:
        """The solver of ``graph``'s current version (see the class docstring)."""
        arrays = graph.edge_arrays()
        with self._lock:
            delta = self._delta(graph.num_nodes, arrays)
            if delta is not None and delta[0].size <= CORRECTION_RANK_CAP:
                solver = self._correct(arrays, *delta)
                if solver is not None:
                    return solver
            self._rebase(graph.num_nodes, arrays)
            return self._factored()

    def _delta(self, num_nodes: int, arrays: EdgeArrays) -> Optional[EdgeArrays]:
        """The edges ``arrays`` changed since the base; ``None`` without one."""
        if self._arrays is None or num_nodes != self._num_nodes:
            return None
        if arrays is self._arrays:
            return self._keys[:0], self._keys[:0], self._weights[:0]
        return _edge_delta(self._keys, self._weights, arrays, num_nodes)

    def _rebase(self, num_nodes: int, arrays: EdgeArrays) -> None:
        # The old factor goes first: the lineage never holds two.
        self._base = None
        self._columns = {}
        self._num_nodes, self._arrays = num_nodes, arrays
        keys = arrays[0] * num_nodes + arrays[1]
        order = np.argsort(keys)
        self._keys, self._weights = keys[order], arrays[2][order]

    def _factored(self) -> GroundedSolver:
        if self._base is None:
            assert self._arrays is not None
            self._base = GroundedSolver.from_graph(
                FrozenGraph.from_arrays(self._num_nodes, *self._arrays))
        return self._base

    def _correct(self, arrays: EdgeArrays, p: np.ndarray, q: np.ndarray,
                 delta: np.ndarray) -> Optional[Solver]:
        """The base, or its correction for the changed edges ``(p, q, Δw)``;
        ``None`` when the capacitance is too ill-conditioned."""
        base = self._factored()
        if not p.size:
            return base
        n = self._num_nodes
        keys = (p * n + q).tolist()
        for key, p_node, q_node in zip(keys, p.tolist(), q.tolist()):
            if key not in self._columns:
                # u_e = e_p - e_q without the ground's entry.
                rhs = np.zeros(n - 1)
                if p_node:
                    rhs[p_node - 1] = 1.0
                rhs[q_node - 1] = -1.0
                self._columns[key] = base.solve_reduced(rhs)
        # Column-major: a product with the matrix reads each column once.
        columns = np.array([self._columns[key] for key in keys]).reshape(-1, n - 1).T
        if len(self._columns) > CORRECTION_RANK_CAP:
            # Bounded: never more than twice the cap of columns are kept.
            self._columns = dict(zip(keys, columns.T))
        # Row i of the padded matrix is node i's entry (the ground's is 0).
        padded = np.vstack([np.zeros((1, p.size)), columns])
        capacitance = np.diag(1.0 / delta) + (padded[p] - padded[q])
        if np.linalg.cond(capacitance) > CAPACITANCE_CONDITION_LIMIT:
            return None
        return CorrectedSolver(base, arrays, p, q, columns, np.linalg.inv(capacitance))


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
