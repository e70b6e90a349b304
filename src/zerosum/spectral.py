"""Eigen-structure computations tied to games: Perron root/vector of a
positive matrix, null spaces, stochastic vectors inside eigenspaces, and
Gordan's theorem of alternatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    GameMatrix,
    InputError,
    InvalidMatrixError,
    MixedStrategy,
    Player,
    check_tolerance,
    normalized_strategy,
)
from .lp import FEAS_TOL_DEFAULT, LinearProgram, LPSolution, LPStatus, solve_lp

PERRON_RESIDUAL_TOL = 1e-10
RANK_TOL_DEFAULT = 1e-9
GORDAN_WITNESS_TOL = 1e-9
# Absolute slack on the row-sum bracket: the bracket is an exact statement
# about the true root, and the estimate differs from it by mere roundoff.
BRACKET_ROUNDOFF = 1e-12


class ConvergenceError(RuntimeError):
    """A computed Perron pair failed its certificate; pathological input."""


class InconsistentAlternativesError(RuntimeError):
    """A Gordan witness failed its certificate on A; tolerances are off."""


@dataclass(frozen=True)
class SpectralCert:
    """Certified Perron pair of a strictly positive matrix: positive root,
    positive stochastic vector, and the infinity-norm residual of
    A v - root v, at most PERRON_RESIDUAL_TOL."""

    perron_root: float
    perron_vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the null space of a matrix: right singular vectors, each
    scaled to unit infinity norm, so orthogonal but signed arbitrarily."""

    dimension: int
    basis_vectors: tuple[np.ndarray, ...]


class GordanBranch(enum.Enum):
    NONNEGATIVE_KERNEL = "NonnegativeKernel"
    POSITIVE_IMAGE = "PositiveImage"


@dataclass(frozen=True)
class GordanVerdict:
    branch: GordanBranch
    witness: np.ndarray


def perron(A: GameMatrix) -> SpectralCert:
    """Dominant eigenpair of a strictly positive square matrix.

    The vector is the eigenvector of np.linalg.eig's eigenvalue with the
    largest real part, made positive and refined by one step v <- A v with
    L1 renormalization.  The root is the component-sum ratio sum(A v)/sum(v),
    which is robust when individual components are small.  Raises
    ConvergenceError rather than returning a pair whose vector is not
    positive, whose residual exceeds PERRON_RESIDUAL_TOL, or whose root
    escapes the row-sum bracket.
    """
    if not A.is_square:
        raise InvalidMatrixError(f"perron requires a square matrix, got {A.rows}x{A.cols}")
    V = A.values
    if V.min() <= 0.0:
        raise InputError("perron requires strictly positive entries")
    eigenvalues, eigenvectors = np.linalg.eig(V)
    v = np.abs(eigenvectors[:, int(np.argmax(eigenvalues.real))].real)
    v = V @ (v / v.sum())
    v /= v.sum()
    Av = V @ v
    root = float(Av.sum() / v.sum())
    residual = float(np.max(np.abs(Av - root * v)))
    if not (v.min() > 0.0 and residual <= PERRON_RESIDUAL_TOL):
        raise ConvergenceError(
            f"Perron pair fails its certificate: min(v) = {v.min():g}, "
            f"residual {residual:g} (tol {PERRON_RESIDUAL_TOL:g})"
        )
    row_sums = V.sum(axis=1)
    if not (row_sums.min() - BRACKET_ROUNDOFF <= root <= row_sums.max() + BRACKET_ROUNDOFF):
        raise ConvergenceError(
            f"estimated root {root!r} escapes the row-sum bracket "
            f"[{row_sums.min()!r}, {row_sums.max()!r}]"
        )
    v.setflags(write=False)
    return SpectralCert(perron_root=root, perron_vector=v, residual=residual)


def null_space(A: GameMatrix, rank_tol: float = RANK_TOL_DEFAULT) -> KernelBasis:
    """Kernel basis of a square matrix from one singular value decomposition.

    The rank is the number of singular values above rank_tol times the
    largest absolute entry; the right singular vectors of the remaining
    singular values span the kernel, each normalized to unit infinity norm.
    `rank_tol` must be finite and positive (InputError otherwise).
    """
    check_tolerance(rank_tol, "rank_tol")
    if not A.is_square:
        raise InvalidMatrixError(
            f"null_space requires a square matrix, got {A.rows}x{A.cols}"
        )
    _, sigma, vt = np.linalg.svd(A.values)
    rank = int(np.count_nonzero(sigma > rank_tol * float(np.abs(A.values).max())))
    basis = []
    for vec in vt[rank:]:
        vec = vec / np.max(np.abs(vec))
        vec.setflags(write=False)
        basis.append(vec)
    return KernelBasis(dimension=len(basis), basis_vectors=tuple(basis))


def _stochastic_kernel(M: np.ndarray, feas_tol: float) -> LPSolution:
    """Solve [M; 1^T] z = e_{m+1}, z >= 0: a stochastic z with M z = 0."""
    m, n = M.shape
    E = np.concatenate([M, np.ones((1, n))])
    f = np.zeros(m + 1)
    f[m] = 1.0
    return solve_lp(LinearProgram(np.zeros(n), eq_lhs=E, eq_rhs=f), feas_tol=feas_tol)


def stochastic_eigenvector(
    A: GameMatrix,
    eigenvalue: float,
    player: Player = Player.COL,
    feas_tol: float = FEAS_TOL_DEFAULT,
) -> MixedStrategy | None:
    """A stochastic vector y with (A - eigenvalue*I) y = 0, or None.

    Decided by LP feasibility: (A - lambda I) y = 0, sum y = 1, y >= 0.  No
    eigenvalue search is performed; the caller supplies lambda.
    """
    if not A.is_square:
        raise InvalidMatrixError(
            f"stochastic_eigenvector requires a square matrix, got {A.rows}x{A.cols}"
        )
    sol = _stochastic_kernel(A.values - eigenvalue * np.eye(A.rows), feas_tol)
    if sol.status is not LPStatus.OPTIMAL:
        return None
    return normalized_strategy(sol.point, player)


def gordan(A: GameMatrix, feas_tol: float = FEAS_TOL_DEFAULT) -> GordanVerdict:
    """Decide which Gordan alternative holds for A and return its witness.

    One LP decides: [A; 1^T] x = e_{m+1}, x >= 0.  Branch 1, when it is
    feasible: A x = 0 has a nonzero nonnegative solution, the stochastic x.
    Branch 2, when it is infeasible: its Farkas multipliers w satisfy
    A^T w[:m] >= -w[m] > 0, so y = w[:m] solves A^T y > 0; y is certified on
    A and scaled so that min(A^T y) = 1.  A witness that fails its
    certificate raises InconsistentAlternativesError.
    """
    V = A.values
    kernel = _stochastic_kernel(V, feas_tol)
    if kernel.status is LPStatus.OPTIMAL:
        x = normalized_strategy(kernel.point, Player.COL).weights
        if float(np.max(np.abs(V @ x))) > GORDAN_WITNESS_TOL:
            raise InconsistentAlternativesError(
                "kernel witness fails ||A x||_inf <= 1e-9 after cleanup"
            )
        return GordanVerdict(branch=GordanBranch.NONNEGATIVE_KERNEL, witness=x)
    y = kernel.farkas[: V.shape[0]]
    floor = float((V.T @ y).min())
    if not floor > 0.0:
        raise InconsistentAlternativesError(
            f"Farkas witness fails A^T y > 0: min(A^T y) = {floor:g}"
        )
    y = y / floor
    y.setflags(write=False)
    return GordanVerdict(branch=GordanBranch.POSITIVE_IMAGE, witness=y)
