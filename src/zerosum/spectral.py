"""Eigen-structure computations tied to games: Perron pairs of positive
matrices, null spaces, and the stochastic kernel question behind
eigenvectors and Gordan's alternatives.

That question, is there a stochastic z with M z = 0 or else a y with
M^T y > 0, is answered from one SVD of a square M whose kernel has
dimension 0 or 1: a nonsingular M, or a kernel line with both signs, by a
y certified on M with a roundoff margin; a one-signed kernel line by its
stochastic vector, once it passes the LP's own feasibility test.  Every
other M, a kernel of dimension 2 or more above all, builds one LP.  The
answer is the z or the y itself, whichever way it was found.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GameMatrix,
    InputError,
    InvalidMatrixError,
    MixedStrategy,
    Player,
    check_finite,
    normalized_strategy,
)
from .lp import FEAS_TOL, LinearProgram, LPStatus, solve_lp

PERRON_RESIDUAL_TOL = 1e-10
RANK_TOL = 1e-9
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
    A v - root v, at most PERRON_RESIDUAL_TOL.  The vector comes from the
    number of squarings of A / max A that Birkhoff's contraction bound
    proves enough for 2^-52 relative accuracy in exact arithmetic: about
    log2 R + 6 for R = max A / min A, 0 when R = 1, and 2103 at worst
    (5e-324 beside the largest float)."""

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

    The vector starts as the row sums of P^(2^k), P = A / max A, reached
    by k squarings: `_squarings`' count, the least that Birkhoff's
    contraction bound proves enough for those row sums to match the
    Perron vector to 2^-52, about log2 R + 6 for R = max A / min A (2103
    at worst).  Each square is divided by its largest entry, so nothing
    overflows.  While R <= 2^200 its corner entry serves as well and costs
    no reduction: the entries of P^N (N >= 2) lie within a factor R^2 of
    each other, so their products lie within [2^-800, 2^800].  One step
    v <- A v with L1 renormalization refines the row sums.  The root is
    the component-sum ratio sum(A v)/sum(v), which is robust when
    individual components are small.  Raises ConvergenceError rather than
    returning a pair whose vector is not positive, whose residual exceeds
    PERRON_RESIDUAL_TOL, or whose root escapes the row-sum bracket; a
    product that leaves the float range ends there too.
    """
    if not A.is_square:
        raise InvalidMatrixError(f"perron requires a square matrix, got {A.rows}x{A.cols}")
    V = A.values
    smallest = np.minimum.reduce(V, axis=None)
    if smallest <= 0.0:
        raise InputError("perron requires strictly positive entries")
    largest = np.maximum.reduce(V, axis=None)
    # An underflow to 0 or an overflow to inf becomes a NaN or an inf,
    # which the certificate refuses.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        P = V / largest
        corner = largest <= smallest * 2.0**200
        for _ in range(_squarings(float(smallest), float(largest))):
            P = P @ P
            P /= P[0, 0] if corner else np.maximum.reduce(P, axis=None)
        v = np.add.reduce(P, axis=1)
        v = V @ (v / np.add.reduce(v))
        v /= np.add.reduce(v)
        Av = V @ v
        root = float(np.add.reduce(Av) / np.add.reduce(v))
        residual = float(np.maximum.reduce(np.abs(Av - root * v)))
        row_sums = np.add.reduce(V, axis=1)
    lowest = np.minimum.reduce(v)
    if not (lowest > 0.0 and residual <= PERRON_RESIDUAL_TOL):
        raise ConvergenceError(
            f"Perron pair fails its certificate: min(v) = {lowest:g}, "
            f"residual {residual:g} (tol {PERRON_RESIDUAL_TOL:g})"
        )
    low, high = np.minimum.reduce(row_sums), np.maximum.reduce(row_sums)
    if not (low - BRACKET_ROUNDOFF <= root <= high + BRACKET_ROUNDOFF):
        raise ConvergenceError(
            f"estimated root {root!r} escapes the row-sum bracket "
            f"[{low!r}, {high!r}]"
        )
    v.setflags(write=False)
    return SpectralCert(perron_root=root, perron_vector=v, residual=residual)


def _squarings(low: float, high: float) -> int:
    """The least k with tau^(2^k) ln R <= 2^-52, for R = high / low and
    tau = (R - 1)/(R + 1); 0 when R = 1.

    For a positive A whose entries lie in [low, high], tau bounds
    Birkhoff's contraction coefficient of A in Hilbert's projective metric
    d (Seneta, Non-negative Matrices and Markov Chains, 2nd ed., 3.4), and
    the Perron vector v has d(1, v) <= ln R, since v_i / v_j =
    (A v)_i / (A v)_j <= R.  So the row sums P^N 1 of N = 2^k powers of
    P = A / high lie within tau^N ln R <= 2^-52 of v, which bounds their
    relative error, in exact arithmetic.  -ln tau = 2 atanh(1/R), so k is
    about log2 R + 6: 6 for entries in {1, 2, 3}, 15 at R = 1e3, 25 at
    R = 1e6, and at most 2103, for 5e-324 beside the largest float.
    """
    log_r = math.log(high) - math.log(low)  # finite where high / low overflows
    if 2.0**52 * log_r <= 1.0:
        return 0
    ratio = low / high
    # atanh(x) rounds to x below 2^-26, where ratio may also be subnormal.
    if ratio > 2.0**-26:
        log2_rate = math.log2(2.0 * math.atanh(ratio))
    else:
        log2_rate = 1.0 + math.log2(low) - math.log2(high)
    return max(0, math.ceil(math.log2(math.log(2.0**52 * log_r)) - log2_rate))


def null_space(A: GameMatrix) -> KernelBasis:
    """Kernel basis of a square matrix from one singular value decomposition.

    The rank is the number of singular values above RANK_TOL times the
    largest absolute entry; the right singular vectors of the remaining
    singular values span the kernel, each normalized to unit infinity norm.
    """
    if not A.is_square:
        raise InvalidMatrixError(
            f"null_space requires a square matrix, got {A.rows}x{A.cols}"
        )
    _, _, vt, rank, _ = _svd(A.values)
    basis = []
    for vec in vt[rank:]:
        vec = vec / np.max(np.abs(vec))
        vec.setflags(write=False)
        basis.append(vec)
    return KernelBasis(dimension=len(basis), basis_vectors=tuple(basis))


def _svd(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """u, sigma, vt of V, its rank above RANK_TOL * a, and a = max |V_ij|."""
    u, sigma, vt = np.linalg.svd(V)
    a = float(np.maximum.reduce(np.abs(V), axis=None))
    return u, sigma, vt, int(np.count_nonzero(sigma > RANK_TOL * a)), a


def _sign_sums(k: np.ndarray) -> tuple[float, float]:
    """S+, the sum of k's positive entries, and S-, minus the sum of the
    others, each correctly rounded (`math.fsum`: Shewchuk, Discrete Comput.
    Geom. 18, 1997)."""
    values = k.tolist()
    return (
        math.fsum([v for v in values if v > 0.0]),
        -math.fsum([v for v in values if not v > 0.0]),
    )


def _stochastic_kernel(
    M: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """Is there a stochastic z with M z = 0, or else a y with M^T y > 0?
    (z, None, 0.0) names such a z; (None, y, floor) names a y, with
    floor = min(M^T y) computed on M, so y is a witness exactly when
    floor > 0.  M must be finite (the callers' guarantee for
    `LinearProgram`).

    A square M whose kernel has dimension 0 or 1 (`_svd` rank n or n - 1)
    is answered from that one SVD, M = U S V^T:
      - rank n: y = U S^-1 V^T 1 solves M^T y = 1 > 0;
      - rank n - 1, kernel line k with both signs: b = S- on k > 0, S+
        elsewhere (`_sign_sums`, each correctly rounded) is positive with
        k.b = 0 up to roundoff, so y = (M^T)^+ b, from the first n - 1
        singular triplets, has M^T y close to b.  The margin below is
        checked on M, so b need not lie exactly in the range of M^T;
      - rank n - 1, k one-signed: z = |k| / sum |k| is the only stochastic
        vector on the line.  It is the answer if it passes the test
        `solve_lp` puts to its own points, a violation of at most FEAS_TOL
        (z >= 0, so the violation is max(||M z||_inf, |sum z - 1|)).
    A ray needs floor > (2 t + n a (2 t + 2^-51)) ||y||_1, t = FEAS_TOL,
    a = max |M_ij| (a > 2 t follows, and keeps y finite).  A z that passes
    the LP's test has z >= -t, sum z >= 1 - t, ||M z||_inf <= t, so
    y.M z <= t ||y||_1 and (M^T y).z >= floor (1 - t) - n t a ||y||_1,
    each up to roundoff u n a ||y||_1 (u = 2^-53; Higham 3.1).  The margin
    is twice what makes these contradict, so the LP could not find a z.
    The LP [M; 1^T] z = e_{m+1}, z >= 0 answers the rest: a kernel of
    dimension 2 or more, a failed margin or test, a LinAlgError, and a
    non-square M.  Its y is the first m entries of its Farkas ray."""
    m, n = M.shape
    vb = None  # V^T b
    if m == n:
        try:
            u, sigma, vt, rank, a = _svd(M)
        except np.linalg.LinAlgError:
            rank = -1
        if rank == n:
            vb = np.add.reduce(vt, axis=1)
        elif rank == n - 1:
            k = vt[-1]
            s_pos, s_neg = _sign_sums(k)
            if s_pos > 0.0 and s_neg > 0.0:
                vb = vt[:-1] @ np.where(k > 0.0, s_neg, s_pos)
            else:
                z = np.abs(k) / (s_pos + s_neg)
                residual = max(
                    float(np.maximum.reduce(np.abs(M @ z))),
                    abs(float(np.add.reduce(z)) - 1.0),
                )
                if residual <= FEAS_TOL:
                    return z, None, 0.0
    if vb is not None and a > 2 * FEAS_TOL:
        y = u[:, :rank] @ (vb / sigma[:rank])
        floor = float(np.minimum.reduce(M.T @ y))
        margin = 2 * FEAS_TOL + n * a * (2 * FEAS_TOL + 2.0**-51)
        if floor > margin * np.add.reduce(np.abs(y)):
            return None, y, floor
    E = np.empty((m + 1, n))
    E[:m] = M
    E[m] = 1.0
    f = np.zeros(m + 1)
    f[m] = 1.0
    sol = solve_lp(LinearProgram(np.zeros(n), E, f))
    if sol.status is LPStatus.OPTIMAL:
        return sol.point, None, 0.0
    y = sol.farkas[:m]
    return None, y, float(np.minimum.reduce(M.T @ y))


def stochastic_eigenvector(
    A: GameMatrix,
    eigenvalue: float,
    player: Player = Player.COL,
) -> MixedStrategy | None:
    """A stochastic vector y with (A - eigenvalue*I) y = 0, or None.

    Decided by `_stochastic_kernel` for (A - lambda I) y = 0, sum y = 1, y >= 0.
    No eigenvalue search is performed; the caller supplies lambda, which must be
    finite, with every a_ii - lambda finite (InputError otherwise).
    """
    if not A.is_square:
        raise InvalidMatrixError(
            f"stochastic_eigenvector requires a square matrix, got {A.rows}x{A.cols}"
        )
    check_finite(eigenvalue, "eigenvalue")
    # a_ii - lambda overflows only at the smallest or the largest a_ii.
    diagonal = A.values.diagonal()
    for a in (np.minimum.reduce(diagonal), np.maximum.reduce(diagonal)):
        if not math.isfinite(float(a) - float(eigenvalue)):
            raise InputError(
                f"a_ii - eigenvalue overflows the float range: a_ii = {float(a):g}, "
                f"eigenvalue = {eigenvalue!r}"
            )
    z, _, _ = _stochastic_kernel(A.values - eigenvalue * np.eye(A.rows))
    return None if z is None else normalized_strategy(z, player)


def gordan(A: GameMatrix) -> GordanVerdict:
    """Decide which Gordan alternative holds for A and return its witness.

    `_stochastic_kernel` answers for A.  Branch 1: A x = 0 has a nonzero
    nonnegative solution, the stochastic x it finds.  Branch 2: its y solves
    A^T y > 0 exactly when floor = min(A^T y), computed on A, is positive;
    y is scaled so that min(A^T y) = 1.  A witness that fails its
    certificate, ||A x||_inf <= GORDAN_WITNESS_TOL or floor > 0, raises
    InconsistentAlternativesError.
    """
    V = A.values
    x, y, floor = _stochastic_kernel(V)
    if y is None:
        x = normalized_strategy(x, Player.COL).weights
        if float(np.maximum.reduce(np.abs(V @ x))) > GORDAN_WITNESS_TOL:
            raise InconsistentAlternativesError(
                "kernel witness fails ||A x||_inf <= 1e-9 after cleanup"
            )
        return GordanVerdict(branch=GordanBranch.NONNEGATIVE_KERNEL, witness=x)
    if not floor > 0.0:
        raise InconsistentAlternativesError(
            f"Farkas witness fails A^T y > 0: min(A^T y) = {floor:g}"
        )
    y = y / floor
    y.setflags(write=False)
    return GordanVerdict(branch=GordanBranch.POSITIVE_IMAGE, witness=y)
