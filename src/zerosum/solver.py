"""Game value and optimal strategies via linear programming, plus an
independent support-enumeration oracle for small games and the
optimal-dominated decision procedures.

`solve_game` solves one LP per game: the row player's value LP, whose
inequality multipliers are a column strategy (LP duality is the minimax
theorem).  The supports of that certified pair name the facets of the
row player's optimal-strategy region, so `row_optima_column_extrema` reads
the region's vertices off them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GameMatrix,
    GameSolution,
    InputError,
    MixedStrategy,
    Player,
    check_tolerance,
    normalized_strategy,
)
from .lp import FEAS_TOL, LinearProgram, LPStatus, solve_lp

SOLVE_TOL_DEFAULT = 1e-8
# No pure deviation may improve a player by more than this at an accepted
# oracle candidate.
ORACLE_DEVIATION_TOL = 1e-8
ORACLE_NONNEG_TOL = 1e-9
ORACLE_MAX_SIZE = 5


class OracleSizeError(InputError):
    """Support enumeration is only allowed up to 5x5."""


@dataclass(frozen=True)
class OracleSolution:
    """Equilibrium found by exhaustive support enumeration."""

    value: float
    row_support: tuple[int, ...]
    col_support: tuple[int, ...]
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy


def _positivity_shift(values: np.ndarray) -> float:
    """Constant c making every entry of A + cJ at least 1 (0 if already)."""
    lo = float(np.minimum.reduce(values, axis=None))
    return 1.0 - lo if lo < 1.0 else 0.0


def _value_lp(B: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Row player's value LP on B: maximize v s.t. B^T x >= v 1, sum x = 1,
    x >= 0, v >= 0.  The bound on v is never active, since callers pass
    B >= 1, so v >= 1.  Returns (x, v, y), y the multipliers of the n column
    rows: up to roundoff a column strategy holding B's payoffs to v."""
    m, n = B.shape
    c = np.zeros(m + 1)
    c[m] = 1.0
    G = np.empty((n, m + 1))  # v - (B^T x)_j <= 0
    np.negative(B.T, out=G[:, :m])
    G[:, m] = 1.0
    E = np.zeros((1, m + 1))
    E[0, :m] = 1.0
    # Fresh C-ordered arrays, finite because B is: solve_game checks that
    # its shift does not overflow.
    sol = solve_lp(LinearProgram._trusted(c, G, np.zeros(n), E, np.ones(1)))
    if sol.status is not LPStatus.OPTIMAL:
        raise RuntimeError(
            f"value LP reported {sol.status.value}; impossible for a valid game"
        )
    return sol.point[:m], float(sol.point[m]), sol.ineq_duals


def _certify(
    V: np.ndarray, x: np.ndarray, y: np.ndarray, value: float, tol: float
) -> float:
    """Check the strategy pair (x, y) against the original payoffs V.

    x must guarantee the row player at least value - tol (floor), y must
    hold the row player to value + tol (ceiling), and the two may differ by
    at most tol.  Returns that duality gap; raises RuntimeError otherwise.
    """
    floor = float(np.minimum.reduce(x @ V))
    ceiling = float(np.maximum.reduce(V @ y))
    gap = max(ceiling - floor, 0.0)
    # Written so that a NaN anywhere fails the certificate.
    if not (floor >= value - tol and ceiling <= value + tol and gap <= tol):
        raise RuntimeError(
            f"game solution violates its certificates: floor={floor!r} "
            f"ceiling={ceiling!r} value={value!r} tol={tol:g}"
        )
    return gap


def solve_game(A: GameMatrix, tol: float = SOLVE_TOL_DEFAULT) -> GameSolution:
    """Value and one optimal strategy pair for the matrix game A.

    The matrix is shifted by c = 1 - min entry so the shifted value is
    positive, and the row player's value LP is solved once.  Its point gives
    the row strategy and the value (un-shifted); its inequality multipliers,
    clipped at 0 and normalized, give the column strategy.  The pair is
    checked against the original payoffs, so the returned solution satisfies
    the GameSolution floor/ceiling invariants at `tol`, or RuntimeError is
    raised.

    All tolerances are absolute and sized for desk-scale payoffs.  For
    entries far beyond ~1e4 in magnitude, normalize first: solve A / max|A|
    and multiply the value back (strategies are unchanged; the game value is
    exactly scale-covariant).  Feeding huge payoffs directly makes the
    certificate checks refuse rather than return degraded certificates.
    When the shift itself overflows, that is, when the largest entry plus c
    exceeds the float range, InputError is raised before any LP is built.
    """
    check_tolerance(tol, "tol")
    V = A.values
    shift = _positivity_shift(V)
    # V + shift overflows exactly when its largest entry does.
    top = float(np.maximum.reduce(V, axis=None))
    if not math.isfinite(top + shift):
        raise InputError(
            f"payoffs span too wide a range: shifting them by {shift:g} to make "
            f"them positive overflows the largest entry {top:g}; normalize the "
            "matrix first"
        )
    x, v_row, duals = _value_lp(V + shift)
    value = v_row - shift
    row = normalized_strategy(x, Player.ROW)
    col = normalized_strategy(duals, Player.COL)
    gap = _certify(V, row.weights, col.weights, value, tol)
    return GameSolution(
        value=value,
        row_strategy=row,
        col_strategy=col,
        duality_gap=gap,
        tolerance=tol,
    )


def _equalizing_weights(sub: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Weights making every column of `sub` pay the same amount.

    Solves  sub^T w = v 1,  sum w = 1  for (w, v); returns None when the
    bordered system is singular or too ill-conditioned to trust.
    """
    k = sub.shape[0]
    M = np.zeros((k + 1, k + 1))
    M[:k, :k] = sub.T
    M[:k, k] = -1.0
    M[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    scale = max(1.0, float(np.abs(M).max()))
    if np.max(np.abs(M @ sol - rhs)) > 1e-9 * scale:
        return None
    return sol[:k], float(sol[k])


def oracle_solve(A: GameMatrix) -> OracleSolution:
    """Brute-force equilibrium by enumerating equal-size support pairs.

    Pairs are visited ordered by support size, then lexicographically; the
    first candidate with nonnegative weights and no improving pure deviation
    (beyond 1e-8) wins, which makes the result deterministic.  The minimax
    theorem guarantees such a pair exists, so exhausting the enumeration
    indicates a bug.
    """
    m, n = A.rows, A.cols
    if m > ORACLE_MAX_SIZE or n > ORACLE_MAX_SIZE:
        raise OracleSizeError(
            f"oracle_solve is limited to {ORACLE_MAX_SIZE}x{ORACLE_MAX_SIZE}, "
            f"got {m}x{n}"
        )
    shift = _positivity_shift(A.values)
    B = A.values + shift

    for k in range(1, min(m, n) + 1):
        for I in itertools.combinations(range(m), k):
            for J in itertools.combinations(range(n), k):
                sub = B[np.ix_(I, J)]
                row_sol = _equalizing_weights(sub)
                col_sol = _equalizing_weights(sub.T)
                if row_sol is None or col_sol is None:
                    continue
                x_sub, v = row_sol
                y_sub, w = col_sol
                if (
                    x_sub.min() < -ORACLE_NONNEG_TOL
                    or y_sub.min() < -ORACLE_NONNEG_TOL
                    or abs(v - w) > ORACLE_DEVIATION_TOL
                ):
                    continue
                x = np.zeros(m)
                x[list(I)] = x_sub
                y = np.zeros(n)
                y[list(J)] = y_sub
                row = normalized_strategy(x, Player.ROW)
                col = normalized_strategy(y, Player.COL)
                floor = float((row.weights @ B).min())
                ceiling = float((B @ col.weights).max())
                if floor < v - ORACLE_DEVIATION_TOL:
                    continue
                if ceiling > v + ORACLE_DEVIATION_TOL:
                    continue
                return OracleSolution(
                    value=v - shift,
                    row_support=I,
                    col_support=J,
                    row_strategy=row,
                    col_strategy=col,
                )
    raise RuntimeError("no valid support pair found; oracle bug")


def _vertex_extrema(
    V: np.ndarray, v: float, tol: float, sol: GameSolution
) -> tuple[np.ndarray, np.ndarray] | None:
    """Column extrema of `row_optima_column_extrema` read off the vertices of
    the region, or None when the gate below refuses them.

    The certified pair (x, y) names the facets: x_i = 0 for each i off x's
    support, and (x^T V)_j = v - tol for each j on y's support, since by
    complementary slackness (Goldman and Tucker, "Theory of linear
    programming", 1956) a column with y_j > 0 pays exactly v against every
    optimal x.  In a nondegenerate game the two supports index the square
    kernel of one of Shapley and Snow's basic solutions ("Basic solutions
    of discrete games", 1950), so together they name m facets.  Vertex k
    lies on every facet but k and on sum x = 1; all m vertices come from one
    batched solve against V.  The gate: every vertex satisfies every row of
    the region within lp.FEAS_TOL, and vertex k lies more than FEAS_TOL
    inside facet k.  The facets then bound a simplex (Ziegler, Lectures on
    Polytopes, 1995) that holds the region and whose vertices lie in it, so
    the two are equal and every extremum is attained at a vertex.  That
    holds for any m facets, so the supports only decide how often the gate
    passes, never the answer.
    """
    m, n = V.shape
    zero = (sol.row_strategy.weights == 0.0).nonzero()[0]
    binding = (sol.col_strategy.weights > 0.0).nonzero()[0]
    n_zero = zero.size
    if n_zero + binding.size != m:
        return None
    # The facet system [facets | rhs], one facet a row.
    k = np.arange(m)
    facets = np.zeros((m, m + 1))
    facets[k[:n_zero], zero] = 1.0
    facets[n_zero:, :m] = V[:, binding].T
    facets[n_zero:, m] = v - tol
    # System k is the facet system with row k swapped for sum x = 1: in the
    # (m * m, m + 1) layout of the stack, row k of system k is row k * (m + 1).
    systems = facets[np.newaxis].repeat(m, axis=0)
    systems.reshape(m * m, m + 1)[:: m + 1] = 1.0
    try:
        X = np.linalg.solve(systems[..., :m], systems[..., m:])[..., 0]
    except np.linalg.LinAlgError:
        return None
    payoffs = X @ V
    # How far vertex k lies inside facet k: x_i for a zero facet i, the
    # payoff above v - tol for a binding column.
    leaving = np.concatenate(
        [X[k[:n_zero], zero], payoffs[k[n_zero:], binding] - (v - tol)]
    )
    # Written so that a NaN anywhere refuses.
    if not (
        np.minimum.reduce(X, axis=None) >= -FEAS_TOL
        and np.minimum.reduce(payoffs, axis=None) >= v - tol - FEAS_TOL
        and np.maximum.reduce(np.abs(np.add.reduce(X, axis=1) - 1.0)) <= FEAS_TOL
        and np.minimum.reduce(leaving) > FEAS_TOL
    ):
        return None
    return np.minimum.reduce(payoffs), np.maximum.reduce(payoffs)


def _lp_extrema(V: np.ndarray, v: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Column extrema of `row_optima_column_extrema` by LP: each column
    payoff is maximized and minimized over the region, one `solve_lp` call
    per objective, 2n in all."""
    m, n = V.shape
    # G is Fortran-ordered.  A C-ordered copy would run `_residual`'s
    # product through another BLAS kernel, which can round differently.
    G, h = -V.T, np.full(n, -(v - tol))
    E, f = np.ones((1, m)), np.ones(1)
    # Row k is objective k: rows of a C-ordered array, so each is contiguous.
    objectives = np.empty((2 * n, m))
    objectives[:n] = V.T
    objectives[n:] = G
    extrema = np.empty(2 * n)
    for k, c in enumerate(objectives):
        sol = solve_lp(LinearProgram._trusted(c, G, h, E, f))
        if sol.status is not LPStatus.OPTIMAL:
            raise RuntimeError(
                f"optimal-set LP reported {sol.status.value}; the optimal "
                "strategy polytope cannot be empty at the game value"
            )
        extrema[k] = sol.objective_value
    return -extrema[n:], extrema[:n]


def row_optima_column_extrema(
    A: GameMatrix,
    v: float,
    tol: float,
    solution: GameSolution | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column extremes of (x^T A)_j over the row player's optimal set.

    The optimal set is modeled as {x stochastic : (x^T A)_k >= v - tol for
    all k}.  With `solution`, `solve_game`'s solution of A at value v, the
    extrema are first read off the region's vertices, found from the
    supports of the solution's strategy pair (`_vertex_extrema`, which states
    the gate); in a nondegenerate game the region is a simplex and the gate
    passes.  Otherwise each column payoff is maximized and minimized by LP
    (`_lp_extrema`, 2n `solve_lp` calls).  `tol` must be finite and
    positive, and `v` and v - tol finite (InputError otherwise).
    """
    check_tolerance(tol, "tol")
    if not math.isfinite(float(v) - float(tol)):
        raise InputError(
            f"v must be finite, with v - tol finite; got v={v!r}, tol={tol!r}"
        )
    V = A.values
    if solution is not None:
        extrema = _vertex_extrema(V, v, tol, solution)
        if extrema is not None:
            return extrema
    return _lp_extrema(V, v, tol)


def extrema_dominated(mins: np.ndarray, maxs: np.ndarray, v: float, tol: float) -> bool:
    """Whether column payoff extrema over the optimal polytope stay at v.

    The comparison allows lp.FEAS_TOL of LP arithmetic slack on top of tol:
    the polytope boundary itself sits at v - tol, so extrema legitimately
    touch v +/- tol exactly.
    """
    slack = tol + FEAS_TOL
    return bool(
        np.logical_and.reduce(maxs <= v + slack)
        and np.logical_and.reduce(mins >= v - slack)
    )

