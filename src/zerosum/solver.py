"""Game value and optimal strategies via linear programming, plus an
independent support-enumeration oracle for small games and the
optimal-dominated decision procedures.

`solve_game` solves one LP per game: the row player's value LP, whose
inequality multipliers are a column strategy (LP duality is the minimax
theorem).  The value LP's final basis is kept on the solution: the value LP
of -A^T is its dual, so it starts at the complement of that basis
(`solve_game`'s `dual_of`), and the optimal-strategy region starts one
column away from it (`row_optima_column_extrema`'s `solution`).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
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
from .lp import (
    FEAS_TOL_DEFAULT,
    LinearProgram,
    LPStatus,
    maximize_each,
    solve_lp,
)

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
    lo = float(values.min())
    return 1.0 - lo if lo < 1.0 else 0.0


def _value_lp(
    B: np.ndarray, feas_tol: float, start: Sequence[int] | None
) -> tuple[np.ndarray, float, np.ndarray, tuple[int, ...]]:
    """Row player's value LP on B: maximize v s.t. B^T x >= v 1, sum x = 1,
    x >= 0, v >= 0.  The bound on v is never active, since callers pass
    B >= 1, so v >= 1.  Returns (x, v, y, basis), y the multipliers of the n
    column rows: up to roundoff a column strategy holding B's payoffs to v.

    Columns of the basis (and of `start`): x_i is i, v is m, and the slack
    of column j's row is m + 1 + j."""
    m, n = B.shape
    c = np.zeros(m + 1)
    c[m] = 1.0
    G = np.concatenate([-B.T, np.ones((n, 1))], axis=1)  # v - (B^T x)_j <= 0
    h = np.zeros(n)
    E = np.zeros((1, m + 1))
    E[0, :m] = 1.0
    f = np.ones(1)
    sol = solve_lp(
        LinearProgram(objective=c, ineq_lhs=G, ineq_rhs=h, eq_lhs=E, eq_rhs=f),
        feas_tol=feas_tol,
        start=start,
    )
    if sol.status is not LPStatus.OPTIMAL:
        raise RuntimeError(
            f"value LP reported {sol.status.value}; impossible for a valid game"
        )
    return sol.point[:m], float(sol.point[m]), sol.ineq_duals, sol.basis


def _complement_basis(sol: GameSolution) -> list[int] | None:
    """Value-LP start for -A^T from the value-LP basis of A's solution.

    The two value LPs are dual to each other (the shifts move only v and w),
    so complementary slackness maps an optimal basis of one to an optimal
    basis of the other: w, each y_j whose row slack s_j is nonbasic on A,
    and the slack t_i of each row whose x_i is nonbasic on A.  Under
    degeneracy the complement may be singular; the LP then starts cold.
    """
    if sol.lp_basis is None:
        return None
    m, n = len(sol.row_strategy), len(sol.col_strategy)
    basic = set(sol.lp_basis)
    # The value LP of -A^T (n x m): y_j is j, w is n, t_i is n + 1 + i.
    return (
        [n]
        + [j for j in range(n) if m + 1 + j not in basic]
        + [n + 1 + i for i in range(m) if i not in basic]
    )


def _certify(
    V: np.ndarray, x: np.ndarray, y: np.ndarray, value: float, tol: float
) -> float:
    """Check the strategy pair (x, y) against the original payoffs V.

    x must guarantee the row player at least value - tol (floor), y must
    hold the row player to value + tol (ceiling), and the two may differ by
    at most tol.  Returns that duality gap; raises RuntimeError otherwise.
    """
    floor = float((x @ V).min())
    ceiling = float((V @ y).max())
    gap = max(ceiling - floor, 0.0)
    # Written so that a NaN anywhere fails the certificate.
    if not (floor >= value - tol and ceiling <= value + tol and gap <= tol):
        raise RuntimeError(
            f"game solution violates its certificates: floor={floor!r} "
            f"ceiling={ceiling!r} value={value!r} tol={tol:g}"
        )
    return gap


def solve_game(
    A: GameMatrix,
    tol: float = SOLVE_TOL_DEFAULT,
    feas_tol: float = FEAS_TOL_DEFAULT,
    dual_of: GameSolution | None = None,
) -> GameSolution:
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

    `dual_of`, a solution of the game -A^T, starts the value LP at the
    complement of its basis (optimal by LP duality, so no pivots are left
    when it is nonsingular and feasible).  The result is certified against
    A's own payoffs exactly as on a cold start.
    """
    check_tolerance(tol, "tol")
    V = A.values
    shift = _positivity_shift(V)
    start = None if dual_of is None else _complement_basis(dual_of)
    x, v_row, duals, basis = _value_lp(V + shift, feas_tol, start)
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
        lp_basis=basis,
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
                x[list(I)] = np.clip(x_sub, 0.0, None)
                y = np.zeros(n)
                y[list(J)] = np.clip(y_sub, 0.0, None)
                x /= x.sum()
                y /= y.sum()
                floor = float((x @ B).min())
                ceiling = float((B @ y).max())
                if floor < v - ORACLE_DEVIATION_TOL:
                    continue
                if ceiling > v + ORACLE_DEVIATION_TOL:
                    continue
                return OracleSolution(
                    value=v - shift,
                    row_support=I,
                    col_support=J,
                    row_strategy=MixedStrategy(Player.ROW, x),
                    col_strategy=MixedStrategy(Player.COL, y),
                )
    raise RuntimeError("no valid support pair found; oracle bug")


def _region_start(sol: GameSolution) -> list[int] | None:
    """Start for the optimal-strategy region of `row_optima_column_extrema`
    from the value-LP basis of the game's solution.

    v is swapped for the slack of the binding column (nonbasic slack) with
    the largest dual y_j.  Summing the binding rows with weights y shows that
    slack is tol / y_j > 0 at the region's basic point, and x_B moves by
    O(tol), so in a nondegenerate game the start is feasible.
    """
    if sol.lp_basis is None:
        return None
    m, n = len(sol.row_strategy), len(sol.col_strategy)
    basic = set(sol.lp_basis)
    binding = [j for j in range(n) if m + 1 + j not in basic]
    if not binding:
        return None
    y = sol.col_strategy.weights
    j = max(binding, key=lambda k: y[k])
    # Region columns: x_i is i, the slack of column k's row is m + k.
    return [m + j if b == m else b if b < m else b - 1 for b in sol.lp_basis]


def row_optima_column_extrema(
    A: GameMatrix,
    v: float,
    tol: float,
    feas_tol: float = FEAS_TOL_DEFAULT,
    solution: GameSolution | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column extremes of (x^T A)_j over the row player's optimal set.

    The optimal set is modeled as {x stochastic : (x^T A)_k >= v - tol for
    all k}; for each column the payoff is maximized and minimized by LP.  All
    2n LPs share that one region, so they run as one `maximize_each` call.
    `solution`, `solve_game`'s solution of A at value v, gives the start
    (`_region_start`); without it, or when that start is refused, phase 1
    runs.  For a nondegenerate game the region is a simplex whose every
    vertex is one pivot from the start, so `maximize_each` answers all 2n
    extrema from the start without pivoting; only a degenerate region sends
    some of them through phase 2.  `tol` and `feas_tol` must be finite and
    positive (InputError otherwise).
    """
    check_tolerance(tol, "tol")
    check_tolerance(feas_tol, "feas_tol")
    V = A.values
    m, n = V.shape
    region = LinearProgram(
        objective=np.zeros(m),
        ineq_lhs=-V.T,
        ineq_rhs=np.full(n, -(v - tol)),
        eq_lhs=np.ones((1, m)),
        eq_rhs=np.ones(1),
    )
    # All maxima first, then all minima.  The order matters only for the
    # objectives the lookahead leaves to phase 2, each starting from the
    # previous one's basis, so only on degenerate regions: over 400 random
    # 5x5 games with entries in {-1, 0, 1} the extrema took 867 pivots in
    # this order against 911 when +V[:, j] and -V[:, j] alternate.
    objectives = [sign * V[:, j] for sign in (1.0, -1.0) for j in range(n)]
    extrema = np.empty(2 * n)
    start = None if solution is None else _region_start(solution)
    for k, sol in enumerate(maximize_each(region, objectives, feas_tol, start)):
        if sol.status is not LPStatus.OPTIMAL:
            raise RuntimeError(
                f"optimal-set LP reported {sol.status.value}; the optimal "
                "strategy polytope cannot be empty at the game value"
            )
        extrema[k] = sol.objective_value
    return -extrema[n:], extrema[:n]


def extrema_dominated(
    mins: np.ndarray, maxs: np.ndarray, v: float, tol: float, feas_tol: float
) -> bool:
    """Whether column payoff extrema over the optimal polytope stay at v.

    The comparison allows feas_tol of LP arithmetic slack on top of tol: the
    polytope boundary itself sits at v - tol, so extrema legitimately touch
    v +/- tol exactly.
    """
    slack = tol + feas_tol
    return bool(np.all(maxs <= v + slack) and np.all(mins >= v - slack))

