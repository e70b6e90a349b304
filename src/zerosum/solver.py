"""Game value and optimal strategies via linear programming, an exact
support-enumeration oracle for small games (decided in rationals, rounded
to doubles once), and the optimal-dominated decision procedures.

`solve_game` solves one LP per game: the row player's value LP, whose
inequality multipliers are a column strategy (LP duality is the minimax
theorem), solved by `lp.solve_value_lp`.  The supports of that certified
pair name the facets of the row player's optimal-strategy region, so
`row_optima_column_extrema` reads the region's vertices off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

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
from .lp import FEAS_TOL, PIVOT_TOL, LinearProgram, LPStatus, solve_lp, solve_value_lp

SOLVE_TOL_DEFAULT = 1e-8
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
    positive, and the row player's value LP is solved once
    (`solve_value_lp`).  Its point gives the row strategy and the value
    (un-shifted); its inequality multipliers, clipped at 0 and normalized,
    give the column strategy.  The pair is checked against the original
    payoffs, so the returned solution satisfies the GameSolution
    floor/ceiling invariants at `tol`, or RuntimeError is raised.

    All tolerances are absolute and sized for desk-scale payoffs.  For
    entries far beyond ~1e4 in magnitude, normalize first: solve A / max|A|
    and multiply the value back (strategies are unchanged; the game value is
    exactly scale-covariant).  Feeding huge payoffs directly makes the
    certificate checks refuse rather than return degraded certificates.
    A shifted payoff at or above 1/PIVOT_TOL = 1e11, an overflowing shift
    included, is beyond the ratio test's resolution: InputError, raised
    before any LP is built.  Every LP failure is RuntimeError.
    """
    check_tolerance(tol, "tol")
    V = A.values
    shift = _positivity_shift(V)
    # Rounding is monotone, so this is the largest entry of V + shift, and
    # inf when the shift overflows.
    top = float(np.maximum.reduce(V, axis=None)) + shift
    if not top * PIVOT_TOL < 1.0:
        raise InputError(
            f"payoffs too large: the largest shifted payoff {top!r} reaches "
            f"1/PIVOT_TOL = {1 / PIVOT_TOL:g}; normalize the matrix first"
        )
    x, v_row, duals = solve_value_lp(V + shift)
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


def _exact_solve(rows, rhs):
    """Exact z with rows z = rhs, all ints or Fractions, or None when the
    square system is singular.  Scaled to integers, it is solved by
    fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    every entry stays an integer minor, so each division is exact."""
    T = [[*row, b] for row, b in zip(rows, rhs)]
    scale = math.lcm(*(e.denominator for row in T for e in row))
    T, pivot = [[e.numerator * (scale // e.denominator) for e in row] for row in T], 1
    for c in range(len(T)):
        p = next((i for i in range(c, len(T)) if T[i][c]), None)
        if p is None:
            return None
        T[c], T[p] = T[p], T[c]
        for i, row in enumerate(T):
            if i != c:
                T[i] = [(T[c][c] * a - row[c] * b) // pivot for a, b in zip(row, T[c])]
        pivot = T[c][c]
    return [Fraction(row[-1], pivot) for row in T]


def _equalizing(S, size, support):
    """Exact weights w on `support` of range(size) and v with S w = v 1 and
    sum w = 1, S square; None when this bordered system is singular."""
    z = _exact_solve([[*r, -1] for r in S] + [[1] * len(S) + [0]], [0] * len(S) + [1])
    if z is None:
        return None
    on_support = dict(zip(support, z))
    return [on_support.get(i, Fraction(0)) for i in range(size)], z[-1]


def _support_equilibria(A: GameMatrix):
    """Yield (I, J, x, y, v), in Fractions, for every support pair of A
    whose equalizing strategies are exactly optimal, by support size, then
    lexicographically.

    Every double is a dyadic rational, so A is read exactly, unshifted.  On
    rows I and columns J, x equalizes the columns J and y the rows I.  Both
    bordered systems are singular exactly when 1^T adj(sub) 1 is 0, and
    otherwise x^T sub y is both equalized payoffs: one value v.  The pair
    is accepted when x, y >= 0 and no pure deviation improves on v.  By
    Shapley and Snow ("Basic solutions of discrete games", 1950) every
    extreme optimal strategy of either player is some accepted x or y.
    """
    V = [[Fraction(e) for e in row] for row in A.values.tolist()]
    m, n = A.rows, A.cols
    for k in range(1, min(m, n) + 1):
        for I, J in product(combinations(range(m), k), combinations(range(n), k)):
            row = _equalizing([[V[i][j] for i in I] for j in J], m, I)
            if row is None or min(row[0]) < 0:
                continue
            x, v = row
            if any(sum(x[i] * V[i][j] for i in I) < v for j in range(n)):
                continue
            y = _equalizing([[V[i][j] for j in J] for i in I], n, J)[0]
            if min(y) >= 0 and all(sum(r[j] * y[j] for j in J) <= v for r in V):
                yield I, J, x, y, v


def oracle_solve(A: GameMatrix) -> OracleSolution:
    """Brute-force equilibrium by enumerating equal-size support pairs.

    The first pair `_support_equilibria` accepts wins, which makes the
    result deterministic; each pair is decided in exact rational arithmetic
    with no tolerance.  The value and the weights are rounded to doubles
    once, at the end, and not renormalized.  The minimax theorem guarantees
    an accepted pair, so exhausting the enumeration indicates a bug.
    """
    m, n = A.rows, A.cols
    if m > ORACLE_MAX_SIZE or n > ORACLE_MAX_SIZE:
        raise OracleSizeError(
            f"oracle_solve is limited to {ORACLE_MAX_SIZE}x{ORACLE_MAX_SIZE}, "
            f"got {m}x{n}"
        )
    for I, J, x, y, v in _support_equilibria(A):
        return OracleSolution(
            value=float(v), row_support=I, col_support=J,
            row_strategy=MixedStrategy(Player.ROW, [float(w) for w in x]),
            col_strategy=MixedStrategy(Player.COL, [float(w) for w in y]),
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
    per objective, 2n in all.  The region is stated over (x, s), s the n
    surplus columns: V^T x - s = (v - tol) 1, 1^T x = 1, x, s >= 0."""
    m, n = V.shape
    E = np.zeros((n + 1, m + n))
    E[:n, :m] = V.T
    j = np.arange(n)
    E[j, m + j] = -1.0
    E[n, :m] = 1.0
    f = np.full(n + 1, v - tol)
    f[n] = 1.0
    # Row k is objective k, zero on s: rows of a C-ordered array, so each
    # is contiguous.
    objectives = np.zeros((2 * n, m + n))
    objectives[:n, :m] = V.T
    np.negative(V.T, out=objectives[n:, :m])
    extrema = np.empty(2 * n)
    for k, c in enumerate(objectives):
        sol = solve_lp(LinearProgram(c, E, f))
        if sol.status is not LPStatus.OPTIMAL:
            raise RuntimeError(
                f"optimal-set LP reported {sol.status.value}; the optimal "
                "strategy polytope cannot be empty at the game value"
            )
        extrema[k] = c[:m] @ sol.point[:m]
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

