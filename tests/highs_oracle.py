"""scipy's HiGHS as the independent LP oracle of the cross-checks.

Each LP is formulated here from the mathematics, on the original data, never
through zerosum's `LinearProgram`, so the oracle shares no code with what it
checks.  HiGHS runs without presolve and at 1e-10 feasibility tolerances:
with presolve on it reports some unbounded LPs whose z = 0 is feasible as
infeasible (see the first example in test_lp_differential).  A test that
calls the oracle skips when scipy is not installed.
"""

import numpy as np
import pytest

OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# linprog's status codes.
OPTIMAL, INFEASIBLE = 0, 2


def solve(c, **constraints):
    """HiGHS on  minimize c.z  subject to linprog's keyword `constraints`
    (z >= 0 unless `bounds` says otherwise); returns linprog's result."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    return linprog(c, method="highs", options=OPTIONS, **constraints)


def game_value(V):
    """Value of the matrix game V: max v s.t. x^T V >= v, x stochastic;
    variables (x, v), v free."""
    m, n = V.shape
    res = solve(
        np.append(np.zeros(m), -1.0),
        A_ub=np.hstack([-V.T, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.append(np.ones(m), 0.0)[np.newaxis],
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
    )
    assert res.status == OPTIMAL, res.message
    return -res.fun


def column_extrema(V, v, tol):
    """(minima, maxima): min and max of (x^T V)_j over the row optima
    {x stochastic : x^T V >= v - tol}, per column j."""
    m, n = V.shape
    region = dict(
        A_ub=-V.T, b_ub=np.full(n, -(v - tol)), A_eq=np.ones((1, m)), b_eq=[1.0]
    )

    def extremum(sign, j):  # sign * min of sign * (x^T V)_j
        res = solve(sign * V[:, j], **region)
        assert res.status == OPTIMAL, res.message
        return sign * res.fun

    return tuple(np.array([extremum(s, j) for j in range(n)]) for s in (1.0, -1.0))


def stochastic_kernel(M):
    """A stochastic z with M z = 0 (z >= 0, sum z = 1), or None when the LP
    [M; 1^T] z = e_{m+1}, z >= 0 is infeasible."""
    m, n = M.shape
    res = solve(
        np.zeros(n),
        A_eq=np.vstack([M, np.ones((1, n))]),
        b_eq=np.append(np.zeros(m), 1.0),
    )
    assert res.status in (OPTIMAL, INFEASIBLE), res.message
    return res.x if res.status == OPTIMAL else None
