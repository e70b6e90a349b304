"""Differential suite: `solve_lp` against scipy's HiGHS on small integer LPs.

Every LP is  maximize c.z  s.t.  G z <= h,  E z = f,  z >= 0  with small
integer data, so feasible, infeasible, unbounded and degenerate (zero
right-hand sides, duplicated rows) cases all come up.  HiGHS runs without
presolve and at 1e-10 tolerances: with presolve on it reports some unbounded
LPs whose z = 0 is feasible as infeasible (see the first example below).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import highs_oracle as highs
from zerosum import LinearProgram, LPStatus, solve_lp

pytest.importorskip("scipy.optimize")

HIGHS_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}
HIGHS_NUMERICAL_DIFFICULTIES = 4

entry = st.integers(-3, 3)


@st.composite
def integer_programs(draw):
    """(c, G, h, E, f) with up to 4 variables, 4 <= rows and 2 = rows."""
    n = draw(st.integers(1, 4))
    mg = draw(st.integers(0, 4))
    me = draw(st.integers(0, 2))

    def vector(size):
        return draw(st.lists(entry, min_size=size, max_size=size))

    c = vector(n)
    G, h = [vector(n) for _ in range(mg)], vector(mg)
    E, f = [vector(n) for _ in range(me)], vector(me)
    return c, G, h, E, f


def _highs(c, G, h, E, f):
    n = len(c)
    return highs.solve(
        -np.array(c, dtype=float),
        A_ub=np.array(G, dtype=float).reshape(-1, n) if G else None,
        b_ub=np.array(h, dtype=float) if G else None,
        A_eq=np.array(E, dtype=float).reshape(-1, n) if E else None,
        b_eq=np.array(f, dtype=float) if E else None,
    )


@settings(max_examples=300, deadline=None)
@given(integer_programs())
# Unbounded with z = 0 feasible; presolving HiGHS calls it infeasible.
@example(([-1, 1, 2], [[-2, 2, -3], [1, -2, 1]], [1, 1], [], []))
# Feasible with a unique optimum.
@example(([1, 1], [[1, 0], [0, 1]], [1, 1], [], []))
# Infeasible through an inequality and through contradicting equalities.
@example(([1], [[1]], [-1], [], []))
@example(([0, 1], [], [], [[1, 1], [1, 1]], [1, 2]))
# Degenerate: zero right-hand sides and a redundant equality.
@example(([1, 2, -1], [[1, -1, 0], [-1, 1, 0]], [0, 0], [[1, 1, 1], [2, 2, 2]], [1, 2]))
def test_solve_lp_matches_highs(program):
    c, G, h, E, f = program
    res = _highs(c, G, h, E, f)
    if res.status == HIGHS_NUMERICAL_DIFFICULTIES:
        return
    sol = solve_lp(
        LinearProgram(
            objective=c,
            ineq_lhs=G if G else None,
            ineq_rhs=h if G else None,
            eq_lhs=E if E else None,
            eq_rhs=f if E else None,
        )
    )
    assert sol.status is HIGHS_STATUS[res.status], res.message
    if sol.status is LPStatus.OPTIMAL:
        assert abs(sol.objective_value - (-res.fun)) <= 1e-9 * max(1.0, abs(res.fun))
