"""Differential suite: `solve_lp` against scipy's HiGHS on small integer LPs.

Every LP is  maximize c.z  s.t.  G z <= h,  E z = f,  z >= 0  with small
integer data and at least one row, so feasible, infeasible, unbounded and
degenerate (zero right-hand sides, duplicated rows) cases all come up.  The
test writes each in standard form, a slack column for each row of G, and
hands both solvers that same program over z and its slacks.  No
program the package states is unbounded, so where HiGHS reports a ray,
`solve_lp` raises its solver-bug error.  HiGHS runs without presolve and at
1e-10 tolerances: with presolve on it reports some unbounded LPs whose
z = 0 is feasible as infeasible (see the first example below).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import highs_oracle as highs
from zerosum.lp import solve_lp
from conftest import with_slacks

pytest.importorskip("scipy.optimize")

HIGHS_UNBOUNDED = 3
HIGHS_NUMERICAL_DIFFICULTIES = 4

entry = st.integers(-3, 3)


@st.composite
def integer_programs(draw):
    """(c, G, h, E, f) with up to 4 variables, 4 <= rows and 2 = rows, and
    at least one row."""
    n = draw(st.integers(1, 4))
    mg = draw(st.integers(0, 4))
    me = draw(st.integers(0 if mg else 1, 2))

    def vector(size):
        return draw(st.lists(entry, min_size=size, max_size=size))

    c = vector(n)
    G, h = [vector(n) for _ in range(mg)], vector(mg)
    E, f = [vector(n) for _ in range(me)], vector(me)
    return c, G, h, E, f


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
# A ray with no rows left: the drive-out drops 0 z = 0 as redundant.
@example(([1], [], [], [[0]], [0]))
def test_solve_lp_matches_highs(program):
    c, G, h, E, f = program
    objective, lhs, rhs = with_slacks(c, G or None, h or None, E or None, f or None)
    res = highs.solve(-objective, A_eq=lhs, b_eq=rhs)
    if res.status == HIGHS_NUMERICAL_DIFFICULTIES:
        return
    if res.status == HIGHS_UNBOUNDED:
        with pytest.raises(RuntimeError, match="improving ray.*solver bug"):
            solve_lp(objective, lhs, rhs)
        return
    z, _ = solve_lp(objective, lhs, rhs)
    assert res.status == (highs.INFEASIBLE if z is None else highs.OPTIMAL), res.message
    if z is not None:
        got = objective @ z
        assert abs(got - (-res.fun)) <= 1e-9 * max(1.0, abs(res.fun))
