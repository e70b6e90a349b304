"""Shadow audits: recompute what each bench workload's verdict rests on with
scipy's HiGHS, from the original matrices, and require the same verdict.

Each test takes the first 40 trials of one bench ensemble at its default
seed and checks the quantity the verdict is decided by:

- NegTransposeThm2 on General 30, seed 7: v(A) and v(-A^T), within 1e-9;
- PositiveDominatedThm4 on Positive 10, seed 1: the column payoff maxima
  over the optimal-strategy region, within 1e-8;
- GordanTheorem3 on Skew 7, seed 1: feasibility of [A; 1^T] x = e_{m+1},
  x >= 0, which decides the Gordan branch.
"""

import numpy as np
import pytest

from zerosum import ClaimId, GordanBranch, Verdict, run_checker
from zerosum.claims import CLAIM_TOL_DEFAULT
from zerosum.cli import DEFAULT_RANGES, EnsembleSpec, Family, generate_ensemble
from zerosum.lp import FEAS_TOL_DEFAULT

linprog = pytest.importorskip("scipy.optimize").linprog

TRIALS = 40
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _ensemble(family, size, seed):
    fam = Family(family)
    return generate_ensemble(
        EnsembleSpec(fam, size, TRIALS, seed, DEFAULT_RANGES[fam.value])
    )


def _highs(c, **constraints):
    res = linprog(c, method="highs", options=HIGHS_OPTIONS, **constraints)
    assert res.status in (0, 2), res.message
    return res


def _highs_value(V):
    """max v s.t. x^T V >= v, x stochastic; variables (x, v), v free."""
    m, n = V.shape
    res = _highs(
        np.append(np.zeros(m), -1.0),
        A_ub=np.hstack([-V.T, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.append(np.ones(m), 0.0)[np.newaxis],
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
    )
    assert res.status == 0, res.message
    return -res.fun


def _highs_column_maxima(V, v, tol):
    """max (x^T V)_j over {x stochastic : x^T V >= v - tol}, per column j."""
    m, n = V.shape
    region = dict(
        A_ub=-V.T,
        b_ub=np.full(n, -(v - tol)),
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=(0, None),
    )
    maxima = []
    for j in range(n):
        res = _highs(-V[:, j], **region)
        assert res.status == 0, res.message
        maxima.append(-res.fun)
    return np.array(maxima)


def test_neg_transpose_values_match_highs():
    tol = CLAIM_TOL_DEFAULT
    for i, A in enumerate(_ensemble("General", 30, 7)):
        [rep] = run_checker(ClaimId.NEG_TRANSPOSE_THM2, A)
        v1, v2 = _highs_value(A.values), _highs_value(-A.values.T)
        assert abs(rep.computed["value"] - v1) <= 1e-9, i
        assert abs(rep.computed["neg_transpose_value"] - v2) <= 1e-9, i
        shadow = Verdict.HOLDS if abs(v1 + v2) <= tol else Verdict.VIOLATED
        assert rep.verdict is shadow, i


def test_positive_dominated_maxima_match_highs():
    tol, slack = CLAIM_TOL_DEFAULT, CLAIM_TOL_DEFAULT + FEAS_TOL_DEFAULT
    applicable = 0
    for i, A in enumerate(_ensemble("Positive", 10, 1)):
        [rep] = run_checker(ClaimId.POSITIVE_DOMINATED_THM4, A)
        got = rep.computed
        v = _highs_value(A.values)
        assert abs(got["value"] - v) <= 1e-9, i
        # The Perron bracket is spectral, not LP: take it from the report.
        if not got["bracket_low"] - tol <= v <= got["bracket_high"] + tol:
            assert rep.verdict is Verdict.NOT_APPLICABLE, i
            continue
        applicable += 1
        maxima = _highs_column_maxima(A.values, v, tol)
        np.testing.assert_allclose(
            got["column_payoff_maxima"], maxima, rtol=0, atol=1e-8, err_msg=str(i)
        )
        # Every minimum is >= v - tol on the region by construction, so the
        # maxima decide the verdict.
        shadow = Verdict.HOLDS if maxima.max() <= v + slack else Verdict.VIOLATED
        assert rep.verdict is shadow, i
    assert applicable >= TRIALS // 2


def test_gordan_branch_matches_highs_feasibility():
    # In these 40 trials only the positive-image branch comes up.
    tol = CLAIM_TOL_DEFAULT
    for i, A in enumerate(_ensemble("Skew", 7, 1)):
        [rep] = run_checker(ClaimId.GORDAN_THEOREM3, A)
        V = A.values
        n = V.shape[1]
        res = _highs(
            np.zeros(n),
            A_eq=np.vstack([V, np.ones((1, n))]),
            b_eq=np.append(np.zeros(V.shape[0]), 1.0),
            bounds=(0, None),
        )
        kernel = res.status == 0
        branch = (
            GordanBranch.NONNEGATIVE_KERNEL if kernel else GordanBranch.POSITIVE_IMAGE
        )
        assert rep.computed["gordan_branch"] == branch.value, i
        # The claim as stated: an optimal strategy at value 0 exists in the
        # kernel exactly when A y > 0 is solvable.
        exists = kernel and (V @ res.x).max() <= tol and (res.x @ V).min() >= -tol
        as_stated = exists == (not kernel)
        assert rep.computed["kernel_optimum_exists"] == exists, i
        assert rep.verdict is (Verdict.HOLDS if as_stated else Verdict.VIOLATED), i
