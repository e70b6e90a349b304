"""Shadow audits: recompute what each claim family's verdict rests on with
scipy's HiGHS, from the original matrices, and require the same verdict.

Each test checks, over the first 40 trials of seeded ensembles (400 in
`test_shadow_over_400_trials`, marked `slow`), the quantity the verdict is
decided by:

- NegTransposeThm2 on General 30, seed 7: v(A) and v(-A^T), within 1e-9;
- PositiveDominatedThm4 on Positive 10, seed 1, and on integer Positive
  6x6 games (entries in {1, 2, 3}, many of them degenerate): the column
  payoff maxima and minima over the optimal-strategy region, within 1e-8;
- DiagonalTheorem1 on Diagonal 3, seed 1: v(A), within 1e-9;
- GordanTheorem3 on Skew 7 and Skew 3, seed 1: feasibility of
  [A; 1^T] x = e_{m+1}, x >= 0, which decides the Gordan branch;
- SkewZeroCor3 on Skew 6, seed 3, and SharedOptimaCor4 on Skew 5, seed 4:
  v(A), within 1e-9;
- EigenspaceLemma5 on Skew 3, seed 1, with lambda in {0, 1}: feasibility of
  [(A - lambda I); 1^T] y = e_{n+1}, y >= 0, for each candidate;
- ShiftedEigenThm4General on the same ensemble and lambdas: that
  feasibility for A and for A^T, and v(A - lambda I), within 1e-9.
"""

import numpy as np
import pytest

import highs_oracle as highs
from zerosum import ClaimId, GordanBranch, Verdict, run_checker
from zerosum.claims import CLAIM_TOL_DEFAULT, STRATEGY_TOL_FACTOR
from zerosum.lp import FEAS_TOL
from conftest import ensemble, integer_positive_games

pytest.importorskip("scipy.optimize")

LAMBDAS = [0.0, 1.0]


def _verdict(holds):
    return Verdict.HOLDS if holds else Verdict.VIOLATED


def test_neg_transpose_values_match_highs(trials=40):
    tol = CLAIM_TOL_DEFAULT
    for i, A in enumerate(ensemble("General", 30, trials, 7)):
        [rep] = run_checker(ClaimId.NEG_TRANSPOSE_THM2, A)
        v1, v2 = highs.game_value(A.values), highs.game_value(-A.values.T)
        assert abs(rep.computed["value"] - v1) <= 1e-9, i
        assert abs(rep.computed["neg_transpose_value"] - v2) <= 1e-9, i
        assert rep.verdict is _verdict(abs(v1 + v2) <= tol), i


def _shadow_positive_dominated(games):
    """Check each PositiveDominatedThm4 report against HiGHS; returns the
    number of reports that reach the extrema."""
    tol, slack = CLAIM_TOL_DEFAULT, CLAIM_TOL_DEFAULT + FEAS_TOL
    applicable = 0
    for i, A in enumerate(games):
        [rep] = run_checker(ClaimId.POSITIVE_DOMINATED_THM4, A)
        got = rep.computed
        v = highs.game_value(A.values)
        assert abs(got["value"] - v) <= 1e-9, i
        # The Perron bracket is spectral, not LP: take it from the report.
        if not got["bracket_low"] - tol <= v <= got["bracket_high"] + tol:
            assert rep.verdict is Verdict.NOT_APPLICABLE, i
            continue
        applicable += 1
        minima, maxima = highs.column_extrema(A.values, v, tol)
        np.testing.assert_allclose(
            got["column_payoff_maxima"], maxima, rtol=0, atol=1e-8, err_msg=str(i)
        )
        np.testing.assert_allclose(
            got["column_payoff_minima"], minima, rtol=0, atol=1e-8, err_msg=str(i)
        )
        # Every minimum is >= v - tol on the region by construction, so the
        # maxima decide the verdict.
        assert rep.verdict is _verdict(maxima.max() <= v + slack), i
    return applicable


def test_positive_dominated_maxima_match_highs(trials=40):
    applicable = _shadow_positive_dominated(ensemble("Positive", 10, trials, 1))
    assert applicable >= trials // 2


def test_positive_dominated_on_integer_games_matches_highs(trials=40):
    # Many integer games are degenerate: the vertex closed form answers
    # some regions and the LP fallback the others, and both must run.
    import zerosum.solver as solver_mod

    fallbacks = []
    lp_extrema = solver_mod._lp_extrema

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return lp_extrema(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "_lp_extrema", counted)
        applicable = _shadow_positive_dominated(integer_positive_games(trials))
    assert 0 < len(fallbacks) < applicable


def test_diagonal_values_match_highs(trials=40):
    # The row optimum the verdict plays is zerosum's; the verdict is decided
    # again at HiGHS's value.
    tol = CLAIM_TOL_DEFAULT
    branches = set()
    for i, A in enumerate(ensemble("Diagonal", 3, trials, 1)):
        [rep] = run_checker(ClaimId.DIAGONAL_THEOREM1, A)
        got = rep.computed
        v = highs.game_value(A.values)
        assert abs(got["observed_value"] - v) <= 1e-9, i
        branches.add(got["definite"])
        if got["definite"]:
            holds = (
                abs(v - got["predicted_value"]) <= tol
                and got["strategy_error"] <= STRATEGY_TOL_FACTOR * tol
            )
        else:
            holds = abs(v) <= tol and got["negative_index_weight"] <= tol
        assert rep.verdict is _verdict(holds), i
    assert branches == {True, False}


def test_gordan_branch_matches_highs_feasibility(trials=40):
    # Skew 7 reaches the nonnegative-kernel branch only after its first 40
    # trials; Skew 3 reaches it in 12 of them.
    tol = CLAIM_TOL_DEFAULT
    branches = set()
    for size in (7, 3):
        for i, A in enumerate(ensemble("Skew", size, trials, 1)):
            [rep] = run_checker(ClaimId.GORDAN_THEOREM3, A)
            V = A.values
            x = highs.stochastic_kernel(V)
            kernel = x is not None
            branch = (
                GordanBranch.NONNEGATIVE_KERNEL if kernel else GordanBranch.POSITIVE_IMAGE
            )
            branches.add(branch)
            assert rep.computed["gordan_branch"] == branch.value, (size, i)
            # The claim as stated: an optimal strategy at value 0 exists in
            # the kernel exactly when A y > 0 is solvable.
            exists = kernel and (V @ x).max() <= tol and (x @ V).min() >= -tol
            assert rep.computed["kernel_optimum_exists"] == exists, (size, i)
            assert rep.verdict is _verdict(exists == (not kernel)), (size, i)
    assert branches == set(GordanBranch)


def test_skew_corollary_values_match_highs(trials=40):
    # The optima played against each other are zerosum's; the verdict is
    # decided again at HiGHS's value.
    tol = CLAIM_TOL_DEFAULT
    for claim, size, seed in (
        (ClaimId.SKEW_ZERO_COR3, 6, 3),
        (ClaimId.SHARED_OPTIMA_COR4, 5, 4),
    ):
        for i, A in enumerate(ensemble("Skew", size, trials, seed)):
            [rep] = run_checker(claim, A)
            got = rep.computed
            v = highs.game_value(A.values)
            assert abs(got["value"] - v) <= 1e-9, (claim, i)
            ceiling = got["row_optimum_as_column_ceiling"]
            floor = got["col_optimum_as_row_floor"]
            if claim is ClaimId.SKEW_ZERO_COR3:
                holds = abs(v) <= tol and ceiling <= tol and floor >= -tol
            else:
                holds = ceiling <= v + tol and floor >= v - tol
            assert rep.verdict is _verdict(holds), (claim, i)


def test_eigenspace_witnesses_match_highs_feasibility(trials=40):
    for i, A in enumerate(ensemble("Skew", 3, trials, 1)):
        [rep] = run_checker(ClaimId.EIGENSPACE_LEMMA5, A, lambdas=LAMBDAS)
        nonzero_witness = False
        for found in rep.computed["candidates"]:
            lam = found["lambda"]
            feasible = highs.stochastic_kernel(A.values - lam * np.eye(A.rows))
            assert found["witness_found"] == (feasible is not None), (i, lam)
            nonzero_witness |= lam != 0.0 and feasible is not None
        # Only a stochastic eigenvector at a nonzero eigenvalue can violate.
        if not nonzero_witness:
            assert rep.verdict is Verdict.HOLDS, i


def test_shifted_eigen_matches_highs(trials=40):
    tol = CLAIM_TOL_DEFAULT
    applicable = 0
    for i, A in enumerate(ensemble("Skew", 3, trials, 1)):
        reps = run_checker(ClaimId.SHIFTED_EIGEN_THM4_GENERAL, A, lambdas=LAMBDAS)
        for lam, rep in zip(LAMBDAS, reps):
            got = rep.computed
            B = A.values - lam * np.eye(A.rows)
            row = highs.stochastic_kernel(B.T) is not None
            col = highs.stochastic_kernel(B) is not None
            if rep.verdict is Verdict.NOT_APPLICABLE:
                found = (got["row_witness_found"], got["col_witness_found"])
                assert found == (row, col) != (True, True), (i, lam)
                continue
            assert row and col, (i, lam)
            applicable += 1
            v = highs.game_value(B)
            assert abs(got["shifted_value"] - v) <= 1e-9, (i, lam)
            holds = (
                abs(v) <= tol
                and got["row_witness_max_deviation"] <= tol
                and got["col_witness_max_deviation"] <= tol
            )
            assert rep.verdict is _verdict(holds), (i, lam)
    assert applicable >= trials // 4


@pytest.mark.slow
@pytest.mark.parametrize(
    "shadow",
    [
        test_neg_transpose_values_match_highs,
        test_positive_dominated_maxima_match_highs,
        test_positive_dominated_on_integer_games_matches_highs,
        test_diagonal_values_match_highs,
        test_gordan_branch_matches_highs_feasibility,
        test_skew_corollary_values_match_highs,
        test_eigenspace_witnesses_match_highs_feasibility,
        test_shifted_eigen_matches_highs,
    ],
    ids=lambda shadow: shadow.__name__,
)
def test_shadow_over_400_trials(shadow):
    shadow(trials=400)
