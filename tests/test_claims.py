import numpy as np
import pytest

from zerosum import (
    ClaimId,
    GameMatrix,
    InputError,
    Verdict,
    check_diagonal,
    check_eigenspace_lemma5,
    check_gordan_theorem3,
    check_neg_transpose,
    check_positive_dominated,
    check_shared_optima,
    check_shifted_eigen,
    check_skew,
    null_space,
    oracle_solve,
    run_checker,
    solve_game,
)
from zerosum.solver import row_optima_column_extrema
from conftest import BAD_TOLERANCES, RPS_ENTRIES, ensemble, random_skew


class TestCheckDiagonal:
    def test_positive_definite_formula(self):
        rep = check_diagonal(GameMatrix(np.diag([1.0, 2.0, 3.0])))
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["predicted_value"] == pytest.approx(6 / 11, abs=1e-15)
        np.testing.assert_allclose(
            rep.computed["predicted_row_strategy"], [6 / 11, 3 / 11, 2 / 11], atol=1e-15
        )

    def test_mixed_signs(self):
        rep = check_diagonal(GameMatrix(np.diag([-1.0, 2.0])))
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["predicted_value"] == 0.0
        assert rep.computed["negative_index_weight"] <= 1e-7
        np.testing.assert_allclose(
            rep.computed["observed_row_strategy"], [0.0, 1.0], atol=1e-9
        )

    def test_zero_entry(self):
        rep = check_diagonal(GameMatrix(np.diag([0.0, 5.0])))
        assert rep.verdict is Verdict.HOLDS
        assert abs(rep.computed["observed_value"]) <= 1e-7

    def test_negative_definite_formula(self):
        rep = check_diagonal(GameMatrix(np.diag([-1.0, -2.0])))
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["predicted_value"] == pytest.approx(-2 / 3, abs=1e-15)
        np.testing.assert_allclose(
            rep.computed["predicted_row_strategy"], [2 / 3, 1 / 3], atol=1e-15
        )

    def test_near_diagonal_input_is_audited_as_given(self):
        # An off-diagonal entry inside DIAG_SIGN_TOL passes the gate; the
        # report must still describe the input, not its diagonal part.
        A = GameMatrix([[1.0, 1e-13], [0.0, 2.0]])
        rep = run_checker(ClaimId.DIAGONAL_THEOREM1, A)[0]
        assert rep.input_digest == A.digest()
        assert rep.verdict is Verdict.HOLDS

    def test_gate_lives_in_the_checker(self, saddle):
        rep = check_diagonal(saddle)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed == {"reason": "matrix is not diagonal", "max_offdiagonal": 3.0}
        wide = check_diagonal(GameMatrix(np.ones((2, 3))))
        assert wide.computed == {"reason": "matrix is not square"}

    def test_agrees_with_oracle_up_to_five(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            d = rng.uniform(-5, 5, n)
            if trial % 3 == 0:
                d = np.abs(d) + 0.1
            A = GameMatrix(np.diag(d))
            rep = check_diagonal(A)
            assert rep.verdict is Verdict.HOLDS
            oracle_value = oracle_solve(A).value
            predicted = rep.computed["predicted_value"]
            assert abs(oracle_value - predicted) <= 1e-7


class TestCheckSkew:
    def test_rps(self, rps):
        rep = check_skew(rps)
        assert rep.verdict is Verdict.HOLDS
        assert abs(rep.computed["value"]) <= 1e-7

    def test_two_by_two(self):
        rep = check_skew(GameMatrix([[0, 2], [-2, 0]]))
        assert rep.verdict is Verdict.HOLDS

    def test_not_skew(self):
        rep = check_skew(GameMatrix(np.eye(2)))
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed["skew_residual"] == 2.0

    def test_not_square(self):
        rep = check_skew(GameMatrix(np.ones((2, 3))))
        assert rep.verdict is Verdict.NOT_APPLICABLE

    def test_shared_optima_variant(self, rps):
        rep = check_shared_optima(rps)
        assert rep.claim_id is ClaimId.SHARED_OPTIMA_COR4
        assert rep.verdict is Verdict.HOLDS


class TestCheckNegTranspose:
    def test_saddle(self, saddle):
        rep = check_neg_transpose(saddle)
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["value"] == pytest.approx(3.0, abs=1e-9)
        assert rep.computed["neg_transpose_value"] == pytest.approx(-3.0, abs=1e-9)

    def test_rps(self, rps):
        assert check_neg_transpose(rps).verdict is Verdict.HOLDS

    def test_scalar(self):
        assert check_neg_transpose(GameMatrix([[2.5]])).verdict is Verdict.HOLDS

    def test_nonsquare(self):
        rng = np.random.default_rng(3)
        rep = check_neg_transpose(GameMatrix(rng.uniform(-2, 2, (2, 4))))
        assert rep.verdict is Verdict.HOLDS

    def test_large_general_game(self):
        # A column LP on -B^T used to exhaust the 18,200-pivot budget here.
        A = GameMatrix(np.random.default_rng(4).uniform(-10, 10, (120, 120)))
        assert check_neg_transpose(A).verdict is Verdict.HOLDS

    def test_negated_transpose_lp_starts_optimal(self, monkeypatch):
        import zerosum.claims as claims_mod
        import zerosum.lp as lp_mod

        pivots = []  # one count per solve_game call
        pivot, solve = lp_mod._pivot, claims_mod.solve_game

        def counted_pivot(*args):
            pivots[-1] += 1
            pivot(*args)

        def counted_solve(*args, **kwargs):
            pivots.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lp_mod, "_pivot", counted_pivot)
        monkeypatch.setattr(claims_mod, "solve_game", counted_solve)
        for A in ensemble("General", 30, 20, 7):
            pivots.clear()
            rep = check_neg_transpose(A)
            assert pivots[0] > 0 and pivots[1] == 0
            cold = solve(GameMatrix(-A.values.T)).value
            assert abs(rep.computed["neg_transpose_value"] - cold) <= 1e-12

    @pytest.mark.parametrize(
        "values,start_refused",
        [
            (RPS_ENTRIES, False),
            ([[1, 2], [3, 4]], False),
            (np.eye(4), False),
            (np.zeros((2, 3)), False),
            (np.random.default_rng(3).uniform(-2, 2, (3, 5)), False),
            # Degenerate: the region start is infeasible, so phase 1 runs.
            ([[-1, 1, -1, 0], [0, 1, -1, 1]], True),
        ],
    )
    def test_warm_started_solves_certify(self, values, start_refused):
        A = GameMatrix(values)
        sol = solve_game(A)
        # solve_game raises unless the warm-started pair certifies.
        dual = solve_game(GameMatrix(-A.values.T), dual_of=sol)
        assert abs(sol.value + dual.value) <= 1e-9
        assert check_neg_transpose(A).verdict is Verdict.HOLDS
        warm = row_optima_column_extrema(A, sol.value, 1e-7, solution=sol)
        cold = row_optima_column_extrema(A, sol.value, 1e-7)
        if start_refused:
            np.testing.assert_array_equal(warm, cold)
        else:
            np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-9)


class TestEigenspaceLemma5:
    def test_rps_zero_witness_is_optimal(self, rps):
        rep = check_eigenspace_lemma5(rps)
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["zero_eigen_optimal"] is True

    def test_trivial_kernel(self):
        rep = check_eigenspace_lemma5(GameMatrix([[0, 1], [-1, 0]]))
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["zero_eigen_optimal"] is False

    def test_not_skew(self, saddle):
        rep = check_eigenspace_lemma5(saddle)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed["reason"] == "matrix is not skew-symmetric"

    def test_odd_dimension_kernel_nonzero(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = random_skew(rng, 5)
            # odd-dimensional skew matrices always have a nontrivial kernel
            assert null_space(A).dimension >= 1
            rep = check_eigenspace_lemma5(A, lambdas=[0.5, -0.5])
            assert rep.verdict is Verdict.HOLDS
            # nonzero real eigenvalues of a skew matrix have no eigenvectors
            for finding in rep.computed["candidates"]:
                if abs(finding["lambda"]) > 1e-7:
                    assert finding["witness_found"] is False


class TestGordanTheorem3:
    def test_rps_polarity(self, rps):
        rep = check_gordan_theorem3(rps)
        assert rep.computed["gordan_branch"] == "NonnegativeKernel"
        assert rep.computed["kernel_optimum_exists"] is True
        assert rep.computed["as_stated"] == "Violated"
        assert rep.computed["polarity_reversed"] == "Holds"
        assert rep.verdict is Verdict.VIOLATED

    def test_rotation_polarity(self):
        rep = check_gordan_theorem3(GameMatrix([[0, 1], [-1, 0]]))
        assert rep.computed["gordan_branch"] == "PositiveImage"
        assert rep.computed["kernel_optimum_exists"] is False
        assert rep.verdict is Verdict.VIOLATED
        assert rep.computed["polarity_reversed"] == "Holds"

    def test_zero_matrix(self):
        rep = check_gordan_theorem3(GameMatrix(np.zeros((2, 2))))
        assert rep.computed["gordan_branch"] == "NonnegativeKernel"
        assert rep.computed["kernel_optimum_exists"] is True

    def test_not_skew(self, saddle):
        assert check_gordan_theorem3(saddle).verdict is Verdict.NOT_APPLICABLE


class TestPositiveDominated:
    def test_equalizing_game_holds(self):
        rep = check_positive_dominated(GameMatrix([[2, 1], [1, 2]]))
        assert rep.verdict is Verdict.HOLDS
        assert rep.computed["bracket_low"] == pytest.approx(1.5, abs=1e-9)
        assert rep.computed["bracket_high"] == pytest.approx(1.5, abs=1e-9)

    def test_saddle_counterexample(self, saddle):
        rep = check_positive_dominated(saddle)
        assert rep.verdict is Verdict.VIOLATED
        # hypothesis satisfied: value 3 sits inside the Perron bracket
        assert rep.computed["bracket_low"] <= rep.computed["value"]
        assert rep.computed["value"] <= rep.computed["bracket_high"]
        assert max(rep.computed["column_payoff_maxima"]) > 3.0 + rep.tolerance

    def test_constant_matrix(self):
        assert check_positive_dominated(GameMatrix(np.ones((2, 2)))).verdict is Verdict.HOLDS

    def test_not_positive(self, rps):
        rep = check_positive_dominated(rps)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed["min_entry"] == -1.0

    def test_not_square(self):
        rep = check_positive_dominated(GameMatrix(np.ones((2, 3))))
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed == {"reason": "matrix is not square"}

    def test_value_outside_perron_bracket(self):
        # Value 1; Perron pair 3, (1/2, 1/2), so the bracket is [1.5, 1.5].
        rep = check_positive_dominated(GameMatrix([[1, 2], [1, 2]]))
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed["reason"] == "value escapes the Perron bracket"
        assert rep.computed["value"] == pytest.approx(1.0, abs=1e-9)
        assert rep.computed["bracket_low"] == pytest.approx(1.5, abs=1e-9)
        assert "column_payoff_minima" not in rep.computed
        assert "column_payoff_maxima" not in rep.computed

    def test_verdicts_stable_under_tighter_lp_tol(self, saddle):
        loose = check_positive_dominated(saddle, lp_tol=1e-9)
        tight = check_positive_dominated(saddle, lp_tol=1e-10)
        assert loose.verdict is tight.verdict is Verdict.VIOLATED
        holds = check_positive_dominated(GameMatrix([[2, 1], [1, 2]]), lp_tol=1e-10)
        assert holds.verdict is Verdict.HOLDS


class TestShiftedEigen:
    def test_symmetric_shift(self):
        rep = check_shifted_eigen(GameMatrix([[1, 2], [2, 1]]), 3.0)
        assert rep.verdict is Verdict.HOLDS
        assert abs(rep.computed["shifted_value"]) <= 1e-7

    def test_rps_zero(self, rps):
        assert check_shifted_eigen(rps, 0.0).verdict is Verdict.HOLDS

    def test_identity(self):
        assert check_shifted_eigen(GameMatrix(np.eye(4)), 1.0).verdict is Verdict.HOLDS

    def test_nonsquare_is_not_applicable(self):
        rep = check_shifted_eigen(GameMatrix(np.ones((2, 3))), 0.0)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed == {"reason": "matrix is not square"}

    def test_missing_witness(self, saddle):
        rep = check_shifted_eigen(saddle, 1.0)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed["row_witness_found"] is False or (
            rep.computed["col_witness_found"] is False
        )


class TestReportMechanics:
    def test_deterministic_serialization(self, saddle):
        a = check_positive_dominated(saddle).to_canonical_json()
        b = check_positive_dominated(saddle).to_canonical_json()
        assert a == b

    def test_every_checker_is_deterministic(self, rps):
        diag = GameMatrix(np.diag([1.0, -2.0, 3.0]))
        for claim, A, lambdas in [
            (ClaimId.DIAGONAL_THEOREM1, diag, None),
            (ClaimId.SKEW_ZERO_COR3, rps, None),
            (ClaimId.SHARED_OPTIMA_COR4, rps, None),
            (ClaimId.NEG_TRANSPOSE_THM2, diag, None),
            (ClaimId.EIGENSPACE_LEMMA5, rps, [0.0, 1.5]),
            (ClaimId.GORDAN_THEOREM3, rps, None),
            (ClaimId.POSITIVE_DOMINATED_THM4, GameMatrix([[2, 1], [1, 2]]), None),
            (ClaimId.SHIFTED_EIGEN_THM4_GENERAL, rps, [0.0]),
        ]:
            first = [r.to_canonical_json() for r in run_checker(claim, A, lambdas=lambdas)]
            second = [r.to_canonical_json() for r in run_checker(claim, A, lambdas=lambdas)]
            assert first == second, claim

    def test_not_applicable_carries_reason(self, saddle):
        rep = check_skew(saddle)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert "skew_residual" in rep.computed or "reason" in rep.computed

    def test_violated_reports_tighter_tol_stability(self, rps, saddle):
        for build in (
            lambda lp: check_gordan_theorem3(rps, lp_tol=lp),
            lambda lp: check_positive_dominated(saddle, lp_tol=lp),
        ):
            assert build(1e-9).verdict is build(1e-10).verdict is Verdict.VIOLATED

    def test_dispatch_matches_direct_call(self, rps):
        direct = check_skew(rps).to_canonical_json()
        routed = run_checker(ClaimId.SKEW_ZERO_COR3, rps)[0].to_canonical_json()
        assert direct == routed

    def test_dispatch_diagonal_gate(self, saddle):
        reports = run_checker(ClaimId.DIAGONAL_THEOREM1, saddle)
        assert reports[0].verdict is Verdict.NOT_APPLICABLE
        good = run_checker(ClaimId.DIAGONAL_THEOREM1, GameMatrix(np.diag([1.0, 2.0])))
        assert good[0].verdict is Verdict.HOLDS

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    @pytest.mark.parametrize("which", ["tol", "lp_tol"])
    def test_non_finite_or_non_positive_tolerances_rejected(self, rps, which, bad):
        # NaN or 0 used to reach the checkers, where every "<= tol" test fails
        # and the claim read Violated; inf made every such test pass.
        for claim, lambdas in [
            (ClaimId.NEG_TRANSPOSE_THM2, None),
            (ClaimId.GORDAN_THEOREM3, None),
            (ClaimId.SHIFTED_EIGEN_THM4_GENERAL, [0.0]),
        ]:
            with pytest.raises(InputError, match=which):
                run_checker(claim, rps, lambdas=lambdas, **{which: bad})

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_direct_checker_calls_reject_bad_tolerances(self, rps, saddle, bad):
        # NaN used to read Violated and inf Holds, straight from the checker.
        for check, A in [
            (check_neg_transpose, rps),
            (check_skew, rps),
            (check_diagonal, saddle),  # NotApplicable reports are checked too
        ]:
            with pytest.raises(InputError, match="tol"):
                check(A, tol=bad)

    def test_dispatch_shifted_requires_lambdas(self, rps):
        with pytest.raises(InputError):
            run_checker(ClaimId.SHIFTED_EIGEN_THM4_GENERAL, rps)
        with pytest.raises(InputError, match="unknown claim"):
            run_checker("SkewZeroCor3", rps)
        reports = run_checker(
            ClaimId.SHIFTED_EIGEN_THM4_GENERAL, rps, lambdas=[0.0, 1.0]
        )
        assert len(reports) == 2
        assert reports[0].verdict is Verdict.HOLDS
        assert reports[1].verdict is Verdict.NOT_APPLICABLE
