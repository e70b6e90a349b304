import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from zerosum import (
    ClaimId,
    GameMatrix,
    InputError,
    MixedStrategy,
    Player,
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
from zerosum.solver import _exact_solve, _support_equilibria, row_optima_column_extrema
from conftest import (
    BAD_TOLERANCES,
    RPS_ENTRIES,
    ensemble,
    integer_positive_games,
    random_skew,
    skew4,
)


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

    def test_every_small_integer_diagonal_holds_exactly(self):
        # All 343 diagonals with entries in {-3, ..., 3}, against the exact
        # value of the support enumeration.
        for d in itertools.product(range(-3, 4), repeat=3):
            A = GameMatrix(np.diag(d))
            rep = check_diagonal(A)
            assert rep.verdict is Verdict.HOLDS, d
            exact = next(_support_equilibria(A))[4]
            assert abs(rep.computed["predicted_value"] - exact) <= 1e-12, d


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

    def test_negated_transpose_value_takes_one_lp(self, monkeypatch):
        # -A^T is A with the players swapped: its value is read off A's
        # certified solution, and agrees with a cold LP of its own.  The
        # solver runs an LP through solve_lp, or a value LP through
        # solve_value_lp.
        import zerosum.solver as solver_mod

        calls = []

        def counted(solve):
            def count(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)

            return count

        for name in ("solve_lp", "solve_value_lp"):
            monkeypatch.setattr(solver_mod, name, counted(getattr(solver_mod, name)))
        for A in ensemble("General", 30, 20, 7):
            calls.clear()
            rep = check_neg_transpose(A)
            assert len(calls) == 1
            gap = solve_game(A).duality_gap
            assert rep.computed["identity_residual"] == gap <= 1e-8
            cold = solve_game(GameMatrix(-A.values.T)).value
            assert abs(rep.computed["neg_transpose_value"] - cold) <= 1e-12

    @pytest.mark.slow
    def test_every_3x3_in_minus_1_to_1_holds_exactly(self):
        # The identity holds exactly, so every verdict is Holds, and the
        # value is the exact one within the report's tolerance.
        for e in itertools.product((-1, 0, 1), repeat=9):
            A = GameMatrix(np.reshape(e, (3, 3)))
            rep = check_neg_transpose(A)
            assert rep.verdict is Verdict.HOLDS, e
            exact = next(_support_equilibria(A))[4]
            assert abs(rep.computed["value"] - exact) <= rep.tolerance, e

    @pytest.mark.parametrize(
        "values,gate_refuses",
        [
            (RPS_ENTRIES, False),
            ([[1, 2], [3, 4]], False),
            (np.eye(4), False),
            (np.zeros((2, 3)), False),
            (np.random.default_rng(3).uniform(-2, 2, (3, 5)), False),
            # Degenerate: the vertex gate refuses, so both calls run the LP.
            ([[-1, 1, -1, 0], [0, 1, -1, 1]], True),
        ],
    )
    def test_vertex_extrema_match_the_lp(self, values, gate_refuses):
        A = GameMatrix(values)
        sol = solve_game(A)
        assert check_neg_transpose(A).verdict is Verdict.HOLDS
        vertex = row_optima_column_extrema(A, sol.value, 1e-7, solution=sol)
        lp = row_optima_column_extrema(A, sol.value, 1e-7)
        if gate_refuses:
            np.testing.assert_array_equal(vertex, lp)
        else:
            np.testing.assert_allclose(vertex, lp, rtol=0, atol=1e-9)


def _zero_candidate(rep):
    """The lambda = 0 entry of an EigenspaceLemma5 report's candidates."""
    (finding,) = [f for f in rep.computed["candidates"] if f["lambda"] == 0.0]
    return finding


class TestEigenspaceLemma5:
    def test_rps_zero_witness_is_optimal(self, rps):
        rep = check_eigenspace_lemma5(rps)
        assert rep.verdict is Verdict.HOLDS
        assert _zero_candidate(rep)["is_optimal"] is True

    def test_trivial_kernel(self):
        rep = check_eigenspace_lemma5(GameMatrix([[0, 1], [-1, 0]]))
        assert rep.verdict is Verdict.HOLDS
        assert _zero_candidate(rep)["is_optimal"] is False

    def test_not_skew(self, saddle):
        rep = check_eigenspace_lemma5(saddle)
        assert rep.verdict is Verdict.NOT_APPLICABLE
        assert rep.computed["reason"] == "matrix is not skew-symmetric"

    @pytest.mark.xfail(
        strict=True,
        reason="the skew gate is absolute: 5e-8 J has skew residual 1e-7 <= "
        "tol, so it passes as skew, and its uniform stochastic eigenvector "
        "at 1.5e-7 reads Violated",
    )
    def test_tiny_non_skew_matrix_is_not_applicable(self):
        A = GameMatrix(5e-8 * np.ones((3, 3)))
        rep = check_eigenspace_lemma5(A, lambdas=[1.5e-7])
        assert rep.verdict is Verdict.NOT_APPLICABLE

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


def _exact_stochastic_kernel(M):
    """An exact stochastic z (z >= 0, sum z = 1) with M z = 0, in Fractions,
    or None when there is none.

    One exists exactly when a basic one does (Chvatal, Linear Programming,
    1983, ch. 3): a z whose support S makes the columns of B = [M_S; 1^T]
    independent, so that z_S is the one solution of B z_S = e.  B^T B is
    then nonsingular, and `_exact_solve` solves B^T B z_S = B^T e = 1; its
    answer solves B z_S = e when that system is consistent, which is
    checked.  A dependent S makes B^T B singular, and is skipped.
    """
    V = [[Fraction(e) for e in row] for row in np.asarray(M).tolist()]
    n = len(V[0])
    rhs = [0] * len(V) + [1]
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            B = [[row[j] for j in S] for row in V] + [[1] * k]
            gram = [[sum(r[i] * r[j] for r in B) for j in range(k)] for i in range(k)]
            z = _exact_solve(gram, [1] * k)
            if z is not None and min(z) >= 0 and all(
                sum(b * w for b, w in zip(r, z)) == f for r, f in zip(B, rhs)
            ):
                on_support = dict(zip(S, z))
                return [on_support.get(j, Fraction(0)) for j in range(n)]
    return None


def _skew4_disagreements(entries):
    """Audit every 4 x 4 skew matrix whose strict upper triangle takes its
    six entries from `entries` against exact answers.  Returns the matrices
    on which a float answer is not the exact one, and how many have an
    exact stochastic kernel vector.

    For skew A, a stochastic z with A z = 0 pays 0 to both players, so it is
    an optimal strategy at the value 0: GordanTheorem3's kernel optimum
    exists exactly on the NonnegativeKernel branch, and the claim as stated
    reads Violated on every skew matrix.  SkewZeroCor3 and SharedOptimaCor4
    hold on every skew game, whose exact value is 0."""
    wrong, kernels = [], 0
    for upper in itertools.product(entries, repeat=6):
        A = GameMatrix(skew4(upper))
        exists = _exact_stochastic_kernel(A.values) is not None
        kernels += exists
        gordan_rep = check_gordan_theorem3(A)
        got = (
            gordan_rep.computed["gordan_branch"],
            gordan_rep.verdict,
            check_skew(A).verdict,
            check_shared_optima(A).verdict,
            next(_support_equilibria(A))[4],
        )
        branch = "NonnegativeKernel" if exists else "PositiveImage"
        if got != (branch, Verdict.VIOLATED, Verdict.HOLDS, Verdict.HOLDS, 0):
            wrong.append((upper, got))
    return wrong, kernels


class TestIntegerSkew4Exact:
    def test_exact_kernel_oracle(self, rps):
        assert _exact_stochastic_kernel(rps.values) == [Fraction(1, 3)] * 3
        assert _exact_stochastic_kernel([[0, 1], [-1, 0]]) is None
        # Not square, with a zero last column: e_6 is the kernel vector.
        K = [[1, 2, -2, -1, 1, 0], [1, 1, 1, -2, 2, 0]]
        assert _exact_stochastic_kernel(K) == [0, 0, 0, 0, 0, 1]

    def test_every_matrix_in_minus_1_to_1_is_audited_exactly(self):
        assert _skew4_disagreements(range(-1, 2)) == ([], 195)

    @pytest.mark.slow
    def test_every_matrix_in_minus_2_to_2_is_audited_exactly(self):
        assert _skew4_disagreements(range(-2, 3)) == ([], 1637)


def _exact_positive_dominated(A):
    """PositiveDominatedThm4's conclusion decided exactly: every optimal row
    strategy pays exactly v on every column.  The optimal set is the hull of
    its extreme points, and `_support_equilibria` yields every extreme
    optimal strategy (Shapley and Snow), so checking those suffices."""
    V = [[Fraction(e) for e in row] for row in A.values.tolist()]
    return all(
        sum(w * V_i[j] for w, V_i in zip(x, V)) == v
        for _, _, x, _, v in _support_equilibria(A)
        for j in range(A.cols)
    )


def _posdom_disagreements(games):
    """The applicable games on which the float verdict is not the exact one."""
    wrong = []
    for A in games:
        rep = check_positive_dominated(A)
        if rep.verdict is not Verdict.NOT_APPLICABLE and (
            (rep.verdict is Verdict.HOLDS) != _exact_positive_dominated(A)
        ):
            wrong.append((A.values.tolist(), rep.verdict.value))
    return wrong


@functools.cache
def _sample_disagreements():
    """`_posdom_disagreements` on 300 seeded 3x3 games with entries in
    {1, 2, 3}; 259 of them are applicable."""
    return tuple(_posdom_disagreements(integer_positive_games(300, size=3, seed=27)))


# Every disagreement seen so far reads Violated where the claim holds
# exactly: the checker's optimal set R = {x : x^T A >= v - tol} is wider
# than the true one, and its column payoffs reach past v + tol over R.
POSDOM_EXACT_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: PositiveDominatedThm4 reads Violated on games "
    "where the conclusion holds exactly",
)


class TestPositiveDominated:
    @pytest.mark.parametrize(
        "values,holds",
        [
            ([[2, 1], [1, 2]], True),
            ([[1, 2], [3, 4]], False),
            ([[1, 1, 1], [1, 1, 2], [3, 3, 1]], True),
        ],
    )
    def test_exact_verdicts(self, values, holds):
        assert _exact_positive_dominated(GameMatrix(values)) is holds

    def test_float_verdict_errs_only_toward_violated(self):
        # A float Holds is never wrong on the sample: where the two differ,
        # the float checker reads Violated and the claim holds exactly.
        assert {verdict for _, verdict in _sample_disagreements()} <= {"Violated"}

    @POSDOM_EXACT_XFAIL
    @pytest.mark.parametrize(
        "disagreements",
        [
            lambda: _posdom_disagreements([GameMatrix([[1, 1, 1], [1, 1, 2], [3, 3, 1]])]),
            _sample_disagreements,
        ],
        ids=["worked-case", "sample-of-3x3-in-1-2-3"],
    )
    def test_float_verdict_is_the_exact_one(self, disagreements):
        assert list(disagreements()) == []

    @pytest.mark.slow
    @POSDOM_EXACT_XFAIL
    def test_float_verdict_is_the_exact_one_on_every_3x3_in_1_2_3(self):
        games = (
            GameMatrix(np.reshape(e, (3, 3)))
            for e in itertools.product((1, 2, 3), repeat=9)
        )
        assert _posdom_disagreements(games) == []

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

    def test_verdicts_stable_under_tighter_lp_tol(self, saddle, tighter_lp_tol):
        loose = check_positive_dominated(saddle)
        with tighter_lp_tol():
            tight = check_positive_dominated(saddle)
            holds = check_positive_dominated(GameMatrix([[2, 1], [1, 2]]))
        assert loose.verdict is tight.verdict is Verdict.VIOLATED
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

    def test_a_witness_that_misses_reads_violated(self, monkeypatch):
        # [[1, 2], [2, 1]] at 3 has the witnesses (1/2, 1/2).  With the pure
        # column witness (1, 0) in their place, B y = (-2, 2): the column
        # deviation is 2, and the value interval [0, 2] has midpoint 1.  The
        # row witness comes from the SVD's kernel line, so it is (1/2, 1/2)
        # up to one ulp, and so are the zeros it pays.
        import zerosum.claims as claims_mod

        found = claims_mod.stochastic_eigenvector

        def pure_column(A, lam, player):
            if player is Player.COL:
                return MixedStrategy(Player.COL, [1.0, 0.0])
            return found(A, lam, player)

        monkeypatch.setattr(claims_mod, "stochastic_eigenvector", pure_column)
        rep = check_shifted_eigen(GameMatrix([[1, 2], [2, 1]]), 3.0)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.computed["row_witness_max_deviation"] <= 2.0**-52
        assert rep.computed["col_witness_max_deviation"] == 2.0
        assert abs(rep.computed["shifted_value"] - 1.0) <= 2.0**-52

    def test_decided_by_its_witnesses(self, monkeypatch):
        # Weak duality pins v(A - lambda I) between the witnesses' payoffs,
        # so no game is solved.  The verdict is the one that solving B gave,
        # on criterion 9's constant-sum recipe and on skew games.
        import zerosum.claims as claims_mod

        def refuse(B):
            raise AssertionError("check_shifted_eigen solved a game")

        monkeypatch.setattr(claims_mod, "solve_game", refuse)
        rng = np.random.default_rng(2009)
        cases = []
        for _ in range(30):
            n = int(rng.integers(2, 7))
            B = rng.uniform(-3, 3, (n, n))
            B = B - B.mean(axis=1, keepdims=True) - B.mean(axis=0, keepdims=True) + B.mean()
            lam = float(rng.uniform(-2.0, 2.0))
            cases.append((GameMatrix(B + lam / n), lam))
        cases += [(A, lam) for A in ensemble("Skew", 5, 40, 3) for lam in (0.0, 1.0)]
        applicable = 0
        for A, lam in cases:
            rep = check_shifted_eigen(A, lam)
            if rep.verdict is Verdict.NOT_APPLICABLE:
                continue
            applicable += 1
            v = solve_game(GameMatrix(A.values - lam * np.eye(A.rows))).value
            dev = max(
                rep.computed["row_witness_max_deviation"],
                rep.computed["col_witness_max_deviation"],
            )
            solved = abs(v) <= rep.tolerance and dev <= rep.tolerance
            assert (rep.verdict is Verdict.HOLDS) is solved
            assert abs(rep.computed["shifted_value"] - v) <= 1e-12
        assert applicable >= 30


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

    def test_violated_reports_tighter_tol_stability(self, rps, saddle, tighter_lp_tol):
        for build in (
            lambda: check_gordan_theorem3(rps),
            lambda: check_positive_dominated(saddle),
        ):
            loose = build()
            with tighter_lp_tol():
                tight = build()
            assert loose.verdict is tight.verdict is Verdict.VIOLATED

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
    @pytest.mark.parametrize("which", ["tol"])
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

    @pytest.mark.parametrize(
        "claim",
        sorted(
            set(ClaimId)
            - {ClaimId.EIGENSPACE_LEMMA5, ClaimId.SHIFTED_EIGEN_THM4_GENERAL},
            key=lambda c: c.value,
        ),
        ids=lambda c: c.value,
    )
    def test_lambdas_refused_where_unread(self, rps, claim):
        # A claim that reads no eigenvalue refuses them, not drops them unread.
        with pytest.raises(InputError, match=f"{claim.value} takes no eigenvalue"):
            run_checker(claim, rps, lambdas=[3.0])
        assert len(run_checker(claim, rps, lambdas=[])) == 1


# ROADMAP item 9's claims on their ensembles; sizes are the bench's where it
# has the family.
PERMUTATION_CASES = [
    (ClaimId.POSITIVE_DOMINATED_THM4, "Positive", 10, None),
    (ClaimId.NEG_TRANSPOSE_THM2, "General", 30, None),
    (ClaimId.SKEW_ZERO_COR3, "Skew", 7, None),
    (ClaimId.SHARED_OPTIMA_COR4, "Skew", 7, None),
    (ClaimId.EIGENSPACE_LEMMA5, "General", 30, [0.0, 1.0]),
    (ClaimId.SHIFTED_EIGEN_THM4_GENERAL, "Skew", 7, [0.0]),
    (ClaimId.DIAGONAL_THEOREM1, "Diagonal", 10, None),
    (ClaimId.GORDAN_THEOREM3, "Skew", 7, None),
]


@pytest.mark.parametrize(
    "claim,family,size,lambdas",
    PERMUTATION_CASES,
    ids=[case[0].value for case in PERMUTATION_CASES],
)
def test_verdicts_survive_relabelling_strategies(claim, family, size, lambdas):
    # Permuting rows and columns together only renames pure strategies, and
    # it keeps a matrix diagonal, skew or positive, so no claim may move.
    p = np.random.default_rng(1).permutation(size)
    for A in ensemble(family, size, 20, 1):
        B = GameMatrix(A.values[p][:, p])
        before = run_checker(claim, A, lambdas=lambdas)
        after = run_checker(claim, B, lambdas=lambdas)
        assert len(before) == len(after)
        for r, s in zip(before, after):
            assert r.verdict is s.verdict, A
            if "value" in r.computed:
                assert abs(r.computed["value"] - s.computed["value"]) <= 1e-9
