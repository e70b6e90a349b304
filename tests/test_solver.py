import dataclasses

import numpy as np
import pytest

import highs_oracle as highs
from zerosum import (
    GameMatrix,
    InputError,
    OracleSizeError,
    oracle_solve,
    row_optima_column_extrema,
    solve_game,
)
from zerosum.lp import FEAS_TOL_DEFAULT
from zerosum.solver import extrema_dominated
from conftest import BAD_TOLERANCES, ensemble, random_matrix, random_skew


def saddle_point_value(values):
    """Independent oracle: value of a game that has a pure saddle point."""
    maxmin = values.min(axis=1).max()
    minmax = values.max(axis=0).min()
    assert maxmin == minmax, "matrix has no saddle point"
    return maxmin


class TestSolveGame:
    def test_rps(self, rps):
        sol = solve_game(rps)
        assert abs(sol.value) <= 1e-9
        np.testing.assert_allclose(sol.row_strategy.weights, np.full(3, 1 / 3), atol=1e-7)
        np.testing.assert_allclose(sol.col_strategy.weights, np.full(3, 1 / 3), atol=1e-7)

    def test_diagonal_two(self):
        sol = solve_game(GameMatrix(np.diag([1.0, 2.0])))
        assert abs(sol.value - 2 / 3) <= 1e-9
        np.testing.assert_allclose(sol.row_strategy.weights, [2 / 3, 1 / 3], atol=1e-9)

    def test_saddle(self, saddle):
        expected = saddle_point_value(saddle.values)
        sol = solve_game(saddle)
        assert abs(sol.value - expected) <= 1e-9
        np.testing.assert_allclose(sol.row_strategy.weights, [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(sol.col_strategy.weights, [1.0, 0.0], atol=1e-9)

    def test_one_by_one(self):
        assert solve_game(GameMatrix([[-7.25]])).value == -7.25

    def test_certificates(self, rps):
        sol = solve_game(rps)
        floor = (sol.row_strategy.weights @ rps.values).min()
        ceiling = (rps.values @ sol.col_strategy.weights).max()
        assert floor >= sol.value - sol.tolerance
        assert ceiling <= sol.value + sol.tolerance
        assert sol.duality_gap <= sol.tolerance

    def test_bad_tol(self, rps):
        with pytest.raises(InputError):
            solve_game(rps, tol=-1.0)

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_non_finite_or_non_positive_tolerances_rejected(self, rps, bad):
        with pytest.raises(InputError, match="tol"):
            solve_game(rps, tol=bad)
        with pytest.raises(InputError, match="feas_tol"):
            solve_game(rps, feas_tol=bad)
        sol = solve_game(rps)
        with pytest.raises(InputError, match="tolerance"):
            dataclasses.replace(sol, tolerance=bad)


class TestGameValue:
    """solve_game solves one LP: the row value LP gives the value and the row
    strategy, and its inequality multipliers give the column strategy."""

    @staticmethod
    def assert_certified(A, sol):
        floor = (sol.row_strategy.weights @ A.values).min()
        ceiling = (A.values @ sol.col_strategy.weights).max()
        assert floor >= sol.value - sol.tolerance
        assert ceiling <= sol.value + sol.tolerance
        assert sol.duality_gap <= sol.tolerance

    @pytest.mark.parametrize(
        "family,size,seed",
        [("Positive", 10, 1), ("General", 30, 7), ("General", 6, 3), ("Skew", 7, 1)],
    )
    def test_certifies_ensembles(self, family, size, seed):
        for A in ensemble(family, size, 25, seed):
            self.assert_certified(A, solve_game(A))

    def test_certifies_degenerate_games(self, rps, saddle):
        rng = np.random.default_rng(109)
        games = [rps, saddle, GameMatrix(np.eye(4)), GameMatrix(np.zeros((2, 3)))]
        for _ in range(150):
            m, n = (int(k) for k in rng.integers(1, 6, 2))
            games.append(GameMatrix(rng.integers(-2, 3, (m, n))))
            games.append(GameMatrix(rng.integers(0, 2, (m, n))))
            games.append(GameMatrix(np.full((m, n), float(rng.integers(-3, 4)))))
        for A in games:
            self.assert_certified(A, solve_game(A))

    def test_large_general_game(self):
        # A second LP for the column player, on -B^T, used to exhaust the
        # 18,200-pivot budget in phase 1 on this game.
        A = GameMatrix(np.random.default_rng(4).uniform(-10, 10, (120, 120)))
        self.assert_certified(A, solve_game(A))

    def test_refuses_a_bad_column_certificate(self, rps, monkeypatch):
        import zerosum.solver as solver_mod

        value_lp = solver_mod._value_lp

        def pure_column_duals(B, feas_tol, start):
            x, v, y, basis = value_lp(B, feas_tol, start)
            return x, v, np.eye(len(y))[0], basis

        monkeypatch.setattr(solver_mod, "_value_lp", pure_column_duals)
        with pytest.raises(RuntimeError, match="violates its certificates"):
            solve_game(rps)

    def test_lp_noise_in_the_row_point_is_clipped(self, saddle, monkeypatch):
        # An entry just below -1e-12 used to raise InvalidStrategyError, an
        # input error, though the clipped point passes the certificate.
        import zerosum.solver as solver_mod

        value_lp = solver_mod._value_lp

        def noisy_point(B, feas_tol, start):
            x, v, y, basis = value_lp(B, feas_tol, start)
            return x + np.array([-1e-11, 1e-11]), v, y, basis

        monkeypatch.setattr(solver_mod, "_value_lp", noisy_point)
        sol = solve_game(saddle)
        assert list(sol.row_strategy.weights) == [0.0, 1.0]
        assert sol.value == 3.0

    def test_bad_tol(self, rps):
        for tol in (0.0, -1.0):
            with pytest.raises(InputError):
                solve_game(rps, tol=tol)


class TestOracle:
    def test_rps_full_support(self, rps):
        sol = oracle_solve(rps)
        assert abs(sol.value) <= 1e-9
        assert sol.row_support == (0, 1, 2)
        assert sol.col_support == (0, 1, 2)
        np.testing.assert_allclose(sol.row_strategy.weights, np.full(3, 1 / 3), atol=1e-9)

    def test_saddle_supports(self, saddle):
        sol = oracle_solve(saddle)
        assert sol.value == pytest.approx(3.0, abs=1e-9)
        assert sol.row_support == (1,)
        assert sol.col_support == (0,)

    def test_uniform_diagonal(self):
        sol = oracle_solve(GameMatrix(np.diag([2.0, 2.0])))
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sol.row_strategy.weights, [0.5, 0.5], atol=1e-12)

    def test_size_gate(self):
        with pytest.raises(OracleSizeError):
            oracle_solve(GameMatrix(np.zeros((6, 2))))

    def test_strategies_vanish_outside_support(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            A = random_matrix(rng, 4, 4)
            sol = oracle_solve(A)
            off_row = np.setdiff1d(np.arange(A.rows), sol.row_support)
            off_col = np.setdiff1d(np.arange(A.cols), sol.col_support)
            assert np.all(sol.row_strategy.weights[off_row] == 0.0)
            assert np.all(sol.col_strategy.weights[off_col] == 0.0)

    def test_no_improving_pure_deviation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            A = random_matrix(rng, 5, 5)
            sol = oracle_solve(A)
            assert (sol.row_strategy.weights @ A.values).min() >= sol.value - 1e-8
            assert (A.values @ sol.col_strategy.weights).max() <= sol.value + 1e-8


def _all_row_optima_dominated(A, v, tol):
    mins, maxs = row_optima_column_extrema(A, v, tol)
    return extrema_dominated(mins, maxs, v, tol, FEAS_TOL_DEFAULT)


class TestAllRowOptimaDominated:
    def test_equalizing_game(self):
        assert _all_row_optima_dominated(GameMatrix([[2, 1], [1, 2]]), 1.5, 1e-7)

    def test_saddle_counterexample(self, saddle):
        assert not _all_row_optima_dominated(saddle, 3.0, 1e-7)

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_non_finite_or_non_positive_tolerances_rejected(self, rps, bad):
        with pytest.raises(InputError, match="tol"):
            row_optima_column_extrema(rps, 0.0, bad)
        with pytest.raises(InputError, match="feas_tol"):
            row_optima_column_extrema(rps, 0.0, 1e-7, feas_tol=bad)

    def test_identity_boundary(self):
        # Optimal set degenerates to the equalizer; extrema touch v +/- tol.
        assert _all_row_optima_dominated(GameMatrix(np.diag([1.0, 1.0])), 0.5, 1e-7)

    def test_extrema_against_highs(self, rps, saddle):
        rng = np.random.default_rng(108)
        games = [rps, saddle, GameMatrix(np.eye(3)), GameMatrix(np.ones((2, 3)))]
        games += [
            GameMatrix(rng.uniform(1, 10, (n, n))) for n in (3, 6, 10) for _ in range(3)
        ]
        tol = 1e-7
        for A in games:
            v = solve_game(A).value
            got = row_optima_column_extrema(A, v, tol)
            want = highs.column_extrema(A.values, v, tol)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


class TestRandomProperties:
    def test_duality_and_equilibrium(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            A = random_matrix(rng, 9, 9)
            sol = solve_game(A)
            assert sol.duality_gap <= 1e-8
            floor = (sol.row_strategy.weights @ A.values).min()
            ceiling = (A.values @ sol.col_strategy.weights).max()
            assert floor >= sol.value - 1e-8
            assert ceiling <= sol.value + 1e-8

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(102)
        for _ in range(60):
            A = random_matrix(rng, 5, 5)
            assert abs(solve_game(A).value - oracle_solve(A).value) <= 1e-7

    def test_shift_covariance(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            A = random_matrix(rng, 6, 6)
            v = solve_game(A).value
            for c in (-3.0, 0.5, 10.0):
                assert abs(solve_game(GameMatrix(A.values + c)).value - (v + c)) <= 1e-8

    def test_scale_covariance(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            A = random_matrix(rng, 6, 6)
            v = solve_game(A).value
            for c in (0.5, 2.0, 10.0):
                assert abs(solve_game(GameMatrix(c * A.values)).value - c * v) <= 1e-8

    def test_negative_transpose_identity(self):
        rng = np.random.default_rng(105)
        for _ in range(30):
            A = random_matrix(rng, 6, 8)
            assert abs(
                solve_game(A).value + solve_game(GameMatrix(-A.values.T)).value
            ) <= 1e-8

    def test_skew_games_have_zero_value(self):
        rng = np.random.default_rng(106)
        for n in (2, 3, 5, 7):
            A = random_skew(rng, n)
            assert abs(solve_game(A).value) <= 1e-8

    def test_large_magnitude_via_normalization(self):
        # tolerances are absolute; huge payoffs are handled by normalizing
        # and exploiting exact scale covariance, not by loosening tol
        rng = np.random.default_rng(107)
        for _ in range(5):
            V = rng.uniform(-1e9, 1e9, (6, 6))
            c = np.abs(V).max()
            sol = solve_game(GameMatrix(V / c))
            value = sol.value * c
            floor = (sol.row_strategy.weights @ V).min()
            ceiling = (V @ sol.col_strategy.weights).max()
            assert floor >= value - 1e-8 * c
            assert ceiling <= value + 1e-8 * c


class TestEnsembleRegressions:
    """Ensemble games on which the simplex used to raise "solver bug"."""

    @pytest.mark.parametrize(
        "family,size,seed,trial",
        [
            # the point read from the tableau missed feasibility by 1.07e-9
            ("General", 30, 7, 44),
            # phase-1 roundoff dust (an improving column with no positive
            # entry) was taken for an unbounded ray
            ("General", 30, 905, 120),
            ("Positive", 10, 14, 49),
        ],
    )
    def test_solves(self, family, size, seed, trial):
        A = ensemble(family, size, trial + 1, seed)[trial]
        v = solve_game(A).value
        assert abs(v + solve_game(GameMatrix(-A.values.T)).value) <= 1e-8
