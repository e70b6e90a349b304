import dataclasses
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import highs_oracle as highs
from zerosum import (
    GameMatrix,
    InputError,
    OracleSizeError,
    Player,
    oracle_solve,
    row_optima_column_extrema,
    solve_game,
)
from zerosum.claims import check_positive_dominated
from zerosum.cli import run_cli
from zerosum.core import normalized_strategy
from zerosum.lp import PIVOT_TOL
from zerosum.solver import (
    SOLVE_TOL_DEFAULT,
    _certify,
    _exact_solve,
    _support_equilibria,
    extrema_dominated,
)
from conftest import (
    BAD_TOLERANCES,
    RPS_ENTRIES,
    assert_program_contract,
    ensemble,
    integer_positive_games,
    payoffs_at_pivot_scale,
    random_matrix,
    random_skew,
)

DATA = Path(__file__).parent / "data"


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
        sol = solve_game(rps)
        with pytest.raises(InputError, match="tolerance"):
            dataclasses.replace(sol, tolerance=bad)

    @pytest.mark.parametrize(
        "values,top",
        [
            ([[1e308, -1e308]], "inf"),
            ([[-1e308], [1.5e308]], "inf"),
            ([[1e308, -1e307]], "1.1e+308"),
            ([[2e11, 1]], "200000000000.0"),
            ([[1e12, 1]], "1000000000000.0"),
            # The game of tests/data/pivot_scale_mixed.csv, whose largest
            # payoff is the first float at 1 / PIVOT_TOL: "1e+11" at %g.
            (payoffs_at_pivot_scale()[2], "100000000000.00002"),
        ],
        ids=[f"values{k}" for k in range(6)],
    )
    def test_shift_overflow_is_an_input_error(self, values, top):
        # One rule: a shifted payoff at or above 1 / PIVOT_TOL is beyond the
        # ratio test's resolution.  A shift 1 - min that pushes the largest
        # entry past the float range reaches inf, so it is refused by the
        # same check, before any arithmetic and with no warning.  The
        # message shows the refused payoff exactly, as its repr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InputError,
                match=f"largest shifted payoff {re.escape(top)} reaches "
                "1/PIVOT_TOL.*normalize the matrix first",
            ):
                solve_game(GameMatrix(values))


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

        value_lp = solver_mod.solve_value_lp

        def pure_column_duals(B):
            x, v, y = value_lp(B)
            return x, v, np.eye(len(y))[0]

        monkeypatch.setattr(solver_mod, "solve_value_lp", pure_column_duals)
        with pytest.raises(RuntimeError, match="violates its certificates"):
            solve_game(rps)

    def test_lp_noise_in_the_row_point_is_clipped(self, saddle, monkeypatch):
        # An entry just below -1e-12 used to raise InvalidStrategyError, an
        # input error, though the clipped point passes the certificate.
        import zerosum.solver as solver_mod

        value_lp = solver_mod.solve_value_lp

        def noisy_point(B):
            x, v, y = value_lp(B)
            return x + np.array([-1e-11, 1e-11]), v, y

        monkeypatch.setattr(solver_mod, "solve_value_lp", noisy_point)
        sol = solve_game(saddle)
        assert list(sol.row_strategy.weights) == [0.0, 1.0]
        assert sol.value == 3.0

    def test_bad_tol(self, rps):
        for tol in (0.0, -1.0):
            with pytest.raises(InputError):
                solve_game(rps, tol=tol)


def _value_lp_start(B, i):
    """The value LP's tableau at x_i = 1, v = 0, written entry by entry from
    B as `solve_value_lp` states it, and its basis: column row j reads
    B_ij - B_kj on x_k, 1 on v and on slack j, rhs B_ij, basic slack j; the
    sum row reads 1 on each x_k, rhs 1, basic x_i; the cost row is e_v."""
    m, n = B.shape
    width = m + 1 + n
    T = np.zeros((n + 2, width + 1))
    for j in range(n):
        for k in range(m):
            T[j, k] = B[i, j] - B[k, j]
        T[j, m] = T[j, m + 1 + j] = 1.0
        T[j, -1] = B[i, j]
    T[n, :m] = 1.0
    T[n, -1] = 1.0
    T[-1, m] = 1.0
    return T, [*range(m + 1, width), i]


BENCH_ENSEMBLES = pytest.mark.parametrize(
    "family,size,seed",
    [("Positive", 10, 1), ("General", 30, 7), ("Skew", 7, 1)],
    ids=["posdom", "negt_general", "gordan_skew"],
)


def _bench_payoffs(family, size, seed):
    """The shifted payoffs `solve_game` hands the value LP on the first 50
    trials of a bench ensemble."""
    for A in ensemble(family, size, 50, seed):
        V = A.values
        yield V + (1.0 - V.min() if V.min() < 1.0 else 0.0)


class TestValueLpStart:
    """`lp.solve_value_lp` starts phase 2 at x_i basic in the sum row, for
    i the row with the largest payoff sum: the row player's best response
    to a uniform column player.  That tableau is `_value_lp_start(B, i)`.
    Its first pivot, on (first argmin of B_i, v), is the one `_run_simplex`
    would make there; `_run_simplex` then runs from the next tableau."""

    @staticmethod
    def start_row(B):
        """The first row with the largest sum."""
        sums = B.sum(axis=1).tolist()
        return sums.index(max(sums))

    @staticmethod
    def handed_to_phase_two(monkeypatch, B):
        """What `solve_value_lp(B)` returns, and the tableau shape and bytes
        and the basis that `_run_simplex` starts its phase 2 from.  The
        returned (x, v, y) is checked to be read off `_phase_two`'s point
        and the final tableau's cost row."""
        import zerosum.lp as lp_mod

        starts, answers = [], []
        run, phase_two = lp_mod._run_simplex, lp_mod._phase_two

        def run_spy(T, basis, bounded=False):
            starts.append((T.shape, T.tobytes(), list(basis)))
            return run(T, basis, bounded)

        def phase_two_spy(T, *program):
            answers.append((phase_two(T, *program), T))
            return answers[-1][0]

        with monkeypatch.context() as patch:
            patch.setattr(lp_mod, "_run_simplex", run_spy)
            patch.setattr(lp_mod, "_phase_two", phase_two_spy)
            got = lp_mod.solve_value_lp(B)
        (start,), ((z, T),) = starts, answers
        x, v, y = got
        m = B.shape[0]
        assert x.tobytes() == z[:m].tobytes()
        assert v == z[m]
        assert y.tobytes() == (-T[-1, m + 1 : -1]).tobytes()
        return got, start

    @staticmethod
    def written_start(monkeypatch, B, i):
        """In `handed_to_phase_two`'s form, what `_pivot` makes of
        `_value_lp_start(B, i)` at (first argmin of B_i, v), which is
        checked to be `_run_simplex`'s own first pivot there."""
        import zerosum.lp as lp_mod

        T, basis = _value_lp_start(B, i)
        m = B.shape[0]
        r = B[i].tolist().index(min(B[i]))
        first = []

        def stop(T, row, col):
            first.append((row, col))
            raise StopIteration

        with monkeypatch.context() as patch:
            patch.setattr(lp_mod, "_pivot", stop)
            with pytest.raises(StopIteration):
                lp_mod._run_simplex(T.copy(), list(basis))
        assert first == [(r, m)]
        lp_mod._pivot(T, r, m)
        basis[r] = m
        return T.shape, T.tobytes(), basis

    def assert_start(self, monkeypatch, B):
        """B's value LP starts at the largest sum, byte for byte as
        `_value_lp_start` writes it there, and answers with a v within
        1e-12 relative of HiGHS's that passes `_certify`."""
        i = self.start_row(B)
        (x, v, y), start = self.handed_to_phase_two(monkeypatch, B)
        assert start == self.written_start(monkeypatch, B, i)
        assert abs(v - highs.game_value(B)) <= 1e-12 * max(1.0, abs(v))
        row = normalized_strategy(x, Player.ROW).weights
        col = normalized_strategy(y, Player.COL).weights
        _certify(B, row, col, v, SOLVE_TOL_DEFAULT)

    @BENCH_ENSEMBLES
    def test_bench_ensembles(self, monkeypatch, family, size, seed):
        for B in _bench_payoffs(family, size, seed):
            self.assert_start(monkeypatch, B)

    def test_tied_and_degenerate_games(self, monkeypatch):
        for A in integer_positive_games(60):
            self.assert_start(monkeypatch, A.values)

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (3, 5), (5, 3)])
    def test_shapes(self, monkeypatch, shape):
        rng = np.random.default_rng(137)
        for _ in range(10):
            self.assert_start(monkeypatch, rng.uniform(1.0, 6.0, shape))

    def test_payoff_scale_is_refused_before_any_lp(self, monkeypatch):
        # A shifted payoff at 1/PIVOT_TOL or above is refused in one place,
        # `solve_game`, whether one row, some rows or every row reach it, and
        # no value LP is built.
        import zerosum.solver as solver_mod

        games = payoffs_at_pivot_scale()
        with monkeypatch.context() as patch:
            patch.setattr(solver_mod, "solve_value_lp", None)
            for B in games:
                with pytest.raises(InputError, match="reaches 1/PIVOT_TOL"):
                    solve_game(GameMatrix(B))
        # The float before the edge is accepted: game 3 without its refused
        # entry keeps the edge's predecessor in row 1, the largest sum, and
        # x_1 starts there.  Phase 2 from the first row's start, x_0, on
        # payoffs of 1e11, misses the saddle value B[1, 1] by 2.3e-6; so the
        # start is compared, and the answer checked against the saddle.
        B = games[3].copy()
        B[0, 2] = 3.0
        top = B.max()
        assert PIVOT_TOL * top < 1.0 <= PIVOT_TOL * np.nextafter(top, np.inf)
        assert self.start_row(B) == 1
        _, start = self.handed_to_phase_two(monkeypatch, B)
        assert start == self.written_start(monkeypatch, B, 1)
        sol = solve_game(GameMatrix(B))
        assert sol.value == B[1, 1] and sol.duality_gap == 0.0

    @BENCH_ENSEMBLES
    def test_fewer_pivots_than_the_first_row(self, monkeypatch, family, size, seed):
        # Phase-2 pivots, the first one included, from the largest sum's
        # start and from the first row's, `_value_lp_start(B, 0)`.
        import zerosum.lp as lp_mod

        pivot = lp_mod._pivot
        pivots = {"largest_sum": 0, "first_row": 0}

        def pivot_spy(T, row, col):
            pivots[path] += 1
            pivot(T, row, col)

        monkeypatch.setattr(lp_mod, "_pivot", pivot_spy)
        for B in _bench_payoffs(family, size, seed):
            path = "largest_sum"
            lp_mod.solve_value_lp(B)
            path = "first_row"
            T, basis = _value_lp_start(B, 0)
            r = int(B[0].argmin())
            lp_mod._pivot(T, r, B.shape[0])
            basis[r] = B.shape[0]
            lp_mod._run_simplex(T, basis)
        assert pivots["largest_sum"] < pivots["first_row"], pivots


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
            # The oracle's answer is the enumeration's first pair, rounded.
            I, J, x, y, v = next(_support_equilibria(A))
            assert (I, J) == (sol.row_support, sol.col_support)
            assert float(v) == sol.value
            assert [float(w) for w in x] == sol.row_strategy.weights.tolist()
            assert [float(w) for w in y] == sol.col_strategy.weights.tolist()

    @pytest.mark.parametrize(
        "values,value,row,col",
        [
            (RPS_ENTRIES, 0.0, [1 / 3] * 3, [1 / 3] * 3),
            ("degenerate3.csv", 2.0, [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]),
            ([[3, -1], [-2, 1]], 1 / 7, [3 / 7, 4 / 7], [2 / 7, 5 / 7]),
        ],
        ids=["rps", "degenerate3", "two-by-two"],
    )
    def test_exact_answers_round_once(self, values, value, row, col):
        # Each number is the double nearest the exact rational: the float
        # enumeration gave -4.4e-16 and 0.33333333333333337 on rps, a weight
        # 0.50000000000000011 on degenerate3 and 0.14285714285714235 here.
        if isinstance(values, str):
            values = np.loadtxt(DATA / values, delimiter=",")
        sol = oracle_solve(GameMatrix(values))
        assert sol.value == value
        assert sol.row_strategy.weights.tolist() == row
        assert sol.col_strategy.weights.tolist() == col

    def test_wide_payoff_range_is_solved_exactly(self, capsys, tmp_path):
        # Nothing is shifted, so payoffs spanning the float range neither
        # overflow nor warn, in the API or on the command line.
        A = GameMatrix([[1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle_solve(A).value == -1e308
            csv = tmp_path / "wide.csv"
            csv.write_text("1e308,-1e308\n")
            capsys.readouterr()
            assert run_cli(["oracle", "--input", str(csv)]) == 0
        assert capsys.readouterr().err == ""

    def test_exact_solve(self):
        # Each right-hand side is built from a chosen solution z.  A mixed
        # upper-triangular matrix with its rows shuffled is nonsingular and
        # meets zero pivots; putting the sum of its first and next-to-last
        # rows in its last row makes it singular.  Its entries are doubles
        # read as Fractions.
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            U = np.triu(rng.choice([1.0, -2.0, 0.5, 3e-5, 1e10, -0.1], (k, k)))
            rows = [[Fraction(e) for e in U[i]] for i in rng.permutation(k)]
            z = [Fraction(int(a), int(b)) for a, b in rng.integers(-9, 10, (k, 2)) if b]
            z += [Fraction(1)] * (k - len(z))
            rhs = [sum(a * b for a, b in zip(row, z)) for row in rows]
            assert _exact_solve(rows, rhs) == z
            if k > 1:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
                assert _exact_solve(rows, rhs) is None

    def test_no_improving_pure_deviation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            A = random_matrix(rng, 5, 5)
            sol = oracle_solve(A)
            assert (sol.row_strategy.weights @ A.values).min() >= sol.value - 1e-8
            assert (A.values @ sol.col_strategy.weights).max() <= sol.value + 1e-8


def _all_row_optima_dominated(A, v, tol):
    mins, maxs = row_optima_column_extrema(A, v, tol)
    return extrema_dominated(mins, maxs, v, tol)


class TestAllRowOptimaDominated:
    def test_equalizing_game(self):
        assert _all_row_optima_dominated(GameMatrix([[2, 1], [1, 2]]), 1.5, 1e-7)

    def test_saddle_counterexample(self, saddle):
        assert not _all_row_optima_dominated(saddle, 3.0, 1e-7)

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_non_finite_or_non_positive_tolerances_rejected(self, rps, bad):
        with pytest.raises(InputError, match="tol"):
            row_optima_column_extrema(rps, 0.0, bad)

    @pytest.mark.parametrize(
        "v,tol",
        [(float("nan"), 1e-7), (float("inf"), 1e-7), (-float("inf"), 1e-7),
         (-1.7e308, 1e308)],
    )
    def test_non_finite_v_is_an_input_error(self, rps, v, tol):
        sol = solve_game(rps)
        for solution in (None, sol):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError, match="v must be finite"):
                    row_optima_column_extrema(rps, v, tol, solution=solution)

    def test_extrema_lps_are_the_documented_programs(self, internal_lps):
        # Without a solution the extrema come from 2n LPs.  Each keeps the
        # constructor's contract and is, bit for bit, maximize c.x over
        # V^T x - s = (v - tol) 1, 1^T x = 1, x, s >= 0 with c a row of V^T,
        # then of -V^T, on degenerate3 (whose vertex gate refuses, so `verify` takes
        # this path) and five integer games.
        degenerate = GameMatrix(np.loadtxt(DATA / "degenerate3.csv", delimiter=","))
        tol = 1e-8
        for A in [degenerate, *integer_positive_games(5)]:
            V, (m, n) = A.values, A.values.shape
            v = solve_game(A).value
            internal_lps.clear()
            row_optima_column_extrema(A, v, tol)
            assert len(internal_lps) == 2 * n
            lhs = np.zeros((n + 1, m + n))
            lhs[:n] = np.concatenate([V.T, -np.eye(n) + 0.0], axis=1)
            lhs[n, :m] = 1.0
            rhs = np.append(np.full(n, v - tol), 1.0)
            for p, c in zip(internal_lps, [*V.T, *-V.T]):
                assert_program_contract(p)
                want = [np.append(c, np.zeros(n)), lhs, rhs]
                for g, w in zip([p.objective, p.lhs, p.rhs], want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()

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
            sol = solve_game(A)
            want = highs.column_extrema(A.values, sol.value, tol)
            # By LP, then from the vertices where the gate passes.
            for solution in (None, sol):
                got = row_optima_column_extrema(A, sol.value, tol, solution=solution)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def _exact_vertex_payoffs(A, sol, tol):
    """Column payoffs, in Fractions, at each vertex of the region
    {x stochastic : x^T A >= v - tol} that the supports of sol's strategies
    name (x_k = 0 off the row support, column j's payoff at v - tol on the
    column support): on every such facet but one, strictly inside that
    one.  Asserts that each vertex lies in the region, exactly."""
    m, n = A.values.shape
    V = [[Fraction(e) for e in row] for row in A.values.tolist()]
    level = Fraction(sol.value) - Fraction(tol)
    x, y = sol.row_strategy.weights, sol.col_strategy.weights
    facets = [
        ([Fraction(int(i == k)) for i in range(m)], Fraction(0))
        for k in range(m)
        if x[k] == 0.0
    ]
    facets += [([V[i][j] for i in range(m)], level) for j in range(n) if y[j] > 0.0]
    assert len(facets) == m
    vertices = []
    for k, (normal, bound) in enumerate(facets):
        tight = facets[:k] + facets[k + 1 :] + [([Fraction(1)] * m, Fraction(1))]
        x = _exact_solve([row for row, _ in tight], [b for _, b in tight])
        assert x is not None
        payoffs = [sum(x[i] * V[i][j] for i in range(m)) for j in range(n)]
        assert min(x) >= 0 and min(payoffs) >= level
        assert sum(a * xi for a, xi in zip(normal, x)) > bound
        vertices.append(payoffs)
    return vertices


class TestVertexExtrema:
    """The extrema read off the vertices of the optimal-strategy region."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        import zerosum.solver as solver_mod

        calls = []
        lp_extrema = solver_mod._lp_extrema

        def counted(*args, **kwargs):
            calls.append(1)
            return lp_extrema(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_lp_extrema", counted)
        return calls

    def test_matches_exact_vertices(self, lp_calls):
        # Every game the gate passes, among three nondegenerate Positive
        # games and 400 integer games, most of them degenerate.
        tol = 1e-7
        games = ensemble("Positive", 10, 3, 1) + integer_positive_games(400, 3, 1)
        checked = 0
        for A in games:
            sol = solve_game(A)
            mins, maxs = row_optima_column_extrema(A, sol.value, tol, solution=sol)
            if lp_calls:
                lp_calls.clear()
                continue
            checked += 1
            columns = list(zip(*_exact_vertex_payoffs(A, sol, tol)))
            want_mins = [float(min(c)) for c in columns]
            want_maxs = [float(max(c)) for c in columns]
            np.testing.assert_allclose(mins, want_mins, rtol=0, atol=1e-12)
            np.testing.assert_allclose(maxs, want_maxs, rtol=0, atol=1e-12)
        assert checked >= 3 + 149, checked

    def test_closed_form_hit_rate_on_degenerate_games(self, lp_calls):
        # A region the closed form refuses costs an `_lp_extrema` call of
        # 2n LPs, each with its own phase 1: about 4.4 ms against the closed
        # form's 0.06 ms on these games.  At most 300 of 400 regions may
        # fall back; which optimal vertex the value LP ends at decides the
        # supports the gate reads, so the count follows its start row.
        for A in integer_positive_games(400):
            check_positive_dominated(A)
        assert len(lp_calls) <= 300

    @pytest.mark.parametrize(
        "values,mins,maxs",
        [
            ([[2.5]], [2.5], [2.5]),
            ([[3, 1, 2]], [3, 1, 2], [3, 1, 2]),
            ([[1], [4], [2]], [4 - 1e-7], [4]),
        ],
        ids=["1x1", "1xn", "nx1"],
    )
    def test_single_row_or_column(self, lp_calls, values, mins, maxs):
        A = GameMatrix(values)
        sol = solve_game(A)
        got = row_optima_column_extrema(A, sol.value, 1e-7, solution=sol)
        assert lp_calls == []
        np.testing.assert_allclose(got, (mins, maxs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "values",
        [[[1, 1], [1, 1]], [[1], [1]], [[-1, 1, -1, 0], [0, 1, -1, 1]]],
        ids=["constant", "tied-rows", "degenerate"],
    )
    def test_refused_region_falls_back_to_the_lp(self, lp_calls, values):
        # The facets each solution's supports name meet in no simplex, so
        # the gate refuses and the region's LPs answer, as they do without a
        # solution.
        A = GameMatrix(values)
        sol = solve_game(A)
        got = row_optima_column_extrema(A, sol.value, 1e-7, solution=sol)
        assert lp_calls == [1]
        cold = row_optima_column_extrema(A, sol.value, 1e-7)
        np.testing.assert_allclose(got, cold, rtol=0, atol=1e-12)


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
