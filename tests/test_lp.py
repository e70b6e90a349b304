import sys

import numpy as np
import pytest

import highs_oracle as highs
from zerosum import (
    DimensionMismatchError,
    GameMatrix,
    InputError,
    LinearProgram,
    LPStatus,
    row_optima_column_extrema,
    solve_game,
    solve_lp,
)
from zerosum.lp import (
    DEGENERATE_STALL,
    PIVOT_TOL,
    IterationLimitError,
    _pivot,
    _priced_cost_row,
    _residual,
    _run_simplex,
    maximize_each,
)
from conftest import ensemble, integer_positive_games

FEAS_TOL = 1e-9


@pytest.fixture
def pivot_log(monkeypatch):
    """One (entered the largest reduced cost, degenerate) pair per pivot."""
    import zerosum.lp as lp_mod

    log = []
    pivot = lp_mod._pivot

    def recording(T, row, col):
        reduced = T[-1, :-1]
        ratio = T[row, -1] / T[row, col]
        log.append((reduced[col] == reduced.max(), ratio <= PIVOT_TOL))
        pivot(T, row, col)

    monkeypatch.setattr(lp_mod, "_pivot", recording)
    return log


class TestBasicOutcomes:
    def test_box_optimum(self):
        p = LinearProgram(objective=[1, 1], ineq_lhs=[[1, 0], [0, 1]], ineq_rhs=[1, 1])
        sol = solve_lp(p)
        assert sol.status is LPStatus.OPTIMAL
        assert abs(sol.objective_value - 2.0) <= 1e-9
        np.testing.assert_allclose(sol.point, [1.0, 1.0], atol=1e-9)

    def test_infeasible(self):
        p = LinearProgram(objective=[1], ineq_lhs=[[1]], ineq_rhs=[-1])
        assert solve_lp(p).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        p = LinearProgram(objective=[1])
        assert solve_lp(p).status is LPStatus.UNBOUNDED

    def test_equality_with_bounds(self):
        p = LinearProgram(
            objective=[1, 2],
            eq_lhs=[[1, 1]],
            eq_rhs=[1],
            ineq_lhs=np.eye(2),
            ineq_rhs=[0.7, 0.7],
        )
        sol = solve_lp(p)
        assert abs(sol.objective_value - 1.7) <= 1e-9

    def test_beale_cycling_terminates(self, pivot_log):
        # Classic instance on which Dantzig's rule cycles; the Bland
        # fallback after DEGENERATE_STALL degenerate pivots must end it.
        p = LinearProgram(
            objective=[0.75, -150, 0.02, -6],
            ineq_lhs=[
                [0.25, -60, -1 / 25, 9],
                [0.5, -90, -1 / 50, 3],
                [0, 0, 1, 0],
            ],
            ineq_rhs=[0, 0, 1],
        )
        sol = solve_lp(p)
        assert sol.status is LPStatus.OPTIMAL
        assert abs(sol.objective_value - 0.05) <= 1e-9
        # Dantzig's rule through the whole degenerate stretch ...
        assert pivot_log[:DEGENERATE_STALL] == [(True, True)] * DEGENERATE_STALL
        # ... then Bland's smallest index, which leaves it within a few pivots.
        fallback = pivot_log[DEGENERATE_STALL:]
        assert 0 < len(fallback) <= 10
        assert not all(dantzig for dantzig, _ in fallback)
        assert not all(degenerate for _, degenerate in fallback)


class TestValidation:
    def test_dimension_mismatch(self):
        for lhs, rhs in [([[1]], [0]), ([1, 2], [0]), ([[1, 2]], [0, 0])]:
            with pytest.raises(DimensionMismatchError):
                LinearProgram(objective=[1, 2], ineq_lhs=lhs, ineq_rhs=rhs)

    def test_missing_rhs(self):
        with pytest.raises(DimensionMismatchError):
            LinearProgram(objective=[1], ineq_lhs=[[1]])

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            LinearProgram(objective=[float("nan")])
        with pytest.raises(InputError, match="finite"):
            LinearProgram(objective=[1], eq_lhs=[[float("inf")]], eq_rhs=[1])
        with pytest.raises(InputError, match="nonempty"):
            LinearProgram(objective=[])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(objective=[1, 2], ineq_lhs=[[1], [1, 2]], ineq_rhs=[0, 0]),
            dict(objective=[1], ineq_lhs=[[1]], ineq_rhs=[[0], [1, 2]]),
            dict(objective=[[1], [1, 2]]),
        ],
    )
    def test_ragged_input_is_a_dimension_mismatch(self, kwargs):
        with pytest.raises(DimensionMismatchError) as err:
            LinearProgram(**kwargs)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(objective=["x"]),
            dict(objective=[10**400]),
            dict(objective=[1], eq_lhs=[[{}]], eq_rhs=[1]),
        ],
    )
    def test_non_numeric_input_is_an_input_error(self, kwargs):
        with pytest.raises(InputError) as err:
            LinearProgram(**kwargs)
        assert not isinstance(err.value, DimensionMismatchError)
        assert isinstance(err.value.__cause__, (TypeError, ValueError, OverflowError))

    def test_ragged_or_non_numeric_objectives(self):
        region = LinearProgram(objective=[1, 2])
        with pytest.raises(DimensionMismatchError):
            maximize_each(region, [[1], [1, 2]])
        with pytest.raises(InputError, match="numeric"):
            maximize_each(region, [["a", 1]])

    def test_objective_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            maximize_each(LinearProgram(objective=[1, 2]), [[1, 2, 3]])


def _random_feasible_program(rng):
    """LP with a known interior point z0 inside the box [0, 2]^n, whose upper
    side is written as the last n rows of G."""
    n = int(rng.integers(1, 5))
    mg = int(rng.integers(0, 5))
    me = int(rng.integers(0, 2))
    z0 = rng.uniform(0.2, 1.0, n)
    G = rng.uniform(-2, 2, (mg, n))
    h = G @ z0 + rng.uniform(0.05, 1.0, mg)
    E = rng.uniform(-2, 2, (me, n))
    f = E @ z0
    c = rng.uniform(-2, 2, n)
    p = LinearProgram(
        objective=c,
        ineq_lhs=np.vstack([G, np.eye(n)]),
        ineq_rhs=np.concatenate([h, np.full(n, 2.0)]),
        eq_lhs=E if me else None,
        eq_rhs=f if me else None,
    )
    return p, z0


def _feasible_mask(p, points, tol):
    ok = np.ones(len(points), dtype=bool)
    if p.ineq_lhs.shape[0]:
        ok &= np.all(points @ p.ineq_lhs.T <= p.ineq_rhs + tol, axis=1)
    if p.eq_lhs.shape[0]:
        ok &= np.all(np.abs(points @ p.eq_lhs.T - p.eq_rhs) <= tol, axis=1)
    ok &= np.all(points >= -tol, axis=1)
    return ok


def test_weak_duality_on_random_feasible_instances():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        p, z0 = _random_feasible_program(rng)
        sol = solve_lp(p)
        assert sol.status is LPStatus.OPTIMAL
        assert sol.primal_residual <= FEAS_TOL
        # any feasible point scores at most the reported optimum
        samples = rng.uniform(0.0, 2.0, (400, p.n_vars))
        samples[0] = z0
        feasible = samples[_feasible_mask(p, samples, 1e-12)]
        assert len(feasible) >= 1
        assert np.all(feasible @ p.objective <= sol.objective_value + 1e-8)


def test_infeasible_reports_confirmed_by_rejection_sampling():
    rng = np.random.default_rng(99)
    confirmed = 0
    while confirmed < 10:
        n = int(rng.integers(1, 4))
        mg = int(rng.integers(1, 4))
        G = rng.uniform(-2, 2, (mg, n))
        h = rng.uniform(-3.0, -1.5, mg)  # likely contradicts the [0,1] box
        p = LinearProgram(
            objective=rng.uniform(-1, 1, n),
            ineq_lhs=np.vstack([G, np.eye(n)]),
            ineq_rhs=np.concatenate([h, np.ones(n)]),
        )
        sol = solve_lp(p)
        if sol.status is not LPStatus.INFEASIBLE:
            continue
        samples = rng.uniform(0.0, 1.0, (10_000, n))
        assert not np.any(_feasible_mask(p, samples, FEAS_TOL))
        confirmed += 1


def test_iteration_limit_error_is_distinct(monkeypatch):
    import zerosum.lp as lp_mod

    monkeypatch.setattr(lp_mod, "ITERATION_FACTOR", 0)
    p = LinearProgram(objective=[1], ineq_lhs=[[1]], ineq_rhs=[1])
    with pytest.raises(lp_mod.IterationLimitError):
        solve_lp(p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_game_pivot_budget(pivot_log, seed):
    # Smallest-index pricing alone took 594, 1222 and 693 pivots on these
    # games; the largest reduced cost takes 167, 240 and 207.
    A = np.random.default_rng(seed).uniform(-10, 10, (80, 80))
    solve_game(GameMatrix(A))
    assert 0 < len(pivot_log) <= 350


def test_priced_cost_row_matches_row_by_row_elimination():
    # The cost row is one matrix product; the row-by-row elimination below
    # sums the same terms in another order, so they agree up to roundoff.
    rng = np.random.default_rng(37)
    for _ in range(50):
        m, k = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        T = rng.uniform(-5, 5, (m + 1, k + m + 1))
        basis = [int(b) for b in rng.permutation(k + m)[:m]]
        costs = rng.uniform(-2, 2, k + m) * (rng.random(k + m) < 0.7)
        want = np.append(costs, 0.0)
        for r, b in enumerate(basis):
            want -= costs[b] * T[r]
        scale = np.abs(costs[basis]) @ np.abs(T[:-1]) + np.abs(want)
        got = _priced_cost_row(T, basis, costs)
        assert np.all(np.abs(got - want) <= 2 * m * np.finfo(float).eps * scale)


def _textbook_pivot(T, row, col):
    """Gauss-Jordan step as written in textbooks, plus `_pivot`'s cleanup."""
    prow = T[row] / T[row, col]
    factors = T[:, col].copy()
    want = T - np.outer(factors, prow)
    want[row] = prow
    want[:, col] = 0.0
    want[row, col] = 1.0
    rhs = want[:-1, -1]
    rhs[(rhs < 0.0) & (rhs > -PIVOT_TOL)] = 0.0
    return want


def test_pivot_is_the_textbook_elimination_bit_for_bit():
    rng = np.random.default_rng(53)
    for _ in range(200):
        m, k = int(rng.integers(1, 13)), int(rng.integers(1, 25))
        T = rng.uniform(-5, 5, (m + 1, k + m + 1))
        row, col = int(rng.integers(m)), int(rng.integers(k + m))
        want = _textbook_pivot(T, row, col)
        _pivot(T, row, col)
        assert T.tobytes() == want.tobytes()
        unit = np.zeros(m + 1)
        unit[row] = 1.0
        assert T[:, col].tobytes() == unit.tobytes()
    # Exact zeros, -0.0 among them, and negative pivots, as phase 1's
    # drive-out takes: a -0.0 entry may keep its sign where the textbook's
    # product would clear it (see the lp docstring), so equal as floats.
    for _ in range(200):
        m, k = int(rng.integers(1, 13)), int(rng.integers(1, 25))
        T = rng.integers(-2, 3, (m + 1, k + m + 1)).astype(float)
        T[rng.random(T.shape) < 0.2] = -0.0
        row, col = int(rng.integers(m)), int(rng.integers(k + m))
        T[row, col] = -float(rng.integers(1, 4))
        want = _textbook_pivot(T, row, col)
        _pivot(T, row, col)
        assert np.array_equal(T, want)
        unit = np.zeros(m + 1)
        unit[row] = 1.0
        assert np.array_equal(T[:, col], unit)


def test_textbook_pivot_takes_the_same_path_on_degenerate_games(monkeypatch):
    # Integer payoffs tie and degenerate often.  Solving with `_pivot` and
    # with the textbook elimination must pivot on the same (row, col) each
    # time and leave tableaux equal up to the sign of a zero.
    import zerosum.lp as lp_mod

    rng = np.random.default_rng(29)
    skew = []
    for _ in range(200):
        upper = np.triu(rng.integers(-2, 3, (5, 5)), 1)
        skew.append(GameMatrix(upper - upper.T))
    games = integer_positive_games(200) + skew

    def textbook(T, row, col):
        T[...] = _textbook_pivot(T, row, col)

    paths = []
    for pivot in (lp_mod._pivot, textbook):
        path = []

        def recording(T, row, col):
            pivot(T, row, col)
            path.append((row, col, T.copy()))

        monkeypatch.setattr(lp_mod, "_pivot", recording)
        for A in games:
            solve_game(A)
        paths.append(path)
    got, want = paths
    assert len(got) == len(want) > 1000
    for (row, col, T), (want_row, want_col, want_T) in zip(got, want):
        assert (row, col) == (want_row, want_col)
        assert np.array_equal(T, want_T)


def test_pivot_rhs_dust_rule():
    # Column 0 is zero off the pivot row, so every other rhs passes through
    # the elimination unchanged and meets the dust rule as written here.
    below = -PIVOT_TOL
    dust = [-PIVOT_TOL / 2, np.nextafter(-PIVOT_TOL, 0.0), -5e-324]
    kept = [below, np.nextafter(below, -1.0), -1e-6, 0.0, 3.0]
    rhs = [2.0, *dust, *kept, -PIVOT_TOL / 2]  # pivot row, rows, cost row
    T = np.zeros((len(rhs), 3))
    T[:, 1] = np.linspace(-1.0, 1.0, len(rhs))
    T[:, -1] = rhs
    T[0, 0] = 2.0
    _pivot(T, 0, 0)
    assert T[0, -1] == 1.0
    assert T[1 : 1 + len(dust), -1].tolist() == [0.0] * len(dust)
    assert T[1 + len(dust) : -1, -1].tolist() == kept
    # The cost row is not a rhs: its dust is kept.
    assert T[-1, -1] == -PIVOT_TOL / 2
    assert T[:, 0].tolist() == [1.0] + [0.0] * (len(rhs) - 1)


@pytest.fixture
def pivot_at(monkeypatch):
    """One (row, col) pair per pivot."""
    import zerosum.lp as lp_mod

    log = []
    pivot = lp_mod._pivot

    def recording(T, row, col):
        log.append((row, col))
        pivot(T, row, col)

    monkeypatch.setattr(lp_mod, "_pivot", recording)
    return log


def _tableau(rows, cost):
    """Tableau of constraint rows [body | rhs] under a cost row [reduced | -obj]."""
    return np.array([*rows, cost], dtype=float)


class TestRatioTest:
    def test_tie_leaves_the_smaller_basic_variable(self, pivot_at):
        # Column 0 enters; both rows have ratio 2, and the lower row holds
        # basic variable 1 < 2, so it leaves although it comes second.
        T = _tableau([[1, 0, 1, 2], [1, 1, 0, 2]], [1, 0, 0, 0])
        basis = [2, 1]
        assert _run_simplex(T, basis, 10) == "optimal"
        assert pivot_at == [(1, 0)]
        assert basis == [2, 0]

    def test_ineligible_rows_do_not_tie_with_an_overflowed_ratio(self, pivot_at):
        # Row 1's ratio 1e300 / 1e-10 overflows to inf.  Rows 0 and 2 have no
        # positive entry and hold smaller basic variables, yet row 1 leaves.
        T = _tableau(
            [[0, 1, 0, 0, 1], [1e-10, 0, 1, 0, 1e300], [-1, 0, 0, 1, 1]],
            [1, 0, 0, 0, 0],
        )
        basis = [1, 2, 3]
        with np.errstate(all="ignore"):  # the pivot spreads inf and NaN
            assert _run_simplex(T, basis, 10) == "optimal"
        assert pivot_at == [(1, 0)]
        assert basis == [1, 0, 3]

    def test_bounded_zeroes_a_column_of_dust_and_prices_on(self, pivot_at):
        # Column 0's only positive entry, 2e-11, passes PIVOT_TOL but not
        # PIVOT_TOL scaled by the column's largest magnitude, 3.
        rows = [[2e-11, 1, 1, 0, 1], [-3, 2, 0, 1, 4]]
        cost = [2, 1, 0, 0, 0]
        T = _tableau(rows, cost)
        assert _run_simplex(T, [2, 3], 10, bounded=True) == "optimal"
        assert pivot_at == [(0, 1)]
        # Zeroed, then reduced by row 0's 2e-11 in the pivot on column 1.
        assert T[-1, 0] == -2e-11
        pivot_at.clear()
        _run_simplex(_tableau(rows, cost), [2, 3], 10)
        assert pivot_at[0] == (0, 0)

    def test_no_positive_entry_is_unbounded(self, pivot_at):
        T = _tableau([[-1, 1, 0, 1], [0, 0, 1, 2]], [1, 0, 0, 0])
        before = T.copy()
        assert _run_simplex(T, [1, 2], 10) == "unbounded"
        assert pivot_at == []
        assert T.tobytes() == before.tobytes()

    def test_no_rows(self, pivot_at):
        assert _run_simplex(_tableau([], [1, 0]), [], 10) == "unbounded"
        T = _tableau([], [1, 0])
        assert _run_simplex(T, [], 10, bounded=True) == "optimal"
        assert T[-1, 0] == 0.0
        assert pivot_at == []

    def test_nan_minimum_ratio_is_a_solver_error(self, pivot_at):
        # Row 0's NaN rhs makes its ratio the minimum: a RuntimeError, the
        # CLI's exit-3 class, and no pivot on it.
        T = _tableau([[1, 1, 0, np.nan], [1, 0, 1, 1]], [1, 0, 0, 0])
        with pytest.raises(RuntimeError, match="NaN minimum ratio"):
            _run_simplex(T, [1, 2], 10)
        assert pivot_at == []


def _reference_pivot(T, row, col):
    """`_pivot` one entry at a time on a list of rows: divide the pivot row
    by its pivot, subtract from every row its entry in `col` times that row
    (the pivot row's factor is 0), then zero every rhs in (-PIVOT_TOL, 0)."""
    prow = [x / T[row][col] for x in T[row]]
    for i, r in enumerate(T):
        f = 0.0 if i == row else r[col]
        T[i] = [x - f * p for x, p in zip(prow if i == row else r, prow)]
    for r in T[:-1]:
        if -PIVOT_TOL < r[-1] < 0.0:
            r[-1] = 0.0


def _reference_simplex(T, basis, iter_limit, bounded, pivots):
    """`_run_simplex` as its docstring states it, in plain Python on a list
    of rows, appending the (row, col) of every pivot to `pivots`."""
    import zerosum.lp as lp_mod

    m, n = len(T) - 1, len(T[0]) - 1
    stalled = 0
    for _ in range(iter_limit):
        reduced = T[-1][:-1]
        if stalled < lp_mod.DEGENERATE_STALL:  # Dantzig: largest reduced cost
            enter = max(range(n), key=reduced.__getitem__)  # the first one
        else:  # Bland: smallest improving index
            enter = next((j for j in range(n) if reduced[j] > PIVOT_TOL), 0)
        if reduced[enter] <= PIVOT_TOL:
            return "optimal"
        col = [r[enter] for r in T[:-1]]
        tol = PIVOT_TOL
        if bounded:
            tol *= max([1.0, *map(abs, col)])
        rows = [i for i in range(m) if col[i] > tol]
        if not rows:
            if bounded:  # phase-1 dust
                T[-1][enter] = 0.0
                continue
            return "unbounded"
        ratios = [T[i][-1] / col[i] for i in rows]
        if any(r != r for r in ratios):
            raise RuntimeError("NaN minimum ratio")
        best = min(ratios)
        stalled = stalled + 1 if best <= PIVOT_TOL else 0
        ties = [i for i, r in zip(rows, ratios) if r == best]
        leave = min(ties, key=basis.__getitem__)
        _reference_pivot(T, leave, enter)
        basis[leave] = enter
        pivots.append((leave, enter))
    raise IterationLimitError


def _canonical_tableau(rng, body, rhs, costs):
    """[body | I | rhs] under [costs | 0 | 0], columns shuffled, with the
    basis of the identity's columns."""
    m, k = body.shape
    perm = rng.permutation(k + m)
    T = np.zeros((m + 1, k + m + 1))
    T[:m, :-1] = np.concatenate([body, np.eye(m)], axis=1)[:, perm]
    T[:m, -1] = rhs
    T[-1, :-1] = np.concatenate([costs, np.zeros(m)])[perm]
    basis = [int(np.flatnonzero(perm == k + i)[0]) for i in range(m)]
    return T, basis


def _random_tableaux(rng):
    """(kind, T, basis) for the differential ratio-test test."""
    for _ in range(150):  # continuous
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        body = rng.uniform(-5, 5, (m, k))
        yield "continuous", *_canonical_tableau(
            rng, body, rng.uniform(0, 5, m), rng.uniform(-2, 5, k)
        )
    for _ in range(300):  # exact ties; all-zero ratios as in a degenerate phase 1
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        body = rng.integers(-2, 3, (m, k)).astype(float)
        rhs = rng.integers(0, 3, m) * (rng.random() < 0.5)
        costs = rng.integers(-1, 3, k).astype(float)
        yield "integer", *_canonical_tableau(rng, body, rhs, costs)
    for _ in range(100):  # every eligible ratio overflows; other rows ineligible
        m, k = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        body = rng.uniform(0, 1, (m, k))
        rhs = rng.uniform(0, 5, m)
        overflow = rng.random(m) < 0.5
        overflow[int(rng.integers(m))] = True
        body[:, 0] = rng.choice([0.0, -1.0, 1e-12], m)
        body[overflow, 0] = 1e-10
        rhs[overflow] = 1e300
        costs = np.concatenate([[10.0], rng.uniform(-1, 1, k - 1)])
        yield "overflow", *_canonical_tableau(rng, body, rhs, costs)
    for _ in range(20):
        T = np.zeros((1, int(rng.integers(2, 6))))
        T[0, :-1] = rng.choice([-1.0, 0.0, PIVOT_TOL, 2e-11, 1.0], T.shape[1] - 1)
        yield "no rows", T, []


def _outcome(run, T, basis, *args):
    """run's outcome, or the type of the RuntimeError it raised."""
    try:
        return run(T, basis, 50 * len(T[0]), *args)
    except RuntimeError as exc:
        return type(exc)


@pytest.mark.parametrize("stall", [DEGENERATE_STALL, 2])
def test_run_simplex_matches_the_reference_loop(monkeypatch, pivot_at, stall):
    # A stall of 2 makes the integer tableaux reach Bland's rule.
    import zerosum.lp as lp_mod

    monkeypatch.setattr(lp_mod, "DEGENERATE_STALL", stall)
    rng = np.random.default_rng(71)
    seen = set()
    for kind, T, basis in _random_tableaux(rng):
        bounded = bool(rng.random() < 0.5)
        want_T, want_basis, want_pivots = T.tolist(), list(basis), []
        want = _outcome(_reference_simplex, want_T, want_basis, bounded, want_pivots)
        pivot_at.clear()
        with np.errstate(all="ignore"):  # overflow spreads inf and NaN
            got = _outcome(_run_simplex, T, basis, bounded)
        assert got == want, kind
        assert pivot_at == want_pivots, kind
        assert basis == want_basis, kind
        assert np.array_equal(T, np.array(want_T), equal_nan=True), kind
        seen.add((kind, got))
    assert {kind for kind, _ in seen} == {"continuous", "integer", "overflow", "no rows"}
    assert {outcome for _, outcome in seen} == {"optimal", "unbounded"}


def test_pivot_loop_calls_no_python_level_numpy_wrapper():
    # In numpy 2.x `a.min()`, `a.max()`, `a.sum()`, `a.any()` and `a.all()`
    # run Python code in numpy's `_methods`, and `np.max`, `np.clip`, ... in
    # `fromnumeric`; the pivot loop and the setup of each LP call neither
    # (see the lp docstring).
    try:
        from numpy._core import _methods, fromnumeric
    except ImportError:  # numpy 1.x
        from numpy.core import _methods, fromnumeric
    import zerosum.lp as lp_mod

    wrappers = {_methods.__file__, fromnumeric.__file__}
    loop = {
        fn.__code__
        for fn in (lp_mod._run_simplex, lp_mod._pivot, lp_mod._two_phase, lp_mod._phase_one)
    }
    entered = {code: 0 for code in loop}
    wrapped = []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in loop:
            entered[frame.f_code] += 1
        elif frame.f_code.co_filename in wrappers and frame.f_back.f_code in loop:
            wrapped.append((frame.f_back.f_code.co_name, frame.f_code.co_name))

    A = ensemble("General", 30, 1, 7)[0]
    sys.setprofile(profile)
    try:
        solve_game(A)
    finally:
        sys.setprofile(None)
    assert wrapped == []
    assert all(entered.values()), entered


def test_residual_counts_negative_coordinates():
    # z >= 0 is part of every region, so a negative coordinate is infeasible.
    p = LinearProgram(objective=[1, 1])
    assert _residual(p, np.array([0.5, -1e-3])) == 1e-3


def test_phase_two_recomputes_x_b_before_declaring_a_solver_bug(monkeypatch):
    import zerosum.lp as lp_mod

    p = LinearProgram(objective=[1, 1], ineq_lhs=[[1, 2], [3, 1]], ineq_rhs=[4, 6])
    calls = []

    def violated_once(region, z):
        calls.append(z)
        return 1.0 if len(calls) == 1 else _residual(region, z)

    monkeypatch.setattr(lp_mod, "_residual", violated_once)
    sol = solve_lp(p)
    assert len(calls) == 2
    assert sol.status is LPStatus.OPTIMAL
    np.testing.assert_allclose(sol.point, [1.6, 1.2], atol=1e-12)
    assert sol.primal_residual == _residual(p, sol.point)

    monkeypatch.setattr(lp_mod, "_residual", lambda region, z: 1.0)
    with pytest.raises(RuntimeError, match="solver bug"):
        solve_lp(p)


def test_degenerate_equalities_and_redundant_rows():
    # Duplicated equality rows force redundant phase-1 rows to be dropped.
    p = LinearProgram(
        objective=[1, 1],
        eq_lhs=[[1, 1], [1, 1], [2, 2]],
        eq_rhs=[1, 1, 2],
    )
    sol = solve_lp(p)
    assert sol.status is LPStatus.OPTIMAL
    assert abs(sol.objective_value - 1.0) <= 1e-9


def _assert_matches_solve_lp(region, objectives):
    """maximize_each agrees with one fresh solve_lp per objective."""
    got = maximize_each(region, objectives)
    assert len(got) == len(objectives)
    for c, sol in zip(objectives, got):
        fresh = solve_lp(
            LinearProgram(
                objective=c,
                ineq_lhs=region.ineq_lhs,
                ineq_rhs=region.ineq_rhs,
                eq_lhs=region.eq_lhs,
                eq_rhs=region.eq_rhs,
            )
        )
        assert sol.status is fresh.status
        if sol.status is LPStatus.OPTIMAL:
            assert abs(sol.objective_value - fresh.objective_value) <= 1e-9
            assert sol.primal_residual <= FEAS_TOL
            assert abs(float(c @ sol.point) - sol.objective_value) <= 1e-12


def test_maximize_each_matches_solve_lp_on_random_regions():
    rng = np.random.default_rng(7)
    for _ in range(40):
        region, _ = _random_feasible_program(rng)
        objectives = [rng.uniform(-2, 2, region.n_vars) for _ in range(6)]
        _assert_matches_solve_lp(region, objectives)


@pytest.mark.parametrize(
    "values,value",
    [
        ([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], 0.0),  # RPS: one optimum, all tight
        ([[1, 2], [3, 4]], 3.0),  # saddle: a vertex of the simplex
        ([[1, 0], [0, 1]], 0.5),  # identity: equalizer on the boundary
        ([[1, 1], [1, 1]], 1.0),  # constant: the whole simplex is optimal
    ],
)
def test_maximize_each_on_degenerate_optimal_polytopes(values, value):
    # The region row_optima_column_extrema maximizes over: optimal row
    # strategies of the game, at the value less the claim tolerance.
    V = np.array(values, dtype=float)
    m, n = V.shape
    region = LinearProgram(
        objective=np.zeros(m),
        ineq_lhs=-V.T,
        ineq_rhs=np.full(n, -(value - 1e-7)),
        eq_lhs=np.ones((1, m)),
        eq_rhs=np.ones(1),
    )
    objectives = [s * V[:, j] for s in (1.0, -1.0) for j in range(n)]
    rng = np.random.default_rng(3)
    objectives += list(rng.uniform(-1, 1, (4, m)))
    _assert_matches_solve_lp(region, objectives)


def test_positive_game_extrema_take_no_pivots(pivot_log):
    # A nondegenerate game's optimal-strategy region is a simplex whose
    # vertices are read off the value LP's basis, so no extremum runs an LP.
    for i, A in enumerate(ensemble("Positive", 10, 40, 1)):
        sol = solve_game(A, 1e-7)
        pivot_log.clear()
        row_optima_column_extrema(A, sol.value, 1e-7, solution=sol)
        assert pivot_log == [], i


def test_maximize_each_infeasible_region():
    region = LinearProgram(objective=[0, 0], ineq_lhs=[[1, 1]], ineq_rhs=[-1])
    sols = maximize_each(region, [[1, 0], [0, 1], [-1, -1]])
    assert [s.status for s in sols] == [LPStatus.INFEASIBLE] * 3


@pytest.mark.parametrize("rhs", [1.0, -1.0], ids=["feasible", "infeasible"])
def test_maximize_each_of_no_objectives_is_empty(rhs):
    region = LinearProgram(
        objective=[0, 0], ineq_lhs=[[1, 1]], ineq_rhs=[rhs], eq_lhs=[[1, -1]], eq_rhs=[0]
    )
    for objectives in (np.empty((0, 2)), []):
        assert maximize_each(region, objectives) == []


def test_maximize_each_unbounded_objective_mid_sequence():
    # z >= 0, z0 <= 1, z1 free upward, and an equality forcing phase 1 work.
    region = LinearProgram(
        objective=[0, 0, 0],
        ineq_lhs=[[1, 0, 0]],
        ineq_rhs=[1],
        eq_lhs=[[0, 0, 1]],
        eq_rhs=[2],
    )
    objectives = [[1, 0, 0], [0, 1, 0], [1, -1, 1], [-1, -1, 0]]
    sols = maximize_each(region, objectives)
    assert [s.status for s in sols] == [
        LPStatus.OPTIMAL,
        LPStatus.UNBOUNDED,
        LPStatus.OPTIMAL,
        LPStatus.OPTIMAL,
    ]
    assert abs(sols[2].objective_value - 3.0) <= 1e-9
    assert abs(sols[3].objective_value) <= 1e-9
    _assert_matches_solve_lp(region, [np.array(c, dtype=float) for c in objectives])


def _random_leq_program(rng):
    """maximize c.z s.t. G z <= h, z >= 0, bounded by one all-positive row.

    h is G z0 plus a positive gap at a known z0 > 0, so some rows start with
    a negative right-hand side and are flipped by the simplex.
    """
    n = int(rng.integers(1, 6))
    mg = int(rng.integers(0, 5))
    z0 = rng.uniform(0.2, 1.0, n)
    G = np.vstack([rng.uniform(-2, 2, (mg, n)), rng.uniform(0.5, 2, (1, n))])
    h = G @ z0 + rng.uniform(0.05, 1.0, mg + 1)
    return LinearProgram(objective=rng.uniform(-2, 2, n), ineq_lhs=G, ineq_rhs=h)


def test_ineq_duals_nonnegative_and_complementary():
    rng = np.random.default_rng(31)
    programs = [_random_feasible_program(rng)[0] for _ in range(40)]
    programs += [_random_leq_program(rng) for _ in range(40)]
    for p in programs:
        sol = solve_lp(p)
        assert sol.status is LPStatus.OPTIMAL
        y = sol.ineq_duals
        assert y.shape == (p.ineq_lhs.shape[0],)
        assert np.all(y >= -PIVOT_TOL)
        slack = p.ineq_rhs - p.ineq_lhs @ sol.point
        assert np.all(np.abs(y * slack) <= 1e-9)


def test_ineq_duals_strong_duality():
    rng = np.random.default_rng(32)
    flipped = 0
    for _ in range(60):
        p = _random_leq_program(rng)
        flipped += int(np.sum(p.ineq_rhs < 0))
        sol = solve_lp(p)
        assert sol.status is LPStatus.OPTIMAL
        assert abs(sol.objective_value - p.ineq_rhs @ sol.ineq_duals) <= 1e-9
        # dual feasibility: G^T y >= c, since every z_j >= 0
        assert np.all(p.ineq_lhs.T @ sol.ineq_duals >= p.objective - 1e-9)
    assert flipped > 0


def test_ineq_duals_from_maximize_each():
    rng = np.random.default_rng(33)
    region = _random_leq_program(rng)
    objectives = rng.uniform(-2, 2, (5, region.n_vars))
    for sol in maximize_each(region, objectives):
        assert abs(sol.objective_value - region.ineq_rhs @ sol.ineq_duals) <= 1e-9


def test_ineq_duals_against_highs():
    rng = np.random.default_rng(34)
    for _ in range(40):
        p = _random_leq_program(rng)
        sol = solve_lp(p)
        res = highs.solve(-p.objective, A_ub=p.ineq_lhs, b_ub=p.ineq_rhs)
        assert res.status == 0
        # HiGHS minimizes -c.z; its marginals are d(min)/dh = -y.
        np.testing.assert_allclose(
            sol.ineq_duals, -res.ineqlin.marginals, rtol=0, atol=1e-8
        )


def test_no_ineq_rows_gives_empty_duals():
    sol = solve_lp(LinearProgram(objective=[1, 1], eq_lhs=[[1, 1]], eq_rhs=[1]))
    assert sol.ineq_duals.shape == (0,)


def _random_infeasible_programs(rng, count):
    """`count` LPs over z >= 0 with <= and = rows that solve_lp reports
    Infeasible.  Right-hand sides of both signs make the simplex flip rows."""
    programs = []
    while len(programs) < count:
        n = int(rng.integers(1, 5))
        mg = int(rng.integers(0, 4))
        me = int(rng.integers(0, 3))
        if mg + me == 0:
            continue
        p = LinearProgram(
            objective=rng.uniform(-1, 1, n),
            ineq_lhs=rng.uniform(-2, 2, (mg, n)) if mg else None,
            ineq_rhs=rng.uniform(-2, 1, mg) if mg else None,
            eq_lhs=rng.uniform(-2, 2, (me, n)) if me else None,
            eq_rhs=rng.uniform(-2, 2, me) if me else None,
        )
        sol = solve_lp(p)
        if sol.status is LPStatus.INFEASIBLE:
            programs.append((p, sol))
    return programs


def test_farkas_certifies_infeasibility():
    rng = np.random.default_rng(35)
    flipped_ineq = flipped_eq = mixed = 0
    for p, sol in _random_infeasible_programs(rng, 300):
        mg = p.ineq_lhs.shape[0]
        w = sol.farkas
        assert w.shape == (mg + p.eq_lhs.shape[0],)
        tol = 1e-9 * np.max(np.abs(w))
        assert np.all(w[:mg] >= -tol)
        assert np.all(np.vstack([p.ineq_lhs, p.eq_lhs]).T @ w >= -tol)
        assert p.ineq_rhs @ w[:mg] + p.eq_rhs @ w[mg:] < 0.0
        flipped_ineq += int(np.sum(p.ineq_rhs < 0))
        flipped_eq += int(np.sum(p.eq_rhs < 0))
        mixed += int(mg > 0 and p.eq_lhs.shape[0] > 0)
    assert flipped_ineq > 0 and flipped_eq > 0 and mixed > 0


def test_farkas_from_maximize_each():
    rng = np.random.default_rng(36)
    p, sol = _random_infeasible_programs(rng, 1)[0]
    objectives = rng.uniform(-1, 1, (3, p.n_vars))
    for got in maximize_each(p, objectives):
        assert got.status is LPStatus.INFEASIBLE
        np.testing.assert_array_equal(got.farkas, sol.farkas)


def test_farkas_only_on_infeasible():
    optimal = solve_lp(LinearProgram(objective=[1], ineq_lhs=[[1]], ineq_rhs=[1]))
    unbounded = solve_lp(LinearProgram(objective=[1], ineq_lhs=[[-1]], ineq_rhs=[1]))
    assert optimal.status is LPStatus.OPTIMAL and optimal.farkas is None
    assert unbounded.status is LPStatus.UNBOUNDED and unbounded.farkas is None


def _feasible_programs():
    rng = np.random.default_rng(41)
    programs = [_random_feasible_program(rng)[0] for _ in range(30)]
    programs += [_random_leq_program(rng) for _ in range(30)]
    return programs


def test_optimal_basis_factors_to_the_point():
    # The basis layout is a contract: solver._vertex_extrema reads the value
    # LP's basis through GameSolution.lp_basis.
    for i, p in enumerate(_feasible_programs()):
        sol = solve_lp(p)
        assert sol.status is LPStatus.OPTIMAL, i
        n_ineq = p.ineq_lhs.shape[0]
        rows = n_ineq + p.eq_lhs.shape[0]
        basis = list(sol.basis)
        assert len(basis) == len(set(basis)) == rows, i
        assert all(0 <= j < p.n_vars + n_ineq for j in basis), i
        slacks = np.concatenate([np.eye(n_ineq), np.zeros((rows - n_ineq, n_ineq))])
        body = np.concatenate([np.concatenate([p.ineq_lhs, p.eq_lhs]), slacks], axis=1)
        u = np.zeros(body.shape[1])
        u[basis] = np.linalg.solve(
            body[:, basis], np.concatenate([p.ineq_rhs, p.eq_rhs])
        )
        np.testing.assert_allclose(u[: p.n_vars], sol.point, rtol=0, atol=1e-9)


def _assert_same_solution(got, want):
    assert got.status is want.status
    assert got.objective_value == want.objective_value
    assert got.basis == want.basis
    np.testing.assert_array_equal(got.point, want.point)
    np.testing.assert_array_equal(got.ineq_duals, want.ineq_duals)


def _one_objective_cases():
    """(region, objective) pairs from the maximize_each tests above: random
    boxed and <= regions, the optimal-strategy regions of four small games,
    an unbounded objective and an infeasible region."""
    rng = np.random.default_rng(7)
    regions = [_random_feasible_program(rng)[0] for _ in range(40)]
    regions += [_random_leq_program(rng) for _ in range(20)]
    cases = [(region, rng.uniform(-2, 2, region.n_vars)) for region in regions]
    for values, value in [
        ([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], 0.0),
        ([[1, 2], [3, 4]], 3.0),
        ([[1, 0], [0, 1]], 0.5),
        ([[1, 1], [1, 1]], 1.0),
    ]:
        V = np.array(values, dtype=float)
        m, n = V.shape
        region = LinearProgram(
            objective=np.zeros(m),
            ineq_lhs=-V.T,
            ineq_rhs=np.full(n, -(value - 1e-7)),
            eq_lhs=np.ones((1, m)),
            eq_rhs=np.ones(1),
        )
        cases += [(region, s * V[:, j]) for s in (1.0, -1.0) for j in range(n)]
    unbounded = LinearProgram(
        objective=[0, 0, 0], ineq_lhs=[[1, 0, 0]], ineq_rhs=[1], eq_lhs=[[0, 0, 1]],
        eq_rhs=[2],
    )
    infeasible = LinearProgram(objective=[0, 0], ineq_lhs=[[1, 1]], ineq_rhs=[-1])
    cases += [(unbounded, np.array([0.0, 1.0, 0.0])), (infeasible, np.ones(2))]
    return cases


def test_maximize_each_of_one_objective_is_solve_lp():
    # One objective has nothing to share, so maximize_each answers it as
    # solve_lp does, bit for bit.
    for region, c in _one_objective_cases():
        p = LinearProgram(
            objective=c,
            ineq_lhs=region.ineq_lhs,
            ineq_rhs=region.ineq_rhs,
            eq_lhs=region.eq_lhs,
            eq_rhs=region.eq_rhs,
        )
        (got,) = maximize_each(region, [c])
        want = solve_lp(p)
        _assert_same_solution(got, want)
        np.testing.assert_array_equal(got.farkas, want.farkas)
        assert got.primal_residual == want.primal_residual
