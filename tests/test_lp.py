import inspect
import itertools
import sys

import numpy as np
import pytest

import zerosum
from zerosum import (
    ClaimId,
    GameMatrix,
    gordan,
    row_optima_column_extrema,
    run_checker,
    solve_game,
)
from zerosum.lp import (
    DEGENERATE_STALL,
    PIVOT_TOL,
    IterationLimitError,
    _pivot,
    _priced_cost_row,
    _residual,
    _run_simplex,
    solve_lp,
)
from conftest import (
    assert_program_contract,
    ensemble,
    integer_positive_games,
    lp_program,
    skew4,
    with_slacks,
)

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


def _objective(program, answer):
    """c.z at the answer's point; 0 on the slacks `with_slacks` adds."""
    return program[0] @ answer[0]


class TestBasicOutcomes:
    def test_box_optimum(self):
        p = with_slacks(objective=[1, 1], ineq_lhs=[[1, 0], [0, 1]], ineq_rhs=[1, 1])
        z, w = solve_lp(*p)
        assert w is None
        assert abs(_objective(p, (z, w)) - 2.0) <= 1e-9
        np.testing.assert_allclose(z, [1.0, 1.0, 0.0, 0.0], atol=1e-9)

    def test_infeasible(self):
        p = with_slacks(objective=[1], ineq_lhs=[[1]], ineq_rhs=[-1])
        z, w = solve_lp(*p)
        assert z is None and w is not None

    def test_unbounded(self):
        # No program the package states is unbounded, so a ray in phase 2
        # is a solver bug, not an outcome.
        p = with_slacks(objective=[1], ineq_lhs=[[-1]], ineq_rhs=[1])
        with pytest.raises(RuntimeError, match="improving ray.*solver bug"):
            solve_lp(*p)

    def test_equality_with_bounds(self):
        p = with_slacks(
            objective=[1, 2],
            eq_lhs=[[1, 1]],
            eq_rhs=[1],
            ineq_lhs=np.eye(2),
            ineq_rhs=[0.7, 0.7],
        )
        assert abs(_objective(p, solve_lp(*p)) - 1.7) <= 1e-9

    def test_beale_cycling_terminates(self, pivot_log):
        # Classic instance on which Dantzig's rule cycles from the slack
        # basis; the Bland fallback after DEGENERATE_STALL degenerate pivots
        # must end it.  Phase 1 leaves another basis, so the run starts at
        # the slacks here.
        G = [[0.25, -60, -1 / 25, 9], [0.5, -90, -1 / 50, 3], [0, 0, 1, 0]]
        c, h = [0.75, -150, 0.02, -6], [0, 0, 1]
        T = _tableau(
            [[*row, *np.eye(3)[i], h[i]] for i, row in enumerate(G)], [*c, 0, 0, 0, 0]
        )
        _run_simplex(T, [4, 5, 6])
        assert abs(T[-1, -1] + 0.05) <= 1e-9  # -objective
        # Dantzig's rule through the whole degenerate stretch ...
        assert pivot_log[:DEGENERATE_STALL] == [(True, True)] * DEGENERATE_STALL
        # ... then Bland's smallest index, which leaves it within a few pivots.
        fallback = pivot_log[DEGENERATE_STALL:]
        assert 0 < len(fallback) <= 10
        assert not all(dantzig for dantzig, _ in fallback)
        assert not all(degenerate for _, degenerate in fallback)
        p = with_slacks(objective=c, ineq_lhs=G, ineq_rhs=h)
        assert abs(_objective(p, solve_lp(*p)) - 0.05) <= 1e-9


def _skew4_wide_kernels():
    """The first 40 of the 4 x 4 skew matrices with upper entries in
    {-2, -1, 1, 2} and a zero Pfaffian, so of rank 2: kernels of dimension
    2, the only kernel questions the SVD leaves to an LP."""
    out = []
    for upper in itertools.product((-2.0, -1.0, 1.0, 2.0), repeat=6):
        a12, a13, a14, a23, a24, a34 = upper
        if a12 * a34 - a13 * a24 + a14 * a23 == 0.0:
            out.append(GameMatrix(skew4(upper)))
    return out[:40]


class TestTrustedConstructor:
    """What `solve_lp` takes on trust: its callers' three arrays (c, E, f),
    neither copied nor checked on the way in (see its docstring)."""

    @pytest.mark.parametrize(
        "claim,matrices",
        [
            (ClaimId.POSITIVE_DOMINATED_THM4, lambda: ensemble("Positive", 10, 20, 1)),
            (ClaimId.NEG_TRANSPOSE_THM2, lambda: ensemble("General", 30, 20, 7)),
            (ClaimId.GORDAN_THEOREM3, _skew4_wide_kernels),
        ],
        ids=["posdom", "negt_general", "gordan_skew4_wide_kernels"],
    )
    def test_bench_lps_keep_the_contract(
        self, internal_lps, monkeypatch, claim, matrices
    ):
        # The first 20 trials of two of the bench's ensembles, and Gordan's
        # kernel LPs: every LP the audit states keeps `solve_lp`'s contract.
        # A game's value LP, whose certificate passes on each of these
        # games, states none.
        import zerosum.solver as solver_mod

        games = []
        value_lp = solver_mod.solve_value_lp

        def recording_value_lp(B):
            games.append(B)
            return value_lp(B)

        monkeypatch.setattr(solver_mod, "solve_value_lp", recording_value_lp)
        for A in matrices():
            run_checker(claim, A)
        assert len(internal_lps) + len(games) >= 20
        for p in internal_lps:
            assert_program_contract(p)

    def test_non_square_kernel_lps_keep_the_contract(self, internal_lps):
        # The SVD answers square kernel questions only, so gordan asks an LP
        # for a 2 x 3 and a 3 x 2 matrix.
        for values in ([[1, -1, 2], [0, 1, -1]], [[1, -1], [2, 0], [-1, 1]]):
            gordan(GameMatrix(values))
        assert [E.shape for _, E, _ in internal_lps] == [(3, 3), (4, 2)]
        for p in internal_lps:
            assert_program_contract(p)

    def test_takes_the_arrays_as_they_are(self):
        # Row 0 is negated for the tableau, in a copy: the caller's arrays
        # come back as they went in, and the point is read against them.
        p = lp_program([1, 1], [[-1, -1], [1, 0]], [-1, 0.25])
        before = [a.copy() for a in p]
        z, w = solve_lp(*p)
        assert w is None and _objective(p, (z, w)) == 1.0
        assert _residual(p[1], p[2], z) <= FEAS_TOL
        assert all(a.tobytes() == b.tobytes() for a, b in zip(p, before))

    def test_is_not_public(self):
        # Only the package states programs, each as its three arrays, and
        # an answer is the pair (z, w): `lp` defines no type to hold either.
        import zerosum.lp as lp_mod

        assert all(not name.startswith("_") for name in zerosum.__all__)
        assert not hasattr(zerosum, "solve_lp")
        assert list(inspect.signature(solve_lp).parameters) == ["c", "E", "f"]
        classes = [
            v
            for v in vars(lp_mod).values()
            if inspect.isclass(v) and v.__module__ == lp_mod.__name__
        ]
        assert classes == [IterationLimitError]


def _random_feasible_program(rng):
    """(c, G, h, E, f, z0): an LP with a known interior point z0 inside the
    box [0, 2]^n, whose upper side is written as the last n rows of G."""
    n = int(rng.integers(1, 5))
    mg = int(rng.integers(0, 5))
    me = int(rng.integers(0, 2))
    z0 = rng.uniform(0.2, 1.0, n)
    G = rng.uniform(-2, 2, (mg, n))
    h = G @ z0 + rng.uniform(0.05, 1.0, mg)
    E = rng.uniform(-2, 2, (me, n))
    f = E @ z0
    c = rng.uniform(-2, 2, n)
    G, h = np.vstack([G, np.eye(n)]), np.concatenate([h, np.full(n, 2.0)])
    return c, G, h, E, f, z0


def _feasible_mask(G, h, E, f, points, tol):
    ok = np.all(points @ G.T <= h + tol, axis=1)
    ok &= np.all(np.abs(points @ E.T - f) <= tol, axis=1)
    ok &= np.all(points >= -tol, axis=1)
    return ok


def test_weak_duality_on_random_feasible_instances():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        c, G, h, E, f, z0 = _random_feasible_program(rng)
        p = with_slacks(c, G, h, E, f)
        sol = solve_lp(*p)
        assert sol[1] is None
        assert _residual(p[1], p[2], sol[0]) <= FEAS_TOL
        # any feasible point scores at most the reported optimum
        samples = rng.uniform(0.0, 2.0, (400, c.size))
        samples[0] = z0
        feasible = samples[_feasible_mask(G, h, E, f, samples, 1e-12)]
        assert len(feasible) >= 1
        assert np.all(feasible @ c <= _objective(p, sol) + 1e-8)


def test_infeasible_reports_confirmed_by_rejection_sampling():
    rng = np.random.default_rng(99)
    confirmed = 0
    while confirmed < 10:
        n = int(rng.integers(1, 4))
        mg = int(rng.integers(1, 4))
        # h likely contradicts the [0, 1] box.
        G = np.vstack([rng.uniform(-2, 2, (mg, n)), np.eye(n)])
        h = np.concatenate([rng.uniform(-3.0, -1.5, mg), np.ones(n)])
        E, f = np.zeros((0, n)), np.zeros(0)
        z, _ = solve_lp(*with_slacks(rng.uniform(-1, 1, n), G, h))
        if z is not None:
            continue
        samples = rng.uniform(0.0, 1.0, (10_000, n))
        assert not np.any(_feasible_mask(G, h, E, f, samples, FEAS_TOL))
        confirmed += 1


def test_iteration_limit_error_is_distinct(monkeypatch):
    import zerosum.lp as lp_mod

    monkeypatch.setattr(lp_mod, "ITERATION_FACTOR", 0)
    p = with_slacks(objective=[1], ineq_lhs=[[1]], ineq_rhs=[1])
    with pytest.raises(lp_mod.IterationLimitError):
        solve_lp(*p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_game_pivot_budget(pivot_log, seed):
    # Smallest-index pricing alone took 594, 1222 and 693 pivots on these
    # games; the largest reduced cost takes 167, 240 and 207.
    A = np.random.default_rng(seed).uniform(-10, 10, (80, 80))
    solve_game(GameMatrix(A))
    assert 0 < len(pivot_log) <= 350


def test_priced_cost_row_matches_row_by_row_elimination():
    # The cost row, written into the tableau's last row, is one matrix
    # product; the row-by-row elimination below sums the same terms in
    # another order, so they agree up to roundoff.
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
        priced = T.copy()
        _priced_cost_row(priced, basis, costs)
        assert priced[:-1].tobytes() == T[:-1].tobytes()  # only the cost row
        got = priced[-1]
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
        _run_simplex(T, basis)
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
            _run_simplex(T, basis)
        assert pivot_at == [(1, 0)]
        assert basis == [1, 0, 3]

    def test_bounded_zeroes_a_column_of_dust_and_prices_on(self, pivot_at):
        # Column 0's only positive entry, 2e-11, passes PIVOT_TOL but not
        # PIVOT_TOL scaled by the column's largest magnitude, 3.
        rows = [[2e-11, 1, 1, 0, 1], [-3, 2, 0, 1, 4]]
        cost = [2, 1, 0, 0, 0]
        T = _tableau(rows, cost)
        _run_simplex(T, [2, 3], bounded=True)
        assert pivot_at == [(0, 1)]
        # Zeroed, then reduced by row 0's 2e-11 in the pivot on column 1.
        assert T[-1, 0] == -2e-11
        pivot_at.clear()
        _run_simplex(_tableau(rows, cost), [2, 3])
        assert pivot_at[0] == (0, 0)

    def test_no_positive_entry_is_unbounded(self, pivot_at):
        # Column 0 improves and no row limits it: a ray, which no program
        # the package states has, so a solver bug, raised before any pivot.
        T = _tableau([[-1, 1, 0, 1], [0, 0, 1, 2]], [1, 0, 0, 0])
        before = T.copy()
        with pytest.raises(RuntimeError, match="column 0 is an improving ray; solver bug"):
            _run_simplex(T, [1, 2])
        assert pivot_at == []
        assert T.tobytes() == before.tobytes()

    def test_nan_minimum_ratio_is_a_solver_error(self, pivot_at):
        # Row 0's NaN rhs makes its ratio the minimum: a RuntimeError, the
        # CLI's exit-3 class, and no pivot on it.
        T = _tableau([[1, 1, 0, np.nan], [1, 0, 1, 1]], [1, 0, 0, 0])
        with pytest.raises(RuntimeError, match="NaN minimum ratio"):
            _run_simplex(T, [1, 2])
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


def _reference_simplex(T, basis, bounded, pivots):
    """`_run_simplex` as its docstring states it, in plain Python on a list
    of rows, appending the (row, col) of every pivot to `pivots`."""
    import zerosum.lp as lp_mod

    m, n = len(T) - 1, len(T[0]) - 1
    stalled = 0
    for _ in range(lp_mod.ITERATION_FACTOR * (m + n)):
        reduced = T[-1][:-1]
        if stalled < lp_mod.DEGENERATE_STALL:  # Dantzig: largest reduced cost
            enter = max(range(n), key=reduced.__getitem__)  # the first one
        else:  # Bland: smallest improving index
            enter = next((j for j in range(n) if reduced[j] > PIVOT_TOL), 0)
        if reduced[enter] <= PIVOT_TOL:
            return
        col = [r[enter] for r in T[:-1]]
        tol = PIVOT_TOL
        if bounded:
            tol *= max([1.0, *map(abs, col)])
        rows = [i for i in range(m) if col[i] > tol]
        if not rows:
            if bounded:  # phase-1 dust
                T[-1][enter] = 0.0
                continue
            raise RuntimeError("improving ray")
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


def _outcome(run, T, basis, *args):
    """"optimal" when run returns, "ray" when it raises on an improving ray,
    else the type of the RuntimeError it raised."""
    try:
        run(T, basis, *args)
    except RuntimeError as exc:
        return "ray" if "improving ray" in str(exc) else type(exc)
    return "optimal"


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
    assert {kind for kind, _ in seen} == {"continuous", "integer", "overflow"}
    assert {outcome for _, outcome in seen} == {"optimal", "ray"}


def test_pivot_loop_calls_no_python_level_numpy_wrapper():
    # In numpy 2.x `a.min()`, `a.max()`, `a.sum()`, `a.any()` and `a.all()`
    # run Python code in numpy's `_methods`, and `np.max`, `np.clip`, ... in
    # `fromnumeric`; the pivot loop and the setup of each LP call neither
    # (see the lp docstring).  The value LP of a game starts at phase 2; the
    # LP fallback of the optimal-strategy extrema runs solve_lp's two phases.
    try:
        from numpy._core import _methods, fromnumeric
    except ImportError:  # numpy 1.x
        from numpy.core import _methods, fromnumeric
    import zerosum.lp as lp_mod

    wrappers = {_methods.__file__, fromnumeric.__file__}
    loop = {
        fn.__code__
        for fn in (
            lp_mod._run_simplex,
            lp_mod._pivot,
            lp_mod.solve_lp,
            lp_mod._priced_cost_row,
            lp_mod._phase_two,
        )
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
    degenerate = GameMatrix([[1, 1, 1], [1, 1, 2], [3, 3, 1]])
    sys.setprofile(profile)
    try:
        solve_game(A)
        row_optima_column_extrema(degenerate, 5 / 3, 1e-8)
    finally:
        sys.setprofile(None)
    assert wrapped == []
    assert all(entered.values()), entered


def test_per_trial_path_calls_no_python_level_numpy_wrapper():
    # The pivot loop's rule holds on the whole per-trial path (see the lp
    # docstring): one trial of PositiveDominatedThm4 on Positive 10, and
    # GordanTheorem3 on each kind of matrix its SVD answers (a Skew 7 trial,
    # a kernel line with both signs; a nonsingular Skew 6 trial; RPS, a
    # one-signed line), and the rendering of their reports.  No zerosum
    # function calls into `_methods` or `fromnumeric` directly.
    try:
        from numpy._core import _methods, fromnumeric
    except ImportError:  # numpy 1.x
        from numpy.core import _methods, fromnumeric
    import zerosum
    from zerosum import claims, core, solver, spectral
    import zerosum.lp as lp_mod

    package = zerosum.__file__.rpartition("__init__.py")[0]
    wrappers = {_methods.__file__, fromnumeric.__file__}
    named = {
        fn.__code__
        for fn in (
            solver._positivity_shift,
            solver._certify,
            solver._vertex_extrema,
            solver.extrema_dominated,
            spectral.perron,
            spectral.gordan,
            spectral._svd,
            spectral._sign_sums,
            claims._skew_gate,
            claims.check_positive_dominated,
            core.MixedStrategy.__post_init__,
            core.canonical_json,
            lp_mod.solve_value_lp,
            lp_mod._value_rows,
            lp_mod._phase_two,
        )
    } | {
        # The value LP's certificate.
        code
        for code in lp_mod.solve_value_lp.__code__.co_consts
        if getattr(code, "co_name", None) == "residual"
    }
    entered = set()
    wrapped = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code, caller = frame.f_code, frame.f_back.f_code
        if code in named:
            entered.add(code)
        if code.co_filename in wrappers and caller.co_filename.startswith(package):
            wrapped.append((caller.co_name, code.co_name))

    positive = ensemble("Positive", 10, 1, 1)[0]
    skews = [
        ensemble("Skew", 7, 1, 1)[0],
        ensemble("Skew", 6, 1, 1)[0],
        GameMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]),
    ]
    sys.setprofile(profile)
    try:
        reports = [claims.check_positive_dominated(positive)]
        reports += [claims.check_gordan_theorem3(skew) for skew in skews]
        for report in reports:
            report.to_canonical_json()
    finally:
        sys.setprofile(None)
    assert wrapped == []
    assert entered == named, {code.co_name for code in named - entered}


def test_residual_counts_negative_coordinates():
    # z >= 0 is part of every region, so a negative coordinate is infeasible.
    assert _residual(np.zeros((1, 2)), np.zeros(1), np.array([0.5, -1e-3])) == 1e-3


def test_phase_two_recomputes_x_b_before_declaring_a_solver_bug(monkeypatch):
    import zerosum.lp as lp_mod

    p = with_slacks(objective=[1, 1], ineq_lhs=[[1, 2], [3, 1]], ineq_rhs=[4, 6])
    calls = []

    def violated_once(E, f, z):
        calls.append(z)
        return 1.0 if len(calls) == 1 else _residual(E, f, z)

    monkeypatch.setattr(lp_mod, "_residual", violated_once)
    z, w = solve_lp(*p)
    assert len(calls) == 2
    assert w is None
    np.testing.assert_allclose(z, [1.6, 1.2, 0.0, 0.0], atol=1e-12)
    assert calls[1] is z  # the recomputed point is the one certified

    monkeypatch.setattr(lp_mod, "_residual", lambda E, f, z: 1.0)
    with pytest.raises(RuntimeError, match="solver bug"):
        solve_lp(*p)


def test_value_lp_recomputes_x_b_before_declaring_a_solver_bug(monkeypatch):
    # The value LP's certificate is read from B; when it fails, x_B is solved
    # against the program's rows [-B^T 1 I | 0; 1^T 0 0 | 1] over
    # (x, v, slacks) and rhs, and the recomputed point is the one certified
    # and returned.
    import zerosum.lp as lp_mod

    B = np.random.default_rng(37).uniform(1.0, 6.0, (3, 4))
    m, n = B.shape
    tableau_x, tableau_v, _ = lp_mod.solve_value_lp(B)
    phase_two = lp_mod._phase_two
    calls, errors, written = [], [], []

    def failing(times):
        def spy(T, basis, N, residual, rows):
            def certificate(z):
                calls.append(z)
                errors.append(residual(z))
                return 1.0 if len(calls) <= times else errors[-1]

            def recording_rows():
                written.append(rows())
                return written[-1]

            return phase_two(T, basis, N, certificate, recording_rows)

        return spy

    monkeypatch.setattr(lp_mod, "_phase_two", failing(1))
    x, v, y = lp_mod.solve_value_lp(B)
    assert len(calls) == 2 and len(written) == 1
    z = calls[1]  # the recomputed point, certified by the second call
    assert errors[1] <= FEAS_TOL
    assert np.shares_memory(x, z) and x.tobytes() == z[:m].tobytes() and v == z[m]
    np.testing.assert_allclose(x, tableau_x, atol=1e-12)
    assert abs(v - tableau_v) <= 1e-12
    rows = np.zeros((n + 1, m + 2 + n))
    rows[:n, : m + 1 + n] = np.concatenate([-B.T, np.ones((n, 1)), np.eye(n)], axis=1)
    rows[n, :m] = 1.0
    rows[n, -1] = 1.0
    assert written[0].tobytes() == rows.tobytes()

    calls.clear()
    monkeypatch.setattr(lp_mod, "_phase_two", failing(2))
    with pytest.raises(RuntimeError, match="solver bug"):
        lp_mod.solve_value_lp(B)
    assert len(calls) == 2


def _reference_phase_one(E, f):
    """The phase-1 tableau and basis as the lp module docstring states them,
    entry by entry: [E | I | f] over the cost row of maximize -(sum of
    artificials), row i basic on its artificial, column N + i.  A row with a
    negative rhs has its data and rhs multiplied by -1; every other entry
    off the data stays +0.  The cost row is c - c_B [rows], one matrix
    product as in `_priced_cost_row`."""
    m, N = E.shape
    T = np.zeros((m + 1, N + m + 1))
    for i, (lhs, rhs) in enumerate(zip(E.tolist(), f.tolist())):
        flip = rhs < 0.0
        T[i, :N] = [a * -1.0 if flip else a for a in lhs]
        T[i, -1] = rhs * -1.0 if flip else rhs
        T[i, N + i] = 1.0
    basis = [N + i for i in range(m)]
    costs = np.zeros(N + m + 1)
    costs[N:-1] = -1.0
    T[-1] = costs - costs[basis] @ T[:-1]
    return T, basis


def _setup_programs(rng):
    """(kind, program) pairs with and without a flipped row, with
    continuous and integer data (integer data makes -0 entries)."""
    for t in range(200):
        kind = ["unflipped", "flipped"][t % 2]
        integer = t % 4 < 2
        draw = (
            (lambda *shape: rng.integers(-3, 4, shape).astype(float))
            if integer
            else (lambda *shape: rng.uniform(-2, 2, shape))
        )
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rhs = np.abs(draw(m))
        if kind == "flipped":
            rhs[0] = -rhs[0] - 1.0
        yield kind, lp_program(draw(n), draw(m, n), rhs)


def test_phase_one_tableau_is_the_documented_one(monkeypatch):
    import zerosum.lp as lp_mod

    seen = []
    run = lp_mod._run_simplex

    def capture(T, basis, bounded=False):
        if not seen:
            seen.append((T.copy(), list(basis), bounded))
        return run(T, basis, bounded)

    monkeypatch.setattr(lp_mod, "_run_simplex", capture)
    kinds = set()
    for kind, p in _setup_programs(np.random.default_rng(83)):
        seen.clear()
        with np.errstate(all="ignore"):
            try:
                solve_lp(*p)
            except RuntimeError as exc:  # phase 2 of an unbounded program
                assert "improving ray" in str(exc), kind
        (T, basis, bounded), = seen
        want_T, want_basis = _reference_phase_one(*p[1:])
        assert bounded, kind
        assert basis == want_basis, kind
        assert T.shape == want_T.shape, kind
        assert T.tobytes() == want_T.tobytes(), kind
        kinds.add(kind)
    assert len(kinds) == 2


def test_x_b_recompute_after_a_flip_and_a_dropped_row(monkeypatch):
    # Row 0 is flipped (-z0 - z1 + s0 = -1), and the second equality repeats
    # the first, so phase 1 drops its row, which is not the last.  The first
    # residual check spoils the tableau's x_B and fails, so x_B must be
    # solved again against the rebuilt, flipped, kept rows.
    import zerosum.lp as lp_mod

    p = with_slacks(
        objective=[1, 3, 0],
        ineq_lhs=[[-1, -1, 0], [1, 2, 0]],
        ineq_rhs=[-1, 4],
        eq_lhs=[[1, 1, 1], [2, 2, 2], [1, 0, 0]],
        eq_rhs=[3, 6, 0],
    )
    want, _ = solve_lp(*p)
    shapes, phase_two_basis = [], []
    run = lp_mod._run_simplex

    def recording(T, basis, bounded=False):
        shapes.append(T.shape)
        if not bounded:
            phase_two_basis.append(basis)  # final once the run returns
        return run(T, basis, bounded)

    calls = []

    def spoiled_once(E, f, z):
        calls.append(z.copy())
        if len(calls) == 1:
            (basis,) = phase_two_basis
            z[[j for j in basis if j < z.size]] += 0.5
            return 1.0
        return _residual(E, f, z)

    monkeypatch.setattr(lp_mod, "_run_simplex", recording)
    monkeypatch.setattr(lp_mod, "_residual", spoiled_once)
    z, w = solve_lp(*p)
    # Phase 1: 5 rows, 3 variables, 2 slacks and 5 artificials.  Phase 2:
    # 4 rows, no artificial.
    assert shapes == [(5 + 1, 3 + 2 + 5 + 1), (4 + 1, 3 + 2 + 1)]
    assert len(calls) == 2
    assert w is None
    np.testing.assert_allclose(z, want, atol=1e-12)
    np.testing.assert_allclose(z[:3], [0.0, 2.0, 1.0], atol=1e-12)
    assert calls[1].tobytes() == z.tobytes()  # the point certified


def test_overflowed_optimum_is_a_solver_error():
    # The optimum 1e300 / 1e-10 overflows, and the pivot turns its inf into
    # NaN; a NaN point must fail the residual checks, not end Optimal, and
    # the error names the overflow, not a solver bug.
    p = with_slacks(objective=[1.0], ineq_lhs=[[1e-10]], ineq_rhs=[1e300])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="overflows the float range") as err:
            solve_lp(*p)
    assert "solver bug" not in str(err.value)


def test_degenerate_equalities_and_redundant_rows():
    # Duplicated equality rows force redundant phase-1 rows to be dropped.
    p = lp_program([1, 1], [[1, 1], [1, 1], [2, 2]], [1, 1, 2])
    sol = solve_lp(*p)
    assert sol[1] is None
    assert abs(_objective(p, sol) - 1.0) <= 1e-9


def test_positive_game_extrema_take_no_pivots(pivot_log):
    # A nondegenerate game's optimal-strategy region is a simplex whose
    # vertices are read off the supports of the game's optimal strategies,
    # so no extremum runs an LP.
    for i, A in enumerate(ensemble("Positive", 10, 40, 1)):
        sol = solve_game(A, 1e-7)
        pivot_log.clear()
        row_optima_column_extrema(A, sol.value, 1e-7, solution=sol)
        assert pivot_log == [], i


def _random_infeasible_programs(rng, count):
    """`count` LPs over z >= 0 with <= and = rows, in standard form, that
    solve_lp reports Infeasible.  Right-hand sides of both signs make the
    simplex flip rows.  A draw that is feasible and unbounded ends in phase
    2's ray error and is skipped with the feasible ones."""
    programs = []
    while len(programs) < count:
        n = int(rng.integers(1, 5))
        mg = int(rng.integers(0, 4))
        me = int(rng.integers(0, 3))
        if mg + me == 0:
            continue
        p = with_slacks(
            rng.uniform(-1, 1, n),
            rng.uniform(-2, 2, (mg, n)),
            rng.uniform(-2, 1, mg),
            rng.uniform(-2, 2, (me, n)),
            rng.uniform(-2, 2, me),
        )
        try:
            z, w = solve_lp(*p)
        except RuntimeError as exc:
            assert "improving ray" in str(exc)
            continue
        if z is None:
            programs.append((p, w))
    return programs


def test_farkas_certifies_infeasibility():
    rng = np.random.default_rng(35)
    flipped = unflipped = 0
    for (_, E, f), w in _random_infeasible_programs(rng, 300):
        assert w.shape == f.shape
        tol = 1e-9 * np.max(np.abs(w))
        assert np.all(E.T @ w >= -tol)
        assert f @ w < 0.0
        flipped += int(np.sum(f < 0))
        unflipped += int(np.sum(f >= 0))
    assert flipped > 0 and unflipped > 0


def test_farkas_only_on_infeasible():
    z, w = solve_lp(*with_slacks(objective=[1], ineq_lhs=[[1]], ineq_rhs=[1]))
    assert z.tolist() == [1.0, 0.0] and w is None
    z, w = solve_lp(*with_slacks(objective=[1], ineq_lhs=[[1]], ineq_rhs=[-1]))
    assert z is None
    assert w.tolist() == [1.0]  # z + s = -1 with z, s >= 0
