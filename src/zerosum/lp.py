"""Dense two-phase primal simplex: Dantzig pricing with a Bland fallback,
on a dense tableau, for desk-scale programs (tens of variables and rows).

Solves  maximize c.z  subject to  E z = f,  z >= 0, the standard form
(Chvatal, Linear Programming, 1983), in which a caller writes any
inequality with a slack or surplus column of its own.  Each of the three
programs solved here (a game's value LP, the optimal-strategy extrema LP,
the kernel LP) has a row and a bounded objective, so it ends Optimal, or
Infeasible with a Farkas ray w that answers strict inequalities (see
spectral.gordan); a ray that improves the objective is a solver bug.

This module is internal: `solver` and `spectral` state their programs
here, or hand `solve_value_lp` a game's payoffs, and no public function
takes or returns what it answers.  A program is stated one way,
`solve_lp(c, E, f)` of three arrays that its caller lays out, and answered
as a pair (z, w): the point z when it is Optimal, the Farkas ray w when it
is Infeasible, and None for the other.  Nothing is checked; `solve_lp`'s
docstring states what the caller guarantees.  A guarantee that outside
input can break (a shifted payoff at or above 1/PIVOT_TOL, an eigenvalue
shift that overflows, a non-finite game value) is checked by that caller,
before its arithmetic, with an InputError that names the cause.

Every `solve_lp` call runs both phases.  `solve_value_lp`, a game's value
LP, runs no phase 1 and calls no `solve_lp`: from the payoffs B it
writes down a feasible basis, x_i basic for one row i and each column
row's slack, makes its first pivot, which no pricing or ratio test is
needed to find, and hands the tableau to `_phase_two`, the phase 2 and
certified read-out that `solve_lp` runs after its own phase 1.  Every row
i gives a feasible start; it takes the one of the largest payoff sum, a
crash basis (Bixby, ORSA J. Comput. 4, 1992) that saves pivots over the
first row.  Its certificate is read from B as well, and only the rare x_B
recompute writes the program's rows, from B.
Each simplex run sizes its own pivot budget from the tableau it pivots
(IterationLimitError).

Every program is C-ordered, by its callers' contract.  A Fortran-ordered
array would run `_residual`'s products through another BLAS kernel, which
can round differently; so no answer depends on a caller's memory layout.

Phase 1 runs on one array, allocated once and filled in place:

    [ E | I | f ]    m rows, I the artificials
    [ cost row  ]    reduced costs | -objective

A row whose rhs is negative is negated, once, in copies of E and f that
the tableau, the rare x_B recompute after phase 2 and the residual all
read.  Negation is exact, so |E z - f| is the same on a negated row.
Every row starts basic on its artificial, column N + i of row i, and the
cost row prices maximize -(sum of artificials) for that basis.  Phase 2
drops the artificial columns and prices c.  The rows go straight into
that array, and the artificials as a strided view of the flat array.

At this scale a pivot is a few thousand flops, so what a numpy call costs
is its dispatch, not its arithmetic, and a call that runs Python code
inside numpy costs more still.  Such calls include `np.max`, `np.clip`,
`np.outer`, `np.append`, `np.vstack`, `np.repeat` and `np.ones`, and in
numpy 2.x also the ndarray methods `a.min()`, `a.max()`, `a.sum()`,
`a.any()` and `a.all()`, which forward to `numpy._core._methods`.  So:
  - a reduction is a `ufunc.reduce` (`np.maximum.reduce(a)`, not
    `a.max()`), or in the pivot loop `a[a.argmin()]`, which is cheaper.
    This rule holds on the whole per-trial path: the LP set-up and
    read-out here, and the solver, spectral, claims and core code around
    each LP;
  - the pivot loop otherwise calls only ufuncs, writing with `out=` and
    `where=` into buffers made once per call where it can, basic slices,
    and the ndarray methods `argmax`, `argmin`, `nonzero`, `fill` and
    `copy`; only its rare tie and rhs-dust branches index with arrays;
  - the rank-one update of a pivot is `np.dot` of a column by a row, which
    BLAS runs as a matrix product with inner dimension 1 (`@` and
    `np.multiply.outer` cost more than the broadcast product it replaces);
  - arrays are joined with `np.concatenate`, with `out=` where the result
    is part of a larger array.
Each form does the same IEEE operations in the same order as the call it
replaces, so results stay bit-identical.  The one exception is the sign of
a zero.  An entry of an inner-dimension-1 product is one correctly rounded
product, as in the broadcast, but BLAS adds it to a +0 start, which turns a
-0 product into +0.  So a -0 entry of the tableau that meets a -0 product
stays -0, where the broadcast made it -0 - -0 = +0.  No comparison, argmin
or argmax tells the two apart, and `core.canonical_float` renders both as
"0", so pivots and reports do not change.  Nor do they change with the
BLAS thread count: every product is computed alone, in whichever thread.

A tie in the ratio test is rare, so it is found without building the tie
set: the first and the last minimum (argmin of a reversed view) differ
exactly when two rows tie.  Only then are the tied rows listed.

`_pivot` stays a module attribute that `_run_simplex` looks up once per
pivot: tests and the benchmark's tracer count pivots by replacing it.

An Infeasible program's answer is (None, w), w the phase-1 multipliers of
the rows E z = f, read off the final phase-1 cost row: row i's artificial
(cost -1) has reduced cost -1 - w_i, and a negated row's w_i is negated
back.
Up to roundoff w is a Farkas certificate: E^T w >= 0 and f.w < 0.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# Largest constraint violation an Optimal point may keep; a phase-1 sum of
# artificials above it makes the region Infeasible.
FEAS_TOL = 1e-9
# Entries at or below this magnitude are treated as zero during pivoting.
PIVOT_TOL = 1e-11
# Consecutive degenerate pivots after which pricing falls back from Dantzig's
# largest reduced cost to Bland's smallest index (see _run_simplex).
DEGENERATE_STALL = 50
# Iteration budget factor; the pricing rule terminates, so hitting the budget
# signals a solver bug rather than a hard instance.
ITERATION_FACTOR = 50


class IterationLimitError(RuntimeError):
    """One simplex run exceeded its budget of ITERATION_FACTOR * (rows +
    columns of the tableau it pivots) pivots; solver bug, since Dantzig
    pricing with its Bland fallback terminates."""


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row : row + 1]
    prow /= prow[0, col]
    factors = T[:, col : col + 1].copy()
    factors[row] = 0.0
    T -= np.dot(factors, prow)
    # The entering column is now an exact unit vector without cleanup: the
    # division left T[row, col] = x / x = 1.0, so every other entry became
    # a - a * 1.0 = 0.0 (-0.0 if a was; see the module docstring).  Rhs dust
    # is killed so the ratio test never sees a slightly negative rhs.  Dust
    # is rare, so the masks run only when the smallest rhs is negative or
    # NaN (argmin finds a NaN first).
    rhs = T[:-1, -1]
    if not rhs[rhs.argmin()] >= 0.0:
        rhs[(rhs < 0.0) & (rhs > -PIVOT_TOL)] = 0.0


def _run_simplex(T: np.ndarray, basis: list[int], bounded: bool = False) -> None:
    """Pivot T to optimality.

    Last tableau row holds reduced costs for maximization plus -objective in
    the rhs slot.  Entering = the largest reduced cost (Dantzig's rule);
    after DEGENERATE_STALL consecutive degenerate pivots (minimum ratio <=
    PIVOT_TOL) it is the smallest improving column index (Bland's rule)
    until a pivot moves the point again.  Leaving = minimum ratio with ties
    broken by smallest basic variable.  This terminates: a nondegenerate
    pivot strictly raises the objective, so no basis repeats across one, and
    within a degenerate stretch Bland's rule ends any cycle.  So a run that
    exceeds ITERATION_FACTOR * (rows + columns) pivots, counting T's
    constraint rows and variable columns, raises IterationLimitError.  An
    improving column without an eligible row is a ray, which no program
    here has: RuntimeError.  So is any improving column of a phase-2
    tableau whose rows the drive-out all dropped as redundant.

    With `bounded` (phase 1, whose objective is at most 0) an improving
    column without a positive entry can only be roundoff dust: its reduced
    cost is zeroed and pricing goes on.  That is the same pricing on an
    objective perturbed in one nonbasic cost, so it still terminates.  Its
    ratio test also scales PIVOT_TOL by the column's largest magnitude: a
    pivot on the roundoff of a zero would spoil its verdict and multipliers,
    unchecked.
    """
    # Views stay valid: T only ever changes in place.
    reduced = T[-1, :-1]
    body = T[:-1, :-1]
    rhs = T[:-1, -1]
    m = rhs.size
    eligible = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    ratios_reversed = ratios[::-1]  # its argmin finds the last minimum
    magnitudes = np.empty(m)
    stalled = 0
    limit = ITERATION_FACTOR * (m + reduced.size)
    for _ in range(limit):
        if stalled < DEGENERATE_STALL:
            enter = int(reduced.argmax())
        else:
            enter = int((reduced > PIVOT_TOL).argmax())  # first improving
        if reduced[enter] <= PIVOT_TOL:
            return
        if not m:  # the drive-out dropped every row as redundant
            raise RuntimeError(f"column {enter} is an improving ray; solver bug")
        col = body[:, enter]
        tol = PIVOT_TOL
        if bounded:
            np.abs(col, out=magnitudes)
            tol *= max(1.0, magnitudes[magnitudes.argmax()])
        np.greater(col, tol, out=eligible)
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=eligible)
        leave = int(ratios.argmin())
        best = ratios[leave]
        # The minimum is inf when no row is eligible, and rarely when every
        # eligible ratio overflowed; argmax finds the first eligible row.
        if best == np.inf and not eligible[eligible.argmax()]:
            if bounded:
                reduced[enter] = 0.0
                continue
            raise RuntimeError(f"column {enter} is an improving ray; solver bug")
        if best > PIVOT_TOL:
            stalled = 0
        elif best <= PIVOT_TOL:
            stalled += 1
        else:  # argmin finds a NaN first
            raise RuntimeError(
                f"NaN minimum ratio in column {enter}: the tableau overflowed; "
                "solver bug"
            )
        # A tie holds the first and the last minimum apart.  Then the row
        # with the smallest basic variable leaves; when the minimum is inf,
        # only among eligible rows, since the fill is inf too.
        if leave != m - 1 - int(ratios_reversed.argmin()):
            ties = (ratios == best).nonzero()[0]
            if best == np.inf:
                ties = ties[eligible[ties]]
            leave = min(ties.tolist(), key=basis.__getitem__)
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise IterationLimitError(
        f"simplex did not finish within {limit} pivots; "
        "this signals a bug since the pricing rule terminates"
    )


def _priced_cost_row(T: np.ndarray, basis: list[int], costs: np.ndarray) -> None:
    """Write into T's last row the reduced costs of `costs` for the basis,
    with -objective in the rhs slot."""
    row = T[-1]
    row[:-1] = costs
    row[-1] = 0.0
    row -= costs[basis] @ T[:-1]


def _residual(E: np.ndarray, f: np.ndarray, z: np.ndarray) -> float:
    """Largest violation of E z = f and z >= 0 at the point z; 0.0 when
    feasible.  A NaN anywhere makes it NaN."""
    gaps = np.concatenate([-z, np.abs(z @ E.T - f)])
    return float(np.maximum(np.maximum.reduce(gaps), 0.0))


def solve_lp(
    c: np.ndarray, E: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """maximize c.z  s.t.  E z = f,  z >= 0, by the two-phase simplex.
    Returns (z, None), z a point certified feasible within FEAS_TOL, when
    the program is Optimal, and (None, w), w the Farkas ray, when the
    phase-1 optimum exceeds FEAS_TOL.

    Nothing is checked or kept past the call.  The caller guarantees that
    all three arrays are finite float64 and C-contiguous, as `np.array(a,
    dtype=float, order="C")` lays them out (a strided or transposed view is
    not; its copy would be); that c is 1-D with n > 0 entries, E 2-D with n
    columns and at least one row, and f 1-D with an entry a row; and that
    c.z is bounded above on the region.
    """
    m, N = E.shape
    total = N + m
    # Rows with a negative rhs are negated, in copies (the module docstring).
    sign = np.where(f < 0.0, -1.0, 1.0)
    E = E * sign[:, None]
    f = f * sign

    # [E | I | f; cost row], filled in place: row i starts on its
    # artificial, column N + i, entry N + i * (row length + 1) of T's flat
    # layout.
    T = np.zeros((m + 1, total + 1))
    T[:m, :N] = E
    T[:m, -1] = f
    T.reshape(-1)[N : m * (total + 2) : total + 2] = 1.0
    basis = list(range(N, total))

    # Phase 1: maximize -(sum of artificials).
    phase1_costs = np.zeros(total)
    phase1_costs[N:] = -1.0
    _priced_cost_row(T, basis, phase1_costs)
    _run_simplex(T, basis, bounded=True)
    art_sum = T[-1, -1]  # -objective = sum of artificials
    if art_sum > FEAS_TOL:
        return None, (-1.0 - T[-1, N:total]) * sign

    # Drive leftover artificials out of the basis; rows where that is
    # impossible are redundant and dropped.  A lingering artificial sits at a
    # value <= FEAS_TOL, which we are entitled to round to zero, keeping the
    # rhs nonnegative through the degenerate pivot.
    keep = [True] * m
    if max(basis) >= N:
        for r in range(m):
            if basis[r] >= N:
                T[r, -1] = 0.0
                row_body = np.abs(T[r, :N])
                col = int(row_body.argmax())
                if row_body[col] > PIVOT_TOL:
                    _pivot(T, r, col)
                    basis[r] = col
                else:
                    keep[r] = False
        if not all(keep):
            T = np.concatenate([T[:-1][keep], T[-1:]])
            basis = [bvar for bvar, kept in zip(basis, keep) if kept]
    T = np.concatenate([T[:, :N], T[:, total:]], axis=1)

    # Phase 2: maximize c.z from the feasible basis.
    _priced_cost_row(T, basis, c)

    def rows() -> np.ndarray:
        return np.concatenate([E, f[:, None]], axis=1)[keep]

    return _phase_two(T, basis, N, lambda z: _residual(E, f, z), rows), None


def _value_rows(B: np.ndarray, count: int) -> np.ndarray:
    """`count` zero rows over the value LP's columns x, v, n slacks and rhs,
    with v's 1s and the slacks in the n column rows, and sum x = 1."""
    m, n = B.shape
    width = m + 1 + n
    T = np.zeros((count, width + 1))
    T[:n, m] = 1.0
    T.reshape(-1)[m + 1 : n * (width + 2) : width + 2] = 1.0  # slack j: (j, m + 1 + j)
    T[n, :m] = 1.0
    T[n, -1] = 1.0
    return T


def solve_value_lp(B: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Row player's value LP on B: maximize v s.t. B^T x >= v 1, sum x = 1,
    x >= 0, v >= 0.  The caller passes B >= 1 with every entry below
    1/PIVOT_TOL (`solve_game` checks it): so v >= 1, the bound on v is never
    active, and the ratio test resolves every payoff.  Returns (x, v, y), y
    the multipliers of the n column rows: up to roundoff a column strategy
    holding B's payoffs to v.

    No phase 1 runs: for every row i, x_i = 1 and v = 0 is feasible, with
    x_i basic in the sum row and column row j's slack basic in row j.  In
    that basis row j reads B_ij - B_kj on x_k, 1 on v and on its slack,
    rhs B_ij >= 0; the sum row reads 1 on each x_k, rhs 1; and the cost
    row is e_v.  i is the row of the largest payoff sum, the best response to a uniform
    column player (the first on a tie): on General 30 games phase 2 takes
    18 % fewer pivots from it than from the first row.  v is then the only
    improving column, each column row j is eligible at ratio B_ij, and the
    tie rule takes the first minimum, so the first pivot, (argmin B_i, v),
    is made without pricing.  The certificate is max(-min x, -v,
    v - min(x^T B), |sum x - 1|) <= FEAS_TOL; only its rare recompute
    writes the value LP's rows.
    """
    m, n = B.shape
    i = int(np.add.reduce(B, axis=1).argmax())
    T = _value_rows(B, n + 2)
    np.subtract(B[i][:, None], B.T, out=T[:n, :m])
    T[:n, -1] = B[i]
    T[-1, m] = 1.0
    basis = [*range(m + 1, m + 1 + n), i]
    r = int(B[i].argmin())
    _pivot(T, r, m)
    basis[r] = m

    def residual(z: np.ndarray) -> float:
        x, v = z[:m], z[m]
        floor = np.minimum.reduce(x @ B)
        gaps = np.array([-x[x.argmin()], -v, v - floor, abs(np.add.reduce(x) - 1.0)])
        return float(np.maximum.reduce(gaps))

    def rows() -> np.ndarray:
        R = _value_rows(B, n + 1)
        np.negative(B.T, out=R[:n, :m])
        return R

    z = _phase_two(T, basis, m + 1, residual, rows)
    return z[:m], float(z[m]), -T[-1, m + 1 : -1]


def _phase_two(
    T: np.ndarray, basis: list[int], N: int, residual: Callable, rows: Callable
) -> np.ndarray:
    """Phase 2 from a feasible basis, and its certified optimal point z.

    T is a phase-2 tableau [rows | rhs; reduced costs | -objective] over
    the columns of a program's N variables z and of any slacks after them;
    `basis`
    holds each row's basic column.  z is accepted once `residual(z)`, its
    largest violation of the program's own constraints, is at most
    FEAS_TOL.  The tableau carries roundoff from every pivot, so on a first
    failure x_B is solved against `rows()`, T's rows [rows | rhs] as the
    program writes them, and tested again; a second failure, like a ray, is
    a RuntimeError.  Both `solve_lp` and `solve_value_lp` end here.
    """
    _run_simplex(T, basis)
    u = np.zeros(T.shape[1] - 1)
    u[basis] = T[:-1, -1]
    z = u[:N]  # a view: the recompute writes through it
    error = residual(z)
    # Both tests are written so that a NaN residual fails them.
    if not error <= FEAS_TOL:
        R = rows()
        u[basis] = np.linalg.solve(R[:, basis], R[:, -1])
        if not np.logical_and.reduce(np.isfinite(z)):
            raise RuntimeError(
                "optimal point overflows the float range: the optimum is too "
                "large to represent; rescale the program"
            )
        error = residual(z)
    if not error <= FEAS_TOL:
        raise RuntimeError(
            f"optimal point violates feasibility by {error:g} > "
            f"{FEAS_TOL:g}; solver bug"
        )
    return z
