"""Dense two-phase primal simplex: Dantzig pricing with a Bland fallback.

Solves  maximize c.z  subject to  G z <= h,  E z = f,  z >= 0.
Other bounds are written as rows of G.  Strict inequalities cannot be
expressed here; an Infeasible result's `farkas` answers them (see spectral.gordan).

The implementation favors simplicity over speed: desk-scale instances only
(tens of variables and constraints), dense tableau.  `maximize_each` runs
phase 1 once per region, then phase 2 once per objective, in order: the
first from the basis phase 1 ended on, each later one from the basis the
previous phase 2 ended on.  `solve_lp` is the case of one objective.

At this scale a pivot is a few thousand flops, so what a numpy call costs
is its dispatch, not its arithmetic, and a call that runs Python code
inside numpy costs more still.  Such calls include `np.max`, `np.clip`,
`np.outer`, `np.append` and `np.vstack`, and in numpy 2.x also the ndarray
methods `a.min()`, `a.max()`, `a.sum()`, `a.any()` and `a.all()`, which
forward to `numpy._core._methods`.  So:
  - a reduction is a `ufunc.reduce` (`np.maximum.reduce(a)`, not
    `a.max()`), or in the pivot loop `a[a.argmin()]`, which is cheaper;
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

Every Optimal solution returns its final `basis`: one column of
[G; E | slacks] per row, where z_k is column k and the slack of inequality
row i is column n_vars + i.  (When phase 1 drops a redundant row, the basis
is one entry short.)

Every Optimal solution also carries `ineq_duals`, the multipliers y >= 0 of
the `G z <= h` rows, read off the final phase-2 cost row: the reduced cost of
row i's slack is -y_i.  A row flipped to make its rhs nonnegative has its
slack negated with it, so the same reading holds there.  At the optimum y may
sit up to PIVOT_TOL below zero.  Up to roundoff it is complementary to the
point's slacks, and when the region has only `G z <= h` rows, strong duality
reads c.z = h.y.  Nothing here re-certifies the duals against the original
data; a caller that builds on them checks its own certificate.

Every Infeasible solution carries `farkas`, the phase-1 multipliers w of the
`[G; E]` rows, read off the final phase-1 cost row: row i's slack has reduced
cost -w_i, its artificial (cost -1) -1 - w_i, and a flipped row gets its sign
back.  Up to roundoff w is a Farkas certificate: w_G >= 0, [G; E]^T w >= 0
and h.w_G + f.w_E < 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, InputError

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
    """Simplex exceeded 50*(variables+constraints) pivots; solver bug, since
    Dantzig pricing with its Bland fallback terminates."""


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _as_floats(v, name: str) -> np.ndarray:
    """A new float array holding v: DimensionMismatchError when v is ragged,
    InputError when an entry is not a number."""
    try:
        return np.array(v, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        try:
            np.asarray(v)
        except ValueError:
            raise DimensionMismatchError(f"{name} is ragged") from exc
        raise InputError(f"{name} must have numeric entries") from exc


def _as_matrix(M, n_cols: int, name: str) -> np.ndarray:
    if M is None:
        return np.zeros((0, n_cols))
    arr = _as_floats(M, name)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[1] != n_cols:
        raise DimensionMismatchError(
            f"{name} has {arr.shape[1]} columns, expected {n_cols}"
        )
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise InputError(f"{name} must have finite entries")
    return arr


def _as_vector(v, n: int | None, name: str) -> np.ndarray:
    """v as a float vector, of length n unless n is None."""
    arr = _as_floats(v, name)
    if arr.ndim != 1 or n is not None and arr.size != n:
        length = "" if n is None else f" of length {n}"
        raise DimensionMismatchError(f"{name} must be a vector{length}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise InputError(f"{name} must have finite entries")
    return arr


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective.z  s.t.  ineq_lhs z <= ineq_rhs,  eq_lhs z = eq_rhs,
    z >= 0.

    Every variable is nonnegative; write any other bound as a row of ineq_lhs.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = _as_vector(self.objective, None, "objective")
        if c.size == 0:
            raise InputError("objective must be nonempty")
        fields = {"objective": c}
        for lhs, rhs in (("ineq_lhs", "ineq_rhs"), ("eq_lhs", "eq_rhs")):
            given_lhs, v = getattr(self, lhs), getattr(self, rhs)
            fields[lhs] = M = _as_matrix(given_lhs, c.size, lhs)
            if (v is None) != (given_lhs is None):
                raise DimensionMismatchError(f"{lhs} and {rhs} must be given together")
            fields[rhs] = np.zeros(0) if v is None else _as_vector(v, M.shape[0], rhs)
        for name, val in fields.items():
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    point: np.ndarray | None = None
    objective_value: float | None = None
    primal_residual: float = 0.0
    # Multipliers of the caller's inequality rows (Optimal only); see the
    # module docstring.
    ineq_duals: np.ndarray | None = None
    # Phase-1 multipliers of the caller's rows (Infeasible only); see above.
    farkas: np.ndarray | None = None
    # Final basis (Optimal only); see the module docstring.
    basis: tuple[int, ...] | None = None


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


def _run_simplex(
    T: np.ndarray, basis: list[int], iter_limit: int, bounded: bool = False
) -> str:
    """Pivot to optimality ('optimal') or detect an improving ray ('unbounded').

    Last tableau row holds reduced costs for maximization plus -objective in
    the rhs slot.  Entering = the largest reduced cost (Dantzig's rule);
    after DEGENERATE_STALL consecutive degenerate pivots (minimum ratio <=
    PIVOT_TOL) it is the smallest improving column index (Bland's rule)
    until a pivot moves the point again.  Leaving = minimum ratio with ties
    broken by smallest basic variable.  This terminates: a nondegenerate
    pivot strictly raises the objective, so no basis repeats across one, and
    within a degenerate stretch Bland's rule ends any cycle.

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
    if m == 0:
        # No rows, so no ratio: an improving column is a ray, or in phase 1
        # dust that is zeroed.  NaN counts as improving, as argmax finds it.
        improving = ~(reduced <= PIVOT_TOL)
        if not bounded:
            return "unbounded" if np.logical_or.reduce(improving) else "optimal"
        reduced[improving] = 0.0
        return "optimal"
    eligible = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    ratios_reversed = ratios[::-1]  # its argmin finds the last minimum
    magnitudes = np.empty(m)
    stalled = 0
    for _ in range(iter_limit):
        if stalled < DEGENERATE_STALL:
            enter = int(reduced.argmax())
        else:
            enter = int((reduced > PIVOT_TOL).argmax())  # first improving
        if reduced[enter] <= PIVOT_TOL:
            return "optimal"
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
            return "unbounded"
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
        f"simplex did not finish within {iter_limit} pivots; "
        "this signals a bug since the pricing rule terminates"
    )


def _priced_cost_row(T: np.ndarray, basis: list[int], costs: np.ndarray) -> np.ndarray:
    """Reduced-cost row (with -objective in the rhs slot) for the given basis."""
    row = np.zeros(T.shape[1])
    row[:-1] = costs
    row -= costs[basis] @ T[:-1]
    return row


def _residual(p: LinearProgram, z: np.ndarray) -> float:
    """Largest violation of p's constraints, z >= 0 included, at the point z;
    0.0 when feasible."""
    worst = np.maximum.reduce(-z)
    if p.ineq_lhs.shape[0]:
        worst = np.maximum(worst, np.maximum.reduce(z @ p.ineq_lhs.T - p.ineq_rhs))
    if p.eq_lhs.shape[0]:
        eq_gap = np.abs(z @ p.eq_lhs.T - p.eq_rhs)
        worst = np.maximum(worst, np.maximum.reduce(eq_gap))
    return float(np.maximum(worst, 0.0))


def solve_lp(p: LinearProgram) -> LPSolution:
    """Two-phase simplex.  Returns Optimal with a feasible point and its
    final `basis`, Infeasible with `farkas` when the phase-1 optimum exceeds
    FEAS_TOL, or Unbounded when an improving ray is certified.
    """
    return _two_phase(p, p.objective[np.newaxis])[0]


def maximize_each(region: LinearProgram, objectives) -> list[LPSolution]:
    """Maximize each objective over the feasible region of `region`.

    `region.objective` only fixes the number of variables; `objectives` holds
    one vector of that length per row.  Phase 1 runs once, and when the
    region is infeasible every objective reports Infeasible.  Then each
    objective runs phase 2, exactly as in `solve_lp`, in the order of
    `objectives`: the first from the basis phase 1 ended on, each later one
    from the basis the previous phase 2 ended on (an Unbounded objective ends
    on a feasible basis too, so later objectives are unaffected by it).
    Results are in the order of `objectives`.
    """
    costs = _as_floats(objectives, "objectives")
    if costs.shape == (0,):  # [] is no objectives, not one empty objective
        costs = costs.reshape(0, region.n_vars)
    costs = _as_matrix(costs, region.n_vars, "objectives")
    return _two_phase(region, costs)


def _two_phase(region: LinearProgram, costs: np.ndarray) -> list[LPSolution]:
    """`maximize_each` over already validated objective rows `costs`."""
    n_ineq, N = region.ineq_lhs.shape
    m = n_ineq + region.eq_lhs.shape[0]
    width = N + n_ineq
    # [G | I | h; E | 0 | f] in one array: the rows with their slacks and rhs.
    rows = np.zeros((m, width + 1))
    body, b = rows[:, :width], rows[:, width]
    np.concatenate([region.ineq_lhs, region.eq_lhs], out=rows[:, :N])
    np.concatenate([region.ineq_rhs, region.eq_rhs], out=b)
    # The I block's diagonal: entry (i, N + i) is N + i * (width + 2) flat.
    slack = rows.reshape(-1)[N : n_ineq * (width + 2) : width + 2]
    slack.fill(1.0)
    # A row with a negative rhs is negated, its slack with it.
    flipped = b < 0.0
    if np.logical_or.reduce(flipped):
        rows[flipped, :N] *= -1.0
        b[flipped] *= -1.0
        slack[flipped[:n_ineq]] = -1.0
    # Every row but an unflipped inequality takes an artificial in phase 1.
    art_rows = (flipped | (np.arange(m) >= n_ineq)).nonzero()[0]
    iter_limit = ITERATION_FACTOR * (width + art_rows.size + m)

    started = _phase_one(body, b, N, flipped, art_rows, iter_limit)
    if isinstance(started, np.ndarray):  # Farkas multipliers
        return [LPSolution(status=LPStatus.INFEASIBLE, farkas=started) for _ in costs]
    T, basis, keep = started

    # Phase 2 per objective, each from the basis the previous one left.
    results = []
    phase2_costs = np.zeros(width)
    for c in costs:
        phase2_costs[:N] = c
        T[-1] = _priced_cost_row(T, basis, phase2_costs)
        if _run_simplex(T, basis, iter_limit) == "unbounded":
            results.append(LPSolution(status=LPStatus.UNBOUNDED))
            continue
        u = np.zeros(width)
        u[basis] = T[:-1, -1]
        z = u[:N]
        residual = _residual(region, z)
        if residual > FEAS_TOL:
            # The tableau carries roundoff from every pivot so far; solve
            # for x_B against the original rows of the final basis instead.
            u[basis] = np.linalg.solve(body[keep][:, basis], b[keep])
            z = u[:N]
            residual = _residual(region, z)
        if residual > FEAS_TOL:
            raise RuntimeError(
                f"optimal point violates feasibility by {residual:g} > "
                f"{FEAS_TOL:g}; solver bug"
            )
        results.append(
            LPSolution(
                status=LPStatus.OPTIMAL,
                point=z,
                objective_value=float(c @ z),
                primal_residual=residual,
                ineq_duals=-T[-1, N : N + n_ineq],
                basis=tuple(basis),
            )
        )
    return results


def _phase_one(
    body: np.ndarray,
    b: np.ndarray,
    N: int,
    flipped: np.ndarray,
    art_rows: np.ndarray,
    iter_limit: int,
) -> tuple[np.ndarray, list[int], np.ndarray] | np.ndarray:
    """Phase 1: the phase-2 tableau, basis and kept rows of a feasible
    region, or the Farkas multipliers of an infeasible one."""
    m, width = body.shape
    n_ineq = width - N
    total = width + art_rows.size
    T = np.zeros((m + 1, total + 1))
    T[:m, :width] = body
    T[:m, -1] = b
    art_cols = np.arange(width, total)
    T[art_rows, art_cols] = 1.0
    # Row i starts on its slack, column N + i, unless it takes an artificial:
    # then on the next artificial column.
    start = np.arange(N, N + m)
    start[art_rows] = art_cols
    basis: list[int] = start.tolist()

    # Phase 1: maximize -(sum of artificials).
    phase1_costs = np.zeros(total)
    phase1_costs[width:] = -1.0
    T[-1] = _priced_cost_row(T, basis, phase1_costs)
    _run_simplex(T, basis, iter_limit, bounded=True)
    art_sum = T[-1, -1]  # -objective = sum of artificials
    if art_sum > FEAS_TOL:
        w = np.empty(m)
        w[:n_ineq] = -T[-1, N : N + n_ineq]
        # A flipped inequality row's artificial overrides its slack's reading.
        w[art_rows] = -1.0 - T[-1, width:total]
        w[flipped] *= -1.0
        return w

    # Drive leftover artificials out of the basis; rows where that is
    # impossible are redundant and dropped.  A lingering artificial sits at a
    # value <= FEAS_TOL, which we are entitled to round to zero, keeping the
    # rhs nonnegative through the degenerate pivot.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= width:
            T[r, -1] = 0.0
            row_body = np.abs(T[r, :width])
            col = int(row_body.argmax())
            if row_body[col] > PIVOT_TOL:
                _pivot(T, r, col)
                basis[r] = col
            else:
                keep[r] = False
    if not np.logical_and.reduce(keep):
        T = np.concatenate([T[:-1][keep], T[-1:]])
        basis = [bvar for r, bvar in enumerate(basis) if keep[r]]
    T = np.concatenate([T[:, :width], T[:, total:]], axis=1)
    return T, basis, keep
