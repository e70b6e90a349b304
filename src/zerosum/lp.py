"""Dense two-phase primal simplex: Dantzig pricing with a Bland fallback.

Solves  maximize c.z  subject to  G z <= h,  E z = f,  z >= 0.
Other bounds are written as rows of G.  Strict inequalities cannot be
expressed here; an Infeasible result's `farkas` answers them (see spectral.gordan).

The implementation favors simplicity over speed: desk-scale instances only
(tens of variables and constraints), dense tableau.  `maximize_each` runs
phase 1 once per region.  From that start it first answers, without a pivot,
every objective whose optimum it can certify at the start vertex or at one of
the vertices one pivot away (`_lookahead`).  Only the objectives left over run
phase 2, in order: the first from the start basis, each later one from the
basis the previous phase 2 ended on.  The lookahead prices all objectives at
once, which pays only when several share it, so a single objective skips the
lookahead; `solve_lp` is that case.

At this scale a pivot is a few thousand flops, so numpy's Python-level
wrappers (`np.max`, `np.argmax`, `np.outer`, `np.append`, `np.vstack`, ...)
cost more than the arithmetic.  Code that runs per pivot, per objective or
per call therefore uses ndarray methods (`a.max()`, `a.argmax()`,
`a.nonzero()`), ufuncs and `np.concatenate`, each doing the same IEEE
operations in the same order as the wrapper, so results stay bit-identical.
`_pivot` stays a module attribute that `_run_simplex` looks up once per
pivot: tests and the benchmark's tracer count pivots by replacing it.

Both take an optional starting basis.  Every Optimal solution returns its
final `basis`: one column of [G; E | slacks] per row, where z_k is column k
and the slack of inequality row i is column n_vars + i.  (When phase 1 drops
a redundant row, the basis is one entry short and no longer a valid start.)
A start is factored against the original rows with one dense solve and
accepted when its x_B >= -feas_tol; phase 2 then runs from it and phase 1 is
skipped.  A start of the wrong length, a singular one or an infeasible one
runs the cold two-phase path unchanged, so a start never changes which
problems are solved, only where phase 2 begins.  A caller that knows a
related LP's optimal basis (its dual, or a region around its optimum) passes
that basis in, and every check on the result stays as on a cold start.

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, InputError, check_tolerance

FEAS_TOL_DEFAULT = 1e-9
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


def _as_matrix(M, n_cols: int, name: str) -> np.ndarray:
    if M is None:
        return np.zeros((0, n_cols))
    arr = np.array(M, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[1] != n_cols:
        raise DimensionMismatchError(
            f"{name} has {arr.shape[1]} columns, expected {n_cols}"
        )
    if not np.isfinite(arr).all():
        raise InputError(f"{name} must have finite entries")
    return arr


def _as_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.ndim != 1 or arr.size != n:
        raise DimensionMismatchError(f"{name} must be a vector of length {n}")
    if not np.isfinite(arr).all():
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
        c = _as_vector(self.objective, np.asarray(self.objective).size, "objective")
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
    # Final basis (Optimal only), a valid `start`; see the module docstring.
    basis: tuple[int, ...] | None = None


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    # The entering column is now an exact unit vector without cleanup: the
    # division left T[row, col] = x / x = 1.0, so every other entry became
    # a - a * 1.0 = +0.0.  Rhs dust is killed so the ratio test never sees
    # a slightly negative rhs.
    rhs = T[:-1, -1]
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
    stalled = 0
    for _ in range(iter_limit):
        reduced = T[-1, :-1]
        if stalled < DEGENERATE_STALL:
            enter = int(reduced.argmax())
        else:
            enter = int((reduced > PIVOT_TOL).argmax())  # first improving
        if reduced[enter] <= PIVOT_TOL:
            return "optimal"
        col = T[:-1, enter]
        tol = PIVOT_TOL * max(1.0, np.abs(col).max()) if bounded else PIVOT_TOL
        rows = (col > tol).nonzero()[0]
        if rows.size == 0:
            if bounded:
                T[-1, enter] = 0.0
                continue
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        stalled = stalled + 1 if best <= PIVOT_TOL else 0
        ties = rows[ratios == best]
        # Ties almost always hold one row; skip the key lookup then.
        leave = int(ties[0] if ties.size == 1 else min(ties, key=basis.__getitem__))
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


def _residual(p: LinearProgram, z: np.ndarray) -> np.ndarray:
    """Largest violation of p's constraints, z >= 0 included, at the point z,
    or at each row of a 2-D z; 0.0 when feasible."""
    worst = (-z).max(axis=-1)
    if p.ineq_lhs.shape[0]:
        worst = np.maximum(worst, (z @ p.ineq_lhs.T - p.ineq_rhs).max(axis=-1))
    if p.eq_lhs.shape[0]:
        worst = np.maximum(worst, np.abs(z @ p.eq_lhs.T - p.eq_rhs).max(axis=-1))
    return np.maximum(worst, 0.0)


def solve_lp(
    p: LinearProgram,
    feas_tol: float = FEAS_TOL_DEFAULT,
    start: Sequence[int] | None = None,
) -> LPSolution:
    """Two-phase simplex.  Returns Optimal with a feasible point and its
    final `basis`, Infeasible with `farkas` when the phase-1 optimum exceeds
    feas_tol, or Unbounded when an improving ray is certified.

    `start`, a basis in the layout of `LPSolution.basis`, skips phase 1 when
    it is primal feasible; any other start is ignored (module docstring).
    """
    return _two_phase(p, p.objective[np.newaxis], feas_tol, start)[0]


def maximize_each(
    region: LinearProgram,
    objectives,
    feas_tol: float = FEAS_TOL_DEFAULT,
    start: Sequence[int] | None = None,
) -> list[LPSolution]:
    """Maximize each objective over the feasible region of `region`.

    `region.objective` only fixes the number of variables; `objectives` holds
    one vector of that length per row.  The start is `start` when it is a
    primal feasible basis (see `solve_lp`); otherwise phase 1 runs once, and
    when the region is infeasible every objective reports Infeasible.

    With more than one objective, all are then priced at once at the start
    and at each vertex one pivot from it.  An objective whose best such
    vertex has every reduced cost <= PIVOT_TOL, and whose point passes the
    residual gate, is answered there with no pivot.  When the region is a
    nondegenerate simplex, as the optimal-strategy polytope of a
    nondegenerate game is, every vertex is one pivot from the start, so
    every objective with a unique optimal vertex is answered this way.  Each
    other objective runs phase 2, as a single objective always does (exactly
    as in `solve_lp`), in the order of `objectives`: the first from the start
    basis, each later one from the basis the previous phase 2 ended on (an
    Unbounded objective ends on a feasible basis too, so later objectives
    are unaffected by it).  Results are in the order of `objectives`.
    """
    costs = np.array(objectives, dtype=float)
    if costs.shape == (0,):  # [] is no objectives, not one empty objective
        costs = costs.reshape(0, region.n_vars)
    costs = _as_matrix(costs, region.n_vars, "objectives")
    return _two_phase(region, costs, feas_tol, start)


def _two_phase(
    region: LinearProgram,
    costs: np.ndarray,
    feas_tol: float,
    start: Sequence[int] | None,
) -> list[LPSolution]:
    """`maximize_each` over already validated objective rows `costs`; when
    there are several, `_lookahead` answers what it can before phase 2."""
    check_tolerance(feas_tol, "feas_tol")
    M = np.concatenate([region.ineq_lhs, region.eq_lhs])
    b = np.concatenate([region.ineq_rhs, region.eq_rhs])
    m, N = M.shape
    flipped = b < 0.0
    M[flipped] *= -1.0
    b[flipped] *= -1.0

    # Slack columns for inequality rows, negated on a flipped row.
    n_ineq = region.ineq_lhs.shape[0]
    slack = np.zeros((m, n_ineq))
    for i in range(n_ineq):
        slack[i, i] = -1.0 if flipped[i] else 1.0
    body = np.concatenate([M, slack], axis=1)
    # Every row but an unflipped inequality takes an artificial in phase 1.
    art_rows = (flipped | (np.arange(m) >= n_ineq)).nonzero()[0]
    iter_limit = ITERATION_FACTOR * (N + n_ineq + art_rows.size + m)

    started = _warm_start(body, b, start, feas_tol)
    if started is None:
        started = _phase_one(body, b, N, flipped, art_rows, iter_limit, feas_tol)
        if isinstance(started, np.ndarray):  # Farkas multipliers
            return [
                LPSolution(status=LPStatus.INFEASIBLE, farkas=started) for _ in costs
            ]
    T, basis, keep = started

    results = [None] * len(costs)
    if len(costs) > 1:
        results = _lookahead(region, T, basis, costs, feas_tol)
    # Phase 2 per objective left open, each from the basis the previous one
    # left.
    phase2_costs = np.zeros(N + n_ineq)
    for k, c in enumerate(costs):
        if results[k] is not None:
            continue
        phase2_costs[:N] = c
        T[-1] = _priced_cost_row(T, basis, phase2_costs)
        if _run_simplex(T, basis, iter_limit) == "unbounded":
            results[k] = LPSolution(status=LPStatus.UNBOUNDED)
            continue
        u = np.zeros(N + n_ineq)
        u[basis] = T[:-1, -1]
        z = u[:N]
        residual = float(_residual(region, z))
        if residual > feas_tol:
            # The tableau carries roundoff from every pivot so far; solve
            # for x_B against the original rows of the final basis instead.
            u[basis] = np.linalg.solve(body[keep][:, basis], b[keep])
            z = u[:N]
            residual = float(_residual(region, z))
        if residual > feas_tol:
            raise RuntimeError(
                f"optimal point violates feasibility by {residual:g} > "
                f"{feas_tol:g}; solver bug"
            )
        results[k] = _optimal(c, z, residual, -T[-1, N : N + n_ineq], basis)
    return results


def _optimal(
    c: np.ndarray, z: np.ndarray, residual: float, duals: np.ndarray, basis: list[int]
) -> LPSolution:
    """The Optimal answer at point z with its final basis."""
    return LPSolution(
        status=LPStatus.OPTIMAL,
        point=z,
        objective_value=float(c @ z),
        primal_residual=residual,
        ineq_duals=duals,
        basis=tuple(basis),
    )


def _lookahead(
    region: LinearProgram,
    T: np.ndarray,
    basis: list[int],
    costs: np.ndarray,
    feas_tol: float,
) -> list[LPSolution | None]:
    """Answer objectives at the basis of the phase-2 tableau T or one pivot
    from it, without pivoting; None marks an objective left to phase 2.

    Every objective is priced at the start at once.  Each nonbasic column
    with a positive entry has one neighbour vertex, found by the min-ratio
    test of `_run_simplex` (ties to the first row; any tie is valid).  Each
    objective takes its best vertex of the start and the neighbours by c.z,
    read off the reduced costs.  It is answered only when that vertex's
    reduced costs, the cost row a pivot there would leave, are all
    <= PIVOT_TOL (the test `_run_simplex` stops on) and its point passes the
    residual gate.  Neither T nor `basis` changes.
    """
    N = region.n_vars
    n_ineq = region.ineq_lhs.shape[0]
    basic = np.array(basis, dtype=int)
    body, rhs = T[:-1, :-1], T[:-1, -1]
    C = np.zeros((costs.shape[0], T.shape[1]))
    C[:, :N] = costs
    reduced = C - C[:, basic] @ T[:-1]

    # Neighbours: nonbasic column cols[i], which has a positive entry, enters
    # at row leave[i] with step theta[i].  A boolean mask rather than
    # np.setdiff1d keeps this free of lazily imported numpy modules.
    positive = body > PIVOT_TOL
    open_cols = positive.any(axis=0)
    open_cols[basic] = False
    cols = open_cols.nonzero()[0]
    entering = body[:, cols]
    ratios = np.full(entering.shape, np.inf)
    np.divide(rhs[:, None], entering, out=ratios, where=positive[:, cols])
    # (Without rows there is no neighbour, and nothing for argmin to scan.)
    leave = ratios.argmin(axis=0) if cols.size else cols
    pivots = body[leave, cols]
    theta = rhs[leave] / pivots

    # Vertex 0 is the start and vertex 1 + i is cols[i]'s neighbour; each row
    # holds every column's value, as a pivot would leave it.
    steps = np.arange(cols.size)
    moved_rhs = rhs[:, None] - entering * theta
    moved_rhs[leave, steps] = 0.0
    moved_rhs[(moved_rhs < 0.0) & (moved_rhs > -PIVOT_TOL)] = 0.0
    vertices = np.zeros((1 + cols.size, body.shape[1]))
    vertices[0, basic] = rhs
    vertices[1:, basic] = moved_rhs.T
    vertices[1 + steps, cols] = theta
    # Each objective's best vertex by c.z: vertex 1 + i lies theta[i] along
    # column cols[i], so it gains theta[i] times that reduced cost over the
    # start.  Ties go to the start, then to the first neighbour.
    gains = np.zeros((len(costs), 1 + cols.size))
    np.multiply(reduced[:, cols], theta, out=gains[:, 1:])
    best = gains.argmax(axis=1)

    # Each objective's cost row at its best vertex.
    moved = (best > 0).nonzero()[0]
    i = best[moved] - 1
    reduced[moved] -= reduced[moved, cols[i]][:, None] * (
        T[leave[i]] / pivots[i][:, None]
    )
    optimal = reduced[:, :-1].max(axis=1) <= PIVOT_TOL

    results: list[LPSolution | None] = [None] * len(costs)
    points = vertices[best, :N]
    duals = -reduced[:, N : N + n_ineq]
    residuals = _residual(region, points)
    for k in (optimal & (residuals <= feas_tol)).nonzero()[0]:
        j = best[k]
        at = list(basis)
        if j:
            at[leave[j - 1]] = int(cols[j - 1])
        results[k] = _optimal(costs[k], points[k], float(residuals[k]), duals[k], at)
    return results


def _warm_start(
    body: np.ndarray, b: np.ndarray, start: Sequence[int] | None, feas_tol: float
) -> tuple[np.ndarray, list[int], np.ndarray] | None:
    """Phase-2 tableau at the basis `start`, or None to start cold.

    The basis columns of `body` are factored against the original rows;
    the start is refused when it has the wrong length, repeats or misses a
    column, is singular, or puts x_B below -feas_tol.  Entries of x_B in
    [-feas_tol, 0) are rounded to zero, which the phase-2 residual gate
    vouches for.
    """
    m, width = body.shape
    if start is None or len(start) != m or m == 0:
        return None
    basis = [int(j) for j in start]
    if len(set(basis)) != m or not all(0 <= j < width for j in basis):
        return None
    try:
        T_body = np.linalg.solve(
            body[:, basis], np.concatenate([body, b[:, None]], axis=1)
        )
    except np.linalg.LinAlgError:
        return None
    x_B = T_body[:, -1]
    if not (np.isfinite(T_body).all() and x_B.min() >= -feas_tol):
        return None
    T = np.zeros((m + 1, width + 1))
    T[:m] = T_body
    # Exact unit columns at the basis, as a pivot would leave them.
    T[:m, basis] = np.eye(m)
    np.maximum(x_B, 0.0, out=T[:m, -1])
    return T, basis, np.ones(m, dtype=bool)


def _phase_one(
    body: np.ndarray,
    b: np.ndarray,
    N: int,
    flipped: np.ndarray,
    art_rows: np.ndarray,
    iter_limit: int,
    feas_tol: float,
) -> tuple[np.ndarray, list[int], np.ndarray] | np.ndarray:
    """Cold start: the phase-2 tableau, basis and kept rows of a feasible
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
    if art_sum > feas_tol:
        w = np.empty(m)
        w[:n_ineq] = -T[-1, N : N + n_ineq]
        # A flipped inequality row's artificial overrides its slack's reading.
        w[art_rows] = -1.0 - T[-1, width:total]
        w[flipped] *= -1.0
        return w

    # Drive leftover artificials out of the basis; rows where that is
    # impossible are redundant and dropped.  A lingering artificial sits at a
    # value <= feas_tol, which we are entitled to round to zero, keeping the
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
    if not keep.all():
        T = np.concatenate([T[:-1][keep], T[-1:]])
        basis = [bvar for r, bvar in enumerate(basis) if keep[r]]
    T = np.concatenate([T[:, :width], T[:, total:]], axis=1)
    return T, basis, keep
