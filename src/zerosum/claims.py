"""One checker per numbered claim: each computes both sides of a claim on a
concrete matrix and reports Holds / Violated / NotApplicable.

Checkers audit rather than assume.  At least one claim (the positive-matrix
dominance theorem) fails on concrete instances that satisfy its stated
hypothesis; the checker's job is to report that faithfully, so a Violated
verdict is a first-class outcome, not an error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import GameMatrix, InputError, Player, canonical_json, check_tolerance
from .lp import FEAS_TOL_DEFAULT
from .solver import extrema_dominated, row_optima_column_extrema, solve_game
from .spectral import GordanBranch, gordan, perron, stochastic_eigenvector

CLAIM_TOL_DEFAULT = 1e-7
# Strategy-level assertions run one order looser than value-level ones:
# strategy coordinates come out of one more linear solve than the value.
STRATEGY_TOL_FACTOR = 10.0
# Sign of a diagonal entry is decided with this zero-tolerance.
DIAG_SIGN_TOL = 1e-12


class ClaimId(enum.Enum):
    DIAGONAL_THEOREM1 = "DiagonalTheorem1"
    SKEW_ZERO_COR3 = "SkewZeroCor3"
    SHARED_OPTIMA_COR4 = "SharedOptimaCor4"
    NEG_TRANSPOSE_THM2 = "NegTransposeThm2"
    EIGENSPACE_LEMMA5 = "EigenspaceLemma5"
    GORDAN_THEOREM3 = "GordanTheorem3"
    POSITIVE_DOMINATED_THM4 = "PositiveDominatedThm4"
    SHIFTED_EIGEN_THM4_GENERAL = "ShiftedEigenThm4General"


class Verdict(enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class ClaimReport:
    claim_id: ClaimId
    input_digest: str
    computed: dict
    verdict: Verdict
    tolerance: float

    def __post_init__(self) -> None:
        # A verdict decided against a NaN, zero or infinite tolerance means
        # nothing; this also covers checkers called without run_checker.
        check_tolerance(self.tolerance, "tol")

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id.value,
            "input_digest": self.input_digest,
            "verdict": self.verdict.value,
            "tolerance": self.tolerance,
            "computed": self.computed,
        }

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_json_dict())


def _listify(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _report(
    claim: ClaimId, A: GameMatrix, computed: dict, tol: float, holds: bool | None = None
) -> ClaimReport:
    """The report on A: NotApplicable when `holds` is None, else Holds or
    Violated as `holds` says."""
    if holds is None:
        verdict = Verdict.NOT_APPLICABLE
    else:
        verdict = Verdict.HOLDS if holds else Verdict.VIOLATED
    return ClaimReport(
        claim_id=claim,
        input_digest=A.digest(),
        computed=computed,
        verdict=verdict,
        tolerance=tol,
    )


def check_diagonal(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT, lp_tol: float = FEAS_TOL_DEFAULT
) -> ClaimReport:
    """Audit the diagonal-game summary theorem.

    Applies to square matrices whose off-diagonal entries are all within
    DIAG_SIGN_TOL of zero; any other matrix is NotApplicable.  The game
    solved and digested is A itself, off-diagonal dust included.

    Definite diagonal (all entries one strict sign): the value must match
    the harmonic formula 1/sum(1/d_i) and the row optimum must match v/d_i
    coordinatewise.  Otherwise the value must vanish and the row optimum may
    put no weight on negative diagonal entries.
    """
    claim = ClaimId.DIAGONAL_THEOREM1
    if not A.is_square:
        return _report(claim, A, {"reason": "matrix is not square"}, tol)
    d = np.diag(A.values)
    max_off = float(np.max(np.abs(A.values - np.diag(d))))
    if max_off > DIAG_SIGN_TOL:
        return _report(
            claim,
            A,
            {"reason": "matrix is not diagonal", "max_offdiagonal": max_off},
            tol,
        )
    sol = solve_game(A, feas_tol=lp_tol)
    x = sol.row_strategy.weights

    positive = d > DIAG_SIGN_TOL
    negative = d < -DIAG_SIGN_TOL
    definite = bool(np.all(positive) or np.all(negative))
    if definite:
        predicted_value = 1.0 / np.sum(1.0 / d)
        predicted_x = predicted_value / d
        value_error = abs(sol.value - predicted_value)
        strategy_error = float(np.max(np.abs(x - predicted_x)))
        holds = value_error <= tol and strategy_error <= STRATEGY_TOL_FACTOR * tol
        computed = {
            "definite": True,
            "predicted_value": float(predicted_value),
            "observed_value": sol.value,
            "value_error": value_error,
            "predicted_row_strategy": _listify(predicted_x),
            "observed_row_strategy": _listify(x),
            "strategy_error": strategy_error,
        }
    else:
        value_error = abs(sol.value)
        negative_weight = float(x[negative].sum()) if np.any(negative) else 0.0
        holds = value_error <= tol and negative_weight <= tol
        computed = {
            "definite": False,
            "predicted_value": 0.0,
            "observed_value": sol.value,
            "value_error": value_error,
            "observed_row_strategy": _listify(x),
            "negative_index_weight": negative_weight,
        }
    return _report(claim, A, computed, tol, holds)


def _skew_gate(
    claim: ClaimId, A: GameMatrix, tol: float
) -> tuple[float, ClaimReport | None]:
    if not A.is_square:
        return np.inf, _report(claim, A, {"reason": "matrix is not square"}, tol)
    residual = float(np.abs(A.values + A.values.T).max())
    if residual > tol:
        return residual, _report(
            claim, A, {"reason": "matrix is not skew-symmetric", "skew_residual": residual}, tol
        )
    return residual, None


def _skew_optima_report(
    claim: ClaimId, A: GameMatrix, tol: float, lp_tol: float, holds
) -> ClaimReport:
    """Shared body of the two skew-game corollaries.

    Solves A and plays each optimum as the other player's strategy: the row
    optimum's ceiling over A's rows and the column optimum's floor over A's
    columns.  `holds(value, ceiling, floor)` decides the verdict.
    """
    residual, na = _skew_gate(claim, A, tol)
    if na is not None:
        return na
    sol = solve_game(A, feas_tol=lp_tol)
    V = A.values
    ceiling = float((V @ sol.row_strategy.weights).max())
    floor = float((sol.col_strategy.weights @ V).min())
    computed = {
        "skew_residual": residual,
        "value": sol.value,
        "row_optimum_as_column_ceiling": ceiling,
        "col_optimum_as_row_floor": floor,
    }
    return _report(claim, A, computed, tol, holds(sol.value, ceiling, floor))


def check_skew(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT, lp_tol: float = FEAS_TOL_DEFAULT
) -> ClaimReport:
    """Skew matrices: value is zero and each optimum serves both players."""
    return _skew_optima_report(
        ClaimId.SKEW_ZERO_COR3,
        A,
        tol,
        lp_tol,
        lambda value, ceiling, floor: (
            abs(value) <= tol and ceiling <= tol and floor >= -tol
        ),
    )


def check_shared_optima(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT, lp_tol: float = FEAS_TOL_DEFAULT
) -> ClaimReport:
    """Skew matrices: one player's optimum is optimal for the other player.

    Tested against the observed value rather than assuming it is zero.
    """
    return _skew_optima_report(
        ClaimId.SHARED_OPTIMA_COR4,
        A,
        tol,
        lp_tol,
        lambda value, ceiling, floor: (
            ceiling <= value + tol and floor >= value - tol
        ),
    )


def check_neg_transpose(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT, lp_tol: float = FEAS_TOL_DEFAULT
) -> ClaimReport:
    """Value identity v(A) = -v(-A^T) for matrices of any shape."""
    sol = solve_game(A, feas_tol=lp_tol)
    v1 = sol.value
    v2 = solve_game(GameMatrix(-A.values.T), feas_tol=lp_tol, dual_of=sol).value
    identity_residual = abs(v1 + v2)
    computed = {
        "value": v1,
        "neg_transpose_value": v2,
        "identity_residual": identity_residual,
    }
    return _report(
        ClaimId.NEG_TRANSPOSE_THM2, A, computed, tol, identity_residual <= tol
    )


def _is_optimal_at_zero(A: GameMatrix, weights: np.ndarray, tol: float) -> bool:
    """Deviation test at value 0: the vector must guarantee 0 as a column
    strategy (ceiling <= tol) and as a row strategy (floor >= -tol)."""
    V = A.values
    return (
        float((V @ weights).max()) <= tol and float((weights @ V).min()) >= -tol
    )


def check_eigenspace_lemma5(
    A: GameMatrix,
    tol: float = CLAIM_TOL_DEFAULT,
    lambdas=None,
    lp_tol: float = FEAS_TOL_DEFAULT,
) -> ClaimReport:
    """An optimal strategy inside an eigenspace forces the eigenvalue to 0.

    For each candidate eigenvalue the checker looks for a stochastic
    eigenvector and tests whether it is an optimal strategy of the zero-value
    skew game; finding one at a nonzero eigenvalue violates the claim.  The
    lambda = 0 outcome is recorded as well since it feeds the Gordan audit.
    """
    claim = ClaimId.EIGENSPACE_LEMMA5
    residual, na = _skew_gate(claim, A, tol)
    if na is not None:
        return na
    candidates = sorted(set(float(l) for l in (lambdas or [])) | {0.0})
    findings = []
    violated = False
    zero_eigen_optimal = False
    for lam in candidates:
        witness = stochastic_eigenvector(A, lam, Player.COL, feas_tol=lp_tol)
        found = witness is not None
        optimal = bool(found and _is_optimal_at_zero(A, witness.weights, tol))
        if found and abs(lam) > tol and optimal:
            violated = True
        if lam == 0.0:
            zero_eigen_optimal = optimal
        findings.append(
            {"lambda": lam, "witness_found": found, "is_optimal": optimal}
        )
    computed = {
        "skew_residual": residual,
        "candidates": findings,
        "zero_eigen_optimal": zero_eigen_optimal,
    }
    return _report(claim, A, computed, tol, not violated)


def check_gordan_theorem3(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT, lp_tol: float = FEAS_TOL_DEFAULT
) -> ClaimReport:
    """Audit the claimed equivalence between optimal strategies in the
    eigenspace and solvability of A y > 0, in both polarities.

    The claim as stated says the two sides coincide; the theorem of
    alternatives it invokes makes them mutually exclusive instead.  The
    report records which polarity the instance supports: `verdict` scores
    the claim exactly as stated, `computed` carries the reversed reading.
    """
    claim = ClaimId.GORDAN_THEOREM3
    residual, na = _skew_gate(claim, A, tol)
    if na is not None:
        return na
    verdict_branch = gordan(A, feas_tol=lp_tol)
    positive_image = verdict_branch.branch is GordanBranch.POSITIVE_IMAGE
    # For square A, gordan's kernel LP is the stochastic-eigenvector LP at
    # eigenvalue 0, and its witness is normalized the same way.
    exists = not positive_image and _is_optimal_at_zero(
        A, verdict_branch.witness, tol
    )
    as_stated = exists == positive_image
    computed = {
        "skew_residual": residual,
        "gordan_branch": verdict_branch.branch.value,
        "kernel_optimum_exists": exists,
        "as_stated": Verdict.HOLDS.value if as_stated else Verdict.VIOLATED.value,
        "polarity_reversed": Verdict.VIOLATED.value
        if as_stated
        else Verdict.HOLDS.value,
    }
    return _report(claim, A, computed, tol, as_stated)


def check_positive_dominated(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT, lp_tol: float = FEAS_TOL_DEFAULT
) -> ClaimReport:
    """Audit the positive-matrix dominance theorem.

    Hypothesis: the game value lies in [root*min(y*), root*max(y*)] for the
    Perron pair (root, y*).  Conclusion under audit: every optimal row
    strategy is optimal-dominated, decided by LP extrema over the optimal
    polytope.
    """
    claim = ClaimId.POSITIVE_DOMINATED_THM4
    if not A.is_square:
        return _report(claim, A, {"reason": "matrix is not square"}, tol)
    min_entry = float(A.values.min())
    if min_entry <= 0.0:
        return _report(
            claim,
            A,
            {"reason": "matrix is not strictly positive", "min_entry": min_entry},
            tol,
        )
    cert = perron(A)
    sol = solve_game(A, feas_tol=lp_tol)
    value = sol.value
    bracket_low = cert.perron_root * float(cert.perron_vector.min())
    bracket_high = cert.perron_root * float(cert.perron_vector.max())
    base = {
        "perron_root": cert.perron_root,
        "perron_vector": _listify(cert.perron_vector),
        "value": value,
        "bracket_low": bracket_low,
        "bracket_high": bracket_high,
    }
    if value < bracket_low - tol or value > bracket_high + tol:
        base["reason"] = "value escapes the Perron bracket"
        return _report(claim, A, base, tol)
    mins, maxs = row_optima_column_extrema(
        A, value, tol, feas_tol=lp_tol, solution=sol
    )
    dominated = extrema_dominated(mins, maxs, value, tol, lp_tol)
    base["column_payoff_minima"] = _listify(mins)
    base["column_payoff_maxima"] = _listify(maxs)
    return _report(claim, A, base, tol, dominated)


def check_shifted_eigen(
    A: GameMatrix,
    eigenvalue: float,
    tol: float = CLAIM_TOL_DEFAULT,
    lp_tol: float = FEAS_TOL_DEFAULT,
) -> ClaimReport:
    """Stochastic eigenvectors of A and A^T at a shared eigenvalue force
    v(A - lambda I) = 0 with both witnesses optimal-dominated there.

    Optimal-dominated at value 0 means each witness's largest deviation,
    max_j |(x^T B)_j| for the row witness and max_i |(B y)_i| for the column
    witness, is at most tol.  A non-square A is NotApplicable.
    """
    claim = ClaimId.SHIFTED_EIGEN_THM4_GENERAL
    if not A.is_square:
        return _report(claim, A, {"reason": "matrix is not square"}, tol)
    lam = float(eigenvalue)
    col_witness = stochastic_eigenvector(A, lam, Player.COL, feas_tol=lp_tol)
    row_witness = stochastic_eigenvector(
        A.transpose(), lam, Player.ROW, feas_tol=lp_tol
    )
    if col_witness is None or row_witness is None:
        return _report(
            claim,
            A,
            {
                "lambda": lam,
                "row_witness_found": row_witness is not None,
                "col_witness_found": col_witness is not None,
                "reason": "no stochastic eigenvector on at least one side",
            },
            tol,
        )
    B = GameMatrix(A.values - lam * np.eye(A.rows))
    value = solve_game(B, feas_tol=lp_tol).value
    row_dev = float(np.max(np.abs(row_witness.weights @ B.values)))
    col_dev = float(np.max(np.abs(B.values @ col_witness.weights)))
    holds = abs(value) <= tol and row_dev <= tol and col_dev <= tol
    computed = {
        "lambda": lam,
        "shifted_value": value,
        "row_witness": _listify(row_witness.weights),
        "col_witness": _listify(col_witness.weights),
        "row_witness_max_deviation": row_dev,
        "col_witness_max_deviation": col_dev,
    }
    return _report(claim, A, computed, tol, holds)


# The claims whose checker needs nothing but (A, tol, lp_tol).
_CHECKERS = {
    ClaimId.DIAGONAL_THEOREM1: check_diagonal,
    ClaimId.SKEW_ZERO_COR3: check_skew,
    ClaimId.SHARED_OPTIMA_COR4: check_shared_optima,
    ClaimId.NEG_TRANSPOSE_THM2: check_neg_transpose,
    ClaimId.GORDAN_THEOREM3: check_gordan_theorem3,
    ClaimId.POSITIVE_DOMINATED_THM4: check_positive_dominated,
}


def run_checker(
    claim: ClaimId,
    A: GameMatrix,
    tol: float = CLAIM_TOL_DEFAULT,
    lambdas=None,
    lp_tol: float = FEAS_TOL_DEFAULT,
) -> list[ClaimReport]:
    """Dispatch a claim checker on a concrete matrix.

    Each checker decides its own applicability, so this is a lookup.  Only
    the two eigenvalue claims read `lambdas`: EigenspaceLemma5 adds them to
    its candidates, and ShiftedEigenThm4General requires at least one and
    emits one report per supplied eigenvalue.  Every other claim yields
    exactly one report.
    """
    check_tolerance(tol, "tol")
    check_tolerance(lp_tol, "lp_tol")
    if claim is ClaimId.EIGENSPACE_LEMMA5:
        return [check_eigenspace_lemma5(A, tol, lambdas, lp_tol)]
    if claim is ClaimId.SHIFTED_EIGEN_THM4_GENERAL:
        if not lambdas:
            raise InputError(
                "ShiftedEigenThm4General requires at least one eigenvalue "
                "(pass lambdas / --lambda)"
            )
        return [check_shifted_eigen(A, lam, tol, lp_tol) for lam in lambdas]
    if claim not in _CHECKERS:
        raise InputError(f"unknown claim {claim!r}")
    return [_CHECKERS[claim](A, tol, lp_tol)]
