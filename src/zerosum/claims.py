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
    """One claim's verdict on one matrix, with the quantities it was
    decided on.  `input_digest` is the matrix's `GameMatrix.digest()`, a
    SHA-256 content hash with a shape prefix; the matrix's full text is
    its `repr` or the CLI's CSV rendering."""

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


def _listify(arr: np.ndarray) -> list:
    return arr.ravel().tolist()


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
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT
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
    max_off = float(np.maximum.reduce(np.abs(A.values - np.diag(d)), axis=None))
    if max_off > DIAG_SIGN_TOL:
        return _report(
            claim,
            A,
            {"reason": "matrix is not diagonal", "max_offdiagonal": max_off},
            tol,
        )
    sol = solve_game(A)
    x = sol.row_strategy.weights

    positive = d > DIAG_SIGN_TOL
    negative = d < -DIAG_SIGN_TOL
    definite = bool(np.logical_and.reduce(positive) or np.logical_and.reduce(negative))
    if definite:
        predicted_value = 1.0 / np.add.reduce(1.0 / d)
        predicted_x = predicted_value / d
        value_error = abs(sol.value - predicted_value)
        strategy_error = float(np.maximum.reduce(np.abs(x - predicted_x)))
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
        negative_weight = (
            float(np.add.reduce(x[negative]))
            if np.logical_or.reduce(negative)
            else 0.0
        )
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
    V = A.values
    residual = float(np.maximum.reduce(np.abs(V + V.T), axis=None))
    if residual > tol:
        return residual, _report(
            claim, A, {"reason": "matrix is not skew-symmetric", "skew_residual": residual}, tol
        )
    return residual, None


def _skew_optima_report(
    claim: ClaimId, A: GameMatrix, tol: float, holds
) -> ClaimReport:
    """Shared body of the two skew-game corollaries.

    Solves A and plays each optimum as the other player's strategy: the row
    optimum's ceiling over A's rows and the column optimum's floor over A's
    columns.  `holds(value, ceiling, floor)` decides the verdict.
    """
    residual, na = _skew_gate(claim, A, tol)
    if na is not None:
        return na
    sol = solve_game(A)
    V = A.values
    ceiling = float(np.maximum.reduce(V @ sol.row_strategy.weights))
    floor = float(np.minimum.reduce(sol.col_strategy.weights @ V))
    computed = {
        "skew_residual": residual,
        "value": sol.value,
        "row_optimum_as_column_ceiling": ceiling,
        "col_optimum_as_row_floor": floor,
    }
    return _report(claim, A, computed, tol, holds(sol.value, ceiling, floor))


def check_skew(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT
) -> ClaimReport:
    """Skew matrices: value is zero and each optimum serves both players."""
    return _skew_optima_report(
        ClaimId.SKEW_ZERO_COR3,
        A,
        tol,
        lambda value, ceiling, floor: (
            abs(value) <= tol and ceiling <= tol and floor >= -tol
        ),
    )


def check_shared_optima(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT
) -> ClaimReport:
    """Skew matrices: one player's optimum is optimal for the other player.

    Tested against the observed value rather than assuming it is zero.
    """
    return _skew_optima_report(
        ClaimId.SHARED_OPTIMA_COR4,
        A,
        tol,
        lambda value, ceiling, floor: (
            ceiling <= value + tol and floor >= value - tol
        ),
    )


def check_neg_transpose(
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT
) -> ClaimReport:
    """Value identity v(A) = -v(-A^T) for matrices of any shape.

    -A^T is A with the players swapped, so A's certified pair (x, y) also
    certifies -A^T: v(-A^T) lies in [-ceiling, -floor] of A's certificate.
    The value of -A^T is reported as -v(A), and the identity residual as
    the duality gap, the widest |v(A) + v(-A^T)| the certificate allows.
    """
    sol = solve_game(A)
    computed = {
        "value": sol.value,
        "neg_transpose_value": -sol.value,
        "identity_residual": sol.duality_gap,
    }
    return _report(
        ClaimId.NEG_TRANSPOSE_THM2, A, computed, tol, sol.duality_gap <= tol
    )


def _is_optimal_at_zero(A: GameMatrix, weights: np.ndarray, tol: float) -> bool:
    """Deviation test at value 0: the vector must guarantee 0 as a column
    strategy (ceiling <= tol) and as a row strategy (floor >= -tol)."""
    V = A.values
    return (
        float(np.maximum.reduce(V @ weights)) <= tol
        and float(np.minimum.reduce(weights @ V)) >= -tol
    )


def check_eigenspace_lemma5(
    A: GameMatrix,
    tol: float = CLAIM_TOL_DEFAULT,
    lambdas=None,
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
        witness = stochastic_eigenvector(A, lam, Player.COL)
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
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT
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
    verdict_branch = gordan(A)
    positive_image = verdict_branch.branch is GordanBranch.POSITIVE_IMAGE
    # For square A, gordan's kernel question is the stochastic-eigenvector
    # one at eigenvalue 0, and its witness is normalized the same way.
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
    A: GameMatrix, tol: float = CLAIM_TOL_DEFAULT
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
    min_entry = float(np.minimum.reduce(A.values, axis=None))
    if min_entry <= 0.0:
        return _report(
            claim,
            A,
            {"reason": "matrix is not strictly positive", "min_entry": min_entry},
            tol,
        )
    cert = perron(A)
    sol = solve_game(A)
    value = sol.value
    bracket_low = cert.perron_root * float(np.minimum.reduce(cert.perron_vector))
    bracket_high = cert.perron_root * float(np.maximum.reduce(cert.perron_vector))
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
    mins, maxs = row_optima_column_extrema(A, value, tol, solution=sol)
    dominated = extrema_dominated(mins, maxs, value, tol)
    base["column_payoff_minima"] = _listify(mins)
    base["column_payoff_maxima"] = _listify(maxs)
    return _report(claim, A, base, tol, dominated)


def check_shifted_eigen(
    A: GameMatrix,
    eigenvalue: float,
    tol: float = CLAIM_TOL_DEFAULT,
) -> ClaimReport:
    """Stochastic eigenvectors of A and A^T at a shared eigenvalue force
    v(A - lambda I) = 0 with both witnesses optimal-dominated there.

    Optimal-dominated at value 0 means each witness's largest deviation,
    max_j |(x^T B)_j| for the row witness and max_i |(B y)_i| for the column
    witness, is at most tol.  Weak duality, min(x^T B) <= v(B) <= max(B y),
    then bounds |v(B)| by the larger deviation, so no game is solved, and
    `shifted_value` is that interval's midpoint.  A non-square A is
    NotApplicable.
    """
    claim = ClaimId.SHIFTED_EIGEN_THM4_GENERAL
    if not A.is_square:
        return _report(claim, A, {"reason": "matrix is not square"}, tol)
    lam = float(eigenvalue)
    col_witness = stochastic_eigenvector(A, lam, Player.COL)
    row_witness = stochastic_eigenvector(A.transpose(), lam, Player.ROW)
    if col_witness is None or row_witness is None:
        computed = {
            "lambda": lam,
            "row_witness_found": row_witness is not None,
            "col_witness_found": col_witness is not None,
            "reason": "no stochastic eigenvector on at least one side",
        }
        return _report(claim, A, computed, tol)
    B = A.values - lam * np.eye(A.rows)
    row_payoffs, col_payoffs = row_witness.weights @ B, B @ col_witness.weights
    row_dev = float(np.maximum.reduce(np.abs(row_payoffs)))
    col_dev = float(np.maximum.reduce(np.abs(col_payoffs)))
    # Each end is halved first, so the sum cannot overflow.
    value = np.minimum.reduce(row_payoffs) / 2 + np.maximum.reduce(col_payoffs) / 2
    computed = {
        "lambda": lam,
        "shifted_value": float(value),
        "row_witness": _listify(row_witness.weights),
        "col_witness": _listify(col_witness.weights),
        "row_witness_max_deviation": row_dev,
        "col_witness_max_deviation": col_dev,
    }
    return _report(claim, A, computed, tol, row_dev <= tol and col_dev <= tol)


# The claims whose checker needs nothing but (A, tol).
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
) -> list[ClaimReport]:
    """Dispatch a claim checker on a concrete matrix.

    Each checker decides its own applicability, so this is a lookup.  Only
    the two eigenvalue claims read `lambdas`: EigenspaceLemma5 adds them to
    its candidates, and ShiftedEigenThm4General requires at least one and
    emits one report per supplied eigenvalue.  Every other claim refuses
    them with InputError, rather than dropping them unread, and yields
    exactly one report.
    """
    check_tolerance(tol, "tol")
    if claim is ClaimId.EIGENSPACE_LEMMA5:
        return [check_eigenspace_lemma5(A, tol, lambdas)]
    if claim is ClaimId.SHIFTED_EIGEN_THM4_GENERAL:
        if not lambdas:
            raise InputError(
                "ShiftedEigenThm4General requires at least one eigenvalue "
                "(pass lambdas / --lambda)"
            )
        return [check_shifted_eigen(A, lam, tol) for lam in lambdas]
    if claim not in _CHECKERS:
        raise InputError(f"unknown claim {claim!r}")
    if lambdas:
        raise InputError(
            f"{claim.value} takes no eigenvalue (lambdas / --lambda); only "
            "EigenspaceLemma5 and ShiftedEigenThm4General read them"
        )
    return [_CHECKERS[claim](A, tol)]
