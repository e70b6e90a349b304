"""Domain types shared by every module: payoff matrices, mixed strategies,
game solutions, and the elementary payoff evaluation x^T A y.

A matrix is named in reports by its content digest, `GameMatrix.digest`:
its shape and the SHA-256 of its entries' bytes.  Its full canonical text,
17 significant digits an entry, is its `repr` and the CLI's CSV rendering.

All types are immutable value objects backed by read-only float64 arrays;
all operations are pure functions, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

import numpy as np

# Tightest tolerance: a constructed strategy must sum to 1 within this.
STRATEGY_SUM_TOL = 1e-12
# Weights above -NEGATIVE_CLAMP_TOL are treated as rounding noise and clamped.
NEGATIVE_CLAMP_TOL = 1e-12
# Sums within SUM_REPAIR_TOL of 1 are renormalized instead of rejected.
SUM_REPAIR_TOL = 1e-9


class InputError(ValueError):
    """Rejected input: malformed matrix, strategy, or program."""


class DimensionMismatchError(InputError):
    """Shapes of the supplied objects are mutually inconsistent."""


class InvalidMatrixError(InputError):
    """Matrix is empty, non-rectangular, or has non-finite entries."""


class InvalidStrategyError(InputError):
    """Weight vector is not an acceptable probability distribution."""


def check_tolerance(value: float, name: str) -> None:
    """Raise InputError unless the tolerance `value` is finite and positive.

    The chained comparison is False for NaN, which `value <= 0.0` lets by.
    """
    if not 0.0 < value < float("inf"):
        raise InputError(f"{name} must be finite and positive, got {value!r}")


class Player(enum.Enum):
    ROW = "row"
    COL = "col"


def canonical_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact).

    Negative zero is normalized to "0" so canonical renderings are unique.
    """
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.17g" % x


def canonical_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D array as its entries' `canonical_float` renderings
    joined by commas: one format string per row, not one call per entry."""
    fmt = ",".join(["%.17g"] * values.shape[1])
    # Adding 0.0 maps -0.0 to 0.0, as canonical_float does.
    return [fmt % tuple(row) for row in (values + 0.0).tolist()]


def canonical_json(obj, indent: int = 2) -> str:
    """Deterministic JSON: fixed key order (insertion), floats at 17
    significant digits, no platform-dependent repr involved."""
    import json as _json

    def render(o, level: int) -> str:
        pad = " " * (indent * (level + 1))
        close = " " * (indent * level)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return canonical_float(float(o))
        if isinstance(o, str):
            return _json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = ",\n".join(pad + render(v, level + 1) for v in o)
            return "[\n" + inner + "\n" + close + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = ",\n".join(
                f"{pad}{_json.dumps(str(k))}: {render(v, level + 1)}"
                for k, v in o.items()
            )
            return "{\n" + inner + "\n" + close + "}"
        raise TypeError(f"cannot canonicalize {type(o).__name__}")

    return render(obj, 0) + "\n"


@dataclass(frozen=True, eq=False)
class GameMatrix:
    """Dense m-by-n payoff table; entry (i, j) is the row player's payoff
    when row i meets column j.  The column player's payoff is its negation.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.array(self.values, dtype=float, order="C")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidMatrixError("expected a rectangular matrix of numbers") from exc
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidMatrixError(
                f"expected a nonempty 2-D matrix, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise InvalidMatrixError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionMismatchError(
                f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix"
            )
        return float(self.values[i, j])

    def transpose(self) -> "GameMatrix":
        return GameMatrix(self.values.T)

    def digest(self) -> str:
        """Content digest "<m>x<n>:sha256:<64 hex>": SHA-256 (FIPS 180-4)
        of the entries as row-major little-endian float64 bytes, with -0.0
        read as 0.0.  Equal matrices give equal digests on every platform;
        the shape prefix tells apart reshapes of the same bytes."""
        # Adding 0.0 maps -0.0 to 0.0, as canonical_rows does; values is
        # C-ordered float64 (__post_init__), so only the byte order is fixed.
        data = (self.values + 0.0).astype("<f8", copy=False).tobytes()
        return f"{self.rows}x{self.cols}:sha256:" + hashlib.sha256(data).hexdigest()

    def __repr__(self) -> str:
        """Canonical text, e.g. "GameMatrix(2x2[1,2;3,4])": every entry at
        17 significant digits, so the matrix can be rebuilt from it."""
        body = ";".join(canonical_rows(self.values))
        return f"GameMatrix({self.rows}x{self.cols}[{body}])"


def _weight_vector(weights) -> np.ndarray:
    """A new nonempty, finite float vector holding `weights`, or
    InvalidStrategyError."""
    try:
        w = np.array(weights, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidStrategyError(
            "strategy weights must be a vector of numbers"
        ) from exc
    if w.ndim != 1 or w.size == 0:
        raise InvalidStrategyError("strategy must be a nonempty vector")
    if not np.isfinite(w).all():
        raise InvalidStrategyError("strategy weights must be finite")
    return w


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's pure strategies."""

    player: Player
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _weight_vector(self.weights)
        lowest = np.minimum.reduce(w)
        if lowest < 0.0:
            raise InvalidStrategyError(
                f"negative weight {lowest:g}; use validate_strategy to clamp noise"
            )
        total = np.add.reduce(w)
        if abs(total - 1.0) > STRATEGY_SUM_TOL:
            raise InvalidStrategyError(
                f"weights sum to {total!r}, not 1; use validate_strategy to repair"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    def support(self, tol: float = 0.0) -> tuple[int, ...]:
        """Indices carrying weight strictly greater than tol."""
        return tuple(int(i) for i in np.nonzero(self.weights > tol)[0])

    def __repr__(self) -> str:
        body = ",".join(canonical_float(v) for v in self.weights)
        return f"MixedStrategy({self.player.value},[{body}])"


def validate_strategy(weights, player: Player = Player.ROW) -> MixedStrategy:
    """Build a MixedStrategy from raw (possibly LP-noisy) weights.

    Entries in [-1e-12, 0) are clamped to zero; sums within 1e-9 of 1 are
    renormalized.  Anything dirtier is rejected with InvalidStrategyError.
    """
    w = _weight_vector(weights)
    if np.any(w < -NEGATIVE_CLAMP_TOL):
        raise InvalidStrategyError(
            f"weight {w.min():g} is negative beyond tolerance {-NEGATIVE_CLAMP_TOL:g}"
        )
    total = np.where(w < 0.0, 0.0, w).sum()
    if abs(total - 1.0) > SUM_REPAIR_TOL:
        raise InvalidStrategyError(
            f"weights sum to {total!r}, outside 1 +/- {SUM_REPAIR_TOL:g}"
        )
    return normalized_strategy(w, player)


def normalized_strategy(z, player: Player) -> MixedStrategy:
    """An LP vector z clipped at 0 and divided by its sum.  LP duals may sit
    about PIVOT_TOL below 0, so nothing is rejected: the caller certifies."""
    w = np.maximum(z, 0.0)
    return MixedStrategy(player, w / np.add.reduce(w))


def payoff(A: GameMatrix, x: MixedStrategy, y: MixedStrategy) -> float:
    """Expected row-player payoff x^T A y; bilinear in x and y."""
    if x.player is not Player.ROW or y.player is not Player.COL:
        raise DimensionMismatchError(
            f"payoff expects (row, col) strategies, got ({x.player.value}, {y.player.value})"
        )
    if len(x) != A.rows or len(y) != A.cols:
        raise DimensionMismatchError(
            f"strategy lengths ({len(x)}, {len(y)}) do not match a "
            f"{A.rows}x{A.cols} matrix"
        )
    return float(x.weights @ A.values @ y.weights)


@dataclass(frozen=True)
class GameSolution:
    """Value and one optimal strategy pair, with the certified residuals.

    Invariants (enforced by the solver before construction):
      min_j (x^T A)_j >= value - tolerance
      max_i (A y)_i  <= value + tolerance
      duality_gap    <= tolerance
    """

    value: float
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy
    duality_gap: float
    tolerance: float
    # Final basis of the value LP that produced the pair, in the solver's
    # column layout; the optimal-strategy extrema read the region's vertices
    # off it.
    lp_basis: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_tolerance(self.tolerance, "tolerance")
        if self.duality_gap < 0.0:
            raise InputError("duality gap cannot be negative")
