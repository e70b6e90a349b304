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
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as encode_str

import numpy as np

# A constructed strategy must sum to 1 within this.
STRATEGY_SUM_TOL = 1e-12


class InputError(ValueError):
    """Rejected input: malformed matrix, strategy, or program."""


class DimensionMismatchError(InputError):
    """Shapes of the supplied objects are mutually inconsistent."""


class InvalidMatrixError(InputError):
    """Matrix is empty, non-rectangular, or has non-finite entries."""


class InvalidStrategyError(InputError):
    """Weight vector is not an acceptable probability distribution."""


class NonFiniteJSONError(RuntimeError):
    """`canonical_json` met a NaN or an infinity, which JSON cannot hold.
    Reports carry only finite numbers, so this is a bug (CLI exit 3)."""


def check_tolerance(value: float, name: str) -> None:
    """Raise InputError unless the tolerance `value` is finite and positive.

    The chained comparison is False for NaN, which `value <= 0.0` lets by.
    """
    if not 0.0 < value < float("inf"):
        raise InputError(f"{name} must be finite and positive, got {value!r}")


def check_finite(value: float, name: str) -> None:
    """Raise InputError unless `value` is finite."""
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")


class Player(enum.Enum):
    ROW = "row"
    COL = "col"


def canonical_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact).

    Negative zero is normalized to "0" so canonical renderings are unique:
    adding 0.0 maps -0.0 to 0.0 and leaves every other float, NaN and
    +/-inf included, as it is.
    """
    return "%.17g" % (float(x) + 0.0)


def canonical_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D array as its entries' `canonical_float` renderings
    joined by commas: one format string per row, not one call per entry."""
    fmt = ",".join(["%.17g"] * values.shape[1])
    # Adding 0.0 maps -0.0 to 0.0, as canonical_float does.
    return [fmt % tuple(row) for row in (values + 0.0).tolist()]


def canonical_json(obj) -> str:
    """Deterministic JSON: fixed key order (insertion), floats at 17
    significant digits, two spaces a nesting level, no platform-dependent
    repr involved.

    A float renders as `canonical_float` does, -0.0 as "0".  Strings and
    keys are escaped by the function `json.dumps` uses for a str.  A NaN or
    an infinity raises NonFiniteJSONError: JSON has no token for it.  No
    finite float renders with an "n", so one test of the formatted text
    finds it.

    Every rendering equals the item-by-item one; only the work differs.
    Each node is dispatched on its exact type first: a dict, a list or
    tuple, a float, a str.  A dict renders its str, float and bool values
    in its own loop, with no call per value.  A list or tuple whose items are
    all exactly `float` renders with one format call.  Anything else (None,
    int, numpy scalars and arrays, subclasses) takes the `isinstance`
    chain; an array renders as its `tolist()`, so a 0-d one as its scalar.
    """

    def finite(text: str) -> str:
        if "n" in text:
            raise NonFiniteJSONError(f"cannot render a non-finite float: {text}")
        return text

    def render(o, pad: str) -> str:
        # pad indents o's closing bracket; its items go one level deeper.
        t = type(o)
        if t is dict:
            return render_dict(o, pad)
        if t is list or t is tuple:
            return render_list(o, pad)
        if t is float:
            return finite("%.17g" % (o + 0.0))
        if t is str:
            return encode_str(o)
        if isinstance(o, (float, np.floating)):
            return finite(canonical_float(o))
        if isinstance(o, str):
            return encode_str(o)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, np.ndarray):
            # A 0-d array lists as a bare scalar, which renders as one.
            return render(o.tolist(), pad)
        if isinstance(o, (list, tuple)):
            return render_list(o, pad)
        if isinstance(o, dict):
            return render_dict(o, pad)
        raise TypeError(f"cannot canonicalize {type(o).__name__}")

    def render_dict(o, pad: str) -> str:
        if not o:
            return "{}"
        inner = pad + "  "
        items = []
        for k, v in o.items():
            t = type(v)
            if t is str:
                text = encode_str(v)
            elif t is float:
                # canonical_float's format; adding 0.0 maps -0.0 to 0.0.
                text = finite("%.17g" % (v + 0.0))
            elif t is bool:
                text = "true" if v else "false"
            else:
                text = render(v, inner)
            items.append(f"{inner}{encode_str(str(k))}: {text}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"

    def render_list(o, pad: str) -> str:
        if not o:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if set(map(type, o)) == {float}:
            # canonical_float's format; adding 0.0 maps -0.0 to 0.0.
            text = finite(
                sep.join(["%.17g"] * len(o)) % tuple([v + 0.0 for v in o])
            )
        else:
            text = sep.join([render(v, inner) for v in o])
        return "[\n" + inner + text + "\n" + pad + "]"

    return render(obj, "") + "\n"


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
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
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


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability distribution over one player's pure strategies."""

    player: Player
    weights: np.ndarray

    def __post_init__(self) -> None:
        try:
            w = np.array(self.weights, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidStrategyError(
                "strategy weights must be a vector of numbers"
            ) from exc
        if w.ndim != 1 or w.size == 0:
            raise InvalidStrategyError("strategy must be a nonempty vector")
        if not np.logical_and.reduce(np.isfinite(w)):
            raise InvalidStrategyError("strategy weights must be finite")
        lowest = np.minimum.reduce(w)
        if lowest < 0.0:
            raise InvalidStrategyError(f"negative weight {lowest:g}")
        total = np.add.reduce(w)
        if abs(total - 1.0) > STRATEGY_SUM_TOL:
            raise InvalidStrategyError(f"weights sum to {total!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        body = ",".join(canonical_float(v) for v in self.weights)
        return f"MixedStrategy({self.player.value},[{body}])"


def normalized_strategy(z, player: Player) -> MixedStrategy:
    """An LP vector z clipped at 0 and divided by its sum.  LP duals may sit
    about PIVOT_TOL below 0, so nothing is rejected: the caller certifies."""
    w = np.maximum(z, 0.0)
    w /= np.add.reduce(w)
    return MixedStrategy(player, w)


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

    def __post_init__(self) -> None:
        check_tolerance(self.tolerance, "tolerance")
        check_finite(self.value, "value")
        # Written so that a NaN gap fails too.
        if not self.duality_gap >= 0.0:
            raise InputError(
                f"duality gap must be nonnegative, got {self.duality_gap!r}"
            )
