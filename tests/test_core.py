import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    DimensionMismatchError,
    GameMatrix,
    GameSolution,
    InputError,
    InvalidMatrixError,
    InvalidStrategyError,
    MixedStrategy,
    Player,
    payoff,
)
from zerosum.core import NonFiniteJSONError, canonical_json, normalized_strategy


class TestGameMatrix:
    def test_shape_and_entries(self, saddle):
        assert saddle.rows == 2 and saddle.cols == 2
        assert saddle.values[1, 0] == 3.0
        assert saddle.is_square

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidMatrixError):
            GameMatrix([[1.0, float("nan")]])
        with pytest.raises(InvalidMatrixError):
            GameMatrix([[float("inf")]])

    def test_rejects_empty_and_wrong_ndim(self):
        with pytest.raises(InvalidMatrixError):
            GameMatrix(np.zeros((0, 3)))
        with pytest.raises(InvalidMatrixError):
            GameMatrix([1.0, 2.0])

    @pytest.mark.parametrize("values", [[[1, 2], [3]], [["a"]], [[10**400]]])
    def test_rejects_ragged_and_non_numeric(self, values):
        with pytest.raises(InvalidMatrixError) as err:
            GameMatrix(values)
        assert isinstance(err.value.__cause__, (TypeError, ValueError, OverflowError))

    def test_immutable(self, rps):
        with pytest.raises(ValueError):
            rps.values[0, 0] = 7.0

    def test_transpose(self, saddle):
        assert saddle.transpose().values[0, 1] == 3.0

    def test_saddle_repr_is_text_and_digest_is_sha256(self, saddle):
        assert repr(saddle) == "GameMatrix(2x2[1,2;3,4])"
        assert saddle.digest() == (
            "2x2:sha256:"
            "6bab56d2f81d4b5a2dbf102bf6a6ff7d5211a475fc5f97813f977e8ba714b07d"
        )

    def test_repr_and_csv_render_entries_as_canonical_float(self):
        from zerosum.cli import render_matrix
        from zerosum.core import canonical_float

        entries = [[-0.0, 5e-324], [1e17, math.pi]]
        A = GameMatrix(entries)
        rows = [",".join(canonical_float(v) for v in row) for row in entries]
        assert rows == ["0,4.9406564584124654e-324", "1e+17,3.1415926535897931"]
        assert repr(A) == "GameMatrix(2x2[" + ";".join(rows) + "])"
        assert render_matrix(A, "csv") == "\n".join(rows) + "\n"

    def test_digest_depends_on_values_not_on_their_storage(self):
        assert GameMatrix([[-0.0, 1]]).digest() == GameMatrix([[0.0, 1]]).digest()
        M = np.arange(6.0).reshape(2, 3)
        assert not M.T.flags.c_contiguous
        same = [M.T, np.ascontiguousarray(M.T), M.T.astype(">f8")]
        assert len({GameMatrix(v).digest() for v in same}) == 1

    def test_digest_tells_apart_shapes_and_one_ulp(self):
        flat = [1.0, 2.0, 3.0, 4.0]
        shaped = [np.reshape(flat, s) for s in ((1, 4), (4, 1), (2, 2))]
        assert len({GameMatrix(v).digest() for v in shaped}) == 3
        bumped = [[1.0, 2.0], [3.0, np.nextafter(4.0, 5.0)]]
        assert GameMatrix(bumped).digest() != GameMatrix([[1, 2], [3, 4]]).digest()


class TestMixedStrategy:
    def test_rejects_negative(self):
        with pytest.raises(InvalidStrategyError):
            MixedStrategy(Player.ROW, [-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidStrategyError):
            MixedStrategy(Player.ROW, [0.6, 0.6])

    def test_rejects_empty_matrix_and_non_finite(self):
        for weights in [[], [[0.5, 0.5]], [float("nan"), 1.0], [float("inf"), 0.0]]:
            with pytest.raises(InvalidStrategyError):
                MixedStrategy(Player.ROW, weights)

    @pytest.mark.parametrize(
        "weights", [[[0.5], [0.5, 0]], ["x", 1.0], [{}, 1.0], [10**400]]
    )
    def test_rejects_ragged_and_non_numeric(self, weights):
        with pytest.raises(InvalidStrategyError) as err:
            MixedStrategy(Player.ROW, weights)
        assert isinstance(err.value.__cause__, (TypeError, ValueError, OverflowError))

    def test_repr_is_canonical(self):
        s = MixedStrategy(Player.COL, [0.25, -0.0, 0.75])
        assert repr(s) == "MixedStrategy(col,[0.25,0,0.75])"


class TestPayoff:
    def test_rps_uniform_is_zero(self, rps):
        x = MixedStrategy(Player.ROW, np.full(3, 1 / 3))
        y = MixedStrategy(Player.COL, np.full(3, 1 / 3))
        assert abs(payoff(rps, x, y)) <= 1e-15

    def test_pure_strategies_pick_entries(self, rps):
        for i in range(3):
            for j in range(3):
                x = MixedStrategy(Player.ROW, np.eye(3)[i])
                y = MixedStrategy(Player.COL, np.eye(3)[j])
                assert payoff(rps, x, y) == rps.values[i, j]

    def test_direct_substitution(self, saddle):
        x = MixedStrategy(Player.ROW, [0.0, 1.0])
        y = MixedStrategy(Player.COL, [1.0, 0.0])
        assert payoff(saddle, x, y) == 3.0

    def test_player_side_enforced(self, saddle):
        x = MixedStrategy(Player.ROW, [0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            payoff(saddle, x, x)

    def test_dimension_mismatch(self, rps):
        x = MixedStrategy(Player.ROW, [0.5, 0.5])
        y = MixedStrategy(Player.COL, np.full(3, 1 / 3))
        with pytest.raises(DimensionMismatchError):
            payoff(rps, x, y)


finite_weights = st.lists(
    st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=5
)


@st.composite
def strategy_pair_and_matrix(draw):
    w1 = np.array(draw(finite_weights))
    w2 = np.array(draw(st.lists(
        st.floats(min_value=0.01, max_value=10.0),
        min_size=len(w1), max_size=len(w1),
    )))
    n = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n),
            min_size=len(w1),
            max_size=len(w1),
        )
    )
    wy = np.array(draw(st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=n, max_size=n
    )))
    return (
        GameMatrix(entries),
        MixedStrategy(Player.ROW, w1 / w1.sum()),
        MixedStrategy(Player.ROW, w2 / w2.sum()),
        MixedStrategy(Player.COL, wy / wy.sum()),
    )


@settings(max_examples=150, deadline=None)
@given(data=strategy_pair_and_matrix(), alpha=st.floats(min_value=0.0, max_value=1.0))
def test_payoff_is_bilinear(data, alpha):
    A, x1, x2, y = data
    w = alpha * x1.weights + (1.0 - alpha) * x2.weights
    blend = MixedStrategy(Player.ROW, w / w.sum())
    left = payoff(A, blend, y)
    right = alpha * payoff(A, x1, y) + (1.0 - alpha) * payoff(A, x2, y)
    assert math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=strategy_pair_and_matrix(), c=st.floats(min_value=-100, max_value=100))
def test_payoff_constant_shift(data, c):
    A, x, _, y = data
    shifted = GameMatrix(A.values + c)
    assert abs(payoff(shifted, x, y) - (payoff(A, x, y) + c)) <= 1e-10


def test_normalized_strategy_is_the_clipped_ratio_bit_for_bit():
    # np.clip(z, 0.0, None) calls np.maximum(z, 0.0), and w.sum() calls
    # np.add.reduce(w): the same operations in the same order.
    rng = np.random.default_rng(61)
    for _ in range(200):
        z = rng.uniform(-1e-11, 1.0, int(rng.integers(1, 40)))
        z[rng.random(z.size) < 0.2] = -0.0
        if not (z > 0.0).any():
            z[0] = 1.0
        w = np.clip(z, 0.0, None)
        want = w / w.sum()
        got = normalized_strategy(z, Player.ROW).weights
        assert got.tobytes() == want.tobytes()


def test_canonical_json_empty_containers_and_unknown_types():
    assert canonical_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'
    with pytest.raises(TypeError, match="cannot canonicalize set"):
        canonical_json({"a": {1, 2}})


def _reference_canonical_json(obj) -> str:
    """canonical_json item by item: one `canonical_float` call per float and
    one `json.dumps` call per string or key.  A float that is not finite
    raises NonFiniteJSONError."""
    import json

    from zerosum.core import canonical_float

    def render(o, level: int) -> str:
        pad = " " * (2 * (level + 1))
        close = " " * (2 * level)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            if not math.isfinite(o):
                raise NonFiniteJSONError(repr(o))
            return canonical_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
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
                f"{pad}{json.dumps(str(k))}: {render(v, level + 1)}"
                for k, v in o.items()
            )
            return "{\n" + inner + "\n" + close + "}"
        raise TypeError(f"cannot canonicalize {type(o).__name__}")

    return render(obj, 0) + "\n"


_FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]),
)
# Quotes, backslashes, control characters, non-ASCII and non-BMP text.
_TEXT = st.one_of(
    st.text(),
    st.text(
        st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "€", "𝄞"])
    ),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _TEXT,
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)
_FLOAT_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=6).map(np.array),
    st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=4).map(
        lambda rows: np.array(rows).reshape(-1, 2)
    ),
)
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _FLOAT_ARRAYS, st.lists(_FLOATS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.integers()), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_canonical_json_renders_as_item_by_item(payload):
    try:
        expected = _reference_canonical_json(payload)
    except NonFiniteJSONError:
        with pytest.raises(NonFiniteJSONError):
            canonical_json(payload)
    else:
        assert canonical_json(payload) == expected


def test_canonical_json_float_lists():
    # A list of exact floats renders in one format call: -0.0 as "0", and
    # the same text as the item-by-item rendering.
    floats = [-0.0, 1.5, -2.0, 5e-324]
    payload = {"v": floats, "t": (0.1,), "s": "\u00e9"}
    text = canonical_json(payload)
    assert text == _reference_canonical_json(payload)
    items = ["0", "1.5", "-2", "4.9406564584124654e-324"]
    assert '"v": [\n    ' + ",\n    ".join(items) + "\n  ]" in text
    assert '"s": "\\u00e9"' in text


def _isinstance_chain_canonical_json(obj) -> str:
    """The renderer canonical_json replaced: every node through one chain of
    `isinstance` tests, every dict value through its own call, and a list of
    exact floats in one format call."""
    from json.encoder import encode_basestring_ascii as encode_str

    from zerosum.core import canonical_float

    def finite(text: str) -> str:
        if "n" in text:
            raise NonFiniteJSONError(f"cannot render a non-finite float: {text}")
        return text

    def render(o, level: int) -> str:
        pad = "  " * (level + 1)
        close = "  " * level
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
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            sep = ",\n" + pad
            if set(map(type, o)) == {float}:
                inner = finite(
                    sep.join(["%.17g"] * len(o)) % tuple([v + 0.0 for v in o])
                )
            else:
                inner = sep.join([render(v, level + 1) for v in o])
            return "[\n" + pad + inner + "\n" + close + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = ",\n".join(
                f"{pad}{encode_str(str(k))}: {render(v, level + 1)}"
                for k, v in o.items()
            )
            return "{\n" + inner + "\n" + close + "}"
        raise TypeError(f"cannot canonicalize {type(o).__name__}")

    return render(obj, 0) + "\n"


class _Text(str):
    pass


class _Number(float):
    pass


_EXACT_TYPE_PAYLOADS = [
    {"x": np.float64(-0.0), "b": np.bool_(True), "i": np.int64(-7)},
    {"f": np.float64(0.1), "g": [np.float64(1.5), 2.5], "h": (np.float64(-0.0),)},
    {"a": np.array([[1.5, -0.0], [2.0, 3.0]]), "t": (1.0, -0.0, 2.5), "e": np.zeros(0)},
    {"mix": [True, 1, 0, False, 1.0, np.bool_(False), np.int64(2)], "flag": False},
    [{}, [], (), {"a": {}, "b": [[], {}], "c": ([], ())}, [[[]]]],
    {"\u00e9t\u00e9": "caf\u00e9 \u20ac \U0001d11e", "-0": -0.0, "": [-0.0]},
    {1: "int key", False: "bool key", 2.5: "float key", None: None},
    {"sub": _Text("a \"str\" subclass"), "num": _Number(-0.0), "list": [_Number(1.0)]},
    ({"nested": {"deeper": {"deepest": [0.1, 0.2, {"leaf": 0.30000000000000004}]}}},),
    ["a", 1.0, None, True, np.float32(0.1), np.array([True]), np.array([[]])],
]


@pytest.mark.parametrize("payload", _EXACT_TYPE_PAYLOADS)
def test_canonical_json_renders_as_the_isinstance_chain(payload):
    text = canonical_json(payload)
    assert text == _isinstance_chain_canonical_json(payload)
    assert text == _reference_canonical_json(payload)


@pytest.mark.parametrize("payload", [{"a": {1, 2}}, [np.array(1j)], {"a": b"x"}])
def test_canonical_json_refuses_what_the_isinstance_chain_refuses(payload):
    # A 0-d array renders as its scalar, so a complex one is refused as
    # complex.
    with pytest.raises(TypeError) as want:
        _isinstance_chain_canonical_json(payload)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        canonical_json(payload)


@pytest.mark.parametrize(
    "array,text",
    [
        (np.array(2.0), "2"),
        (np.array(-0.0), "0"),
        (np.array(-7), "-7"),
        (np.array(True), "true"),
    ],
)
def test_canonical_json_renders_a_0d_array_as_its_scalar(array, text):
    # As the numpy scalar array[()] renders: np.array(2.0) as np.float64(2.0).
    assert canonical_json(array) == canonical_json(array[()]) == text + "\n"
    assert canonical_json([array]) == f"[\n  {text}\n]\n"
    assert canonical_json({"a": array}) == f'{{\n  "a": {text}\n}}\n'


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_canonical_json_agrees_with_the_isinstance_chain(payload):
    try:
        expected = _isinstance_chain_canonical_json(payload)
    except NonFiniteJSONError:
        with pytest.raises(NonFiniteJSONError):
            canonical_json(payload)
    else:
        assert canonical_json(payload) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_json_refuses_non_finite_floats_at_every_depth(bad):
    for payload in (
        {"a": {"b": bad}},
        {"a": "text", "b": True, "c": bad},
        [{"a": [bad]}],
        {"a": [1.0, 2.0, bad]},
        {"a": (bad, 1.0)},
        {"a": [[bad]]},
    ):
        with pytest.raises(NonFiniteJSONError):
            canonical_json(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_json_refuses_non_finite_floats(bad):
    # JSON has no token for them: every path that renders a float raises a
    # RuntimeError (the CLI's exit 3), not the InputError of exit 2.
    for payload in (
        bad,
        np.float64(bad),
        {"a": bad},
        [1.0, bad],  # exact floats: the one-format-call path
        (bad,),
        [1, bad],
        [np.float64(1.0), np.float64(bad)],
        np.array([[1.0, 2.0], [bad, 0.0]]),
        np.array(bad),
    ):
        with pytest.raises(NonFiniteJSONError) as err:
            canonical_json(payload)
        assert isinstance(err.value, RuntimeError)
        assert not isinstance(err.value, InputError)


def test_game_solution_rejects_negative_duality_gap():
    x, y = MixedStrategy(Player.ROW, [1.0]), MixedStrategy(Player.COL, [1.0])
    with pytest.raises(InputError, match="duality gap"):
        GameSolution(
            value=0.0, row_strategy=x, col_strategy=y, duality_gap=-1e-12, tolerance=1e-8
        )


@pytest.mark.parametrize(
    "value,gap,match",
    [
        (0.0, float("nan"), "duality gap"),
        (float("nan"), 0.0, "value must be finite"),
        (float("inf"), 0.0, "value must be finite"),
    ],
)
def test_game_solution_rejects_nan_gap_and_non_finite_value(value, gap, match):
    # `nan < 0.0` is False, so a gap check written that way lets NaN through.
    x, y = MixedStrategy(Player.ROW, [1.0]), MixedStrategy(Player.COL, [1.0])
    with pytest.raises(InputError, match=match):
        GameSolution(
            value=value, row_strategy=x, col_strategy=y, duality_gap=gap, tolerance=1e-8
        )
