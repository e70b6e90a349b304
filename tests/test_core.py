import math

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
    validate_strategy,
)
from zerosum.core import canonical_json, normalized_strategy


class TestGameMatrix:
    def test_shape_and_entries(self, saddle):
        assert saddle.rows == 2 and saddle.cols == 2
        assert saddle.entry(1, 0) == 3.0
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

    def test_entry_out_of_range(self, rps):
        with pytest.raises(DimensionMismatchError):
            rps.entry(3, 0)

    def test_immutable(self, rps):
        with pytest.raises(ValueError):
            rps.values[0, 0] = 7.0

    def test_transpose(self, saddle):
        assert saddle.transpose().entry(0, 1) == 3.0

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

    @pytest.mark.parametrize("weights", [[[0.5], [0.5, 0]], ["x", 1.0], [{}, 1.0]])
    def test_rejects_ragged_and_non_numeric(self, weights):
        with pytest.raises(InvalidStrategyError) as err:
            MixedStrategy(Player.ROW, weights)
        assert isinstance(err.value.__cause__, (TypeError, ValueError))

    def test_support(self):
        s = MixedStrategy(Player.COL, [0.5, 0.0, 0.5])
        assert s.support() == (0, 2)

    def test_repr_is_canonical(self):
        s = MixedStrategy(Player.COL, [0.25, -0.0, 0.75])
        assert repr(s) == "MixedStrategy(col,[0.25,0,0.75])"


class TestValidateStrategy:
    def test_accepts_clean(self):
        s = validate_strategy([0.5, 0.5])
        assert s.player is Player.ROW
        np.testing.assert_array_equal(s.weights, [0.5, 0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidStrategyError):
            validate_strategy([0.7, 0.4])

    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidStrategyError):
            validate_strategy([-0.1, 1.1])

    def test_clamps_lp_noise(self):
        s = validate_strategy([-5e-13, 1.0 + 5e-13], Player.COL)
        assert s.weights[0] == 0.0
        assert abs(s.weights.sum() - 1.0) <= 1e-12

    def test_renormalizes_small_drift(self):
        s = validate_strategy([0.5 + 2e-10, 0.5])
        assert abs(s.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("weights", [[[0.5], [0.5, 0]], ["x", 1.0], [10**400]])
    def test_rejects_ragged_and_non_numeric(self, weights):
        with pytest.raises(InvalidStrategyError) as err:
            validate_strategy(weights)
        assert isinstance(err.value.__cause__, (TypeError, ValueError, OverflowError))

    def test_rejects_empty(self):
        with pytest.raises(InvalidStrategyError):
            validate_strategy([])
        with pytest.raises(InvalidStrategyError, match="finite"):
            validate_strategy([float("nan"), 1.0])


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
                assert payoff(rps, x, y) == rps.entry(i, j)

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
    blend = validate_strategy(
        alpha * x1.weights + (1.0 - alpha) * x2.weights, Player.ROW
    )
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


def test_game_solution_rejects_negative_duality_gap():
    x, y = MixedStrategy(Player.ROW, [1.0]), MixedStrategy(Player.COL, [1.0])
    with pytest.raises(InputError, match="duality gap"):
        GameSolution(
            value=0.0, row_strategy=x, col_strategy=y, duality_gap=-1e-12, tolerance=1e-8
        )
