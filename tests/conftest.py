import numpy as np
import pytest

from zerosum import GameMatrix
from zerosum.cli import DEFAULT_RANGES, EnsembleSpec, Family, generate_ensemble

RPS_ENTRIES = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
# Tolerances every entry point must reject: not finite, or not positive.
BAD_TOLERANCES = [0.0, -1.0, float("nan"), float("inf"), -float("inf")]


@pytest.fixture
def rps() -> GameMatrix:
    return GameMatrix(RPS_ENTRIES)


@pytest.fixture
def saddle() -> GameMatrix:
    return GameMatrix([[1, 2], [3, 4]])


def random_matrix(rng: np.random.Generator, max_m: int, max_n: int, lo=-5.0, hi=5.0):
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    return GameMatrix(rng.uniform(lo, hi, (m, n)))


def random_skew(rng: np.random.Generator, n: int, lo=-5.0, hi=5.0) -> GameMatrix:
    upper = np.zeros((n, n))
    idx = np.triu_indices(n, k=1)
    upper[idx] = rng.uniform(lo, hi, idx[0].size)
    return GameMatrix(upper - upper.T)


def ensemble(family: str, size: int, trials: int, seed: int) -> list[GameMatrix]:
    """The first `trials` matrices of the CLI's seeded `family` ensemble."""
    spec = EnsembleSpec(Family(family), size, trials, seed, DEFAULT_RANGES[family])
    return generate_ensemble(spec)
