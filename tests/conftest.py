import contextlib
import json
import sys

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


@pytest.fixture
def tighter_lp_tol(monkeypatch):
    """Context manager that sets the LP feasibility tolerance 10x tighter,
    1e-10, inside its block.

    `FEAS_TOL` is patched on every loaded zerosum module that defines it
    (`zerosum.lp` and every module that imports the name), so the code must
    read it inside function bodies, never as a default argument value.
    """

    @contextlib.contextmanager
    def tighter():
        owners = [
            name
            for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "zerosum" and hasattr(module, "FEAS_TOL")
        ]
        assert "zerosum.lp" in owners, owners
        with monkeypatch.context() as patch:
            for name in owners:
                patch.setattr(sys.modules[name], "FEAS_TOL", 1e-10)
            yield

    return tighter


def random_matrix(rng: np.random.Generator, max_m: int, max_n: int, lo=-5.0, hi=5.0):
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    return GameMatrix(rng.uniform(lo, hi, (m, n)))


def random_skew(rng: np.random.Generator, n: int, lo=-5.0, hi=5.0) -> GameMatrix:
    upper = np.zeros((n, n))
    idx = np.triu_indices(n, k=1)
    upper[idx] = rng.uniform(lo, hi, idx[0].size)
    return GameMatrix(upper - upper.T)


def skew4(upper) -> np.ndarray:
    """The 4 x 4 skew matrix whose strict upper triangle, row by row, is
    `upper`."""
    M = np.zeros((4, 4))
    M[np.triu_indices(4, k=1)] = upper
    return M - M.T


def ensemble(family: str, size: int, trials: int, seed: int) -> list[GameMatrix]:
    """The first `trials` matrices of the CLI's seeded `family` ensemble."""
    spec = EnsembleSpec(Family(family), size, trials, seed, DEFAULT_RANGES[family])
    return generate_ensemble(spec)


def integer_positive_games(trials: int, size: int = 6, seed: int = 11) -> list[GameMatrix]:
    """Positive games with entries drawn uniformly from {1, 2, 3}.  Integer
    payoffs tie often, so many of these games are degenerate."""
    rng = np.random.default_rng(seed)
    return [GameMatrix(rng.integers(1, 4, (size, size))) for _ in range(trials)]


def payoffs_at_pivot_scale() -> list[np.ndarray]:
    """Five games of payoffs at least 1 that reach the ratio test's scale
    edge, so `solve_game` refuses each.  `big` is the first float whose
    product with PIVOT_TOL reaches 1, and `below` the float before it.  In
    games 0-2 `big` fills column 1 of one, two or three rows; game 3 holds
    it in row 0 and `below` in row 1; in game 4 every row holds 3 * big."""
    from zerosum.lp import PIVOT_TOL

    big = 1 / PIVOT_TOL
    while PIVOT_TOL * big < 1.0:
        big = np.nextafter(big, np.inf)
    below = np.nextafter(big, 0.0)
    rng = np.random.default_rng(131)
    games = []
    for refused in range(1, 4):
        B = rng.uniform(1.0, 5.0, (4, 3))
        B[:refused, 1] = big
        games.append(B)
    B = rng.uniform(1.0, 5.0, (3, 3))
    B[0, 2], B[1, 0] = big, below
    games.append(B)
    B = rng.uniform(1.0, 5.0, (3, 4))
    B[:, 3] = big * 3.0
    games.append(B)
    return games


def strict_json(text: str):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens, which
    Python's json accepts but JSON does not have."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def lp_solution_bits(answer):
    """`solve_lp`'s answer (z, w) as raw bytes, so that two answers compare
    equal only when each float matches bit for bit (-0.0 and NaN
    included)."""

    def raw(a):
        if a is None:
            return None
        return np.shape(a), np.asarray(a, dtype=float).tobytes()

    return tuple(map(raw, answer))


def lp_program(objective, lhs, rhs):
    """The three arrays (c, E, f) of `lp.solve_lp`, laid out as its contract
    asks: C-ordered float copies.  Nothing is checked; a test states a valid
    program."""
    return tuple(np.array(a, dtype=float, order="C") for a in (objective, lhs, rhs))


def with_slacks(objective, ineq_lhs=None, ineq_rhs=None, eq_lhs=None, eq_rhs=None):
    """maximize c.z s.t. G z <= h, E z = f, z >= 0, written as the standard
    form (c, E, f) that `lp.solve_lp` takes: one slack column after z for
    each row of G, so [G | I; E | 0] (z, s) = [h; f], with objective c on z
    and 0 on s.  A point's first c.size entries are z, and the objective
    reads c.z."""
    c = np.array(objective, dtype=float)
    n = c.size
    G = np.zeros((0, n)) if ineq_lhs is None else np.array(ineq_lhs, dtype=float)
    E = np.zeros((0, n)) if eq_lhs is None else np.array(eq_lhs, dtype=float)
    h = np.zeros(0) if ineq_rhs is None else np.array(ineq_rhs, dtype=float)
    f = np.zeros(0) if eq_rhs is None else np.array(eq_rhs, dtype=float)
    mg, me = G.shape[0], E.shape[0]
    lhs = np.zeros((mg + me, n + mg))
    lhs[:mg, :n] = G
    lhs[mg:, :n] = E
    lhs[np.arange(mg), n + np.arange(mg)] = 1.0
    return lp_program(np.concatenate([c, np.zeros(mg)]), lhs, np.concatenate([h, f]))


def assert_program_contract(program):
    """What `lp.solve_lp` takes on trust: three finite float64 arrays
    (c, E, f), each C-contiguous, with consistent shapes and at least one
    row."""
    c, E, f = program
    for a in program:
        assert a.dtype == np.float64
        assert a.flags.c_contiguous
        assert np.all(np.isfinite(a))
    n = c.size
    assert c.shape == (n,) and n > 0
    assert E.ndim == 2 and E.shape[1] == n and E.shape[0] > 0
    assert f.shape == (E.shape[0],)


@pytest.fixture
def internal_lps(monkeypatch):
    """Every program (c, E, f) that `solver` and `spectral` hand to
    `solve_lp`, in order.  A game's value LP states none
    (`lp.solve_value_lp`)."""
    from zerosum import lp, solver, spectral

    programs = []

    def recording(*program):
        programs.append(program)
        return lp.solve_lp(*program)

    for module in (solver, spectral):
        monkeypatch.setattr(module, "solve_lp", recording)
    return programs
