import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import zerosum.spectral as spectral_mod
from zerosum import (
    GameMatrix,
    InconsistentAlternativesError,
    InputError,
    InvalidMatrixError,
    Player,
    gordan,
    GordanBranch,
    null_space,
    perron,
    stochastic_eigenvector,
)
from zerosum.cli import run_cli
from conftest import BAD_TOLERANCES, ensemble, random_skew


def perron_2x2_oracle(a, b, c, d):
    """Quadratic-formula eigenpair for a positive 2x2 matrix."""
    lam = (a + d + np.sqrt((a - d) ** 2 + 4 * b * c)) / 2
    vec = np.array([b, lam - a])
    return lam, vec / vec.sum()


def exact_2x2_root(a, b, c, d):
    """The quadratic-formula root of a positive 2x2 matrix, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, d = (Decimal(float(x)) for x in (a, b, c, d))
        return (a + d + ((a - d) ** 2 + 4 * b * c).sqrt()) / 2


class TestPerron:
    def test_symmetric_pair(self):
        cert = perron(GameMatrix([[2, 1], [1, 2]]))
        # characteristic polynomial x^2 - 4x + 3 has roots 3 and 1
        assert cert.perron_root == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(cert.perron_vector, [0.5, 0.5], atol=1e-12)
        assert cert.residual <= 1e-10

    def test_scalar(self):
        cert = perron(GameMatrix([[4.25]]))
        assert cert.perron_root == 4.25
        np.testing.assert_array_equal(cert.perron_vector, [1.0])

    def test_quadratic_oracle(self):
        lam, vec = perron_2x2_oracle(1.0, 2.0, 3.0, 4.0)
        cert = perron(GameMatrix([[1, 2], [3, 4]]))
        assert cert.perron_root == pytest.approx(lam, abs=1e-12)
        np.testing.assert_allclose(cert.perron_vector, vec, atol=1e-10)

    def test_requires_square(self):
        with pytest.raises(InvalidMatrixError):
            perron(GameMatrix([[1.0, 2.0]]))

    def test_requires_positive(self):
        with pytest.raises(InputError):
            perron(GameMatrix([[1.0, 0.0], [1.0, 1.0]]))

    def test_small_gap_pair_certifies(self, tmp_path):
        # The two eigenvalues differ by about 2e-6: power iteration from the
        # uniform vector cannot settle in any reasonable number of steps.
        entries = [[1.0, 1e-6], [1e-6, 1.0000001]]
        lam, _ = perron_2x2_oracle(1.0, 1e-6, 1e-6, 1.0000001)
        cert = perron(GameMatrix(entries))
        assert abs(cert.perron_root - lam) <= 1e-12
        assert cert.residual <= 1e-10
        csv = tmp_path / "small_gap.csv"
        csv.write_text("\n".join(",".join(repr(x) for x in row) for row in entries))
        assert run_cli(["analyze", "--input", str(csv)]) == 0

    @pytest.mark.parametrize(
        "entries,expected,atol",
        [
            # A = I + E: A v = v holds to roundoff for every stochastic v,
            # but the Perron vector is E's, [1, sqrt(2)] normalized.
            ([[1.0, 1e-20], [2e-20, 1.0]], [math.sqrt(2) - 1, 2 - math.sqrt(2)], 1e-12),
            (
                [[1.0, 1e-3], [1e-4, 1.0]],
                [math.sqrt(10) / (1 + math.sqrt(10)), 1 / (1 + math.sqrt(10))],
                1e-14,
            ),
        ],
    )
    def test_closed_form_vector(self, entries, expected, atol):
        cert = perron(GameMatrix(entries))
        np.testing.assert_allclose(cert.perron_vector, expected, rtol=0, atol=atol)

    def test_root_within_4_ulp_of_quadratic_formula(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(2000):
            a, b, c, d = rng.uniform(0.1, 10.0, 4)
            exact = exact_2x2_root(a, b, c, d)
            root = perron(GameMatrix([[a, b], [c, d]])).perron_root
            ulps = float(abs(Decimal(root) - exact)) / math.ulp(float(exact))
            worst = max(worst, ulps)
        assert worst <= 4.0

    def test_random_certificates(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            A = GameMatrix(rng.uniform(0.05, 10.0, (n, n)))
            cert = perron(A)
            assert cert.residual <= 1e-10
            assert np.all(cert.perron_vector > 0.0)
            assert abs(cert.perron_vector.sum() - 1.0) <= 1e-12
            row_sums = A.values.sum(axis=1)
            assert row_sums.min() - 1e-12 <= cert.perron_root <= row_sums.max() + 1e-12

    def test_uniqueness_of_positive_eigenvector(self):
        # Restated testably: a positive stochastic vector far from the Perron
        # vector cannot satisfy the eigen-equation tightly, while vectors that
        # do satisfy it tightly are close to the Perron vector.
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = GameMatrix(rng.uniform(0.1, 5.0, (n, n)))
            cert = perron(A)
            scale = float(np.abs(A.values).max())

            near = cert.perron_vector * (1.0 + rng.uniform(-1e-12, 1e-12, n))
            near /= near.sum()
            if np.max(np.abs(A.values @ near - cert.perron_root * near)) <= 1e-10 * scale:
                assert np.max(np.abs(near - cert.perron_vector)) <= 1e-6

            far = 0.9 * cert.perron_vector + 0.1 * rng.dirichlet(np.ones(n))
            far /= far.sum()
            if np.max(np.abs(far - cert.perron_vector)) > 1e-6:
                assert (
                    np.max(np.abs(A.values @ far - cert.perron_root * far))
                    > 1e-10 * scale
                )


class TestNullSpace:
    def test_rps_kernel(self, rps):
        basis = null_space(rps)
        assert basis.dimension == 1
        vec = basis.basis_vectors[0]
        np.testing.assert_allclose(vec / vec[0], [1.0, 1.0, 1.0], atol=1e-12)

    def test_identity(self):
        assert null_space(GameMatrix(np.eye(2))).dimension == 0

    def test_zero_matrix(self):
        basis = null_space(GameMatrix(np.zeros((3, 3))))
        assert basis.dimension == 3

    def test_requires_square(self):
        with pytest.raises(InvalidMatrixError):
            null_space(GameMatrix(np.ones((2, 3))))

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_non_finite_or_non_positive_rank_tol_rejected(self, rps, bad):
        with pytest.raises(InputError, match="rank_tol"):
            null_space(rps, rank_tol=bad)

    def test_soundness_and_completeness(self):
        rng = np.random.default_rng(44)
        inputs = []
        for trial in range(40):
            n = int(rng.integers(1, 8))
            r = int(rng.integers(0, n + 1))
            # construct a matrix of known rank r
            B = rng.uniform(-3, 3, (n, r)) @ rng.uniform(-3, 3, (r, n)) if r else np.zeros((n, n))
            inputs.append(B)
        # Unit upper triangular, -1 above the diagonal: det 1, yet its
        # smallest singular value falls below 1e-9 from n = 35 on.
        inputs += [np.eye(n) + np.triu(-np.ones((n, n)), 1) for n in (30, 35, 40)]
        for B in inputs:
            n = B.shape[0]
            A = GameMatrix(B)
            basis = null_space(A)
            scale = float(np.abs(A.values).max()) or 1.0
            for vec in basis.basis_vectors:
                assert np.max(np.abs(A.values @ vec)) <= 1e-9 * scale
                assert np.max(np.abs(vec)) == pytest.approx(1.0)
            if basis.dimension:
                stacked = np.column_stack(basis.basis_vectors)
                assert np.linalg.matrix_rank(stacked) == basis.dimension
            # independent rank computation on the same tolerance
            svd_rank = np.linalg.matrix_rank(A.values, tol=1e-9 * scale)
            assert svd_rank + basis.dimension == n


class TestStochasticEigenvector:
    def test_requires_square(self):
        with pytest.raises(InvalidMatrixError):
            stochastic_eigenvector(GameMatrix(np.ones((2, 3))), 0.0)

    def test_rps_zero_eigenvalue(self, rps):
        s = stochastic_eigenvector(rps, 0.0)
        np.testing.assert_allclose(s.weights, np.full(3, 1 / 3), atol=1e-9)
        assert s.player is Player.COL

    def test_diagonal_unit(self):
        s = stochastic_eigenvector(GameMatrix(np.diag([1.0, 2.0])), 1.0)
        np.testing.assert_allclose(s.weights, [1.0, 0.0], atol=1e-9)

    def test_sign_blocked(self):
        # eigenspace at -1 spans (1, -1): no nonnegative nonzero member
        assert stochastic_eigenvector(GameMatrix([[0, 1], [1, 0]]), -1.0) is None

    def test_witness_invariants(self):
        rng = np.random.default_rng(45)
        found = 0
        for _ in range(30):
            n = int(rng.integers(2, 6))
            B = rng.uniform(-3, 3, (n, n))
            B = B - B.mean(axis=1, keepdims=True) - B.mean(axis=0, keepdims=True) + B.mean()
            lam = float(rng.uniform(-2, 2))
            B += lam / n  # constant row/col sums equal to lam
            A = GameMatrix(B)
            witness = stochastic_eigenvector(A, lam)
            if witness is None:
                continue
            found += 1
            w = witness.weights
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.max(np.abs(A.values @ w - lam * w)) <= 1e-8
        assert found >= 25  # the uniform vector is always available here


class TestGordan:
    def test_rps_kernel_branch(self, rps):
        verdict = gordan(rps)
        assert verdict.branch is GordanBranch.NONNEGATIVE_KERNEL
        np.testing.assert_allclose(verdict.witness, np.full(3, 1 / 3), atol=1e-9)

    def test_rotation_image_branch(self):
        A = GameMatrix([[0, 1], [-1, 0]])
        verdict = gordan(A)
        assert verdict.branch is GordanBranch.POSITIVE_IMAGE
        assert np.all(A.values.T @ verdict.witness >= 1.0 - 1e-9)

    def test_identity_image_branch(self):
        verdict = gordan(GameMatrix(np.eye(2)))
        assert verdict.branch is GordanBranch.POSITIVE_IMAGE
        assert np.all(verdict.witness >= 1.0 - 1e-9)

    def test_exclusivity_and_witnesses(self):
        rng = np.random.default_rng(46)
        for trial in range(120):
            kind = trial % 4
            if kind == 0:
                m, n = rng.integers(1, 7, 2)
                V = rng.uniform(-4, 4, (m, n))
            elif kind == 1:
                V = random_skew(rng, int(rng.integers(2, 7))).values
            elif kind == 2:
                m, n = rng.integers(1, 7, 2)
                V = rng.uniform(0.01, 4, (m, n))
            else:
                V = np.diag(rng.uniform(-4, 4, int(rng.integers(1, 7))))
            assert_certified(V, gordan(GameMatrix(V)))  # raising fails too

    @pytest.mark.parametrize(
        "size,seed,trial",
        [
            # the image LP this replaced took a 7.1e-11 phase-1 pivot and
            # reported a point that missed feasibility (exit 3 in `verify`)
            (15, 1, 87), (25, 5, 61), (25, 4, 35),
            # the kernel LP's phase 1 pivoted on a 2e-11 to 5e-11 entry, the
            # roundoff of a zero in a column whose largest entry was 78 to
            # 690, and its multipliers then certified nothing
            (15, 5, 39), (12, 6, 85), (15, 10, 40),
        ],
    )
    def test_skew_ensemble_regressions(self, size, seed, trial):
        A = ensemble("Skew", size, trial + 1, seed)[trial]
        assert_certified(A.values, gordan(A))

    def test_one_lp_per_matrix(self, monkeypatch, rps):
        real = spectral_mod.solve_lp
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral_mod, "solve_lp", counting)
        matrices = [rps, GameMatrix(np.eye(2)), GameMatrix([[1, 2], [3, 4]])]
        matrices += [random_skew(np.random.default_rng(k), 6) for k in range(6)]
        branches = set()
        for A in matrices:
            calls.clear()
            branches.add(gordan(A).branch)
            assert len(calls) == 1
        assert branches == set(GordanBranch)

    def test_refuses_non_positive_ray(self, monkeypatch):
        real = spectral_mod.solve_lp

        def flipped_ray(*args, **kwargs):
            sol = real(*args, **kwargs)
            return dataclasses.replace(sol, farkas=-sol.farkas)

        monkeypatch.setattr(spectral_mod, "solve_lp", flipped_ray)
        with pytest.raises(InconsistentAlternativesError):
            gordan(GameMatrix(np.eye(2)))


def assert_certified(V, verdict):
    """The witness proves its branch on V itself."""
    if verdict.branch is GordanBranch.NONNEGATIVE_KERNEL:
        x = verdict.witness
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-9
        assert np.max(np.abs(V @ x)) <= 1e-9
    else:
        assert np.all(V.T @ verdict.witness >= 1.0 - 1e-9)
