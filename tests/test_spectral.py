import itertools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zerosum.spectral as spectral_mod
from zerosum import (
    ClaimId,
    GameMatrix,
    InconsistentAlternativesError,
    InputError,
    InvalidMatrixError,
    Player,
    gordan,
    GordanBranch,
    null_space,
    perron,
    run_checker,
    stochastic_eigenvector,
)
from zerosum.cli import run_cli
from zerosum.lp import FEAS_TOL, _residual, solve_lp
from conftest import ensemble, lp_solution_bits, random_skew, skew4


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


def eig_perron_pair(V):
    """The Perron pair as `perron` made it from np.linalg.eig: the
    eigenvector of the eigenvalue with the largest real part, made
    positive, then the same refining step and root.  A reference only."""
    eigenvalues, eigenvectors = np.linalg.eig(V)
    v = np.abs(eigenvectors[:, int(eigenvalues.real.argmax())].real)
    v = V @ (v / np.add.reduce(v))
    v /= np.add.reduce(v)
    Av = V @ v
    return float(np.add.reduce(Av) / np.add.reduce(v)), v


def assert_matches_eig(A):
    """`perron` agrees with the eigendecomposition's pair to 2^-49 relative."""
    cert = perron(A)
    root, v = eig_perron_pair(A.values)
    assert abs(cert.perron_root - root) <= 2.0**-49 * root
    np.testing.assert_array_less(np.abs(cert.perron_vector - v), 2.0**-49 * v)


class TestPerron:
    def test_symmetric_pair(self):
        cert = perron(GameMatrix([[2, 1], [1, 2]]))
        # characteristic polynomial x^2 - 4x + 3 has roots 3 and 1
        assert cert.perron_root == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(cert.perron_vector, [0.5, 0.5], atol=1e-12)
        assert cert.root_low < 3.0 < cert.root_high

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
        exact = exact_2x2_root(1.0, 1e-6, 1e-6, 1.0000001)
        assert Decimal(cert.root_low) < exact < Decimal(cert.root_high)
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
        plain_misses = 0
        for _ in range(2000):
            a, b, c, d = rng.uniform(0.1, 10.0, 4)
            exact = exact_2x2_root(a, b, c, d)
            V = np.array([[a, b], [c, d]])
            cert = perron(GameMatrix(V))
            ulps = float(abs(Decimal(cert.perron_root) - exact)) / math.ulp(float(exact))
            worst = max(worst, ulps)
            assert Decimal(cert.root_low) <= exact <= Decimal(cert.root_high)
            # The Collatz-Wielandt quotients of the float product, neither
            # widened nor rounded outward.
            v = cert.perron_vector
            quotients = (V @ v) / v
            plain_misses += not (
                Decimal(float(quotients.min())) <= exact <= Decimal(float(quotients.max()))
            )
        assert worst <= 4.0
        # Roundoff alone moves the plain bounds past the root.
        assert plain_misses > 0

    def test_random_certificates(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            A = GameMatrix(rng.uniform(0.05, 10.0, (n, n)))
            cert = perron(A)
            assert cert.root_low <= cert.perron_root <= cert.root_high
            assert cert.root_high - cert.root_low <= 1e-14 * cert.perron_root
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_the_eigendecomposition_on_positive10(self, seed):
        for A in ensemble("Positive", 10, 400, seed):
            assert_matches_eig(A)

    @pytest.mark.slow
    def test_agrees_with_the_eigendecomposition_on_every_3x3_in_1_2_3(self):
        for entries in itertools.product((1.0, 2.0, 3.0), repeat=9):
            assert_matches_eig(GameMatrix(np.reshape(entries, (3, 3))))

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_power_of_two_scaling_keeps_the_bits(self, k):
        matrices = ensemble("Positive", 10, 20, 1) + [
            GameMatrix([[1.0, 2.0], [3.0, 4.0]]),
            GameMatrix(np.random.default_rng(38).uniform(0.1, 10.0, (6, 6))),
        ]
        for A in matrices:
            cert = perron(A)
            scaled = perron(GameMatrix(A.values * 2.0**k))
            assert scaled.perron_root == cert.perron_root * 2.0**k
            assert scaled.perron_vector.tobytes() == cert.perron_vector.tobytes()
            assert scaled.root_low == cert.root_low * 2.0**k
            assert scaled.root_high == cert.root_high * 2.0**k

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("c", [1.0, 0.3, 7.25, 2.0**-1000])
    def test_constant_matrix_takes_no_squaring(self, monkeypatch, n, c):
        counts, squarings = [], spectral_mod._squarings

        def recording(low, high):
            counts.append(squarings(low, high))
            return counts[-1]

        monkeypatch.setattr(spectral_mod, "_squarings", recording)
        cert = perron(GameMatrix(np.full((n, n), c)))
        assert counts == [0]
        v = cert.perron_vector
        # The refining step v <- A v rounds c / n for most n; it leaves
        # every entry equal, and where n is a power of two, exactly 1/n.
        assert np.all(v == v[0])
        assert v[0] == pytest.approx(1.0 / n, rel=2.0**-51)
        if n & (n - 1) == 0:
            assert np.all(v == 1.0 / n)
            assert cert.perron_root == n * c

    @pytest.mark.parametrize(
        "low,high,count",
        [
            (1.0, 1.0, 0),
            (1.0, 1.0 + 2.0**-52, 0),
            (1.0, 3.0, 6),
            (0.1, 5.0, 10),
            (1.0, 1e3, 15),
            (1.0, 1e6, 25),
            (1.0, 2.0**900, 905),
            (5e-324, 5e-324, 0),
            (5e-324, 1.0, 1079),
            (5e-324, float(np.finfo(float).max), 2103),
        ],
    )
    def test_squarings_are_the_least_the_bound_allows(self, low, high, count):
        assert spectral_mod._squarings(low, high) == count
        # tau^(2^k) ln R <= 2^-52 is 2^k (-ln tau) >= ln(2^52 ln R), with
        # -ln tau = 2 atanh(1/R); checked for k and k - 1 in 60 digits.
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(low) / Decimal(high)
            if x == 1:
                return
            rate = ((1 + x) / (1 - x)).ln() if x > Decimal("1e-6") else 2 * x * (1 + x * x / 3)
            need = (Decimal(2) ** 52 * (1 / x).ln()).ln()
            assert Decimal(2) ** count * rate >= need
            if count:
                assert Decimal(2) ** (count - 1) * rate < need

    @pytest.mark.parametrize(
        "entries,certified",
        [
            ([[5e-324]], True),
            ([[1.0, 5e-324, 2.0], [1.0, 1.0, 3.0], [0.5, 2.0, 1.0]], True),
            ([[1e300, 5e-324], [1.0, 1.0]], True),
            (
                [[math.exp(300), math.exp(-300)], [math.exp(-300), math.exp(300)]],
                True,
            ),
            ([[math.exp(300), 1.0], [2.0, math.exp(300)]], True),
            ([[math.exp(-300), 1.0], [2.0, math.exp(-300)]], True),
            ([[math.exp(-300), 2 * math.exp(-300)], [3 * math.exp(-300), math.exp(-300)]], True),
            ([[math.exp(300), math.exp(-300)], [1.0, math.exp(300)]], True),
            # Its residual is about 5e114 in absolute terms; the enclosure
            # is relative to the entries, so their scale does not matter.
            ([[math.exp(300), 2 * math.exp(300)], [3 * math.exp(300), math.exp(300)]], True),
            # Every product of the refining step underflows to 0; the
            # eigendecomposition warned of 0/0 here, then refused it too.
            ([[5e-324, 5e-324], [5e-324, 5e-324]], False),
            # The eigendecomposition certified v = (2.2e-162, 1).  The
            # squares round the 5e-324 entry away, tend to a nilpotent
            # matrix and reach 0 before the count runs out.
            ([[1.0, 5e-324], [1.0, 1.0]], False),
            # Row sums past the largest float: it warned of an overflow.
            ([[1e308, 1.7e308], [1.5e308, 1e308]], False),
        ],
    )
    def test_edges_of_the_float_range_end_warning_free(self, entries, certified):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if certified:
                cert = perron(GameMatrix(entries))
                assert np.all(cert.perron_vector > 0.0)
                assert cert.root_low <= cert.perron_root <= cert.root_high
            else:
                with pytest.raises(spectral_mod.ConvergenceError):
                    perron(GameMatrix(entries))

    def test_symmetric_matrix_past_the_corner_range_keeps_its_symmetry(self):
        # An eigendecomposition gives (1, 2.7e-261) here: its eigenvalues
        # e^300 +- e^-300 are one float.
        a, b = math.exp(300), math.exp(-300)
        cert = perron(GameMatrix([[a, b], [b, a]]))
        assert cert.perron_vector.tolist() == [0.5, 0.5]


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

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_eigenvalue_is_an_input_error(self, rps, capsys, lam):
        with pytest.raises(InputError, match="eigenvalue"):
            stochastic_eigenvector(rps, float(lam))
        for claim in (ClaimId.EIGENSPACE_LEMMA5, ClaimId.SHIFTED_EIGEN_THM4_GENERAL):
            with pytest.raises(InputError, match="eigenvalue"):
                run_checker(claim, rps, lambdas=[float(lam)])
        csv = str(Path(__file__).parent / "data" / "rps.csv")
        for argv in (
            ["verify", "--claim", "EigenspaceLemma5", "--input", csv],
            ["verify", "--claim", "ShiftedEigenThm4General", "--input", csv],
            ["analyze", "--input", csv],
        ):
            capsys.readouterr()
            assert run_cli([*argv, f"--lambda={lam}"]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert "eigenvalue" in out.err


    @pytest.mark.parametrize(
        "diagonal,lam", [((1e308, 1.0), -1e308), ((1.0, -1e308), 1e308)]
    )
    def test_shifted_diagonal_overflow_is_an_input_error(
        self, capsys, tmp_path, diagonal, lam
    ):
        # A finite eigenvalue whose shift a_ii - lambda leaves the float
        # range is refused before any arithmetic, with no RuntimeWarning.
        A = GameMatrix(np.diag(diagonal))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="a_ii - eigenvalue overflows"):
                stochastic_eigenvector(A, lam)
            with pytest.raises(InputError, match="a_ii - eigenvalue overflows"):
                run_checker(ClaimId.SHIFTED_EIGEN_THM4_GENERAL, A, lambdas=[lam])
        csv = tmp_path / "diagonal.csv"
        csv.write_text("\n".join(",".join(map(repr, row)) for row in A.values.tolist()))
        argv = ["verify", "--claim", "ShiftedEigenThm4General", "--input", str(csv)]
        capsys.readouterr()
        assert run_cli([*argv, f"--lambda={lam!r}"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "a_ii - eigenvalue overflows" in out.err


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

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="ROADMAP item 9: FEAS_TOL is absolute, so at 2^26 the kernel "
        "LP's point misses it by 3.7e-9 and gordan raises a solver bug",
    )
    def test_zero_column_kernel_at_scale(self):
        # Column 6 is zero, so e_6 is an exact stochastic kernel vector; the
        # 2 x 6 matrix reads NonnegativeKernel at 2^0 through 2^24.
        K = np.array([[1, 2, -2, -1, 1, 0], [1, 1, 1, -2, 2, 0]]) * 2.0**26
        assert gordan(GameMatrix(K)).branch is GordanBranch.NONNEGATIVE_KERNEL

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

    def test_one_lp_per_matrix(self, lp_calls, rps):
        # At most one: the SVD answers every square kernel of dimension 0 or
        # 1, so only the wider kernels, here of ones(3) and zeros(2), and a
        # 4 x 4 skew matrix of rank 2, build the LP.
        matrices = [rps, GameMatrix(np.eye(2)), GameMatrix([[1, 2], [3, 4]])]
        matrices += [random_skew(np.random.default_rng(k), 6) for k in range(6)]
        matrices += [GameMatrix(np.ones((3, 3))), GameMatrix(np.zeros((2, 2)))]
        matrices.append(GameMatrix(skew4([1, -1, 0, 1, -1, 1])))
        branches = {True: set(), False: set()}
        for A in matrices:
            lp_calls.clear()
            wide = null_space(A).dimension >= 2
            branches[wide].add(gordan(A).branch)
            assert len(lp_calls) == wide
        assert branches == {True: set(GordanBranch), False: set(GordanBranch)}

    def test_refuses_non_positive_ray(self, monkeypatch):
        # ones(3) has a kernel of dimension 2, so its answer comes from the LP.
        real = spectral_mod.solve_lp

        def flipped_ray(*args, **kwargs):
            z, w = real(*args, **kwargs)
            return z, -w

        monkeypatch.setattr(spectral_mod, "solve_lp", flipped_ray)
        with pytest.raises(InconsistentAlternativesError):
            gordan(GameMatrix(np.ones((3, 3))))


def _kernel_lp(M):
    """The program (c, E, f) `_stochastic_kernel` hands to `solve_lp` for M:
    [M; 1^T] z = e_{m+1}, z >= 0, with a zero objective."""
    m, n = M.shape
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    return np.zeros(n), np.vstack([M, np.ones(n)]), rhs


@pytest.fixture
def lp_calls(monkeypatch):
    """Every program (c, E, f) `spectral` hands to `solve_lp`, in order."""
    real = spectral_mod.solve_lp
    calls = []

    def counting(*program):
        calls.append(program)
        return real(*program)

    monkeypatch.setattr(spectral_mod, "solve_lp", counting)
    return calls


def _status(answer):
    """The LP status that `_stochastic_kernel`'s answer (z, y, floor), or
    `solve_lp`'s (z, w), stands for: "optimal" for a point z, "infeasible"
    otherwise."""
    return "infeasible" if answer[0] is None else "optimal"


def assert_lp_agrees(M, answer):
    """`_stochastic_kernel`'s answer (z, y, floor) on M, made without an LP,
    has the LP's status and proves it on M: a point z passes the LP's own
    feasibility test, and a y has M^T y > 0 in exact rationals, so
    [y, -floor] is a Farkas ray of [M; 1^T] z = e_{m+1}, z >= 0."""
    z, y, floor = answer
    program = _kernel_lp(M)
    assert (z is None) is (y is not None)
    assert _status(answer) == _status(solve_lp(*program))
    if y is None:
        assert floor == 0.0
        assert _residual(*program[1:], z) <= FEAS_TOL
        return
    assert floor > 0.0
    # floor is min(M^T y) as rounded, so it holds in floats.
    assert np.all(M.T @ y - floor >= 0.0)
    exact = [
        sum(Fraction(a) * Fraction(b) for a, b in zip(column, y.tolist()))
        for column in M.T.tolist()
    ]
    assert min(exact) > 0


class TestSvdCertificate:
    """`_stochastic_kernel` answers a square M from one SVD when M's kernel
    has dimension 0 or 1: Infeasible with a margin-certified ray when M is
    nonsingular or its kernel line has both signs, Optimal when the line is
    one-signed and its stochastic vector passes the LP's test.  Every other
    M takes the LP."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        real = spectral_mod._svd
        calls = []

        def recording(V):
            calls.append(V)
            return real(V)

        monkeypatch.setattr(spectral_mod, "_svd", recording)
        return calls

    def test_answers_only_what_the_lp_finds_infeasible(self, lp_calls):
        # And, since the SVD answers Optimal too, only what the LP finds
        # feasible; every fast answer is checked against the LP.
        matrices = [
            A.values
            for size in range(2, 16)
            for seed in (1, 2, 3)
            for A in ensemble("Skew", size, 20, seed)
        ]
        matrices += [A.values for A in ensemble("General", 5, 40, 3)]
        # Integer skew matrices: many have a kernel of dimension 2 or more.
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            upper = np.triu(rng.integers(-2, 3, (n, n)), 1).astype(float)
            matrices.append(upper - upper.T)
        # The shifted matrices of EigenspaceLemma5's skew audits, and of
        # ShiftedEigenThm4General's on Skew 5 (A - lambda I and its
        # transpose).
        for size, seed in ((3, 1), (5, 3)):
            for A in ensemble("Skew", size, 40, seed):
                for lam in (0.0, 1.0):
                    M = A.values - lam * np.eye(size)
                    matrices += [M, M.T.copy()]
        counts = {"wide": 0, "nonsingular": 0, "mixed": 0, "one-signed": 0}
        for M in matrices:
            lp_calls.clear()
            answer = spectral_mod._stochastic_kernel(M)
            dimension = null_space(GameMatrix(M)).dimension
            if dimension >= 2:
                counts["wide"] += 1
                assert len(lp_calls) == 1
            if lp_calls:
                continue
            assert_lp_agrees(M, answer)
            if dimension == 0:
                counts["nonsingular"] += 1
            elif _status(answer) == "infeasible":
                counts["mixed"] += 1
            else:
                counts["one-signed"] += 1
        assert counts["wide"] >= 20
        assert counts["nonsingular"] >= 500
        assert counts["mixed"] >= 500
        assert counts["one-signed"] >= 50

    def test_skew7_builds_no_lp(self, lp_calls):
        # Its 6 nonnegative kernels are one-signed lines: the SVD answers.
        kernels = 0
        for A in ensemble("Skew", 7, 400, 1):
            [report] = run_checker(ClaimId.GORDAN_THEOREM3, A)
            kernels += report.computed["gordan_branch"] == "NonnegativeKernel"
        assert kernels == 6
        assert lp_calls == []

    @pytest.mark.parametrize(
        "entries,branch,witness",
        [
            ([[0.0], [0.0]], GordanBranch.NONNEGATIVE_KERNEL, [1.0]),
            ([[2.0], [1.0]], GordanBranch.POSITIVE_IMAGE, [1.0, -1.0]),
            ([[0.0, 0.0], [0.0, 0.0]], GordanBranch.NONNEGATIVE_KERNEL, [1.0, 0.0]),
            ([[1.0, -1.0]], GordanBranch.NONNEGATIVE_KERNEL, [0.5, 0.5]),
            ([[1.0], [-1.0]], GordanBranch.POSITIVE_IMAGE, [0.0, -1.0]),
        ],
    )
    def test_small_matrices_take_the_lp(
        self, lp_calls, svd_calls, entries, branch, witness
    ):
        verdict = gordan(GameMatrix(entries))
        assert len(lp_calls) == 1
        assert verdict.branch is branch
        np.testing.assert_array_equal(verdict.witness, witness)
        # Only the square matrix of order 2 reaches the SVD; its kernel is
        # the whole plane.
        assert len(svd_calls) == (np.shape(entries) == (2, 2))

    @pytest.mark.parametrize(
        "entries,branch,witness",
        [
            ([[0.0]], GordanBranch.NONNEGATIVE_KERNEL, [1.0]),
            ([[2.0]], GordanBranch.POSITIVE_IMAGE, [0.5]),
            ([[-3.0]], GordanBranch.POSITIVE_IMAGE, [-1 / 3]),
        ],
    )
    def test_order_one_takes_the_svd(
        self, lp_calls, svd_calls, entries, branch, witness
    ):
        verdict = gordan(GameMatrix(entries))
        assert len(svd_calls) == 1 and lp_calls == []
        assert verdict.branch is branch
        np.testing.assert_array_equal(verdict.witness, witness)

    def test_nonsingular_and_one_signed_answers(self, lp_calls):
        # A - lambda I on Skew 5 at lambda in {0, 1}: odd skew matrices are
        # singular, and at 1 the shift makes them nonsingular.  Each answer
        # is the LP's, and the points are the LP's up to roundoff.
        seen = set()
        for A in ensemble("Skew", 5, 40, 3):
            for lam in (0.0, 1.0):
                M = A.values - lam * np.eye(5)
                answer = spectral_mod._stochastic_kernel(M)
                assert_lp_agrees(M, answer)
                rank = 5 - null_space(GameMatrix(M)).dimension
                seen.add((lam, rank, _status(answer)))
                if _status(answer) == "optimal":
                    lp_point, _ = solve_lp(*_kernel_lp(M))
                    np.testing.assert_allclose(answer[0], lp_point, atol=1e-13)
        assert lp_calls == []
        assert seen == {
            (0.0, 4, "infeasible"),
            (0.0, 4, "optimal"),
            (1.0, 5, "infeasible"),
        }

    def test_sign_sums_are_the_masked_reductions(self):
        # Each is the exact sum under its mask, rounded once, so within a
        # pairwise sum's roundoff of numpy's masked reduction, on kernel
        # lines of every size the audits meet, long one-signed runs, zeros
        # and -0.0 included.
        rng = np.random.default_rng(32)
        lines = [np.linalg.svd(A.values)[2][-1] for A in ensemble("Skew", 25, 20, 5)]
        for _ in range(2000):
            n = int(rng.integers(1, 300))
            k = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3, n)
            if rng.random() < 0.5:
                # Runs of 9 entries of one sign.
                signs = np.repeat(rng.choice([-1.0, 1.0], n // 9 + 1), 9)
                k = np.abs(k) * signs[:n]
            k[rng.integers(0, n, n // 10)] = 0.0
            odd = k[1::2]
            odd[odd == 0.0] = -0.0
            lines.append(k)
        assert any(np.signbit(k[k == 0.0]).any() for k in lines)
        for k in lines:
            values = k.tolist()
            want = (
                float(sum(Fraction(v) for v in values if v > 0)),
                -float(sum(Fraction(v) for v in values if not v > 0)),
            )
            got = spectral_mod._sign_sums(k)
            assert got == want
            pos = k > 0.0
            for total, mask in zip(got, (pos, ~pos)):
                masked = abs(float(np.add.reduce(k, where=mask)))
                bound = 2 * len(k) * 2.0**-53 * np.add.reduce(np.abs(k), where=mask)
                assert abs(total - masked) <= bound

    def test_witnesses_keep_the_bits_of_the_masked_sums(self):
        # A mixed-sign line's ray, from the correctly rounded sums of k's
        # positive entries and of the others.
        checked = 0
        for size, seed in ((7, 1), (9, 2), (15, 3)):
            for A in ensemble("Skew", size, 40, seed):
                V = A.values
                u, sigma, vt = np.linalg.svd(V)
                k = vt[-1]
                pos = k > 0.0
                s_pos = float(sum(Fraction(v) for v in k[pos].tolist()))
                s_neg = -float(sum(Fraction(v) for v in k[~pos].tolist()))
                if not (s_pos > 0.0 and s_neg > 0.0):
                    continue
                b = np.where(pos, s_neg, s_pos)
                y = u[:, :-1] @ ((vt[:-1] @ b) / sigma[:-1])
                want = y / np.minimum.reduce(V.T @ y)
                assert gordan(A).witness.tobytes() == want.tobytes()
                checked += 1
        assert checked > 0

    def test_margin_leaves_a_kernel_within_tolerance_to_the_lp(
        self, lp_calls, svd_calls
    ):
        # The kernel is the line of (1, 1, -1e-12), so no stochastic vector
        # spans it exactly; but z = (1/2, 1/2, 0) has ||A z|| = 5e-13, within
        # FEAS_TOL, and the LP accepts it.  The SVD's ray proves A^T y > 0
        # on A, yet only the margin keeps it from overruling the LP.
        eps = 1e-12
        A = GameMatrix([[0.0, -eps, -1.0], [eps, 0.0, 1.0], [1.0, -1.0, 0.0]])
        verdict = gordan(A)
        assert len(svd_calls) == len(lp_calls) == 1
        assert verdict.branch is GordanBranch.NONNEGATIVE_KERNEL
        np.testing.assert_allclose(verdict.witness, [0.5, 0.5, 0.0], atol=1e-12)

    def test_svd_failure_takes_the_lp(self, monkeypatch, lp_calls):
        A = ensemble("Skew", 7, 1, 1)[0]
        branch = gordan(A).branch
        assert lp_calls == []

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        verdict = gordan(A)
        assert len(lp_calls) == 1
        sol = solve_lp(*_kernel_lp(A.values))
        assert lp_solution_bits(solve_lp(*lp_calls[0])) == lp_solution_bits(sol)
        y = sol[1][:7]
        assert verdict.branch is branch
        np.testing.assert_array_equal(
            verdict.witness, y / np.minimum.reduce(A.values.T @ y)
        )


def _lp_building_skew4(uppers, lp_calls):
    """Ask `_stochastic_kernel` about each 4 x 4 integer skew matrix with the
    given strict upper triangles; check every answer made without an LP
    against the LP, and return how many built one.  Each that did has a
    kernel of dimension 2, and every other one has dimension 0 or 1."""
    built = 0
    for upper in uppers:
        M = skew4(upper)
        lp_calls.clear()
        answer = spectral_mod._stochastic_kernel(M)
        wide = null_space(GameMatrix(M)).dimension >= 2
        assert len(lp_calls) == wide, upper
        if wide:
            built += 1
        else:
            assert_lp_agrees(M, answer)
    return built


class TestIntegerSkew4:
    """Every 4 x 4 skew matrix with entries in {-2, ..., 2}: 15,625 of them,
    2,313 with a kernel of dimension 2."""

    def test_sample_agrees_with_the_lp(self, lp_calls):
        uppers = np.random.default_rng(32).integers(-2, 3, (300, 6)).tolist()
        assert 10 <= _lp_building_skew4(uppers, lp_calls) <= 100

    @pytest.mark.slow
    def test_every_matrix_agrees_with_the_lp(self, lp_calls):
        uppers = itertools.product(range(-2, 3), repeat=6)
        assert _lp_building_skew4(uppers, lp_calls) == 2313


def assert_certified(V, verdict):
    """The witness proves its branch on V itself."""
    if verdict.branch is GordanBranch.NONNEGATIVE_KERNEL:
        x = verdict.witness
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-9
        assert np.max(np.abs(V @ x)) <= 1e-9
    else:
        assert np.all(V.T @ verdict.witness >= 1.0 - 1e-9)
