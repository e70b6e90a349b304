import codecs
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    EnsembleSpec,
    Family,
    GameMatrix,
    InputError,
    InvalidMatrixError,
    MatrixParseError,
    generate_ensemble,
    parse_matrix,
    render_matrix,
    run_cli,
)
from zerosum.cli import DEFAULT_RANGES
from conftest import ensemble, payoffs_at_pivot_scale, strict_json

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _ensemble_argv(claim, family, size, trials, seed):
    return (
        f"verify --claim {claim} --ensemble {family} --size {size} "
        f"--trials {trials} --seed {seed}"
    ).split()


class TestParseMatrix:
    def test_rps_csv(self, rps):
        parsed = parse_matrix("0,-1,1\n1,0,-1\n-1,1,0")
        np.testing.assert_array_equal(parsed.values, rps.values)

    def test_whitespace_csv(self):
        parsed = parse_matrix("1 2\n3 4")
        np.testing.assert_array_equal(parsed.values, [[1, 2], [3, 4]])

    def test_mixed_separators(self):
        parsed = parse_matrix("1, 2\n3,\t4")
        np.testing.assert_array_equal(parsed.values, [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "text,lineno", [("1,,2\n3,4", 1), (",1,2\n3,4", 1), ("1,2\n3,4,", 2)]
    )
    def test_empty_csv_field(self, text, lineno):
        # Commas used to become spaces before the split, so a blank field
        # vanished and the row shifted left.
        with pytest.raises(MatrixParseError, match=f"line {lineno}"):
            parse_matrix(text)

    def test_ragged_rows(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1,2\n3")

    def test_bad_literal(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("1,zap\n3,4")

    def test_empty(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("   \n  ")

    def test_json_document(self):
        doc = '{"rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]}'
        parsed = parse_matrix(doc, "json")
        np.testing.assert_array_equal(parsed.values, [[1, 2], [3, 4]])

    def test_json_declared_mismatch(self):
        with pytest.raises(MatrixParseError):
            parse_matrix('{"rows": 3, "cols": 2, "entries": [[1, 2]]}', "json")

    @pytest.mark.parametrize(
        "dims", ['true, "cols": true', '1.0, "cols": 1', '1, "cols": "1"', '1, "cols": null']
    )
    def test_json_dimensions_must_be_integers(self, dims):
        with pytest.raises(MatrixParseError, match="JSON integers"):
            parse_matrix('{"rows": %s, "entries": [[1]]}' % dims, "json")

    def test_json_missing_key(self):
        with pytest.raises(MatrixParseError):
            parse_matrix('{"rows": 1, "entries": [[1]]}', "json")

    def test_json_invalid(self):
        for doc in [
            "{nope",
            '{"rows": 1, "cols": 2, "entries": [[1, "x"]]}',
            '{"rows": 1, "cols": 1, "entries": [[null]]}',
            '{"rows": 2, "cols": 2, "entries": [[true, 0], [0, 1]]}',
            '{"rows": 1, "cols": 1, "entries": [["1"]]}',
            # An integer beyond the float range makes float() overflow.
            '{"rows": 1, "cols": 1, "entries": [[1%s]]}' % ("0" * 400),
        ]:
            with pytest.raises(MatrixParseError):
                parse_matrix(doc, "json")
        # 1e400 reads as inf: a number, so the matrix check names it.
        with pytest.raises(InvalidMatrixError, match="finite") as info:
            parse_matrix('{"rows": 1, "cols": 1, "entries": [[1e400]]}', "json")
        assert not isinstance(info.value, MatrixParseError)

    def test_unknown_format(self, rps):
        with pytest.raises(InputError, match="unknown matrix format"):
            parse_matrix("1,2", "xml")
        with pytest.raises(InputError, match="unknown matrix format"):
            render_matrix(rps, "xml")


class TestRoundTrip:
    def test_seeded_corpus(self):
        rng = np.random.default_rng(314)
        for trial in range(100):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            scale = 10.0 ** rng.integers(-8, 9)
            A = GameMatrix(rng.uniform(-1, 1, (m, n)) * scale)
            for fmt in ("csv", "json"):
                again = parse_matrix(render_matrix(A, fmt), fmt)
                np.testing.assert_array_equal(again.values, A.values)

    @settings(max_examples=80, deadline=None)
    @given(
        entries=st.lists(
            st.lists(
                st.floats(
                    allow_nan=False,
                    allow_infinity=False,
                    min_value=-1e12,
                    max_value=1e12,
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_hypothesis_round_trip(self, entries, fmt):
        A = GameMatrix(entries)
        again = parse_matrix(render_matrix(A, fmt), fmt)
        np.testing.assert_array_equal(again.values, A.values)


@settings(max_examples=120, deadline=None)
@given(text=st.text(max_size=60), fmt=st.sampled_from(["csv", "json"]))
def test_parse_fuzz_raises_only_input_errors(text, fmt):
    try:
        result = parse_matrix(text, fmt)
    except InputError:
        return
    assert isinstance(result, GameMatrix)


class TestEnsembles:
    def test_skew_is_exactly_skew(self):
        spec = EnsembleSpec(Family.SKEW, size=3, trials=1, seed=42, entry_range=(-5, 5))
        (M,) = generate_ensemble(spec)
        np.testing.assert_array_equal(M.values, -M.values.T)

    def test_positive_range(self):
        spec = EnsembleSpec(Family.POSITIVE, size=2, trials=5, seed=1, entry_range=(1, 2))
        for M in generate_ensemble(spec):
            assert np.all(M.values >= 1.0) and np.all(M.values <= 2.0)

    @pytest.mark.parametrize("entry_range", [(1e-6, 1.0), (1e-6, 1e-4)])
    def test_positive_draws_from_the_whole_given_range(self, entry_range):
        lo, hi = entry_range
        spec = EnsembleSpec(Family.POSITIVE, size=10, trials=100, seed=1, entry_range=entry_range)
        entries = np.concatenate([M.values.ravel() for M in generate_ensemble(spec)])
        # No floor above lo: entries below 1e-3 come up.
        assert lo <= entries.min() < 1e-3
        assert entries.max() < hi

    def test_diagonal_structure(self):
        spec = EnsembleSpec(Family.DIAGONAL, size=4, trials=3, seed=9, entry_range=(-2, 2))
        for M in generate_ensemble(spec):
            off = M.values - np.diag(np.diag(M.values))
            assert np.all(off == 0.0)

    def test_determinism(self):
        spec = EnsembleSpec(Family.GENERAL, size=4, trials=6, seed=123, entry_range=(-1, 1))
        first = [M.values for M in generate_ensemble(spec)]
        second = [M.values for M in generate_ensemble(spec)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_general_nonsquare(self):
        spec = EnsembleSpec(
            Family.GENERAL, size=8, trials=2, seed=0, entry_range=(-1, 1), rows=3
        )
        for M in generate_ensemble(spec):
            assert (M.rows, M.cols) == (3, 8)

    @pytest.mark.parametrize("family", ["Diagonal", "Skew", "Positive", "General"])
    def test_verify_draws_each_matrix_when_its_trial_runs(
        self, capsys, monkeypatch, family
    ):
        # The same PCG64 stream as generate_ensemble, one matrix at a time.
        import zerosum.cli as cli_mod

        spec = EnsembleSpec(Family(family), 4, 12, 5, DEFAULT_RANGES[family])
        want = [A.digest() for A in generate_ensemble(spec)]
        drawn, ready = [], []
        make, check = cli_mod.GameMatrix, cli_mod.run_checker

        def drawing(M):
            A = make(M)
            drawn.append(A.digest())
            return A

        def checking(claim, A, **kwargs):
            ready.append(len(drawn))
            return check(claim, A, **kwargs)

        monkeypatch.setattr(cli_mod, "GameMatrix", drawing)
        monkeypatch.setattr(cli_mod, "run_checker", checking)
        argv = _ensemble_argv("NegTransposeThm2", family, 4, 12, 5)
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1)
        assert [rep["input_digest"] for rep in strict_json(out)["reports"]] == want
        assert drawn == want
        assert ready == list(range(1, 13))

    def test_invalid_specs(self):
        valid = dict(family=Family.GENERAL, size=2, trials=1, seed=0, entry_range=(-1, 1))
        for bad in [
            dict(entry_range=(2, 1)),
            dict(family=Family.POSITIVE, entry_range=(-1, 2)),
            dict(family=Family.SKEW, rows=3),
            dict(size=0),
            dict(trials=0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(rows=0),
        ]:
            with pytest.raises(InputError):
                EnsembleSpec(**{**valid, **bad})


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one CLI run.  Whatever a command other
    than --help writes to stdout must parse as strict JSON."""
    code = run_cli(list(argv))
    out = capsys.readouterr()
    if out.out and "--help" not in argv:
        strict_json(out.out)
    return code, out.out, out.err


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "golden,argv,code",
        [
            ("solve_rps.json", ["solve", "--input", str(DATA / "rps.csv")], 0),
            ("solve_saddle.json", ["solve", "--input", str(DATA / "saddle.csv")], 0),
            (
                "analyze_rps.json",
                ["analyze", "--input", str(DATA / "rps.csv"), "--lambda", "0"],
                0,
            ),
            ("analyze_saddle.json", ["analyze", "--input", str(DATA / "saddle.csv")], 0),
            (
                "verify_rps_skew.json",
                ["verify", "--claim", "SkewZeroCor3", "--input", str(DATA / "rps.csv")],
                0,
            ),
            (
                "verify_saddle_posdom.json",
                [
                    "verify",
                    "--claim",
                    "PositiveDominatedThm4",
                    "--input",
                    str(DATA / "saddle.csv"),
                ],
                1,
            ),
            ("oracle_rps.json", ["oracle", "--input", str(DATA / "rps.csv")], 0),
            ("oracle_saddle.json", ["oracle", "--input", str(DATA / "saddle.csv")], 0),
            # The three bench ensembles, so a last-digit drift there shows.
            (
                "verify_positive10_posdom.json",
                _ensemble_argv("PositiveDominatedThm4", "Positive", 10, 5, 1),
                1,
            ),
            (
                "verify_general30_negt.json",
                _ensemble_argv("NegTransposeThm2", "General", 30, 2, 7),
                0,
            ),
            (
                "verify_skew7_gordan.json",
                _ensemble_argv("GordanTheorem3", "Skew", 7, 5, 1),
                1,
            ),
            # A duplicated row: the vertex closed form refuses the region,
            # so the extrema come from the LP fallback.
            (
                "verify_degenerate3_posdom.json",
                [
                    "verify",
                    "--claim",
                    "PositiveDominatedThm4",
                    "--input",
                    str(DATA / "degenerate3.csv"),
                ],
                0,
            ),
            # A singular skew matrix whose kernel, spanned by (3, -2, 1), has
            # both signs: the SVD certificate, not an LP, makes the witness.
            (
                "analyze_skew3_image.json",
                ["analyze", "--input", str(DATA / "skew3_image.csv"), "--lambda", "0"],
                0,
            ),
            # Trial 32 of Skew 5, seed 3: at lambda = 0 its kernel is a
            # one-signed line, so the SVD makes the stochastic eigenvector.
            (
                "verify_skew5_shifted.json",
                [
                    "verify",
                    "--claim",
                    "ShiftedEigenThm4General",
                    "--input",
                    str(DATA / "skew5_shifted.csv"),
                    "--lambda",
                    "0",
                    "--lambda",
                    "1",
                ],
                0,
            ),
            # Non-square matrices, whose kernel question the SVD leaves to
            # the kernel LP: a 3 x 5 with a nonnegative kernel vector, and
            # one whose image witness is the LP's Farkas ray.
            (
                "analyze_kernel3x5.json",
                ["analyze", "--input", str(DATA / "kernel3x5.csv")],
                0,
            ),
            (
                "analyze_image3x5.json",
                ["analyze", "--input", str(DATA / "image3x5.csv")],
                0,
            ),
            # The claim families that no other golden covers.
            (
                "verify_diagonal4.json",
                _ensemble_argv("DiagonalTheorem1", "Diagonal", 4, 3, 1),
                0,
            ),
            (
                "verify_rps_shared.json",
                ["verify", "--claim", "SharedOptimaCor4", "--input", str(DATA / "rps.csv")],
                0,
            ),
            # A kernel of dimension 2: its lambda = 0 question takes the
            # kernel LP once.
            (
                "verify_skew4_wide_eigenspace.json",
                [
                    "verify",
                    "--claim",
                    "EigenspaceLemma5",
                    "--input",
                    str(DATA / "skew4_wide_kernel.csv"),
                    "--lambda",
                    "1",
                ],
                0,
            ),
        ],
    )
    def test_golden(self, capsys, golden, argv, code):
        got_code, out, _ = run(capsys, *argv)
        assert got_code == code
        assert out == (GOLDEN / golden).read_text()

    def test_scaled_circulant_is_certified(self, capsys):
        # [[1, 2, 3], [3, 1, 2], [2, 3, 1]] * 2^20 has rho = 6 * 2^20 exactly.
        # Its residual is about 5e-10 in absolute terms; the enclosure is
        # relative to the entries, so their scale does not matter.
        code, out, _ = run(capsys, "analyze", "--input", str(DATA / "circulant3_2p20.csv"))
        assert code == 0
        assert out == (GOLDEN / "analyze_circulant3_2p20.json").read_text()
        perron = strict_json(out)["perron"]
        assert perron["root"] == 6 * 2**20
        assert perron["root_low"] < 6 * 2**20 < perron["root_high"]

    def test_skew3_image_witness_proves_its_branch(self):
        A = np.loadtxt(DATA / "skew3_image.csv", delimiter=",")
        report = strict_json((GOLDEN / "analyze_skew3_image.json").read_text())
        assert report["gordan"]["branch"] == "PositiveImage"
        witness = np.array(report["gordan"]["witness"])
        np.testing.assert_allclose(witness, np.array([2.0, 1.0, -4.0]) / 7, rtol=1e-14)
        # A^T witness >= 1, up to the roundoff of the product.
        assert np.all(A.T @ witness >= 1.0 - 1e-14)
        assert report["eigenvectors"] == [{"lambda": 0, "vector": None}]

    @pytest.mark.parametrize(
        "data,golden,lam,svds",
        [
            ("skew3_image.csv", "analyze_skew3_image.json", "0", 2),
            ("rps.csv", "analyze_rps.json", "0", 2),
            # A - (-0.0) I would turn a -0.0 entry into +0.0, so -0 is asked
            # again; its report renders -0 as 0, the same bytes.
            ("skew3_image.csv", "analyze_skew3_image.json", "-0", 3),
        ],
    )
    def test_analyze_reads_lambda_zero_off_gordan(
        self, capsys, monkeypatch, data, golden, lam, svds
    ):
        # A - 0.0 I is A bit for bit, so gordan has answered lambda = 0: one
        # SVD for null_space and one for gordan's kernel question.
        from zerosum import spectral

        calls = []
        svd = spectral._svd

        def counted(V):
            calls.append(V.shape)
            return svd(V)

        monkeypatch.setattr(spectral, "_svd", counted)
        code, out, _ = run(capsys, "analyze", "--input", str(DATA / data), "--lambda", lam)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()
        assert len(calls) == svds

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "solve", "--input", str(DATA / "rps.csv"), "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "solve_rps.json").read_text()

    def test_input_digests_follow_the_documented_recipe(self):
        # README's recipe, without GameMatrix.digest: SHA-256 of the entries
        # as row-major little-endian doubles, -0.0 read as 0.0.
        def recipe(M):
            M = np.where(M == 0.0, 0.0, M)
            data = struct.pack(f"<{M.size}d", *M.ravel(order="C").tolist())
            return f"{M.shape[0]}x{M.shape[1]}:sha256:{hashlib.sha256(data).hexdigest()}"

        inputs = {
            "verify_rps_skew.json": [np.loadtxt(DATA / "rps.csv", delimiter=",")],
            "verify_general30_negt.json": [A.values for A in ensemble("General", 30, 2, 7)],
        }
        for golden, matrices in inputs.items():
            reports = strict_json((GOLDEN / golden).read_text())["reports"]
            assert [r["input_digest"] for r in reports] == [recipe(M) for M in matrices]


# SHA-256 of `verify` at 100 trials on the three bench ensembles, with the
# exit code: the reports pin every pivot's last bit over many more games
# than the golden files hold.
_ENSEMBLE_DIGESTS = [
    (
        ("NegTransposeThm2", "General", 30, 7),
        0,
        "7a73cdfdacf43aa7d1f39bb5211f640b99ac0a2f35899085e094c2d9a6a3d1be",
    ),
    (
        ("PositiveDominatedThm4", "Positive", 10, 1),
        1,
        "22650ef6827483f5b86d3dea2ca95678ad614b2cffd4c7b0b0ef932be0e48c56",
    ),
    (
        ("GordanTheorem3", "Skew", 7, 1),
        1,
        "a6228c65beb5f3ffa6be1f11d3f88c4dcf39a9b0fcac8f56161296edd05c6168",
    ),
]


@pytest.mark.parametrize(
    "spec,code,digest", _ENSEMBLE_DIGESTS, ids=["negt_general", "posdom", "gordan_skew"]
)
def test_bench_ensembles_keep_their_bytes(capsys, spec, code, digest):
    claim, family, size, seed = spec
    got_code, out, _ = run(capsys, *_ensemble_argv(claim, family, size, 100, seed))
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_module_entry_point_is_warning_free():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "zerosum", "solve", "--input", str(DATA / "rps.csv")],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "solve_rps.json").read_text()
    assert proc.stderr == ""


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "solve", "--input", str(DATA / "ragged.csv"))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("entry", ["1" + "0" * 400, "1e400"])
    def test_json_entry_beyond_float_range_is_2(self, capsys, tmp_path, entry):
        doc = tmp_path / "huge.json"
        doc.write_text('{"rows": 1, "cols": 1, "entries": [[%s]]}' % entry)
        code, out, err = run(capsys, "solve", "--format", "json", "--input", str(doc))
        assert code == 2 and err.startswith("error:") and out == ""

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, "solve", "--input", str(DATA / "nope.csv"))
        assert code == 2

    def test_non_utf8_input_is_2(self, capsys, tmp_path):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"1,2\n3,\xe94\n")
        code, _, err = run(capsys, "solve", "--input", str(latin1))
        assert code == 2 and err.startswith("error:") and str(latin1) in err

    def test_unwritable_output_is_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "solve", "--input", str(DATA / "rps.csv"), "--output", str(target)
        )
        assert code == 2 and err.startswith("error:") and str(target) in err
        assert out == "" and not target.exists()

    def test_unknown_subcommand_is_2(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2 and "usage" in err

    def test_unknown_flag_is_2(self, capsys):
        code, _, err = run(capsys, "solve", "--wat")
        assert code == 2 and "usage" in err

    def test_missing_input_is_2(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "claim", ["SkewZeroCor3", "SharedOptimaCor4", "EigenspaceLemma5", "GordanTheorem3"]
    )
    def test_skew_gate_past_the_float_range_is_0(self, capsys, claim):
        # 1e308 * J is finite and not skew, but A + A^T overflows: the gate
        # reads NotApplicable, with a null residual rather than inf.
        code, out, err = run(
            capsys, "verify", "--claim", claim, "--input", str(DATA / "skew_overflow.csv")
        )
        assert (code, err) == (0, "")
        (report,) = strict_json(out)["reports"]
        assert report["verdict"] == "NotApplicable"
        assert report["computed"] == {
            "reason": "matrix is not skew-symmetric",
            "skew_residual": None,
        }

    def test_unknown_claim_is_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--claim", "NotAClaim", "--input", str(DATA / "rps.csv")
        )
        assert code == 2

    def test_input_and_ensemble_conflict_is_2(self, capsys):
        code, _, err = run(
            capsys,
            "verify",
            "--claim",
            "SkewZeroCor3",
            "--input",
            str(DATA / "rps.csv"),
            "--ensemble",
            "Skew",
        )
        assert code == 2

    def test_ensemble_missing_size_is_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--claim", "SkewZeroCor3", "--ensemble", "Skew"
        )
        assert code == 2 and "--size" in err

    @pytest.mark.parametrize("flag", ["--size", "--trials", "--seed"])
    def test_ensemble_flag_with_input_is_2(self, capsys, flag):
        code, out, err = run(
            capsys, "verify", "--claim", "NegTransposeThm2",
            "--input", str(DATA / "rps.csv"), flag, "3",
        )
        assert code == 2 and out == ""
        assert f"only --ensemble takes {flag}" in err

    @pytest.mark.parametrize(
        "source",
        [
            ["--input", str(DATA / "rps.csv")],
            ["--ensemble", "General", "--size", "3", "--trials", "2", "--seed", "1"],
        ],
        ids=["input", "ensemble"],
    )
    def test_lambda_for_a_claim_without_eigenvalues_is_2(self, capsys, source):
        code, out, err = run(
            capsys, "verify", "--claim", "NegTransposeThm2", *source, "--lambda", "3"
        )
        assert code == 2 and out == ""
        assert "NegTransposeThm2 takes no eigenvalue" in err

    def test_oracle_size_gate_is_2(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text(render_matrix(GameMatrix(np.ones((6, 2)))))
        code, _, err = run(capsys, "oracle", "--input", str(big))
        assert code == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_is_2(self, capsys, tol):
        verify = _ensemble_argv("NegTransposeThm2", "General", 3, 2, 1)
        code, _, err = run(capsys, *verify, "--tol", tol)
        assert code == 2 and "tol must be finite and positive" in err
        code, _, err = run(
            capsys, "solve", "--input", str(DATA / "saddle.csv"), "--tol", tol
        )
        assert code == 2 and "tol must be finite and positive" in err

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", "{wide}"],
            ["verify", "--claim", "ShiftedEigenThm4General", "--input", "{wide}"],
            # saddle.csv is not skew, so the claim is NotApplicable.
            ["verify", "--claim", "EigenspaceLemma5", "--input", "{saddle}"],
        ],
        ids=["analyze", "shifted", "eigenspace"],
    )
    def test_non_finite_lambda_is_2(self, capsys, tmp_path, argv, lam):
        # These runs never reach stochastic_eigenvector, so the flag itself
        # must refuse the value, or a bare nan would land in the report.
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3\n4,5,6\n")
        paths = {"wide": wide, "saddle": DATA / "saddle.csv"}
        argv = [arg.format(**paths) for arg in argv]
        code, out, err = run(capsys, *argv, f"--lambda={lam}")
        assert code == 2 and out == ""
        assert f"eigenvalue must be finite, got {float(lam)!r}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["verify", "--claim", "EigenspaceLemma5"],
            ["verify", "--claim", "ShiftedEigenThm4General"],
        ],
        ids=["analyze", "eigenspace", "shifted"],
    )
    def test_negative_lambda_in_any_float_form_is_read(self, capsys, argv):
        # argparse took -1e-3 and -inf for options: "expected one argument".
        # Reports print floats in exponent form, so each must be read back.
        argv = [*argv, "--input", str(DATA / "rps.csv")]
        for lam in ["-1e-3", "-2.5E+1", "-.5e1", "-1_000", "-1"]:
            code, out, err = run(capsys, *argv, "--lambda", lam, "--lambda", "0")
            assert code in (0, 1) and err == "", lam
            joined = run(capsys, *argv, f"--lambda={lam}", "--lambda=0")
            assert (code, out) == joined[:2], lam
            lambdas = [c["lambda"] for c in strict_json(out).get("eigenvectors", [])]
            assert lambdas in ([], [float(lam), 0.0]), lam
        for lam in ["-inf", "-Infinity", "-nan"]:
            code, out, err = run(capsys, *argv, "--lambda", lam)
            assert code == 2 and out == "", lam
            assert f"eigenvalue must be finite, got {float(lam)!r}" in err, lam

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["verify", "--claim", "EigenspaceLemma5"]],
        ids=["analyze", "verify"],
    )
    def test_lambda_prefixes_read_a_negative_value(self, capsys, argv):
        # argparse expands --lam to --lambda, but took the -1e-3 after it for
        # an option: "expected one argument".
        argv = [*argv, "--input", str(DATA / "rps.csv")]
        full = run(capsys, *argv, "--lambda", "-1e-3")
        assert full[0] == 0 and full[1] and full[2] == ""
        for flag in ["--l", "--la", "--lam", "--lamb", "--lambd"]:
            assert run(capsys, *argv, flag, "-1e-3") == full, flag

    @pytest.mark.parametrize("family", ["General", "Skew", "Positive"])
    def test_ensemble_beyond_memory_is_2(self, capsys, family):
        # A 10^7 x 10^7 matrix needs 728 TiB, which numpy refuses before
        # allocating anything.  It used to end in a MemoryError traceback,
        # exit 1, the code of a Violated verdict.
        argv = _ensemble_argv("NegTransposeThm2", family, 10_000_000, 1, 1)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --size 10000000 does not fit in memory")

    @pytest.mark.parametrize(
        "argv", [["solve"], ["verify", "--claim", "NegTransposeThm2"]]
    )
    def test_shift_overflow_is_2(self, capsys, tmp_path, argv):
        # Each shifts to a payoff of at least 1 / PIVOT_TOL, beyond the ratio
        # test's resolution; the first shift overflows to inf.
        huge = tmp_path / "huge.csv"
        for text in ["1e308,-1e308", "1e308,-1e307", "2e11,1", "1e12,1"]:
            huge.write_text(text + "\n")
            code, out, err = run(capsys, *argv, "--input", str(huge))
            assert code == 2 and out == "", text
            assert err.startswith("error: payoffs too large"), text
            assert err.endswith("normalize the matrix first\n"), text

    def test_payoffs_at_the_pivot_scale_are_2(self, capsys, tmp_path):
        # Refused whether one row, some rows or every row reach 1 / PIVOT_TOL;
        # games 0-3 were once solved from a row below it, and game 2 then
        # failed its certificate, exit 3.  Written at %.17g, each game reads
        # back exactly; the committed CSV is game 2.
        games = payoffs_at_pivot_scale()
        committed = DATA / "pivot_scale_mixed.csv"
        assert parse_matrix(committed.read_text()).values.tobytes() == games[2].tobytes()
        for k, B in enumerate(games):
            path = tmp_path / f"game{k}.csv"
            np.savetxt(path, B, fmt="%.17g", delimiter=",")
            code, out, err = run(capsys, "solve", "--input", str(path))
            assert code == 2 and out == "", k
            assert err.startswith("error: payoffs too large"), k

    def test_non_finite_report_is_3(self, capsys, monkeypatch):
        import zerosum.cli as cli_mod

        def nan_report(args):
            return 0, {"value": float("nan")}

        monkeypatch.setattr(cli_mod, "_cmd_solve", nan_report)
        code, out, err = run(capsys, "solve", "--input", str(DATA / "rps.csv"))
        assert code == 3 and out == ""
        assert err.startswith("internal inconsistency: cannot render a non-finite")

    def test_internal_error_is_3(self, capsys, monkeypatch):
        import zerosum.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic inconsistency")

        monkeypatch.setattr(cli_mod, "solve_game", boom)
        code, _, err = run(capsys, "solve", "--input", str(DATA / "rps.csv"))
        assert code == 3 and "internal" in err

    def test_verify_internal_error_names_trial_and_digest(self, capsys, monkeypatch):
        import zerosum.cli as cli_mod

        spec = EnsembleSpec(
            Family.SKEW, size=3, trials=3, seed=11,
            entry_range=cli_mod.DEFAULT_RANGES["Skew"],
        )
        bad = generate_ensemble(spec)[1]
        real = cli_mod.run_checker

        def fails_on_bad(claim, A, **kwargs):
            if A.digest() == bad.digest():
                raise RuntimeError("synthetic inconsistency")
            return real(claim, A, **kwargs)

        monkeypatch.setattr(cli_mod, "run_checker", fails_on_bad)
        code, out, err = run(
            capsys, "verify", "--claim", "SkewZeroCor3", "--ensemble", "Skew",
            "--size", "3", "--trials", "3", "--seed", "11",
        )
        assert code == 3 and out == ""
        # The hash names the input; its full text lets the trial be rerun.
        assert err == (
            f"internal inconsistency: trial 1, input {bad.digest()} {bad!r}: "
            "synthetic inconsistency\n"
        )

    def test_gordan_skew_15_seed_1_exits_0_or_1(self, capsys):
        # trial 87 used to end in "solver bug" (exit 3) in gordan's image LP
        code, _, err = run(
            capsys, "verify", "--claim", "GordanTheorem3", "--ensemble", "Skew",
            "--size", "15", "--trials", "200", "--seed", "1",
        )
        assert code in (0, 1) and err == ""

    def test_violated_ensemble_is_1(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--claim",
            "GordanTheorem3",
            "--ensemble",
            "Skew",
            "--size",
            "3",
            "--trials",
            "5",
            "--seed",
            "11",
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["summary"]["violated"] == 5

    def test_eigenspace_lambda_passthrough(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--claim",
            "EigenspaceLemma5",
            "--input",
            str(DATA / "rps.csv"),
            "--lambda",
            "0",
            "--lambda",
            "1.5",
        )
        assert code == 0
        payload = strict_json(out)
        findings = payload["reports"][0]["computed"]["candidates"]
        assert [f["lambda"] for f in findings] == [0.0, 1.5]

    def test_shifted_eigen_multiple_lambdas(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--claim",
            "ShiftedEigenThm4General",
            "--input",
            str(DATA / "rps.csv"),
            "--lambda",
            "0",
            "--lambda",
            "2",
        )
        assert code == 0
        payload = strict_json(out)
        assert [r["verdict"] for r in payload["reports"]] == [
            "Holds",
            "NotApplicable",
        ]

    def test_shifted_eigen_nonsquare_reports_each_lambda(self, capsys, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3\n4,5,6\n")
        code, out, _ = run(
            capsys,
            "verify",
            "--claim",
            "ShiftedEigenThm4General",
            "--input",
            str(wide),
            "--lambda",
            "0",
            "--lambda",
            "1",
        )
        assert code == 0
        reports = strict_json(out)["reports"]
        assert [r["verdict"] for r in reports] == ["NotApplicable"] * 2
        assert all(r["computed"] == {"reason": "matrix is not square"} for r in reports)

    def test_holds_ensemble_is_0(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--claim",
            "SkewZeroCor3",
            "--ensemble",
            "Skew",
            "--size",
            "5",
            "--trials",
            "100",
            "--seed",
            "7",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["summary"] == {"holds": 100, "violated": 0, "not_applicable": 0}


class TestSchemas:
    def test_solve_keys(self, capsys):
        _, out, _ = run(capsys, "solve", "--input", str(DATA / "rps.csv"))
        payload = strict_json(out)
        assert list(payload) == [
            "value",
            "row_strategy",
            "col_strategy",
            "duality_gap",
            "tolerance",
        ]

    def test_verify_keys(self, capsys):
        _, out, _ = run(
            capsys,
            "verify",
            "--claim",
            "NegTransposeThm2",
            "--input",
            str(DATA / "saddle.csv"),
        )
        payload = strict_json(out)
        assert list(payload) == ["reports", "summary"]
        report = payload["reports"][0]
        assert list(report) == [
            "claim_id",
            "input_digest",
            "verdict",
            "tolerance",
            "computed",
        ]

    def test_analyze_keys(self, capsys):
        _, out, _ = run(capsys, "analyze", "--input", str(DATA / "saddle.csv"))
        payload = strict_json(out)
        assert list(payload) == [
            "perron",
            "null_space_dimension",
            "gordan",
            "eigenvectors",
        ]

    def test_json_format_input(self, capsys, tmp_path, rps):
        doc = tmp_path / "rps.json"
        doc.write_text(render_matrix(rps, "json"))
        code, out, _ = run(
            capsys, "solve", "--input", str(doc), "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN / "solve_rps.json").read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_input_with_a_byte_order_mark(self, capsys, tmp_path, rps, fmt):
        # Excel's "CSV UTF-8" and Notepad start their files with one.
        text = {"csv": (DATA / "rps.csv").read_text(), "json": render_matrix(rps, "json")}
        doc = tmp_path / f"rps.{fmt}"
        doc.write_bytes(codecs.BOM_UTF8 + text[fmt].encode())
        code, out, _ = run(capsys, "solve", "--input", str(doc), "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / "solve_rps.json").read_text()

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "solve" in out

    def test_verify_output_is_byte_deterministic(self, capsys):
        argv = [
            "verify",
            "--claim",
            "DiagonalTheorem1",
            "--ensemble",
            "Diagonal",
            "--size",
            "4",
            "--trials",
            "8",
            "--seed",
            "55",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
