import json
import os
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
    MatrixParseError,
    generate_ensemble,
    parse_matrix,
    render_matrix,
    run_cli,
)

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

    def test_json_missing_key(self):
        with pytest.raises(MatrixParseError):
            parse_matrix('{"rows": 1, "entries": [[1]]}', "json")

    def test_json_invalid(self):
        for doc in [
            "{nope",
            '{"rows": 1, "cols": 2, "entries": [[1, "x"]]}',
            '{"rows": 1, "cols": 1, "entries": [[null]]}',
        ]:
            with pytest.raises(MatrixParseError):
                parse_matrix(doc, "json")

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
    code = run_cli(list(argv))
    out = capsys.readouterr()
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
        ],
    )
    def test_golden(self, capsys, golden, argv, code):
        got_code, out, _ = run(capsys, *argv)
        assert got_code == code
        assert out == (GOLDEN / golden).read_text()

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "solve", "--input", str(DATA / "rps.csv"), "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "solve_rps.json").read_text()


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
        assert err == (
            f"internal inconsistency: trial 1, input {bad.digest()}: "
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
        payload = json.loads(out)
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
        payload = json.loads(out)
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
        payload = json.loads(out)
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
        reports = json.loads(out)["reports"]
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
        payload = json.loads(out)
        assert payload["summary"] == {"holds": 100, "violated": 0, "not_applicable": 0}


class TestSchemas:
    def test_solve_keys(self, capsys):
        _, out, _ = run(capsys, "solve", "--input", str(DATA / "rps.csv"))
        payload = json.loads(out)
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
        payload = json.loads(out)
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
        payload = json.loads(out)
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
