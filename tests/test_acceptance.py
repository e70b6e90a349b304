"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they happen (they are also captured in the normal pytest report).
"""

import time
from pathlib import Path

import numpy as np

from zerosum import (
    EnsembleSpec,
    Family,
    GameMatrix,
    Verdict,
    check_positive_dominated,
    check_shifted_eigen,
    generate_ensemble,
    gordan,
    oracle_solve,
    parse_matrix,
    perron,
    render_matrix,
    run_cli,
    solve_game,
)
from conftest import RPS_ENTRIES, random_skew

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_rps_golden():
    A = GameMatrix(RPS_ENTRIES)
    sol = solve_game(A)  # warm
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        sol = solve_game(A)
        timings.append(time.perf_counter() - t0)
    runtime = min(timings)
    uniform = np.full(3, 1 / 3)
    oracle = oracle_solve(A)
    ok = (
        abs(sol.value) <= 1e-9
        and np.max(np.abs(sol.row_strategy.weights - uniform)) <= 1e-7
        and np.max(np.abs(sol.col_strategy.weights - uniform)) <= 1e-7
        and oracle.row_support == (0, 1, 2)
        and np.max(np.abs(oracle.row_strategy.weights - uniform)) <= 1e-7
        and runtime < 0.010
    )
    report(1, ok, f"rps value {sol.value:.2e}, runtime {runtime * 1e3:.2f} ms")


def test_criterion_02_definite_diagonal_formula():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    worst_v = worst_x = 0.0
    for trial in range(400):
        n = int(rng.integers(1, 9))
        d = rng.uniform(0.1, 10.0, n)
        if trial % 2:
            d = -d
        sol = solve_game(GameMatrix(np.diag(d)))
        v_pred = 1.0 / np.sum(1.0 / d)
        x_pred = v_pred / d
        worst_v = max(worst_v, abs(sol.value - v_pred))
        worst_x = max(worst_x, float(np.max(np.abs(sol.row_strategy.weights - x_pred))))
    elapsed = time.perf_counter() - t0
    ok = worst_v <= 1e-7 and worst_x <= 1e-6 and elapsed < 5.0
    report(
        2,
        ok,
        f"400 definite diagonals: value err {worst_v:.2e}, strategy err "
        f"{worst_x:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_mixed_sign_diagonals():
    rng = np.random.default_rng(2003)
    worst_v = worst_w = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        d = rng.uniform(-10.0, 10.0, n)
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        d[i] = -rng.uniform(0.1, 10.0)  # guarantee a negative entry
        # and a nonnegative one; every 5th trial pins it to exactly zero
        d[j] = 0.0 if trial % 5 == 0 else rng.uniform(0.1, 10.0)
        sol = solve_game(GameMatrix(np.diag(d)))
        worst_v = max(worst_v, abs(sol.value))
        neg_weight = float(sol.row_strategy.weights[d < 0].sum())
        worst_w = max(worst_w, neg_weight)
    ok = worst_v <= 1e-7 and worst_w <= 1e-7
    report(3, ok, f"200 mixed diagonals: |v| max {worst_v:.2e}, neg weight {worst_w:.2e}")


def test_criterion_04_skew_symmetric():
    rng = np.random.default_rng(2004)
    worst_v = worst_dev = 0.0
    for trial in range(200):
        n = 2 + trial % 8  # sizes 2..9
        A = random_skew(rng, n)
        sol = solve_game(A)
        worst_v = max(worst_v, abs(sol.value))
        # row optimum must be column-optimal for the zero-value game
        worst_dev = max(
            worst_dev, float((A.values @ sol.row_strategy.weights).max())
        )
    ok = worst_v <= 1e-7 and worst_dev <= 1e-7
    report(4, ok, f"200 skew games: |v| max {worst_v:.2e}, deviation {worst_dev:.2e}")


def test_criterion_05_negative_transpose_identity():
    rng = np.random.default_rng(2005)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        A = GameMatrix(rng.uniform(-5, 5, (m, n)))
        worst = max(
            worst,
            abs(solve_game(A).value + solve_game(GameMatrix(-A.values.T)).value),
        )
    ok = worst <= 1e-7
    report(5, ok, f"200 general games: |v(A)+v(-A^T)| max {worst:.2e}")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(2006)
    worst = 0.0
    for _ in range(300):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A = GameMatrix(rng.uniform(-5, 5, (m, n)))
        worst = max(worst, abs(solve_game(A).value - oracle_solve(A).value))
    ok = worst <= 1e-7
    report(6, ok, f"300 games up to 5x5: LP vs oracle gap max {worst:.2e}")


def test_criterion_07_gordan_exclusivity():
    specs = []
    for family, rng_range in (
        (Family.DIAGONAL, (-5.0, 5.0)),
        (Family.SKEW, (-5.0, 5.0)),
        (Family.POSITIVE, (0.1, 5.0)),
        (Family.GENERAL, (-5.0, 5.0)),
    ):
        for i, size in enumerate((2, 3, 4, 5, 6)):
            rows = 4 if family is Family.GENERAL and size == 6 else None
            specs.append(
                EnsembleSpec(
                    family,
                    size=size,
                    trials=25,
                    seed=700 + 10 * len(specs) + i,
                    entry_range=rng_range,
                    rows=rows,
                )
            )
    total = 0
    for spec in specs:
        for A in generate_ensemble(spec):
            gordan(A)  # raises InconsistentAlternativesError on any failure
            total += 1
    ok = total == 500
    report(7, ok, f"{total} matrices across four families, one branch each")


def test_criterion_08_perron_certificates():
    rng = np.random.default_rng(2008)
    worst_res = worst_quad = 0.0
    bracket_ok = positive_ok = True
    for trial in range(200):
        n = 2 + trial % 8  # sizes 2..9
        A = GameMatrix(rng.uniform(0.1, 10.0, (n, n)))
        cert = perron(A)
        worst_res = max(worst_res, cert.residual)
        positive_ok &= bool(np.all(cert.perron_vector > 0.0))
        row_sums = A.values.sum(axis=1)
        bracket_ok &= bool(
            row_sums.min() - 1e-12 <= cert.perron_root <= row_sums.max() + 1e-12
        )
        if n == 2:
            (a, b), (c, d) = A.values
            lam = (a + d + np.sqrt((a - d) ** 2 + 4 * b * c)) / 2
            worst_quad = max(worst_quad, abs(cert.perron_root - lam))
    ok = worst_res <= 1e-10 and bracket_ok and positive_ok and worst_quad <= 1e-9
    report(
        8,
        ok,
        f"200 positive matrices: residual max {worst_res:.2e}, 2x2 quadratic "
        f"gap {worst_quad:.2e}",
    )


def test_criterion_09_shifted_eigen_family():
    rng = np.random.default_rng(2009)
    worst = 0.0
    all_hold = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        B = rng.uniform(-3, 3, (n, n))
        B = B - B.mean(axis=1, keepdims=True) - B.mean(axis=0, keepdims=True) + B.mean()
        lam = float(rng.uniform(-2.0, 2.0))
        B += lam / n  # every row and column now sums to lam
        rep = check_shifted_eigen(GameMatrix(B), lam)
        all_hold &= rep.verdict is Verdict.HOLDS
        worst = max(worst, abs(rep.computed.get("shifted_value", np.inf)))
    ok = all_hold and worst <= 1e-7
    report(9, ok, f"100 constant-sum matrices: all Holds, |v(A-lI)| max {worst:.2e}")


def test_criterion_10_dominance_audit_fixture(tighter_lp_tol):
    saddle = GameMatrix([[1, 2], [3, 4]])
    rep = check_positive_dominated(saddle)
    hypothesis_met = (
        rep.computed["bracket_low"] <= rep.computed["value"] <= rep.computed["bracket_high"]
    )
    with tighter_lp_tol():
        tighter = check_positive_dominated(saddle)
    equalizer = check_positive_dominated(GameMatrix([[2, 1], [1, 2]]))
    ok = (
        rep.verdict is Verdict.VIOLATED
        and hypothesis_met
        and tighter.verdict is Verdict.VIOLATED
        and equalizer.verdict is Verdict.HOLDS
    )
    report(
        10,
        ok,
        "[[1,2],[3,4]] Violated (hypothesis met, stable at 10x tighter LP tol); "
        "[[2,1],[1,2]] Holds",
    )


def test_criterion_11_invariance_suite():
    rng = np.random.default_rng(2011)
    worst_shift = worst_scale = 0.0
    shifts = (-3.0, 0.5, 10.0)
    scales = (0.5, 2.0, 10.0)
    for trial in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        V = rng.uniform(-5, 5, (m, n))
        v = solve_game(GameMatrix(V)).value
        c = shifts[trial % 3]
        worst_shift = max(
            worst_shift, abs(solve_game(GameMatrix(V + c)).value - (v + c))
        )
    for trial in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        V = rng.uniform(-5, 5, (m, n))
        v = solve_game(GameMatrix(V)).value
        c = scales[trial % 3]
        worst_scale = max(
            worst_scale, abs(solve_game(GameMatrix(c * V)).value - c * v)
        )
    ok = worst_shift <= 1e-7 and worst_scale <= 1e-7
    report(
        11,
        ok,
        f"100+100 games: shift err {worst_shift:.2e}, scale err {worst_scale:.2e}",
    )


def test_criterion_12_cli_contract(capsys, tmp_path):
    cases = [
        (["solve", "--input", str(DATA / "rps.csv")], 0, "solve_rps.json"),
        (["solve", "--input", str(DATA / "saddle.csv")], 0, "solve_saddle.json"),
        (
            ["analyze", "--input", str(DATA / "rps.csv"), "--lambda", "0"],
            0,
            "analyze_rps.json",
        ),
        (["analyze", "--input", str(DATA / "saddle.csv")], 0, "analyze_saddle.json"),
        (
            ["verify", "--claim", "SkewZeroCor3", "--input", str(DATA / "rps.csv")],
            0,
            "verify_rps_skew.json",
        ),
        (
            [
                "verify",
                "--claim",
                "PositiveDominatedThm4",
                "--input",
                str(DATA / "saddle.csv"),
            ],
            1,
            "verify_saddle_posdom.json",
        ),
        (["oracle", "--input", str(DATA / "rps.csv")], 0, "oracle_rps.json"),
        (["oracle", "--input", str(DATA / "saddle.csv")], 0, "oracle_saddle.json"),
    ]
    golden_ok = True
    for argv, want_code, golden in cases:
        code = run_cli(argv)
        out = capsys.readouterr().out
        golden_ok &= code == want_code and out == (GOLDEN / golden).read_text()

    exit2 = run_cli(["solve", "--input", str(DATA / "ragged.csv")])
    capsys.readouterr()
    codes_ok = exit2 == 2

    rng = np.random.default_rng(2012)
    roundtrip_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = GameMatrix(rng.uniform(-50, 50, (m, n)) * 10.0 ** rng.integers(-6, 7))
        for fmt in ("csv", "json"):
            back = parse_matrix(render_matrix(A, fmt), fmt)
            roundtrip_ok &= bool(np.array_equal(back.values, A.values))

    ok = golden_ok and codes_ok and roundtrip_ok
    report(12, ok, "golden files, exit codes 0/1/2, 100 parse/render round-trips")
