"""Command-line front end: matrix I/O, solve/analyze/verify/oracle commands,
seeded ensemble generation, and canonical JSON report emission.

Exit codes: 0 all verdicts Holds/NotApplicable, 1 any Violated, 2 input
error, 3 internal inconsistency (tolerance misconfiguration or solver bug).

Ensembles are reproducible across platforms: matrices are drawn from a
numpy PCG64 generator seeded once per ensemble, trials consumed
sequentially, entries in documented row-major order.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .claims import CLAIM_TOL_DEFAULT, ClaimId, Verdict, run_checker
from .core import (
    GameMatrix,
    InputError,
    canonical_json,
    canonical_rows,
    check_finite,
    check_tolerance,
)
from .solver import SOLVE_TOL_DEFAULT, oracle_solve, solve_game
from .spectral import (
    GordanBranch,
    gordan,
    null_space,
    perron,
    stochastic_eigenvector,
)

# Entry ranges used for CLI-driven ensembles (the library API takes any range).
DEFAULT_RANGES = {
    "Diagonal": (-5.0, 5.0),
    "Skew": (-5.0, 5.0),
    "Positive": (0.1, 5.0),
    "General": (-5.0, 5.0),
}


class MatrixParseError(InputError):
    """Malformed matrix document."""


class Family(enum.Enum):
    DIAGONAL = "Diagonal"
    SKEW = "Skew"
    POSITIVE = "Positive"
    GENERAL = "General"


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded random-matrix family description.

    `size` is the column count n; `rows` applies to the General family only
    and defaults to n.  Diagonal and Skew are square by construction and the
    Positive family must have a strictly positive lower range endpoint.
    Every family draws its entries from `entry_range` as given.
    """

    family: Family
    size: int
    trials: int
    seed: int
    entry_range: tuple[float, float]
    rows: int | None = None

    def __post_init__(self) -> None:
        lo, hi = self.entry_range
        if self.size < 1:
            raise InputError("size must be a positive integer")
        if self.trials < 1:
            raise InputError("trials must be a positive integer")
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must fit in an unsigned 64-bit integer")
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InputError(f"entry range must satisfy lo < hi, got [{lo}, {hi}]")
        if self.family is Family.POSITIVE and lo <= 0.0:
            raise InputError("Positive family requires a positive lower range")
        if self.rows is not None and self.family is not Family.GENERAL:
            raise InputError(f"{self.family.value} family is square; rows not allowed")
        if self.rows is not None and self.rows < 1:
            raise InputError("rows must be a positive integer")


def generate_ensemble(spec: EnsembleSpec) -> list[GameMatrix]:
    """Deterministic matrix sequence for an ensemble (PCG64, one stream)."""
    return list(_draw_ensemble(spec))


def _draw_ensemble(spec: EnsembleSpec):
    """`generate_ensemble`'s matrices, each drawn from the stream when it is
    asked for, so only the current one is held."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    lo, hi = spec.entry_range
    n = spec.size
    for trial in range(spec.trials):
        if spec.family is Family.DIAGONAL:
            M = np.diag(rng.uniform(lo, hi, n))
        elif spec.family is Family.SKEW:
            upper = np.zeros((n, n))
            if trial == 0:
                # The same for every trial, and slow to build.  It comes
                # after np.zeros, which refuses an n too large at once.
                idx = np.triu_indices(n, k=1)
            upper[idx] = rng.uniform(lo, hi, idx[0].size)
            M = upper - upper.T
        elif spec.family is Family.POSITIVE:
            M = rng.uniform(lo, hi, (n, n))
        else:
            m = spec.rows if spec.rows is not None else n
            M = rng.uniform(lo, hi, (m, n))
        yield GameMatrix(M)


def parse_matrix(text: str, fmt: str = "csv") -> GameMatrix:
    """Read a matrix from CSV (rows per line, comma- or space-separated) or
    from a JSON document {"rows": m, "cols": n, "entries": [[...], ...]}.

    A blank comma-separated field (`1,,2`, `,1` or `1,`) is an error, not a
    missing separator.  JSON entries must be JSON numbers, and rows and
    cols JSON integers."""
    if fmt == "csv":
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if any(not cell.strip() for cell in line.split(",")):
                raise MatrixParseError(f"line {lineno}: empty comma-separated field")
            fields = line.replace(",", " ").split()
            try:
                rows.append([float(tok) for tok in fields])
            except ValueError as exc:
                raise MatrixParseError(f"line {lineno}: {exc}") from exc
        if not rows:
            raise MatrixParseError("empty matrix document")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise MatrixParseError("ragged rows: every line needs the same arity")
        return GameMatrix(rows)
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MatrixParseError("JSON matrix must be an object")
        try:
            m, n, entries = doc["rows"], doc["cols"], doc["entries"]
        except KeyError as exc:
            raise MatrixParseError(f"missing key {exc}") from exc
        # bool is an int subclass, and true == 1; 1.0 == 1 too.
        if any(type(d) is not int for d in (m, n)):
            raise MatrixParseError(
                f"rows and cols must be JSON integers, got {m!r} and {n!r}"
            )
        if (
            not isinstance(entries, list)
            or len(entries) != m
            or any(not isinstance(r, list) or len(r) != n for r in entries)
        ):
            raise MatrixParseError(
                f"declared {m}x{n} does not match the entries layout"
            )
        # float() would read true as 1.0 and "1" as 1.0.
        if any(isinstance(v, (bool, str)) for row in entries for v in row):
            raise MatrixParseError("non-numeric entry: entries must be JSON numbers")
        try:
            rows = [[float(v) for v in row] for row in entries]
        except (TypeError, ValueError, OverflowError) as exc:
            raise MatrixParseError(f"non-numeric entry: {exc}") from exc
        return GameMatrix(rows)
    raise InputError(f"unknown matrix format {fmt!r}")


def render_matrix(A: GameMatrix, fmt: str = "csv") -> str:
    """Inverse of parse_matrix; round-trips entrywise exactly."""
    if fmt == "csv":
        return "\n".join(canonical_rows(A.values)) + "\n"
    if fmt == "json":
        return canonical_json(
            {
                "rows": A.rows,
                "cols": A.cols,
                "entries": A.values,
            }
        )
    raise InputError(f"unknown matrix format {fmt!r}")


def _load_matrix(path: str, fmt: str) -> GameMatrix:
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" and
    # Notepad write, and reads a file without one as utf-8 does.
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_matrix(text, fmt)


def _cmd_solve(args) -> tuple[int, dict]:
    A = _load_matrix(args.input, args.format)
    sol = solve_game(A, tol=args.tol)
    return 0, {
        "value": sol.value,
        "row_strategy": sol.row_strategy.weights,
        "col_strategy": sol.col_strategy.weights,
        "duality_gap": sol.duality_gap,
        "tolerance": sol.tolerance,
    }


def _cmd_analyze(args) -> tuple[int, dict]:
    A = _load_matrix(args.input, args.format)
    report: dict = {}
    if A.is_square and A.values.min() > 0.0:
        cert = perron(A)
        report["perron"] = {
            "root": cert.perron_root,
            "vector": cert.perron_vector,
            "root_low": cert.root_low,
            "root_high": cert.root_high,
        }
    else:
        report["perron"] = None
    report["null_space_dimension"] = (
        null_space(A).dimension if A.is_square else None
    )
    verdict = gordan(A)
    report["gordan"] = {
        "branch": verdict.branch.value,
        "witness": verdict.witness,
    }
    eigenvectors = []
    for lam in args.lambdas or []:
        if not A.is_square:
            vector = None
        elif lam == 0.0 and math.copysign(1.0, lam) > 0.0:
            # A - (+0.0) I is A bit for bit, so gordan has decided this
            # kernel; -0.0 would turn a -0.0 entry into +0.0.
            kernel = verdict.branch is GordanBranch.NONNEGATIVE_KERNEL
            vector = verdict.witness if kernel else None
        else:
            witness = stochastic_eigenvector(A, lam)
            vector = witness.weights if witness is not None else None
        eigenvectors.append({"lambda": lam, "vector": vector})
    report["eigenvectors"] = eigenvectors
    return 0, report


def _cmd_verify(args) -> tuple[int, dict]:
    claim = ClaimId(args.claim)
    if (args.input is None) == (args.ensemble is None):
        raise InputError("verify needs exactly one of --input or --ensemble")
    flags = (("--size", args.size), ("--trials", args.trials), ("--seed", args.seed))
    if args.input is not None:
        given = [flag for flag, val in flags if val is not None]
        if given:
            raise InputError(f"only --ensemble takes {', '.join(given)}")
        matrices = [_load_matrix(args.input, args.format)]
    else:
        missing = [flag for flag, val in flags if val is None]
        if missing:
            raise InputError(f"--ensemble requires {', '.join(missing)}")
        family = Family(args.ensemble)
        spec = EnsembleSpec(
            family=family,
            size=args.size,
            trials=args.trials,
            seed=args.seed,
            entry_range=DEFAULT_RANGES[family.value],
        )

        def draws():
            # One matrix at a time: memory holds the current trial only.
            try:
                yield from _draw_ensemble(spec)
            except MemoryError as exc:
                raise InputError(
                    f"--size {args.size} does not fit in memory: {exc}"
                ) from exc

        matrices = draws()
    reports = []
    for i, A in enumerate(matrices):
        try:
            reports.extend(run_checker(claim, A, tol=args.tol, lambdas=args.lambdas))
        except RuntimeError as exc:
            raise RuntimeError(f"trial {i}, input {A.digest()} {A!r}: {exc}") from exc
    counts = {v: 0 for v in Verdict}
    for rep in reports:
        counts[rep.verdict] += 1
    payload = {
        "reports": [rep.to_json_dict() for rep in reports],
        "summary": {
            "holds": counts[Verdict.HOLDS],
            "violated": counts[Verdict.VIOLATED],
            "not_applicable": counts[Verdict.NOT_APPLICABLE],
        },
    }
    return (1 if counts[Verdict.VIOLATED] else 0), payload


def _cmd_oracle(args) -> tuple[int, dict]:
    A = _load_matrix(args.input, args.format)
    sol = oracle_solve(A)
    return 0, {
        "value": sol.value,
        "row_support": list(sol.row_support),
        "col_support": list(sol.col_support),
        "row_strategy": sol.row_strategy.weights,
        "col_strategy": sol.col_strategy.weights,
    }


def _checked_float(check, name: str):
    """An argparse `type` for a float flag whose value `check(value, name)`
    accepts.  A rejected value, or text that is not a float, exits 2 with
    the reason, before any input is read."""

    def parse(text: str) -> float:
        try:
            value = float(text)
            check(value, name)
        except ValueError as exc:  # InputError is a ValueError
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _attach_lambda_values(argv: list[str]) -> list[str]:
    """argv with each `--lambda VALUE` whose VALUE starts with "-" and is a
    float written as `--lambda=VALUE`.  argparse reads such a VALUE as an
    option unless it is a plain decimal like -1 or -0.5, so -1e-3, as
    reports print floats, or -inf would not reach the flag's check.  The
    flag may be abbreviated down to `--l`, as argparse expands any unique
    prefix, and no other option of `analyze` or `verify` starts with `--l`."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--lambda".startswith(flag) and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Solve and audit two-person zero-sum matrix games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tolerance = _checked_float(check_tolerance, "tol")
    eigenvalue = _checked_float(check_finite, "eigenvalue")

    def add_io(p):
        p.add_argument("--input", help="matrix file")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", help="write the JSON report here (default stdout)")

    p = sub.add_parser("solve", help="game value and optimal strategies")
    add_io(p)
    p.add_argument("--tol", type=tolerance, default=SOLVE_TOL_DEFAULT)
    p.set_defaults(handler=_cmd_solve, requires_input=True)

    p = sub.add_parser("analyze", help="spectral summary of a matrix")
    add_io(p)
    p.add_argument("--lambda", dest="lambdas", type=eigenvalue, action="append",
                   help="candidate eigenvalue (repeatable)")
    p.set_defaults(handler=_cmd_analyze, requires_input=True)

    p = sub.add_parser("verify", help="audit a claim on a matrix or ensemble")
    add_io(p)
    p.add_argument("--claim", required=True,
                   choices=[c.value for c in ClaimId])
    p.add_argument("--ensemble", choices=[f.value for f in Family])
    p.add_argument("--size", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=tolerance, default=CLAIM_TOL_DEFAULT)
    p.add_argument("--lambda", dest="lambdas", type=eigenvalue, action="append",
                   help="eigenvalue for the eigenspace/shifted claims (repeatable)")
    p.set_defaults(handler=_cmd_verify, requires_input=False)

    p = sub.add_parser("oracle", help="support-enumeration solution (max 5x5)")
    add_io(p)
    p.set_defaults(handler=_cmd_oracle, requires_input=True)
    return parser


def run_cli(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_lambda_values(list(argv)))
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code else 0
    try:
        if args.requires_input and args.input is None:
            raise InputError(f"{args.command} requires --input")
        code, payload = args.handler(args)
        text = canonical_json(payload)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
