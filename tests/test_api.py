"""The package's public surface: what `zerosum.__all__` promises, and the
hooks the benchmark's tracer wraps."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import zerosum
from zerosum.solver import extrema_dominated

# The LP layer is how the package computes a game's value and a Gordan
# alternative; no public function takes or returns its types, so they live in
# `zerosum.lp` alone.
LP_NAMES = ("LinearProgram", "LPSolution", "LPStatus", "solve_lp", "IterationLimitError")
REMOVED = (
    "is_optimal_dominated",
    "matrix_rank",
    "uniform_strategy",
    "pure_strategy",
    "validate_strategy",
    *LP_NAMES,
)
# The LP feasibility and kernel rank tolerances are the module constants
# `lp.FEAS_TOL` and `spectral.RANK_TOL`, not parameters.  No caller hands an
# LP a starting basis: `solve_lp` finds its own in phase 1, and a game's value
# LP chooses its own, inside the solver, from the payoffs: x_i basic for the
# passing row i of the largest payoff sum.  So no exported function takes a
# `start` basis.
REMOVED_PARAMETERS = {"feas_tol", "lp_tol", "rank_tol", "start"}
# The optimal-strategy extrema read their facets off the strategy pair, so no
# solution carries the value LP's basis.
REMOVED_FIELDS = {zerosum.lp.LPSolution: "basis", zerosum.GameSolution: "lp_basis"}


def test_every_exported_name_resolves_once():
    assert len(zerosum.__all__) == len(set(zerosum.__all__))
    for name in zerosum.__all__:
        assert hasattr(zerosum, name), name


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in zerosum.__all__
        assert not hasattr(zerosum, name), name


def test_no_exported_signature_mentions_an_lp_type():
    # Every module postpones its annotations, so each is the string as written.
    exported = [getattr(zerosum, name) for name in zerosum.__all__]
    annotations = [
        a for fn in exported if inspect.isfunction(fn) for a in fn.__annotations__.values()
    ]
    annotations += [
        f.type
        for cls in exported
        if dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
    ]
    assert len(annotations) > 50
    for text in map(str, annotations):
        assert "LinearProgram" not in text and "LPSolution" not in text, text


def test_lp_solves_one_objective_at_a_time():
    # The extrema fallback calls solve_lp once per objective.
    assert not hasattr(zerosum.lp, "maximize_each")


def test_the_oracle_keeps_no_tolerance():
    # oracle_solve decides each support pair in exact rational arithmetic.
    for name in ("ORACLE_DEVIATION_TOL", "ORACLE_NONNEG_TOL", "_equalizing_weights"):
        assert not hasattr(zerosum.solver, name), name


def test_strategy_cleanup_keeps_no_tolerance():
    # normalized_strategy is the one cleanup path: it clips and divides.
    for name in ("NEGATIVE_CLAMP_TOL", "SUM_REPAIR_TOL"):
        assert not hasattr(zerosum.core, name), name


def test_removed_accessors_stay_removed():
    # Read A.values[i, j], np.flatnonzero(s.weights > tol), p.objective.size.
    assert not hasattr(zerosum.GameMatrix, "entry")
    assert not hasattr(zerosum.MixedStrategy, "support")
    assert not hasattr(zerosum.lp.LinearProgram, "n_vars")


def test_canonical_json_takes_only_the_object():
    # Every report indents by two spaces.
    assert list(inspect.signature(zerosum.core.canonical_json).parameters) == ["obj"]


def test_removed_fields_stay_removed():
    for cls, name in REMOVED_FIELDS.items():
        assert name not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_no_removed_knobs_in_signatures():
    exported = [getattr(zerosum, name) for name in zerosum.__all__]
    functions = [f for f in exported if inspect.isfunction(f)]
    assert len(functions) > 20
    for fn in functions + [extrema_dominated]:
        params = set(inspect.signature(fn).parameters)
        assert not params & REMOVED_PARAMETERS, fn.__name__


# What only `lp` may touch: the tableau's set-up, pivots, pricing, read-out
# and pivot budget.  Other modules state a program and call `solve_lp` or
# `solve_value_lp`.
LP_INTERNALS = {
    "_phase_two",
    "_run_simplex",
    "_pivot",
    "_write_rows",
    "_priced_cost_row",
    "_residual",
    "ITERATION_FACTOR",
}


def _package_trees():
    package = Path(zerosum.__file__).parent
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }


def test_simplex_internals_stay_in_lp():
    # `from .lp import _pivot` and `from . import lp` then `lp._pivot` alike.
    trees = _package_trees()
    assert {"lp", "solver", "spectral"} <= trees.keys()
    leaks = []
    for module, tree in trees.items():
        if module == "lp":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("lp", "zerosum.lp"):
                names = [alias.name for alias in node.names]
                leaks += [(module, name) for name in names if name in LP_INTERNALS]
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "lp"
                and node.attr in LP_INTERNALS
            ):
                leaks.append((module, node.attr))
    assert leaks == []


def test_each_simplex_run_sizes_its_own_budget():
    functions = [
        node
        for node in ast.walk(_package_trees()["lp"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert len(functions) > 5
    for fn in functions:
        args = fn.args
        params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        assert "iter_limit" not in params, fn.name


def _bench_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("tracing")


def test_bench_tracer_finds_every_hook(monkeypatch):
    # A renamed zerosum function would otherwise only go untraced, and the
    # benchmark's per-layer metrics would silently stop covering its layer.
    tracer = _bench_tracing(monkeypatch).Tracer(zerosum)
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.counts_pivots
    finally:
        tracer.uninstall()


def test_bench_tracer_sees_the_extrema_fallback_lps(monkeypatch):
    # The constant game's optimal region is the whole simplex, which the
    # vertex closed form refuses, so its 2n = 4 extrema LPs run as solve_lp
    # calls under the extrema span.
    tracing = _bench_tracing(monkeypatch)
    tracer = tracing.Tracer(zerosum)
    tracer.install()
    try:
        zerosum.check_positive_dominated(zerosum.GameMatrix([[1, 1], [1, 1]]))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    [extrema] = [i for i, s in enumerate(spans) if s[tracing.NAME] == "solver.extrema"]
    children = [s[tracing.NAME] for s in spans if s[tracing.PARENT] == extrema]
    assert children == ["lp"] * 4
