"""The package's public surface: what `zerosum.__all__` promises, and the
hooks the benchmark's tracer wraps."""

import dataclasses
import importlib
import inspect
from pathlib import Path

import zerosum
from zerosum.lp import maximize_each
from zerosum.solver import extrema_dominated

REMOVED = ("is_optimal_dominated", "matrix_rank", "uniform_strategy", "pure_strategy")
# The LP feasibility and kernel rank tolerances are the module constants
# `lp.FEAS_TOL` and `spectral.RANK_TOL`, not parameters, and every LP starts
# from phase 1, so no function takes a `start` basis.
REMOVED_PARAMETERS = {"feas_tol", "lp_tol", "rank_tol", "start"}
# The optimal-strategy extrema read their facets off the strategy pair, so no
# solution carries the value LP's basis.
REMOVED_FIELDS = {zerosum.LPSolution: "basis", zerosum.GameSolution: "lp_basis"}


def test_every_exported_name_resolves_once():
    assert len(zerosum.__all__) == len(set(zerosum.__all__))
    for name in zerosum.__all__:
        assert hasattr(zerosum, name), name


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in zerosum.__all__
        assert not hasattr(zerosum, name), name


def test_removed_fields_stay_removed():
    for cls, name in REMOVED_FIELDS.items():
        assert name not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_no_removed_knobs_in_signatures():
    exported = [getattr(zerosum, name) for name in zerosum.__all__]
    functions = [f for f in exported if inspect.isfunction(f)]
    assert len(functions) > 20
    for fn in functions + [maximize_each, extrema_dominated]:
        params = set(inspect.signature(fn).parameters)
        assert not params & REMOVED_PARAMETERS, fn.__name__


def test_bench_tracer_finds_every_hook(monkeypatch):
    # A renamed zerosum function would otherwise only go untraced, and the
    # benchmark's per-layer metrics would silently stop covering its layer.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(zerosum)
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.counts_pivots
    finally:
        tracer.uninstall()
